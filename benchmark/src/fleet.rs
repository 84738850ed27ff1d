//! The fleet workloads: `fleet-quiet` and `fleet-stimulated`.
//!
//! Untraced runs time whole `Fleet::new` + `Fleet::run_timed` samples,
//! each in its own process, until the run's time is used up. Traced
//! runs make two passes:
//!
//! 1. the fleet, driven one clocked `Fleet::advance_frame` call at a
//!    time, in lockstep with a shadow population built from public
//!    calls only (`System::builder_arc`, `workload::random_scenario`,
//!    `StreamVerifier::new`) with the fleet's cells, whose frame loop
//!    puts a clock around every system and verifier call;
//! 2. one untraced sample, the source of `FleetTimings`, the journal
//!    and the output checks.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use arfs_core::fleet::{Fleet, FleetConfig, FleetReport, StreamVerifier};
use arfs_core::scenario::{ScenarioAction, ScenarioEvent};
use arfs_core::scram::ScramMutation;
use arfs_core::spec::ReconfigSpec;
use arfs_core::system::System;
use arfs_core::workload::{self, WorkloadConfig};
use serde_json::json;

use crate::expected;
use crate::layers::{self, LayerValues};
use crate::stats::{self, fnv1a, percentile, Summary};
use crate::{sample_in_child, sample_until, Args, Metric, Outcome, Workload};

/// Cells per fleet.
pub const CELLS: usize = 10_000;
/// Frames every cell advances through.
pub const HORIZON: u64 = 120;
/// Journal one cell in this many (fleet-stimulated).
const JOURNAL_SAMPLE: usize = 100;
/// Frames between a journaled cell's shipments to the writer.
const JOURNAL_FLUSH_FRAMES: u64 = 16;
/// Per-cell flight-ring capacity, in events.
const RING_CAPACITY: usize = 256;
/// The cell that carries a planted SCRAM defect.
const PLANT_CELL: usize = 0;

/// The scenario distribution of fleet-stimulated.
fn scenarios() -> WorkloadConfig {
    WorkloadConfig {
        horizon: HORIZON,
        mean_gap: 12,
        cooldown: 20,
    }
}

fn config(stimulated: bool, seed: u64, plant: Option<ScramMutation>) -> FleetConfig {
    FleetConfig {
        systems: CELLS,
        shards: 0,
        threads: 1,
        seed,
        horizon: HORIZON,
        journal_sample: if stimulated { JOURNAL_SAMPLE } else { 0 },
        journal_flush_frames: JOURNAL_FLUSH_FRAMES,
        ring_capacity: RING_CAPACITY,
        mutate_system: plant.map(|m| (PLANT_CELL, m)),
        workload: stimulated.then(scenarios),
        chaos: None,
    }
}

/// The simulated outcome of a fleet run: everything an optimisation
/// must leave unchanged. The fast/full split is deliberately absent.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FleetOutcome {
    pub reconfigs: u64,
    pub restricted_frames: u64,
    /// The reconfiguration-latency histogram, rendered canonically.
    pub latency: String,
    pub journal_events: u64,
    /// FNV-1a digest of the sampled cells' binary journal.
    pub journal_digest: u64,
}

impl FleetOutcome {
    fn of(report: &FleetReport) -> FleetOutcome {
        let latency = report
            .metrics
            .histograms
            .get("fleet.reconfig_latency_cycles")
            .map(|h| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|b| format!("{}-{}:{}", b.lo, b.hi, b.count))
                    .collect();
                format!(
                    "n={} sum={} min={} max={} [{}]",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    buckets.join(" ")
                )
            })
            .unwrap_or_default();
        FleetOutcome {
            reconfigs: report.reconfigs,
            restricted_frames: report.restricted_frames,
            latency,
            journal_events: report.journal_events,
            journal_digest: fnv1a(report.journal.as_slice()),
        }
    }
}

/// Fleets built per sample; `setup_s` is the median build.
const SETUPS_PER_SAMPLE: usize = 3;

/// One sample: `SETUPS_PER_SAMPLE` timed `Fleet::new` calls, then one
/// timed `Fleet::run_timed` of the last fleet built, reduced to what the
/// output checks and the metrics need.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Sample {
    setup_s: Vec<f64>,
    /// The whole `run_timed` call.
    run_s: f64,
    frame_loop_s: f64,
    journal_finish_s: f64,
    aggregate_s: f64,
    total_frames: u64,
    fast_frames: u64,
    full_frames: u64,
    violating_cells: u64,
    journal_bytes: u64,
    outcome: FleetOutcome,
    peak_rss_bytes: u64,
}

fn sample(spec: &Arc<ReconfigSpec>, config: &FleetConfig) -> Result<Sample, String> {
    let mut setup_s = Vec::with_capacity(SETUPS_PER_SAMPLE);
    let mut fleet = None;
    for _ in 0..SETUPS_PER_SAMPLE {
        // Drop the previous build first, so at most one fleet is live.
        drop(fleet.take());
        let started = Instant::now();
        fleet = Some(Fleet::new(Arc::clone(spec), config.clone()).map_err(|e| e.to_string())?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.expect("at least one build");
    let started = Instant::now();
    let (report, timings) = fleet.run_timed().map_err(|e| e.to_string())?;
    let run_s = started.elapsed().as_secs_f64();
    let violating: BTreeSet<usize> = report.violations.iter().map(|v| v.system).collect();
    Ok(Sample {
        setup_s,
        run_s,
        frame_loop_s: timings.frame_loop_secs,
        journal_finish_s: timings.journal_finish_secs,
        aggregate_s: timings.aggregate_secs,
        total_frames: report.total_frames,
        fast_frames: report.fast_frames,
        full_frames: report.full_frames,
        violating_cells: violating.len() as u64,
        journal_bytes: report.journal.len() as u64,
        outcome: FleetOutcome::of(&report),
        peak_rss_bytes: stats::peak_rss_bytes(),
    })
}

/// Output checks over every sample of a run.
fn check_samples(
    workload: Workload,
    seed: u64,
    planted: bool,
    samples: &[Sample],
    out: &mut Outcome,
) {
    let cell_frames = CELLS as u64 * HORIZON;
    for s in samples {
        out.attempted += CELLS as u64;
        out.violated += s.violating_cells;
    }
    out.check(
        samples
            .iter()
            .all(|s| s.total_frames == cell_frames && s.fast_frames + s.full_frames == cell_frames),
        format!("fast + full frames = cells x horizon = {cell_frames} in every sample"),
    );
    let first = &samples[0].outcome;
    out.check(
        samples.iter().all(|s| s.outcome == *first),
        format!("all {} samples simulate the same outcome", samples.len()),
    );
    let stimulated = workload == Workload::FleetStimulated;
    if stimulated {
        out.check(
            first.reconfigs > 0 && first.journal_events > 0,
            format!(
                "stimuli reconfigure cells ({} reconfigurations) and the journal records them ({} events)",
                first.reconfigs, first.journal_events
            ),
        );
    }
    // A planted defect changes the outcome on purpose; the violation
    // count is what must catch it.
    if let Some(recorded) = expected::fleet(stimulated, seed).filter(|_| !planted) {
        let matches = *first == recorded;
        out.check(
            matches,
            if matches {
                format!("outcome matches the recording for seed {seed}")
            } else {
                format!("outcome differs from the recording for seed {seed}: got {first:?}, recorded {recorded:?}")
            },
        );
    }
    out.detail.push((
        "outcome",
        json!({
            "reconfigs": first.reconfigs,
            "restricted_frames": first.restricted_frames,
            "reconfig_latency": first.latency.clone(),
            "journal_events": first.journal_events,
            "journal_digest": format!("{:016x}", first.journal_digest),
        }),
    ));
}

fn planted_mutation(args: &Args) -> Result<Option<ScramMutation>, String> {
    match (args.workload, args.plant.as_deref()) {
        (_, None) => Ok(None),
        (Workload::FleetStimulated, Some("skip-init")) => Ok(Some(ScramMutation::SkipInitPhase)),
        (workload, Some(other)) => Err(format!(
            "the fleet plants only `skip-init`, on fleet-stimulated (got `{other}` on {})",
            workload.name()
        )),
    }
}

fn setup(args: &Args) -> Result<(Arc<ReconfigSpec>, FleetConfig), String> {
    let spec = Arc::new(arfs_avionics::avionics_spec().map_err(|e| e.to_string())?);
    let stimulated = args.workload == Workload::FleetStimulated;
    let config = config(stimulated, args.seed, planted_mutation(args)?);
    Ok((spec, config))
}

/// Takes one untraced sample and renders its record (`--one-sample`).
pub fn one_sample(args: &Args) -> Result<String, String> {
    let (spec, config) = setup(args)?;
    Ok(serde_json::to_string_infallible(&sample(&spec, &config)?))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (spec, config) = setup(args)?;
    if args.trace {
        run_traced(args, &spec, &config)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let samples: Vec<Sample> = sample_until(args.seconds, || sample_in_child(args))?;
    let mut out = Outcome::default();
    check_samples(
        args.workload,
        args.seed,
        args.plant.is_some(),
        &samples,
        &mut out,
    );

    let per_sample = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let cell_frames = (CELLS as u64 * HORIZON) as f64;
    let setup_s: Vec<f64> = samples.iter().flat_map(|s| s.setup_s.clone()).collect();
    out.metrics = vec![
        Metric::median_of(
            "cell_frames_per_s",
            "1/s",
            &per_sample(&|s| cell_frames / s.run_s),
        ),
        Metric::median_of(
            "schedules_per_s",
            "1/s",
            &per_sample(&|s| CELLS as f64 / s.run_s),
        ),
        Metric::median_of("setup_s", "s", &setup_s),
        Metric::median_of(
            "peak_rss_mb",
            "MB",
            &per_sample(&|s| s.peak_rss_bytes as f64 / 1e6),
        ),
    ];
    out.detail.push((
        "frame_loop_s",
        Summary::of(&per_sample(&|s| s.frame_loop_s)).to_json("s"),
    ));
    Ok(out)
}

/// One cell of the shadow population: the same parts a fleet cell
/// holds, assembled from public calls.
struct ShadowCell {
    system: System,
    verifier: StreamVerifier,
    events: Vec<ScenarioEvent>,
    next_event: usize,
    journaled: bool,
}

/// The fleet's per-cell seed derivation (a splitmix64 finalizer over
/// the master seed and the cell index), so shadow cells draw the same
/// scenarios as the fleet's cells.
fn cell_seed(master: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn build_shadow(spec: &Arc<ReconfigSpec>, config: &FleetConfig) -> Vec<ShadowCell> {
    (0..config.systems)
        .map(|id| {
            let seed = cell_seed(config.seed, id as u64);
            let journaled = config.journal_sample > 0 && id % config.journal_sample == 0;
            let mut builder = System::builder_arc(Arc::clone(spec))
                .observability(journaled)
                .flight_recorder(config.ring_capacity);
            if let Some((target, mutation)) = &config.mutate_system {
                if *target == id {
                    builder = builder.mutation(mutation.clone());
                }
            }
            let mut system = builder.build().expect("the avionics spec builds");
            system.set_trace_recording(false);
            let mut events = match &config.workload {
                Some(wl) => workload::random_scenario(spec, wl, seed).events().to_vec(),
                None => Vec::new(),
            };
            events.sort_by_key(|e| e.frame);
            ShadowCell {
                system,
                verifier: StreamVerifier::new(Arc::clone(spec)),
                events,
                next_event: 0,
                journaled,
            }
        })
        .collect()
}

/// Per-call clock readings from the shadow population's frame loop.
#[derive(Default)]
struct ShadowTrace {
    fast_ns: Vec<u64>,
    full_ns: Vec<u64>,
    full_obs_ns: Vec<u64>,
    observe_full_ns: Vec<u64>,
    system_ns: u64,
    verifier_ns: u64,
    /// Spans summed into `system_ns` and `verifier_ns`.
    spans: u64,
    windows: u64,
    /// Wall time of the shadow's frame loop.
    wall_ns: u64,
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).expect("a span shorter than 584 years")
}

impl ShadowTrace {
    /// Advances every shadow cell through `frame`, as `Fleet` advances
    /// its cells, with a clock around each system and verifier call.
    fn frame(&mut self, cells: &mut [ShadowCell], frame: u64) {
        for cell in cells.iter_mut() {
            let t0 = Instant::now();
            while let Some(event) = cell.events.get(cell.next_event) {
                if event.frame != frame {
                    break;
                }
                match &event.action {
                    ScenarioAction::SetEnv { factor, value } => {
                        let _ = cell.system.set_env(factor, value);
                    }
                    ScenarioAction::FailProcessor(p) => cell.system.fail_processor(*p),
                }
                cell.next_event += 1;
            }
            let window_open = cell.verifier.needs_full_state();
            let fast = if window_open {
                cell.system.run_frame();
                false
            } else {
                cell.system.advance_frame()
            };
            let t1 = Instant::now();
            let frame_ns = nanos(t0, t1);
            self.system_ns += frame_ns;
            self.spans += 2;
            if fast {
                self.fast_ns.push(frame_ns);
                cell.verifier.observe_fast();
                self.verifier_ns += nanos(t1, Instant::now());
            } else {
                if cell.journaled {
                    self.full_obs_ns.push(frame_ns);
                } else {
                    self.full_ns.push(frame_ns);
                }
                let state = cell
                    .system
                    .last_state()
                    .expect("a full frame records its state");
                cell.verifier.observe_full(state);
                let observe_ns = nanos(t1, Instant::now());
                self.observe_full_ns.push(observe_ns);
                self.verifier_ns += observe_ns;
                if window_open && !cell.verifier.needs_full_state() {
                    self.windows += 1;
                }
            }
        }
    }

    /// Closes every verifier at the horizon and sorts the readings.
    fn finish(&mut self, cells: &mut [ShadowCell]) {
        for cell in cells.iter_mut() {
            let window_open = cell.verifier.needs_full_state();
            let t0 = Instant::now();
            cell.verifier.finish();
            self.verifier_ns += nanos(t0, Instant::now());
            self.spans += 1;
            self.windows += u64::from(window_open);
        }
        for v in [
            &mut self.fast_ns,
            &mut self.full_ns,
            &mut self.full_obs_ns,
            &mut self.observe_full_ns,
        ] {
            v.sort_unstable();
        }
    }
}

fn run_traced(
    args: &Args,
    spec: &Arc<ReconfigSpec>,
    config: &FleetConfig,
) -> Result<Outcome, String> {
    let cell_frames = (CELLS as u64 * HORIZON) as f64;
    let stimulated = args.workload == Workload::FleetStimulated;

    // Pass 1: the fleet and the shadow population advance in lockstep,
    // one frame of each in turn, so host-speed drift touches both alike.
    // The fleet gets one clock per `advance_frame` call, the shadow one
    // per layer call. These are the process's first large allocations,
    // so the growth of its peak resident set is theirs.
    let rss_start = stats::peak_rss_bytes();
    let mut fleet = Fleet::new(Arc::clone(spec), config.clone()).map_err(|e| e.to_string())?;
    let rss_fleet = stats::peak_rss_bytes();
    let mut cells = build_shadow(spec, config);
    let rss_built = stats::peak_rss_bytes();
    let mut shadow = ShadowTrace::default();
    let mut frame_ns: Vec<u64> = Vec::with_capacity(HORIZON as usize);
    for frame in 0..HORIZON {
        let t0 = Instant::now();
        fleet.advance_frame(frame);
        let t1 = Instant::now();
        frame_ns.push(nanos(t0, t1));
        shadow.frame(&mut cells, frame);
        shadow.wall_ns += nanos(t1, Instant::now());
    }
    shadow.finish(&mut cells);
    let rss_ran = stats::peak_rss_bytes();
    drop(fleet);
    drop(cells);
    let fleet_loop_ns: u64 = frame_ns.iter().sum();
    frame_ns.sort_unstable();

    // Pass 2: one untraced sample: `FleetTimings`, the journal and the
    // output checks.
    let reference = sample(spec, config)?;
    let mut out = Outcome::default();
    check_samples(
        args.workload,
        args.seed,
        args.plant.is_some(),
        std::slice::from_ref(&reference),
        &mut out,
    );
    let r = &reference;
    let shadow_fast = shadow.fast_ns.len() as u64;
    let shadow_full = (shadow.full_ns.len() + shadow.full_obs_ns.len()) as u64;
    out.check(
        shadow_fast + shadow_full == CELLS as u64 * HORIZON,
        "shadow population: fast + full frames = cells x horizon",
    );

    // Each span carries about one clock read on top of the work it
    // times; take that out of the sums set against untraced time.
    let clock_ns = layers::clock_ns();
    let layer_ns = (shadow.system_ns + shadow.verifier_ns) as f64 - shadow.spans as f64 * clock_ns;
    let mut v = LayerValues::default();
    v.set("fleet.frame_ms.p50", percentile(&frame_ns, 50) / 1e6);
    v.set("fleet.frame_ms.p90", percentile(&frame_ns, 90) / 1e6);
    v.set(
        "fleet.overhead_ns_per_cell_frame",
        (fleet_loop_ns as f64 - layer_ns) / cell_frames,
    );
    v.set("fleet.journal_finish_s", r.journal_finish_s);
    v.set("fleet.aggregate_s", r.aggregate_s);
    v.set(
        "fleet.setup_ns_per_cell",
        Summary::of(&r.setup_s).median * 1e9 / CELLS as f64,
    );
    v.set_percentile("system.fast_frame_ns.p50", &shadow.fast_ns, 50);
    v.set_percentile("system.fast_frame_ns.p90", &shadow.fast_ns, 90);
    v.set("system.fast_frames", shadow_fast as f64);
    v.set_percentile("system.full_frame_ns.p50", &shadow.full_ns, 50);
    v.set_percentile("system.full_frame_ns.p90", &shadow.full_ns, 90);
    v.set("system.full_frames", shadow_full as f64);
    v.set_percentile("system.full_frame_obs_ns.p50", &shadow.full_obs_ns, 50);
    v.set("system.fast_ratio", shadow_fast as f64 / cell_frames);
    v.set(
        "system.rss_bytes_per_cell",
        rss_fleet.saturating_sub(rss_start) as f64 / CELLS as f64,
    );
    // Both populations grew during pass 1, by the same per-frame rule.
    if r.full_frames > 0 {
        v.set(
            "system.rss_bytes_per_full_frame",
            rss_ran.saturating_sub(rss_built) as f64 / (r.full_frames + shadow_full) as f64,
        );
    }
    v.set("system.fork_ns", layers::fork_ns(spec));
    v.set_percentile("verifier.observe_full_ns.p50", &shadow.observe_full_ns, 50);
    v.set_percentile("verifier.observe_full_ns.p90", &shadow.observe_full_ns, 90);
    if stimulated {
        v.set("verifier.windows", shadow.windows as f64);
        v.set("obs.journal_events", r.outcome.journal_events as f64);
        v.set("obs.journal_bytes", r.journal_bytes as f64);
    }
    v.set("lint.certificate_ms", layers::certificate_ms(spec));
    v.set(
        "trace.overhead_ratio",
        shadow.wall_ns as f64 / fleet_loop_ns as f64,
    );
    v.set("trace.clock_ns", clock_ns);
    // End to end: pass 1's frame loop plus pass 2's journal drain and
    // aggregation; the layers are timed in the same windows.
    let end_to_end = fleet_loop_ns as f64 / 1e9 + r.journal_finish_s + r.aggregate_s;
    let attributed = layer_ns / 1e9 + r.journal_finish_s + r.aggregate_s;
    v.set("unattributed_share", (end_to_end - attributed) / end_to_end);

    let (metrics, not_exercised) = v.into_metrics();
    out.metrics = metrics;
    out.detail.extend([
        ("not_exercised", not_exercised),
        (
            "untraced",
            json!({
                "run_s": r.run_s,
                "frame_loop_s": r.frame_loop_s,
                "fast_frames": r.fast_frames,
                "full_frames": r.full_frames,
            }),
        ),
        (
            "traced",
            json!({
                "fleet_loop_s": fleet_loop_ns as f64 / 1e9,
                "shadow_wall_s": shadow.wall_ns as f64 / 1e9,
                "shadow_system_s": shadow.system_ns as f64 / 1e9,
                "shadow_verifier_s": shadow.verifier_ns as f64 / 1e9,
                "shadow_fast_frames": shadow_fast,
                "shadow_full_frames": shadow_full,
                "shadow_matches_fleet_split": shadow_fast == r.fast_frames,
            }),
        ),
        (
            "unattributed_hides",
            json!(
                "fleet dispatch over shards and cells, per-frame metric folding, \
                   journal batching on the frame loop; not split: the SCRAM, bus, RTOS \
                   and stable-storage parts of run_frame, and the eligibility test \
                   inside advance_frame (both need spans inside the program)"
            ),
        ),
    ]);
    Ok(out)
}
