//! Experiment: fleet-scale simulation throughput — 10³/10⁴/10⁵
//! independent avionics systems advanced in lockstep frames with
//! streaming SP1–SP4 verification, sampled frame-batched journaling, and
//! the allocation-free steady-state fast path.
//!
//! Five sweeps:
//!
//! 1. **Fleet size** — 10³ and 10⁴ systems (plus 10⁵ in the full run)
//!    under the default random workload, five runs each, reporting
//!    median [min, max] frames/sec, reconfigurations, and the streaming
//!    verification verdict. Every violation would carry its seed and schedule for
//!    replay; a clean fleet is the expected outcome. Throughput divides
//!    by the **frame-loop** seconds only ([`Fleet::run_timed`]); the
//!    journal-writer drain and aggregation get their own columns in the
//!    artifact instead of silently deflating frames/sec.
//! 2. **Thread scaling** — the 10⁴ fleet at 1/2/4/8 workers, reporting
//!    parallel efficiency against the single-threaded run. The host's
//!    core count is recorded in the artifact: on a single-core container
//!    the extra workers only add barrier overhead and the honest
//!    efficiency numbers show exactly that.
//! 3. **Observability overhead** — the 10⁴ fleet with everything off
//!    (no rings, no journal sampling) versus the sweep-1 fully
//!    instrumented runs, in five pairs that alternate which side runs
//!    first. An instrumented frame may take at most **10%** longer.
//! 4. **Forced-violation triage** — one system of the 10⁴ fleet is
//!    seeded with a skip-Init SCRAM defect; the streaming verifier
//!    must flag it and its flight ring must drain into a
//!    `results/triage_forced.json` bundle that `arfs-trace fleet
//!    triage` renders. The sampled binary journal of the sweep-1 10⁴
//!    run lands next to it as `results/exp_fleet.journal.bin`.
//! 5. **Allocation probe** — this binary installs a counting global
//!    allocator and measures heap allocations per steady-state frame on
//!    a warmed-up quiet fleet *with flight rings enabled*. The fast
//!    path's contract is **zero**.
//!
//! Usage: `exp_fleet [--smoke]` — `--smoke` drops the 10⁵ case and
//! trims the thread sweep (the CI entry point). Exits 1 on an
//! unexpected violation, a missed forced violation or a non-zero
//! allocation count; exits 3 when the observability gate fires or a
//! sweep-1 case's median frames/sec (five runs) regresses against the
//! last `results/BENCH_fleet.json` from the same core count and mode.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arfs_avionics::avionics_spec;
use arfs_bench::{
    banner, recorded, Better, ExitCode, Run, Samples, TextTable, RECORDING_FLOOR, SAMPLES,
};
use arfs_core::fleet::{Fleet, FleetConfig, FleetReport, FleetTimings};
use arfs_core::scram::ScramMutation;
use arfs_core::spec::ReconfigSpec;

/// Counts every allocation and reallocation; the per-frame delta on a
/// warmed-up quiet fleet is the number the fast path promises is zero.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MASTER_SEED: u64 = 0xF1EE7;

/// Full observability (rings + sampled journaling + metrics) may make a
/// frame at most this fraction slower than with observability off
/// before the overhead gate fails the run with exit code 3.
const OBS_OVERHEAD_BUDGET: f64 = 0.10;

/// The fleet size whose instrumented runs double as the obs-on side of
/// the observability pairs.
const OBS_SYSTEMS: usize = 10_000;

/// The system seeded with the SCRAM defect in the forced-violation
/// triage sweep (arbitrary mid-fleet id; determinism pins its seed).
const MUTATED_SYSTEM: usize = 4_242;

fn fleet_config(systems: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        systems,
        threads,
        seed: MASTER_SEED,
        // Journal roughly 100 systems regardless of fleet size.
        journal_sample: (systems / 100).max(1),
        ..FleetConfig::default()
    }
}

/// Repeated runs of one fleet configuration. The report is a pure
/// function of the configuration, so the last run's stands for all; the
/// timings are kept per run.
#[derive(Default)]
struct Sampled {
    report: Option<FleetReport>,
    timings: Vec<FleetTimings>,
}

impl Sampled {
    /// Runs `config` once more.
    fn run(&mut self, spec: &Arc<ReconfigSpec>, config: &FleetConfig) {
        let mut fleet = Fleet::new(Arc::clone(spec), config.clone()).expect("fleet builds");
        let (report, timings) = fleet.run_timed().expect("journal writer is healthy");
        self.report = Some(report);
        self.timings.push(timings);
    }

    fn report(&self) -> &FleetReport {
        self.report.as_ref().expect("at least one run")
    }

    /// One timing across the runs.
    fn timing(&self, field: impl Fn(&FleetTimings) -> f64) -> Samples {
        Samples(self.timings.iter().map(field).collect())
    }

    /// Throughput over the lockstep frame loop only; journal drain and
    /// aggregation are reported separately rather than deflating this.
    fn frames_per_sec(&self) -> Samples {
        let frames = self.report().total_frames as f64;
        self.timing(|t| frames / t.frame_loop_secs.max(1e-9))
    }
}

/// Measures heap allocations per steady-state frame: a quiet 256-system
/// fleet, warmed past any initial settling, advanced 64 more lockstep
/// frames under the counting allocator.
fn measure_allocs_per_frame(spec: &Arc<ReconfigSpec>) -> f64 {
    let systems = 256usize;
    let mut fleet = Fleet::new(
        Arc::clone(spec),
        FleetConfig {
            systems,
            workload: None,
            journal_sample: 0,
            ..fleet_config(systems, 1)
        },
    )
    .expect("fleet builds");
    for frame in 0..16u64 {
        fleet.advance_frame(frame);
    }
    let frames = 64u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    for frame in 16..16 + frames {
        fleet.advance_frame(frame);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before) as f64 / (frames * systems as u64) as f64
}

fn main() -> ExitCode {
    let mut run = Run::start("fleet-scale simulation");
    let (smoke, cores) = (run.smoke, run.cores);
    println!("host cores: {cores}");

    let spec = Arc::new(avionics_spec().expect("valid spec"));
    let baseline = run.baseline("BENCH_fleet.json");
    let threads = cores.clamp(1, 4);

    // Untimed warm-up: grow the allocator arena past a 10⁴-system
    // footprint (systems, rings, journals) so the timed sweeps measure
    // frame work, not first-touch page faults.
    {
        let config = FleetConfig {
            horizon: 8,
            ..fleet_config(10_000, threads)
        };
        Fleet::new(Arc::clone(&spec), config)
            .expect("fleet builds")
            .run()
            .expect("journal writer is healthy");
        println!("warm-up: 10k systems x 8 frames (untimed)");
    }

    // --- Sweep 1: fleet size, each case sampled and gated. ---
    let sizes = [
        (1_000, "fleet_1k"),
        (10_000, "fleet_10k"),
        (100_000, "fleet_100k"),
    ];

    let mut table = TextTable::new([
        "case",
        "systems",
        "frames",
        "fast %",
        "reconfigs",
        "violations",
        "secs",
        "frames/s median [min, max]",
    ]);
    let mut cases = Vec::new();
    let mut all_clean = true;
    let obs_off_config = FleetConfig {
        journal_sample: 0,
        ring_capacity: 0,
        ..fleet_config(OBS_SYSTEMS, threads)
    };
    let mut obs_off = Sampled::default();
    let mut obs_on = None;
    let mut sampled_journal = None;

    for &(systems, name) in &sizes[..if smoke { 2 } else { 3 }] {
        let config = fleet_config(systems, threads);
        let paired = systems == OBS_SYSTEMS;
        let mut case = Sampled::default();
        for round in 0..SAMPLES {
            // The observability pairs alternate which side runs first, so
            // neither always meets the warmer allocator and caches.
            let off_first = paired && round % 2 == 1;
            if off_first {
                obs_off.run(&spec, &obs_off_config);
            }
            case.run(&spec, &config);
            if paired && !off_first {
                obs_off.run(&spec, &obs_off_config);
            }
        }
        let report = case.report();
        all_clean &= report.is_clean();
        for v in report.violations.iter().take(3) {
            println!(
                "VIOLATION {name}: system {} seed {:#x} {} @{:?}: {}",
                v.system, v.seed, v.property, v.frame, v.detail
            );
        }
        let fps = case.frames_per_sec();
        let frame_loop = case.timing(|t| t.frame_loop_secs);
        table.row([
            name.to_string(),
            systems.to_string(),
            report.total_frames.to_string(),
            format!(
                "{:.1}",
                100.0 * report.fast_frames as f64 / report.total_frames.max(1) as f64
            ),
            report.reconfigs.to_string(),
            report.violations.len().to_string(),
            format!("{:.2}", frame_loop.median()),
            format!("{fps:.0}"),
        ]);
        let last_timings = case.timings.last().expect("at least one run");
        cases.push(serde_json::json!({
            "case": name,
            "systems": systems,
            "horizon": report.horizon,
            "threads": threads,
            "frames_total": report.total_frames,
            "frames_fast": report.fast_frames,
            "frames_full": report.full_frames,
            "reconfigs": report.reconfigs,
            "restricted_frames": report.restricted_frames,
            "violations": report.violations.len(),
            "journal_events": report.journal_events,
            "journal_bytes": report.journal.len(),
            "frame_loop_secs": frame_loop,
            "journal_finish_secs": case.timing(|t| t.journal_finish_secs),
            "aggregate_secs": case.timing(|t| t.aggregate_secs),
            "frames_per_sec": fps,
            "metrics": report.metrics,
            "rollup": report.rollup_metrics(last_timings, cores).snapshot(),
        }));
        let prev = recorded(baseline.as_ref(), &["cases", name, "frames_per_sec"]);
        run.gate(
            &format!("{name} frames/s"),
            Better::Higher,
            RECORDING_FLOOR,
            prev.as_ref(),
            &fps,
        );
        if paired {
            sampled_journal = Some(report.journal.as_slice().to_vec());
            obs_on = Some(fps);
        }
    }
    println!("\n{table}");

    // --- Sweep 2: thread scaling at 10⁴ systems. ---
    banner("thread scaling (10^4 systems)");
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut scaling_table =
        TextTable::new(["threads", "secs", "frames/s", "speedup", "efficiency"]);
    let mut scaling = Vec::new();
    let mut base_secs = None;
    for &threads in thread_counts {
        let mut result = Sampled::default();
        result.run(&spec, &fleet_config(10_000, threads));
        all_clean &= result.report().is_clean();
        let fps = result.frames_per_sec();
        let secs = result.timing(|t| t.frame_loop_secs);
        let base = *base_secs.get_or_insert(secs.median());
        let speedup = base / secs.median().max(1e-9);
        scaling_table.row([
            threads.to_string(),
            format!("{:.2}", secs.median()),
            format!("{:.0}", fps.median()),
            format!("{speedup:.2}x"),
            format!("{:.0}%", 100.0 * speedup / threads as f64),
        ]);
        scaling.push(serde_json::json!({
            "threads": threads,
            "secs": secs,
            "frames_per_sec": fps,
            "speedup": speedup,
            "efficiency": speedup / threads as f64,
        }));
    }
    println!("{scaling_table}");
    if cores < 8 {
        println!("note: host has {cores} core(s); speedup is bounded by physical parallelism");
    }

    // --- Sweep 3: observability overhead at 10⁴ systems. ---
    // The obs-on side is sweep 1's instrumented 10⁴ runs; each was
    // paired back to back with an obs-off run.
    banner("observability overhead (10^4 systems)");
    all_clean &= obs_off.report().is_clean();
    let fps_off = obs_off.frames_per_sec();
    let fps_on = obs_on.expect("the 10^4 case always runs");
    println!(
        "obs off: {:.0} frames/s | obs on (rings + journal + metrics): {:.0} frames/s | \
         medians of {SAMPLES} alternating pairs; an instrumented frame takes {:.1}% longer \
         (budget {:.0}%)",
        fps_off.median(),
        fps_on.median(),
        100.0 * (fps_off.median() / fps_on.median().max(1e-9) - 1.0),
        100.0 * OBS_OVERHEAD_BUDGET
    );
    run.gate(
        "observability overhead (obs-on vs obs-off frames/s)",
        Better::Higher,
        OBS_OVERHEAD_BUDGET,
        Some(&fps_off),
        &fps_on,
    );
    let obs = serde_json::json!({
        "systems": OBS_SYSTEMS,
        "threads": threads,
        "frames_per_sec_obs_off": fps_off,
        "frames_per_sec_obs_on": fps_on,
    });

    // --- Sweep 4: forced-violation triage at 10⁴ systems. ---
    banner("forced-violation triage (10^4 systems)");
    let mut forced = Sampled::default();
    forced.run(
        &spec,
        &FleetConfig {
            mutate_system: Some((MUTATED_SYSTEM, ScramMutation::SkipInitPhase)),
            ..fleet_config(10_000, threads)
        },
    );
    let forced = forced.report();
    let caught = forced.violations.iter().any(|v| v.system == MUTATED_SYSTEM);
    let bundle = forced.bundles.iter().find(|b| {
        b.system == MUTATED_SYSTEM && b.trigger == arfs_core::obs::triage::trigger::STREAM_VERIFIER
    });
    let bundle_renderable =
        bundle.is_some_and(|b| !b.ring.is_empty() && !b.causal_chain.is_empty());
    let mut bundle_path = None;
    if let Some(bundle) = bundle {
        let path = arfs_bench::results_dir().join("triage_forced.json");
        std::fs::write(&path, bundle.to_json()).expect("results dir is writable");
        println!(
            "triage bundle: system {} seed {:#x} frame {:?} -> {}",
            bundle.system,
            bundle.seed,
            bundle.frame,
            path.display()
        );
        bundle_path = Some(path);
    }
    run.verdict(
        "seeded skip-Init defect caught by the streaming verifier",
        caught,
    );
    run.verdict(
        "violation drained into a renderable triage bundle (ring + causal chain)",
        bundle_renderable,
    );
    let forced_json = serde_json::json!({
        "systems": 10_000,
        "mutated_system": MUTATED_SYSTEM,
        "mutation": "skip-init-phase",
        "violations": forced.violations.len(),
        "caught": caught,
        "bundle_renderable": bundle_renderable,
        "bundle": bundle_path.as_ref().map(|p| p.display().to_string()),
    });

    // The sampled binary journal of the instrumented 10⁴ run, for
    // `arfs-trace fleet top` / `summarize` / `decode` downstream.
    let journal_path = arfs_bench::results_dir().join("exp_fleet.journal.bin");
    std::fs::write(
        &journal_path,
        sampled_journal.expect("fleet_10k always runs"),
    )
    .expect("results dir is writable");
    println!("sampled journal: {}", journal_path.display());

    // --- Sweep 5: allocation probe. ---
    banner("steady-state allocation probe");
    let allocs_per_frame = measure_allocs_per_frame(&spec);
    run.verdict(
        &format!("steady-state frames allocation-free ({allocs_per_frame} allocs/frame)"),
        allocs_per_frame == 0.0,
    );

    run.verdict(
        "streaming SP1-SP4 verification clean on every fleet",
        all_clean,
    );

    run.finish(
        "BENCH_fleet.json",
        serde_json::json!({
            "allocs_per_frame": allocs_per_frame,
            "cases": cases,
            "scaling": scaling,
            "obs": obs,
            "forced_triage": forced_json,
        }),
    )
}
