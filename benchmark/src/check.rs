//! The `check-extended` workload: an exhaustive POR model check of the
//! extended UAV spec. It is exhaustive, so it ignores `--seed`.

use std::sync::Arc;
use std::time::Instant;

use arfs_avionics::extended::extended_uav_spec;
use arfs_avionics::{avionics_spec, known_bad_mutations, KNOWN_BAD_HORIZON};
use arfs_core::lint::IndependenceCertificate;
use arfs_core::model::{ModelCheckReport, ModelChecker};
use arfs_core::scenario::ScenarioAction;
use arfs_core::scram::ScramMutation;
use arfs_core::spec::ReconfigSpec;
use arfs_core::system::System;
use arfs_core::workload::{self, WorkloadConfig};
use serde_json::json;

use crate::expected;
use crate::layers::{self, LayerValues};
use crate::stats;
use crate::{sample_in_child, sample_until, Args, Metric, Outcome};

/// Frames per schedule.
const HORIZON: u64 = 40;
/// Environment changes per schedule, at most.
const MAX_EVENTS: usize = 3;
/// Work-stealing walk workers.
const WORKERS: usize = 2;
/// Checkers built per sample; `setup_s` is the median build.
const SETUPS_PER_SAMPLE: usize = 25;

/// The checker under test: the workload's, or one carrying a planted
/// known-bad SCRAM defect at the bounds the defect fixtures are proven
/// caught at (`avionics_spec()`, `KNOWN_BAD_HORIZON` frames, one event).
struct Plan {
    spec: ReconfigSpec,
    horizon: u64,
    max_events: usize,
    mutation: Option<ScramMutation>,
}

impl Plan {
    fn checker(&self) -> ModelChecker {
        self.with_mutation(
            ModelChecker::new(self.spec.clone(), self.horizon, self.max_events).with_por(),
        )
    }

    fn with_mutation(&self, checker: ModelChecker) -> ModelChecker {
        match &self.mutation {
            Some(m) => checker.with_mutation(m.clone()),
            None => checker,
        }
    }
}

fn plan(args: &Args) -> Result<Plan, String> {
    match args.plant.as_deref() {
        None => Ok(Plan {
            spec: extended_uav_spec().map_err(|e| e.to_string())?,
            horizon: HORIZON,
            max_events: MAX_EVENTS,
            mutation: None,
        }),
        Some(slug) => {
            let (_, mutation) = known_bad_mutations()
                .into_iter()
                .find(|(s, _)| *s == slug)
                .ok_or_else(|| {
                    let known: Vec<&str> = known_bad_mutations().iter().map(|(s, _)| *s).collect();
                    format!("unknown defect `{slug}`; known: {}", known.join(", "))
                })?;
            Ok(Plan {
                spec: avionics_spec().map_err(|e| e.to_string())?,
                horizon: KNOWN_BAD_HORIZON,
                max_events: 1,
                mutation: Some(mutation),
            })
        }
    }
}

/// One sample: `SETUPS_PER_SAMPLE` timed checker builds, then one
/// timed walk of the last one built, reduced to what the output checks
/// and the metrics need.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Sample {
    setup_s: Vec<f64>,
    run_s: f64,
    /// `total_schedule_count()` of the checker.
    total: u64,
    cases_run: u64,
    cases_elided: u64,
    cases_merged: u64,
    count_overflowed: bool,
    failures: u64,
    peak_rss_bytes: u64,
}

impl Sample {
    fn of(setup_s: Vec<f64>, run_s: f64, total: usize, report: &ModelCheckReport) -> Sample {
        Sample {
            setup_s,
            run_s,
            total: total as u64,
            cases_run: report.cases_run as u64,
            cases_elided: report.cases_elided as u64,
            cases_merged: report.cases_merged as u64,
            count_overflowed: report.count_overflowed,
            failures: report.failures.len() as u64,
            peak_rss_bytes: stats::peak_rss_bytes(),
        }
    }
}

fn sample(plan: &Plan) -> Sample {
    let mut setup_s = Vec::with_capacity(SETUPS_PER_SAMPLE);
    let mut checker = None;
    for _ in 0..SETUPS_PER_SAMPLE {
        let started = Instant::now();
        let built = plan.checker();
        setup_s.push(started.elapsed().as_secs_f64());
        checker = Some(built);
    }
    let checker = checker.expect("at least one build");
    let started = Instant::now();
    let report = checker.run_parallel(WORKERS);
    let run_s = started.elapsed().as_secs_f64();
    Sample::of(setup_s, run_s, checker.total_schedule_count(), &report)
}

/// Output checks over every sample of a run.
fn check_samples(plan: &Plan, samples: &[Sample], out: &mut Outcome) {
    for s in samples {
        out.attempted += s.cases_run;
        out.violated += s.failures;
    }
    out.check(
        samples.iter().all(|s| {
            !s.count_overflowed && s.cases_run + s.cases_elided + s.cases_merged == s.total
        }),
        "run + elided + merged = total_schedule_count in every sample",
    );
    let first = &samples[0];
    out.check(
        samples
            .iter()
            .all(|s| s.total == first.total && (s.failures == 0) == (first.failures == 0)),
        format!("all {} samples reach the same verdict", samples.len()),
    );
    if plan.mutation.is_none() {
        out.check(
            first.total == expected::CHECK_EXTENDED_SCHEDULES,
            format!(
                "the bounded space holds {} schedules, recorded {}",
                first.total,
                expected::CHECK_EXTENDED_SCHEDULES
            ),
        );
    }
}

/// Takes one untraced sample and renders its record (`--one-sample`).
pub fn one_sample(args: &Args) -> Result<String, String> {
    Ok(serde_json::to_string_infallible(&sample(&plan(args)?)))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = plan(args)?;
    if args.trace {
        Ok(run_traced(&plan))
    } else {
        run_untraced(args, &plan)
    }
}

fn run_untraced(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let samples: Vec<Sample> = sample_until(args.seconds, || sample_in_child(args))?;
    let mut out = Outcome::default();
    check_samples(plan, &samples, &mut out);

    let per_sample = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let horizon = plan.horizon as f64;
    let setup_s: Vec<f64> = samples.iter().flat_map(|s| s.setup_s.clone()).collect();
    out.metrics = vec![
        Metric::median_of(
            "cell_frames_per_s",
            "1/s",
            &per_sample(&|s| s.total as f64 * horizon / s.run_s),
        ),
        Metric::median_of(
            "schedules_per_s",
            "1/s",
            &per_sample(&|s| s.total as f64 / s.run_s),
        ),
        Metric::median_of("setup_s", "s", &setup_s),
        Metric::median_of(
            "peak_rss_mb",
            "MB",
            &per_sample(&|s| s.peak_rss_bytes as f64 / 1e6),
        ),
    ];
    Ok(out)
}

/// `System::run_frame` as the checker drives it (trace recording on,
/// observability off) over random scenarios of the spec, one clock per
/// frame; sorted ns.
fn full_frame_ns(spec: &Arc<ReconfigSpec>, horizon: u64) -> Vec<u64> {
    const SYSTEMS: u64 = 100;
    let scenarios = WorkloadConfig {
        horizon,
        mean_gap: 8,
        cooldown: 10,
    };
    let mut ns = Vec::with_capacity((SYSTEMS * horizon) as usize);
    for seed in 0..SYSTEMS {
        let mut system = System::builder_arc(Arc::clone(spec))
            .observability(false)
            .build()
            .expect("the extended spec builds");
        let scenario = workload::random_scenario(spec, &scenarios, seed);
        let mut events = scenario.events().iter().peekable();
        for frame in 0..horizon {
            while let Some(event) = events.next_if(|e| e.frame == frame) {
                if let ScenarioAction::SetEnv { factor, value } = &event.action {
                    system
                        .set_env(factor, value)
                        .expect("generated factors are declared");
                }
            }
            let started = Instant::now();
            system.run_frame();
            ns.push(u64::try_from(started.elapsed().as_nanos()).expect("a short frame"));
        }
    }
    ns.sort_unstable();
    ns
}

fn run_traced(plan: &Plan) -> Outcome {
    // The untraced reference run.
    let reference = sample(plan);

    // The traced run: the certificate build and the walk each clocked.
    let started = Instant::now();
    let certificate = IndependenceCertificate::build(&plan.spec);
    let certificate_s = started.elapsed().as_secs_f64();
    let checker = plan.with_mutation(
        ModelChecker::new(plan.spec.clone(), plan.horizon, plan.max_events)
            .with_certificate(certificate)
            .expect("a certificate built from the spec matches it"),
    );
    let total = checker.total_schedule_count();
    let started = Instant::now();
    let report = checker.run_parallel(WORKERS);
    let run_s = started.elapsed().as_secs_f64();

    let mut out = Outcome::default();
    let traced = Sample::of(vec![certificate_s], run_s, total, &report);
    let (reference_s, reference_total) = (reference.run_s, reference.total);
    check_samples(plan, &[reference, traced], &mut out);

    let counters = &report.metrics.counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let explored = report.cases_run.max(1) as f64;
    let steals: u64 = counters
        .iter()
        .filter(|(name, _)| name.starts_with("walk.worker.") && name.ends_with(".steals"))
        .map(|(_, v)| v)
        .sum();
    let span_ns = counter("walk.span.fork_ns")
        + counter("walk.span.advance_ns")
        + counter("walk.span.check_ns");

    let spec = Arc::new(plan.spec.clone());
    let frames = full_frame_ns(&spec, plan.horizon);
    let mut v = LayerValues::default();
    v.set_percentile("system.full_frame_ns.p50", &frames, 50);
    v.set_percentile("system.full_frame_ns.p90", &frames, 90);
    v.set("system.full_frames", report.frames_simulated as f64);
    v.set("system.fork_ns", layers::fork_ns(&spec));
    v.set("model.cases_run", report.cases_run as f64);
    v.set("model.cases_elided", report.cases_elided as f64);
    v.set("model.cases_merged", report.cases_merged as f64);
    v.set(
        "model.explored_ratio",
        report.cases_run as f64 / total.max(1) as f64,
    );
    v.set(
        "model.frames_per_schedule",
        report.frames_simulated as f64 / total.max(1) as f64,
    );
    v.set(
        "model.fork_ns",
        counter("walk.span.fork_ns") as f64 / explored,
    );
    v.set(
        "model.advance_ns",
        counter("walk.span.advance_ns") as f64 / explored,
    );
    v.set(
        "model.check_ns",
        counter("walk.span.check_ns") as f64 / explored,
    );
    v.set("model.steals", steals as f64);
    v.set("lint.certificate_ms", layers::certificate_ms(&plan.spec));
    v.set("trace.overhead_ratio", run_s / reference_s);
    v.set("trace.clock_ns", layers::clock_ns());
    // The walk's spans are summed over its workers, so they are set
    // against the workers' combined wall time.
    v.set(
        "unattributed_share",
        1.0 - span_ns as f64 / (run_s * 1e9 * WORKERS as f64),
    );

    let (metrics, not_exercised) = v.into_metrics();
    out.metrics = metrics;
    out.detail.extend([
        ("not_exercised", not_exercised),
        (
            "untraced",
            json!({"run_s": reference_s, "schedules": reference_total}),
        ),
        (
            "traced",
            json!({
                "run_s": run_s,
                "certificate_s": certificate_s,
                "walk_fork_s": counter("walk.span.fork_ns") as f64 / 1e9,
                "walk_advance_s": counter("walk.span.advance_ns") as f64 / 1e9,
                "walk_check_s": counter("walk.span.check_ns") as f64 / 1e9,
                "workers": WORKERS as u64,
            }),
        ),
        (
            "unattributed_hides",
            json!(
                "schedule enumeration, work stealing, POR class merging and \
                   fingerprint dedup, elision bookkeeping; not split: the SCRAM, bus, \
                   RTOS and stable-storage parts of run_frame inside the walk's advance \
                   span (needs spans inside the program)"
            ),
        ),
    ]);
    out
}
