//! The per-layer metric catalogue and the small probes every traced
//! run shares.
//!
//! Each traced run prints every metric in [`PER_LAYER`]. A workload that
//! never reaches a layer (the checker never drives the fleet, a quiet
//! fleet never runs a full frame) reports that layer's metrics as 0 and
//! names them under `not_exercised` in the detail record.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use arfs_core::lint::IndependenceCertificate;
use arfs_core::scenario::ScenarioAction;
use arfs_core::spec::ReconfigSpec;
use arfs_core::system::System;
use arfs_core::workload::{self, WorkloadConfig};
use serde_json::Value;

use crate::stats::{percentile, Summary};
use crate::Metric;

/// Every per-layer metric, by name, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fleet.frame_ms.p50", "ms"),
    ("fleet.frame_ms.p90", "ms"),
    ("fleet.overhead_ns_per_cell_frame", "ns"),
    ("fleet.journal_finish_s", "s"),
    ("fleet.aggregate_s", "s"),
    ("fleet.setup_ns_per_cell", "ns"),
    ("system.fast_frame_ns.p50", "ns"),
    ("system.fast_frame_ns.p90", "ns"),
    ("system.fast_frames", "count"),
    ("system.full_frame_ns.p50", "ns"),
    ("system.full_frame_ns.p90", "ns"),
    ("system.full_frames", "count"),
    ("system.full_frame_obs_ns.p50", "ns"),
    ("system.fast_ratio", "ratio"),
    ("system.rss_bytes_per_cell", "B"),
    ("system.rss_bytes_per_full_frame", "B"),
    ("system.fork_ns", "ns"),
    ("verifier.observe_full_ns.p50", "ns"),
    ("verifier.observe_full_ns.p90", "ns"),
    ("verifier.windows", "count"),
    ("obs.journal_events", "count"),
    ("obs.journal_bytes", "B"),
    ("model.cases_run", "count"),
    ("model.cases_elided", "count"),
    ("model.cases_merged", "count"),
    ("model.explored_ratio", "ratio"),
    ("model.frames_per_schedule", "frames"),
    ("model.fork_ns", "ns"),
    ("model.advance_ns", "ns"),
    ("model.check_ns", "ns"),
    ("model.steals", "count"),
    ("lint.certificate_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.clock_ns", "ns"),
    ("unattributed_share", "ratio"),
];

/// Per-layer values one traced run measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "`{name}` is not in the per-layer catalogue"
        );
        assert!(value.is_finite(), "`{name}` measured {value}");
        self.0.insert(name, value);
    }

    /// Sets `name` to the `q`-th percentile of `sorted`, unless no call
    /// was timed.
    pub fn set_percentile(&mut self, name: &'static str, sorted: &[u64], q: u64) {
        if !sorted.is_empty() {
            self.set(name, percentile(sorted, q));
        }
    }

    /// The full catalogue in order (unmeasured layers read 0), plus the
    /// names of the layers this workload did not exercise.
    pub fn into_metrics(self) -> (Vec<Metric>, Value) {
        let mut not_exercised = Vec::new();
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self.0.get(name).copied().unwrap_or_else(|| {
                    not_exercised.push(Value::Str(name.to_owned()));
                    0.0
                });
                Metric::new(name, unit, value)
            })
            .collect();
        (metrics, Value::Seq(not_exercised))
    }
}

/// Median of `rounds` timings of `batch` calls of `f`, in ns per call.
fn ns_per_call(rounds: usize, batch: u32, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                f();
            }
            started.elapsed().as_nanos() as f64 / f64::from(batch)
        })
        .collect();
    Summary::of(&per_call).median
}

/// Cost of one clock read (`Instant::now`). A span between two reads
/// carries about one read's cost on top of the work it times.
pub fn clock_ns() -> f64 {
    ns_per_call(9, 10_000, || {
        black_box(Instant::now());
    })
}

/// `System::fork` on a system carrying 200 frames of history (the
/// checker's branch-point cost), observability off as the checker
/// builds them.
pub fn fork_ns(spec: &Arc<ReconfigSpec>) -> f64 {
    let mut system = System::builder_arc(Arc::clone(spec))
        .observability(false)
        .build()
        .expect("the workload spec builds");
    let history = WorkloadConfig {
        horizon: 200,
        mean_gap: 25,
        cooldown: 0,
    };
    let scenario = workload::random_scenario(spec, &history, 0x5EED);
    let mut events = scenario.events().iter().peekable();
    for frame in 0..200 {
        while let Some(event) = events.next_if(|e| e.frame == frame) {
            if let ScenarioAction::SetEnv { factor, value } = &event.action {
                system
                    .set_env(factor, value)
                    .expect("generated factors are declared");
            }
        }
        system.run_frame();
    }
    ns_per_call(9, 1_000, || {
        black_box(system.fork());
    })
}

/// `IndependenceCertificate::build` on the workload's spec, in ms.
pub fn certificate_ms(spec: &ReconfigSpec) -> f64 {
    ns_per_call(9, 4, || {
        black_box(IndependenceCertificate::build(spec));
    }) / 1e6
}
