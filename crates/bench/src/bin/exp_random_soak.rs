//! Long-horizon random soak: thousands of seeded trigger schedules over
//! both instantiations, every trace property-checked.
//!
//! The exhaustive model checker covers every schedule up to a small
//! bound; this experiment complements it with long random schedules the
//! bounded search cannot reach. Every scenario is reproducible from its
//! seed (see `arfs_core::workload`).

use std::collections::BTreeMap;

use arfs_bench::{write_observability, ExitCode, Run, TextTable};
use arfs_core::properties;
use arfs_core::stats::trace_stats;
use arfs_core::workload::{scenario_batch, WorkloadConfig};

fn main() -> ExitCode {
    let mut run = Run::start("Experiment E6: randomized long-horizon soak");

    let config = WorkloadConfig {
        horizon: 200,
        mean_gap: 10,
        cooldown: 30,
    };
    let runs_per_spec = 500u64;

    let mut table = TextTable::new([
        "specification",
        "runs",
        "reconfigurations",
        "violations",
        "mean availability",
        "worst restriction (frames)",
    ]);
    let mut all_clean = true;
    let mut artifacts = Vec::new();

    for (slug, label, spec) in [
        (
            "avionics",
            "avionics (§7, 2 apps)",
            arfs_avionics::avionics_spec().expect("valid"),
        ),
        (
            "extended_uav",
            "extended UAV (4 apps)",
            arfs_avionics::extended::extended_uav_spec().expect("valid"),
        ),
    ] {
        let mut reconfigs = 0usize;
        let mut violations = 0usize;
        let mut availability_sum = 0.0f64;
        let mut worst_restricted = 0u64;
        // Journal event counts aggregated over the whole soak; the first
        // run's journal + metrics ship verbatim as arfs-trace artifacts.
        let mut journal_kinds: BTreeMap<String, usize> = BTreeMap::new();
        let mut first_run_saved = false;
        for scenario in scenario_batch(&spec, &config, 1, runs_per_spec) {
            let system = scenario.run_on_spec(&spec).expect("valid scenario");
            let report = properties::check_extended(system.trace(), system.spec());
            if !report.is_ok() {
                violations += report.violations.len();
                eprintln!("seed {}: {report}", scenario.name());
            }
            reconfigs += report.reconfigs_checked;
            let stats = trace_stats(system.trace());
            availability_sum += stats.availability();
            worst_restricted =
                worst_restricted.max(stats.max_cycles.unwrap_or(0).saturating_sub(1));
            for (kind, count) in system.journal().summary().by_kind {
                *journal_kinds.entry(kind).or_insert(0) += count;
            }
            if !first_run_saved {
                first_run_saved = true;
                write_observability(&format!("exp_random_soak.{slug}"), &system);
            }
        }
        all_clean &= violations == 0;
        let mean_availability = availability_sum / runs_per_spec as f64;
        table.row([
            label.to_string(),
            runs_per_spec.to_string(),
            reconfigs.to_string(),
            violations.to_string(),
            format!("{:.2}%", mean_availability * 100.0),
            worst_restricted.to_string(),
        ]);
        artifacts.push(serde_json::json!({
            "spec": label,
            "runs": runs_per_spec,
            "reconfigurations": reconfigs,
            "violations": violations,
            "mean_availability": mean_availability,
            "worst_restricted_frames": worst_restricted,
            "journal_kinds": journal_kinds,
        }));
    }
    println!("{table}");
    run.verdict(
        "all soak traces satisfy SP1-SP4 and the extension checks",
        all_clean,
    );

    run.finish("exp_random_soak.json", &artifacts)
}
