//! Regenerates the **§5.1 analysis**: hardware required by masking vs.
//! reconfiguration.
//!
//! "In a system where faults are masked ... the total number of required
//! components is the sum of the maximum number expected to fail ... and
//! the minimum number needed to provide full service. With the approach
//! we advocate, the total ... is the sum of the maximum number expected
//! to fail ... and the minimum number needed to provide the most basic
//! form of safe service."
//!
//! The harness sweeps the anticipated failure count for (a) the avionics
//! example's own processor counts and (b) larger synthetic platforms, and
//! tabulates both designs. The paper's claim — reconfiguration saves
//! exactly `full − safe` components at every failure count, and a system
//! sized for masking's total can run with "no excess equipment" — is
//! verified on the numbers.

use arfs_bench::{ExitCode, Run, TextTable};
use arfs_core::analysis::resources::{model_from_spec, sweep, ResourceModel};

fn main() -> ExitCode {
    let mut run = Run::start("Experiment E1: masking vs. reconfiguration hardware (§5.1)");

    let spec = arfs_avionics::avionics_spec().expect("valid spec");
    let avionics_model = model_from_spec(&spec);
    println!(
        "avionics example: full service = {} processors, safe service = {} processor(s)\n",
        avionics_model.full_service_units, avionics_model.safe_service_units
    );

    let mut all_hold = true;
    let mut artifacts = Vec::new();
    for (label, model) in [
        ("avionics (2 full / 1 safe)", avionics_model),
        (
            "regional platform (5 full / 2 safe)",
            ResourceModel {
                full_service_units: 5,
                safe_service_units: 2,
            },
        ),
        (
            "transport platform (9 full / 3 safe)",
            ResourceModel {
                full_service_units: 9,
                safe_service_units: 3,
            },
        ),
    ] {
        println!("--- {label} ---");
        let points = sweep(model, 0..=8);
        let mut table = TextTable::new([
            "max anticipated failures",
            "masking units",
            "reconfiguration units",
            "saved",
        ]);
        for p in &points {
            table.row([
                p.max_failures.to_string(),
                p.masking.to_string(),
                p.reconfiguration.to_string(),
                (p.masking - p.reconfiguration).to_string(),
            ]);
            all_hold &= p.masking >= p.reconfiguration;
            all_hold &= p.masking - p.reconfiguration == model.savings();
        }
        println!("{table}");
        artifacts.push(serde_json::json!({ "label": label, "points": points }));
    }

    run.verdict(
        "reconfiguration never needs more hardware than masking",
        all_hold,
    );
    run.verdict(
        "savings equal (full - safe) service size, independent of failure count",
        all_hold,
    );

    // §5.1's "no excess equipment" observation: if the platform carries
    // masking's total for F failures, the reconfiguration design can use
    // every unit for full service during routine operation whenever
    // full <= failures + safe.
    let m = ResourceModel {
        full_service_units: 3,
        safe_service_units: 1,
    };
    let f = 2;
    let carried = m.reconfiguration_units(f);
    run.verdict(
        "a reconfiguration platform sized for the worst case can run full service with no spares idle",
        carried >= m.full_service_units,
    );
    println!(
        "  (carried = {} units = {} failures + {} safe-service; full service needs {})",
        carried, f, m.safe_service_units, m.full_service_units
    );

    run.finish("exp_masking_vs_reconfig.json", &artifacts)
}
