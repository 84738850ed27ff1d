//! Regenerates **Figure 2 — Example TCC** (the `covering_txns`
//! obligation).
//!
//! In the paper, PVS generates type-correctness conditions for the
//! example instantiation, including the `covering_txns` predicate that
//! "ensures a transition exists for any possible failure-environment
//! pair"; all were proved. This harness discharges the same obligation
//! suite for the avionics specification — the PVS-style report is now
//! derived from the ARFS-LINT diagnostic engine — and, as a negative
//! control, shows both the obligations and the lint diagnostics *fail*
//! when a transition is deleted from the static table.

use arfs_bench::{banner, ExitCode, Run};
use arfs_core::analysis::{self, coverage};
use arfs_core::lint::{codes, LintEngine, LintTarget};

fn main() -> ExitCode {
    let mut run = Run::start("Figure 2: proof obligations for the example instantiation");

    let spec = arfs_avionics::avionics_spec().expect("valid spec");
    let report = analysis::check_obligations(&spec);
    println!("% Obligations generated for avionics reconfiguration spec");
    println!("{report}\n");
    run.verdict(
        "all obligations proved for the avionics specification",
        report.all_passed(),
    );

    // Enumerate the covering_txns quantification domain explicitly, the
    // way the PVS obligation does.
    let pairs = spec.configs().len() * spec.env_model().state_count();
    println!(
        "\ncovering_txns quantified over {} (configuration, environment) pairs: {} gaps",
        pairs,
        coverage::covering_txns(&spec).len()
    );

    // --- Negative control: the reduced -> minimal transition deleted. ---
    banner("negative control: spec with `reduced -> minimal` transition removed");
    let broken = arfs_avionics::negative_control_spec()
        .expect("structurally valid (semantic gap is what we demonstrate)");
    let report = analysis::check_obligations(&broken);
    println!("{report}\n");

    // The same gap, rendered rustc-style by the lint engine.
    let lint = LintEngine::new().run(&LintTarget::spec_only(&broken));
    println!("{}\n", lint.render());

    let gaps = coverage::covering_txns(&broken);
    for gap in &gaps {
        println!("  uncovered: {gap}");
    }
    run.verdict(
        "broken specification is rejected by covering_txns",
        !report.all_passed() && !gaps.is_empty(),
    );
    run.verdict(
        "lint reports ARFS-E002 for the deleted transition",
        !lint.of_code(codes::E002).is_empty(),
    );

    run.finish(
        "fig2_tcc_obligations.json",
        &serde_json::json!({
            "avionics": analysis::check_obligations(&spec),
            "negative_control_gaps": gaps.len(),
            "negative_control_lint": lint,
        }),
    )
}
