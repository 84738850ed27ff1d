//! Regenerates the **§5.3 analysis**: worst-case restriction of system
//! function.
//!
//! Three claims are reproduced:
//!
//! 1. The longest restriction equals the **chain bound**
//!    `Σ T(cᵢ₋₁, cᵢ)` along the longest transition chain to a safe
//!    configuration — and a measured worst-case failure cascade never
//!    exceeds it.
//! 2. **Interposing a safe configuration** reduces the worst case to
//!    `max{T(cᵢ, cₛ)}` — the improvement grows linearly with chain
//!    length.
//! 3. **Cyclic reconfiguration** is detectable by static analysis of the
//!    permissible transitions, and the dwell guard bounds it.

use arfs_bench::{banner, ExitCode, Run, TextTable};
use arfs_core::analysis::timing;
use arfs_core::properties;
use arfs_core::spec::{AppDecl, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_core::system::System;
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;

const FRAME: u64 = 100;
const T_BOUND: u64 = 800;

/// Builds a k-configuration chain spec `c1 -> c2 -> ... -> ck(safe)`;
/// `with_direct` adds `ci -> ck` edges for the interposed strategy.
fn chain_spec(k: usize, with_direct: bool) -> ReconfigSpec {
    assert!(k >= 2);
    let mut b = ReconfigSpec::builder()
        .frame_len(Ticks::new(FRAME))
        .env_factor("level", (1..=k).map(|i| i.to_string()));
    let mut app = AppDecl::new("app");
    for i in 1..=k {
        app = app.spec(FunctionalSpec::new(format!("s{i}")));
    }
    b = b.app(app);
    for i in 1..=k {
        let mut c = Configuration::new(format!("c{i}"))
            .assign("app", format!("s{i}"))
            .place("app", ProcessorId::new(0));
        if i == k {
            c = c.safe();
        }
        b = b.config(c);
    }
    for i in 1..k {
        b = b.transition(format!("c{i}"), format!("c{}", i + 1), Ticks::new(T_BOUND));
        if with_direct && i + 1 < k {
            b = b.transition(format!("c{i}"), format!("c{k}"), Ticks::new(T_BOUND));
        }
    }
    // Stepwise choice: from cᵢ, any level worse than i moves one step
    // down the chain (the §5.3 worst case traverses every link); levels
    // at or better than i hold position.
    for i in 1..=k {
        for level in 1..=k {
            let target = if level > i && i < k {
                format!("c{}", i + 1)
            } else {
                format!("c{i}")
            };
            b = b.choose_rule(
                arfs_core::spec::ChooseRule::any_from(target)
                    .from_config(format!("c{i}"))
                    .when("level", level.to_string()),
            );
        }
    }
    b.initial_config("c1")
        .initial_env([("level", "1")])
        .build()
        .expect("chain spec is valid")
}

fn main() -> ExitCode {
    let mut run = Run::start("Experiment E2: worst-case restriction time (§5.3)");

    // --- Part 1 & 2: analytic bounds across chain lengths. ---
    let mut table = TextTable::new([
        "configs k",
        "chain bound (ticks)",
        "interposed max{T(i,s)} (ticks)",
        "improvement",
        "measured restriction (ticks)",
        "measured <= chain bound",
    ]);
    let mut all_bounded = true;
    let mut points = Vec::new();
    for k in 3..=10 {
        let spec = chain_spec(k, false);
        let chain = timing::longest_chain_to_safe(&spec).expect("safe reachable");
        let spec_direct = chain_spec(k, true);
        let interposed = timing::interposed_safe_bound(&spec_direct).expect("direct edges exist");

        // Measured worst case: cascade every level change so each new
        // failure is buffered until the current reconfiguration ends.
        let measured_frames = measure_cascade(&spec, k);
        let measured_ticks = measured_frames * FRAME;
        let ok = measured_ticks <= chain.total.raw();
        all_bounded &= ok;

        table.row([
            k.to_string(),
            chain.total.raw().to_string(),
            interposed.raw().to_string(),
            format!("{:.1}x", chain.total.raw() as f64 / interposed.raw() as f64),
            measured_ticks.to_string(),
            if ok { "yes".into() } else { "NO".to_string() },
        ]);
        points.push(serde_json::json!({
            "k": k,
            "chain_bound_ticks": chain.total.raw(),
            "interposed_bound_ticks": interposed.raw(),
            "measured_ticks": measured_ticks,
        }));
    }
    println!("{table}");
    run.verdict(
        "measured worst-case restriction never exceeds the chain bound",
        all_bounded,
    );
    run.verdict(
        "interposed-safe bound is constant while the chain bound grows linearly",
        {
            let first: u64 = points[0]["interposed_bound_ticks"].as_u64().unwrap();
            points
                .iter()
                .all(|p| p["interposed_bound_ticks"].as_u64().unwrap() == first)
        },
    );

    // --- Avionics instance of the same analysis. ---
    banner("avionics spec restriction analysis");
    let spec = arfs_avionics::avionics_spec().expect("valid spec");
    let analysis = timing::restriction_analysis(&spec);
    let chain = analysis.chain.as_ref().expect("safe reachable");
    println!(
        "longest chain: {} (Σ T = {})",
        chain
            .chain
            .iter()
            .map(|c| c.as_str())
            .collect::<Vec<_>>()
            .join(" -> "),
        chain.total
    );
    println!(
        "interposed bound max{{T(i, minimal-service)}} = {}",
        analysis.interposed.expect("direct edges to safe exist")
    );
    if let Some(improvement) = analysis.improvement() {
        println!("improvement: {improvement:.2}x");
    }

    // --- Part 3: cycle detection. ---
    banner("cyclic reconfiguration detection");
    let cycles = timing::transition_cycles(&spec);
    println!(
        "avionics transition graph has {} elementary cycle(s):",
        cycles.len()
    );
    for c in &cycles {
        println!(
            "  {}",
            c.iter()
                .map(|x| x.as_str())
                .collect::<Vec<_>>()
                .join(" -> ")
        );
    }
    run.verdict(
        "cycles detected statically (failure/repair loops)",
        !cycles.is_empty(),
    );
    run.verdict(
        "cycles are guarded by a positive minimum dwell",
        spec.min_dwell_frames() > 0,
    );
    let acyclic = chain_spec(4, false);
    run.verdict(
        "pure degradation chains are reported cycle-free",
        timing::transition_cycles(&acyclic).is_empty(),
    );

    run.finish("exp_restriction_time.json", &points)
}

/// Runs the worst-case cascade on a chain spec: each level change lands
/// while the previous reconfiguration is still in flight, so it is
/// buffered to the end of the current reconfiguration (§5.3's worst
/// case). Returns the total number of restricted frames.
fn measure_cascade(spec: &ReconfigSpec, k: usize) -> u64 {
    let mut system = System::builder(spec.clone()).build().expect("builds");
    system.run_frames(2);
    // The worst case: the environment collapses all the way to the worst
    // level at once. The stepwise choice function walks the full chain,
    // and every intermediate trigger is only actionable at the end of the
    // reconfiguration in flight — the §5.3 Σ-bound scenario.
    system.set_env("level", &k.to_string()).expect("valid");
    system.run_frames((k as u64) * 8);
    let report = properties::check_all(system.trace(), system.spec());
    assert!(report.is_ok(), "cascade must satisfy SP1-SP4: {report}");
    assert_eq!(
        system.current_config().as_str(),
        format!("c{k}"),
        "cascade must end in the safe configuration"
    );
    assert_eq!(
        system.trace().get_reconfigs().len(),
        k - 1,
        "cascade must traverse every chain link"
    );
    system.trace().restricted_frames()
}
