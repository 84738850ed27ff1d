//! Chaos soak: randomized substrate fault campaigns with the defenses
//! on, exhaustively property-checked.
//!
//! Three sections:
//!
//! 1. **Seeded random campaigns** — `FaultPlan::random` draws a plan
//!    per seed (torn writes + clock jitter) and the exhaustive model
//!    checker replays it under every enumerated schedule; SP1–SP4 must
//!    hold and every trace must stay live (bounded restricted-frame
//!    ratio — the no-deadlock/no-livelock check).
//! 2. **Bus-silence quarantine** — a persistently silent processor is
//!    converted to explicit fail-stop by the detection window, and the
//!    membership-driven reconfiguration lands in the solo
//!    configuration with all properties intact.
//! 3. **Known-bad fixture** — the same campaign with retry budget 0
//!    must fail, and the flight recorder's jointly shrunk
//!    counterexample must be byte-identical across the serial and
//!    work-stealing engines. The artifact ships for `arfs-trace
//!    explain`.
//!
//! Usage: `exp_chaos_soak [--smoke]` — `--smoke` shrinks the seed
//! count and horizon for CI. Exits 1 if any section fails; exits 3 if
//! the run's defense metrics grew more than 25% against the previous
//! `BENCH_chaos_soak.json` recorded with the same core count and smoke
//! mode.

use std::sync::Arc;

use arfs_bench::campaign::{replay, three_level_spec};
use arfs_bench::{
    banner, recorded, write_text, Better, ExitCode, Run, Samples, TextTable, RECORDING_FLOOR,
};
use arfs_core::assure::{InvariantOracle, OracleProfile};
use arfs_core::chaos::{ChaosDefense, ChaosProfile, FaultKind, FaultPlan};
use arfs_core::model::ModelChecker;
use arfs_core::spec::{AppDecl, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_core::AppId;
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;

/// Two processors and a `processor-1` status factor: the quarantine's
/// forced fail-stop flows through membership into a reconfiguration.
fn quarantine_spec() -> ReconfigSpec {
    ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("processor-1", ["up", "down"])
        .app(
            AppDecl::new("fcs")
                .spec(FunctionalSpec::new("full"))
                .spec(FunctionalSpec::new("direct")),
        )
        .app(
            AppDecl::new("autopilot")
                .spec(FunctionalSpec::new("full"))
                .spec(FunctionalSpec::new("off2")),
        )
        .config(
            Configuration::new("full-service")
                .assign("fcs", "full")
                .assign("autopilot", "full")
                .place("fcs", ProcessorId::new(0))
                .place("autopilot", ProcessorId::new(1)),
        )
        .config(
            Configuration::new("solo")
                .assign("fcs", "direct")
                .assign("autopilot", "off")
                .place("fcs", ProcessorId::new(0))
                .safe(),
        )
        .transition("full-service", "solo", Ticks::new(800))
        .choose_when("processor-1", "down", "solo")
        .choose_when("processor-1", "up", "full-service")
        .initial_config("full-service")
        .initial_env([("processor-1", "up")])
        .build()
        .expect("quarantine spec is structurally valid")
}

fn main() -> ExitCode {
    let mut run = Run::start("Experiment E8: substrate chaos soak");

    let spec = three_level_spec(1);
    let horizon = 12u64;
    let seeds = if run.smoke { 6u64 } else { 30u64 };
    let defense = ChaosDefense::default();
    // Torn writes and jitter only: random bus-silence runs on this
    // single-processor spec could quarantine the sole host, which is a
    // hardware-exhaustion scenario, not a protocol one. Bus silence
    // gets its own section below.
    let profile = ChaosProfile {
        bus_silence_permille: 0,
        commit_fault_permille: 80,
        clock_jitter_permille: 60,
        ..ChaosProfile::for_spec(&spec, horizon.saturating_sub(4))
    };

    let mut all_ok = true;

    // Every replayed trace goes through the unified oracle's soak
    // profile: SP1–SP4, the extension checks, the TCC static
    // obligations, and the defense-livelock bound, all in one verdict.
    let soak_oracle = InvariantOracle::new(Arc::new(spec.clone()), OracleProfile::Soak);

    // --- Section 1: seeded random campaigns, defenses on. ---
    let mut table = TextTable::new([
        "seed",
        "faults",
        "schedules",
        "violations",
        "retries",
        "fallbacks",
        "max restricted ratio",
    ]);
    let mut campaigns = Vec::new();
    let mut campaigns_clean = true;
    let mut livelock_free = true;
    let mut total_retries = 0u64;
    let mut global_max_ratio = 0.0f64;
    for seed in 1..=seeds {
        let plan = FaultPlan::random(seed, &profile);
        let mc = ModelChecker::new(spec.clone(), horizon, 1)
            .with_fault_plan(plan.clone())
            .with_flight_recorder(false);
        let report = mc.run();
        let mut retries = 0u64;
        let mut fallbacks = 0u64;
        let mut max_ratio = 0.0f64;
        let mut oracle_violations = 0usize;
        for schedule in mc.schedule_iter() {
            let system = replay(&spec, &plan, defense, &schedule.0, horizon);
            retries += system.journal().of_kind("commit-retry").count() as u64;
            fallbacks += system.journal().of_kind("safe-fallback").count() as u64;
            let trace = system.trace();
            let ratio = trace.restricted_frames() as f64 / trace.len() as f64;
            max_ratio = max_ratio.max(ratio);
            oracle_violations += soak_oracle.check(trace).len();
        }
        // No-livelock: restricted frames stay a bounded minority even
        // under retries — a kernel stuck re-halting forever would push
        // the ratio toward 1.
        let live = max_ratio <= 0.6;
        livelock_free &= live;
        campaigns_clean &= report.all_passed() && fallbacks == 0 && oracle_violations == 0;
        total_retries += retries;
        table.row([
            seed.to_string(),
            plan.len().to_string(),
            report.cases_run.to_string(),
            report.failures.len().to_string(),
            retries.to_string(),
            fallbacks.to_string(),
            format!("{max_ratio:.2}"),
        ]);
        campaigns.push(serde_json::json!({
            "seed": seed,
            "faults": plan.len(),
            "plan": plan.to_string(),
            "schedules_run": report.cases_run,
            "violations": report.failures.len(),
            "oracle_violations": oracle_violations,
            "commit_retries": retries,
            "safe_fallbacks": fallbacks,
            "max_restricted_ratio": max_ratio,
        }));
        global_max_ratio = global_max_ratio.max(max_ratio);
    }
    println!("{table}");
    all_ok &= run.verdict(
        "random campaigns: SP1-SP4 hold, zero fallbacks within budget",
        campaigns_clean,
    );
    all_ok &= run.verdict(
        "no deadlock/livelock: restricted-frame ratio bounded",
        livelock_free,
    );
    all_ok &= run.verdict("campaigns exercised the retry path", total_retries > 0);

    // --- Section 2: bus-silence quarantine. ---
    let qspec = quarantine_spec();
    let mut qplan = FaultPlan::new();
    qplan.push(
        2,
        FaultKind::BusSilence {
            processor: ProcessorId::new(1),
            frames: 4,
        },
    );
    let qsystem = replay(&qspec, &qplan, defense, &[], 12);
    let quarantined = qsystem.journal().of_kind("quarantined").count() == 1;
    let landed_solo = qsystem.current_config().to_string() == "solo";
    // Exhaustive profile: the quarantine spec is deliberately one-way
    // (no solo -> full-service transition), so the TCC coverage
    // obligation of the soak profile does not apply to it.
    let qoracle = InvariantOracle::new(qsystem.spec_arc(), OracleProfile::Exhaustive);
    let qreport = qoracle.report(qsystem.trace());
    all_ok &= run.verdict(
        "silent processor quarantined to fail-stop; membership drove reconfiguration to solo",
        quarantined && landed_solo && qreport.is_ok(),
    );

    // --- Section 3: known-bad fixture (retry budget 0). ---
    let mut bad_plan = FaultPlan::new();
    bad_plan.push(
        3,
        FaultKind::CommitFault {
            app: AppId::new("a"),
        },
    );
    let bad_defense = ChaosDefense {
        retry_budget_frames: 0,
        ..ChaosDefense::default()
    };
    let mc = ModelChecker::new(spec.clone(), horizon, 1)
        .with_fault_plan(bad_plan.clone())
        .with_chaos_defense(bad_defense);
    let serial = mc.run();
    let parallel = mc.run_parallel(3);
    let serial_ce = serial.counterexample.as_ref();
    let parallel_ce = parallel.counterexample.as_ref();
    let budget0_failed = !serial.all_passed() && serial_ce.is_some();
    let engines_agree = match (serial_ce, parallel_ce) {
        (Some(s), Some(p)) => s.to_json_pretty() == p.to_json_pretty(),
        _ => false,
    };
    all_ok &= run.verdict("retry budget 0 fails the campaign", budget0_failed);
    all_ok &= run.verdict(
        "shrunk counterexample byte-identical across serial and work-stealing engines",
        engines_agree,
    );

    let ce_path =
        serial_ce.map(|ce| write_text("counterexample_chaos_budget0.json", &ce.to_json_pretty()));

    // --- Soak-regression gate: defense metrics vs the previous
    // recording. The campaigns are deterministic given the smoke mode,
    // so each metric is a single sample: its spread is zero and the gate
    // keeps the 25% floor. ---
    banner("soak-regression gate");
    let baseline = run.baseline("BENCH_chaos_soak.json");
    let total_retries = Samples(vec![total_retries as f64]);
    let global_max_ratio = Samples(vec![global_max_ratio]);
    for (key, current) in [
        ("total_commit_retries", &total_retries),
        ("max_restricted_ratio", &global_max_ratio),
    ] {
        let prev = recorded(baseline.as_ref(), &[key]);
        run.gate(key, Better::Lower, RECORDING_FLOOR, prev.as_ref(), current);
    }

    if let Some(ce_path) = ce_path {
        println!("counterexample: {}", ce_path.display());
    }
    let artifact = serde_json::json!({
        "horizon": horizon,
        "seeds": seeds,
        "total_commit_retries": total_retries,
        "max_restricted_ratio": global_max_ratio,
        "campaigns": campaigns,
        "quarantine": {
            "quarantined": quarantined,
            "landed_solo": landed_solo,
            "properties_ok": qreport.is_ok(),
        },
        "budget0": {
            "failed_as_expected": budget0_failed,
            "engines_byte_identical": engines_agree,
            "minimized_schedule": serial_ce.map(|ce| ce.minimized.to_string()),
            "minimized_fault_plan": serial_ce.map(|ce| ce.minimized_fault_plan.to_string()),
        },
        "all_ok": all_ok,
    });
    run.finish("BENCH_chaos_soak.json", artifact)
}
