//! End-to-end failpoint campaigns against the real runtime — only
//! meaningful with `--features failpoints` (the registry is inert
//! otherwise, so the whole file is compiled out).
//!
//! The headline regression here is the background journal writer: a
//! writer thread that dies mid-run (sink error or panic) must surface
//! as an `Err` from [`Fleet::run`] at finish — never panic a frame-loop
//! worker, never silently drop the journal.

#![cfg(feature = "failpoints")]

use std::sync::{Arc, Mutex, MutexGuard};

use arfs_assure::{FailpointPlan, FpAction};
use arfs_avionics::avionics_spec;
use arfs_core::fleet::{Fleet, FleetConfig};
use arfs_core::system::System;

/// The failpoint registry is process-global; campaigns must not
/// overlap. Every test takes this lock for its whole body.
static CAMPAIGN_SLOT: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    CAMPAIGN_SLOT.lock().unwrap_or_else(|e| e.into_inner())
}

fn journaled_fleet() -> Fleet {
    let spec = Arc::new(avionics_spec().expect("avionics spec is structurally valid"));
    Fleet::new(
        spec,
        FleetConfig {
            systems: 4,
            threads: 1,
            horizon: 24,
            journal_sample: 1,
            journal_flush_frames: 1,
            ..FleetConfig::default()
        },
    )
    .expect("fleet builds")
}

#[test]
fn journal_writer_sink_error_surfaces_as_a_run_error() {
    let _slot = exclusive();
    let mut plan = FailpointPlan::new();
    plan.push("obs.writer.drain", 1, FpAction::Err);
    let _campaign = arfs_assure::install(&plan);

    let err = journaled_fleet()
        .run()
        .expect_err("a dead journal writer must fail the run");
    assert!(
        err.to_string().contains("injected sink error"),
        "error should carry the writer's failure, got: {err}"
    );
}

#[test]
fn journal_writer_panic_surfaces_as_a_run_error_not_a_panic() {
    let _slot = exclusive();
    let mut plan = FailpointPlan::new();
    plan.push("obs.writer.drain", 2, FpAction::Panic);
    let _campaign = arfs_assure::install(&plan);

    // The frame loop must complete the horizon (producers fall back to
    // unjournaled operation when the channel disconnects) and the
    // panic must come back as an Err at finish.
    let err = journaled_fleet()
        .run()
        .expect_err("a panicked journal writer must fail the run");
    assert!(
        err.to_string().contains("journal writer thread panicked"),
        "error should name the writer panic, got: {err}"
    );
}

#[test]
fn unarmed_runs_are_unaffected_and_sites_count_hits() {
    let _slot = exclusive();
    let _campaign = arfs_assure::install(&FailpointPlan::new());

    let spec = avionics_spec().expect("avionics spec is structurally valid");
    let mut system = System::builder(spec).build().expect("spec builds");
    system.set_env("electrical", "one").expect("declared value");
    for _ in 0..12 {
        system.run_frame();
    }

    let hits: std::collections::BTreeMap<String, u64> =
        arfs_assure::hit_counts().into_iter().collect();
    // The frame path passes these sites every frame even with no plan
    // armed — the instrumentation observes without intervening.
    for site in [
        "rtos.clock.advance",
        "system.stable.commit",
        "failstop.stable.commit",
        "ttbus.bus.deliver",
    ] {
        assert!(
            hits.get(site).copied().unwrap_or(0) > 0,
            "site `{site}` never counted a hit; got {hits:?}"
        );
    }
    // And the reconfiguration the env change forced crossed the SCRAM
    // trigger site.
    assert!(hits.get("scram.trigger").copied().unwrap_or(0) > 0);
}

#[test]
fn failpoint_torn_write_is_journaled_and_counted_like_a_planned_one() {
    let _slot = exclusive();
    let mut plan = FailpointPlan::new();
    plan.push("system.stable.commit", 3, FpAction::Err);
    let _campaign = arfs_assure::install(&plan);

    let spec = avionics_spec().expect("avionics spec is structurally valid");
    let mut system = System::builder(spec)
        .flight_recorder(64)
        .build()
        .expect("spec builds");
    for _ in 0..6 {
        system.run_frame();
    }
    // The third pass through the site is frame 2.
    let torn: Vec<u64> = system
        .journal()
        .of_kind("torn-write")
        .map(|e| e.frame)
        .collect();
    assert_eq!(torn, [2]);
    assert_eq!(system.metrics().counter("chaos.faults_injected"), 1);
    let ring = system.flight_ring().expect("ring enabled");
    let ring_torn: Vec<u64> = ring
        .iter()
        .filter(|e| e.code == arfs_core::obs::EventKind::TornWrite)
        .map(|e| e.frame)
        .collect();
    assert_eq!(ring_torn, torn);
}

#[test]
fn skipped_trigger_defers_one_frame_without_violating_properties() {
    let _slot = exclusive();
    let mut plan = FailpointPlan::new();
    plan.push("scram.trigger", 1, FpAction::Skip);
    let _campaign = arfs_assure::install(&plan);

    let spec = avionics_spec().expect("avionics spec is structurally valid");
    let oracle = arfs_core::assure::InvariantOracle::new(
        Arc::new(spec.clone()),
        arfs_core::assure::OracleProfile::Exhaustive,
    );
    let mut system = System::builder(spec).build().expect("spec builds");
    system.set_env("electrical", "one").expect("declared value");
    for _ in 0..16 {
        system.run_frame();
    }
    let violations = oracle.check(system.trace());
    assert!(
        violations.is_empty(),
        "a single deferred trigger is within the responsiveness allowance: {violations:?}"
    );
}
