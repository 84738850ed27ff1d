//! A system with trace recording off keeps no per-frame history: every
//! full frame drops the records it has consumed, however long it runs.
//!
//! The fleet runs every cell with recording off and relies on this for
//! flat memory: the streaming verifier buffers only the restricted
//! window, so anything else a full frame left behind would grow a run's
//! memory with its horizon. Recording on keeps every history, which the
//! model checker, forks and counterexample replay read back.

use std::sync::Arc;

use arfs_avionics::avionics_spec;
use arfs_core::chaos::{FaultKind, FaultPlan};
use arfs_core::obs::RingEvent;
use arfs_core::system::System;
use arfs_failstop::ProcessorId;

/// Frames per half of a power cycle: enough for the reconfiguration to
/// minimal service (or back) to complete and the system to settle.
const HALF_CYCLE: u64 = 40;

/// The most entries any history may hold between frames (a trace-off
/// system holds one: the environment entry in effect).
const BOUND: usize = 8;

/// The lengths of every history a system keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Lengths {
    bus_log: usize,
    membership: usize,
    scram_log: usize,
    env_history: usize,
    events: usize,
    pool_events: usize,
}

impl Lengths {
    fn of(system: &System) -> Lengths {
        Lengths {
            bus_log: system.bus().log().len(),
            membership: system.bus().membership_len(),
            scram_log: system.scram().log_len(),
            env_history: system.environment().history().len(),
            events: system.events_len(),
            pool_events: system.pool().events_len(),
        }
    }

    fn max(self, other: Lengths) -> Lengths {
        Lengths {
            bus_log: self.bus_log.max(other.bus_log),
            membership: self.membership.max(other.membership),
            scram_log: self.scram_log.max(other.scram_log),
            env_history: self.env_history.max(other.env_history),
            events: self.events.max(other.events),
            pool_events: self.pool_events.max(other.pool_events),
        }
    }

    fn all(self) -> [usize; 6] {
        [
            self.bus_log,
            self.membership,
            self.scram_log,
            self.env_history,
            self.events,
            self.pool_events,
        ]
    }
}

/// The avionics system with the flight ring on and observability off —
/// a fleet cell — plus a one-frame bus flap of processor 0 in the
/// steady stretch of every power cycle, so the membership log has
/// something to record.
fn avionics(cycles: u64, recording: bool) -> System {
    let mut plan = FaultPlan::new();
    for cycle in 0..cycles {
        plan.push(
            cycle * 2 * HALF_CYCLE + HALF_CYCLE / 2,
            FaultKind::BusSilence {
                processor: ProcessorId::new(0),
                frames: 1,
            },
        );
    }
    let spec = Arc::new(avionics_spec().expect("avionics spec builds"));
    let mut system = System::builder_arc(spec)
        .observability(false)
        .flight_recorder(256)
        .fault_plan(plan)
        .build()
        .expect("system builds");
    system.set_trace_recording(recording);
    system
}

/// Runs one power loss to minimal service and the recovery back,
/// returning the largest history lengths seen after any frame.
fn power_cycle(system: &mut System) -> Lengths {
    let mut seen = Lengths::default();
    for (value, config) in [("battery", "minimal-service"), ("both", "full-service")] {
        system.set_env("electrical", value).expect("declared value");
        for _ in 0..HALF_CYCLE {
            system.advance_frame();
            seen = seen.max(Lengths::of(system));
        }
        assert_eq!(system.current_config().as_str(), config);
    }
    seen
}

/// Drives `cycles` power cycles; returns the largest lengths seen and
/// the lengths at the end.
fn drive(cycles: u64, recording: bool) -> (Lengths, Lengths) {
    let mut system = avionics(cycles, recording);
    let mut seen = Lengths::default();
    for _ in 0..cycles {
        seen = seen.max(power_cycle(&mut system));
    }
    (seen, Lengths::of(&system))
}

#[test]
fn trace_off_history_stays_bounded_over_power_cycles() {
    let (short, _) = drive(5, false);
    let (long, _) = drive(50, false);
    for lengths in [short, long] {
        assert!(
            lengths.all().iter().all(|&len| len <= BOUND),
            "every history must stay within {BOUND} entries: {lengths:?}"
        );
    }
    // Ten times the cycles, not one entry more at any frame.
    assert_eq!(short, long);

    // Non-vacuity: the same drive with recording on keeps everything,
    // so each history the drive feeds grows with the cycle count. The
    // pool's audit log records only additions and failures, so it is
    // bounded by the platform either way; recording on keeps the
    // construction records a trace-off system drops.
    let (_, short) = drive(5, true);
    let (_, long) = drive(50, true);
    let grown = [
        ("bus log", short.bus_log, long.bus_log),
        ("membership", short.membership, long.membership),
        ("SCRAM log", short.scram_log, long.scram_log),
        ("environment", short.env_history, long.env_history),
        ("events", short.events, long.events),
    ];
    for (name, short, long) in grown {
        assert!(long > BOUND && long > short, "{name}: {short} -> {long}");
    }
    assert!(long.pool_events > 0);
    assert_eq!(drive(50, false).1.pool_events, 0);
}

/// Everything a frame leaves for an outside observer.
#[derive(Debug, PartialEq)]
struct FrameView {
    fast: bool,
    config: String,
    last_state: Option<arfs_core::trace::SysState>,
    ring: Vec<RingEvent>,
    lengths: Lengths,
}

fn step(system: &mut System) -> FrameView {
    let fast = system.advance_frame();
    FrameView {
        fast,
        config: system.current_config().to_string(),
        last_state: system.last_state().cloned(),
        ring: system
            .flight_ring()
            .expect("ring enabled")
            .iter()
            .copied()
            .collect(),
        lengths: Lengths::of(system),
    }
}

#[test]
fn forking_after_a_drop_leaves_the_parent_equal_to_an_unforked_twin() {
    let mut parent = avionics(3, false);
    let mut twin = avionics(3, false);
    power_cycle(&mut parent);
    power_cycle(&mut twin);
    // The parent's histories were dropped at its last full frame; the
    // child starts from those drained logs.
    let mut child = parent.fork();

    child.set_env("electrical", "one").expect("declared value");
    child.fail_processor(ProcessorId::new(1));
    for value in ["battery", "both"] {
        parent.set_env("electrical", value).expect("declared value");
        twin.set_env("electrical", value).expect("declared value");
        for frame in 0..HALF_CYCLE {
            // The child runs first and diverges every frame: its drops
            // and appends must not reach the parent's logs.
            step(&mut child);
            assert_eq!(step(&mut parent), step(&mut twin), "{value} frame {frame}");
        }
    }
    assert_eq!(parent.current_config().as_str(), "full-service");
    assert_eq!(parent.bus().log(), twin.bus().log());
    assert_eq!(parent.scram().log(), twin.scram().log());
    assert_eq!(parent.events(), twin.events());
    assert_eq!(parent.environment().history(), twin.environment().history());
    assert_ne!(
        child.pool().alive_ids().count(),
        parent.pool().alive_ids().count(),
        "the child diverged"
    );
}
