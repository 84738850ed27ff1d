//! The flight ring, the journal, the metrics counters and the
//! `SystemEvent` log are views of one typed event stream. Over one
//! seeded run — chaos faults, a processor failure, a failing stage and
//! a trigger in the middle of a reconfiguration — they must agree event
//! for event on every kind they share.

use std::collections::BTreeMap;

use arfs_core::app::{AppContext, NullApp, ReconfigurableApp};
use arfs_core::chaos::{ChaosProfile, FaultKind, FaultPlan};
use arfs_core::obs::{JournalEvent, RingLegend};
use arfs_core::scram::MidReconfigPolicy;
use arfs_core::spec::{AppDecl, Configuration, FunctionalSpec, ReconfigSpec};
use arfs_core::system::{System, SystemEvent};
use arfs_core::{AppId, SpecId};
use arfs_failstop::ProcessorId;
use arfs_rtos::Ticks;
use serde_json::Value;

const SEED: u64 = 11;
const HORIZON: u64 = 48;

fn spec() -> ReconfigSpec {
    ReconfigSpec::builder()
        .frame_len(Ticks::new(100))
        .env_factor("power", ["good", "low", "critical"])
        .app(
            AppDecl::new("fcs")
                .spec(FunctionalSpec::new("full").compute(Ticks::new(30)))
                .spec(FunctionalSpec::new("direct").compute(Ticks::new(10))),
        )
        .app(
            AppDecl::new("autopilot")
                .spec(FunctionalSpec::new("full").compute(Ticks::new(30)))
                .spec(FunctionalSpec::new("alt-hold").compute(Ticks::new(10)))
                .depends_on("fcs"),
        )
        .config(
            Configuration::new("full-service")
                .assign("fcs", "full")
                .assign("autopilot", "full")
                .place("fcs", ProcessorId::new(0))
                .place("autopilot", ProcessorId::new(1)),
        )
        .config(
            Configuration::new("reduced")
                .assign("fcs", "direct")
                .assign("autopilot", "alt-hold")
                .place("fcs", ProcessorId::new(0))
                .place("autopilot", ProcessorId::new(1)),
        )
        .config(
            Configuration::new("minimal")
                .assign("fcs", "direct")
                .assign("autopilot", "off")
                .place("fcs", ProcessorId::new(0))
                .safe(),
        )
        .transition("full-service", "reduced", Ticks::new(800))
        .transition("full-service", "minimal", Ticks::new(800))
        .transition("reduced", "minimal", Ticks::new(800))
        .transition("reduced", "full-service", Ticks::new(800))
        .transition("minimal", "reduced", Ticks::new(800))
        .transition("minimal", "full-service", Ticks::new(800))
        .choose_when("power", "critical", "minimal")
        .choose_when("power", "low", "reduced")
        .choose_when("power", "good", "full-service")
        .initial_config("full-service")
        .initial_env([("power", "good")])
        .build()
        .expect("spec is structurally valid")
}

/// An autopilot whose halt stage always fails, with its own error text.
#[derive(Clone)]
struct FailingHalt(NullApp);

impl ReconfigurableApp for FailingHalt {
    fn id(&self) -> &AppId {
        self.0.id()
    }
    fn current_spec(&self) -> SpecId {
        self.0.current_spec()
    }
    fn run_normal(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        self.0.run_normal(ctx)
    }
    fn halt(&mut self, ctx: &mut AppContext<'_>) -> Result<(), String> {
        self.0.halt(ctx)?;
        Err("actuator did not acknowledge halt".into())
    }
    fn prepare(&mut self, ctx: &mut AppContext<'_>, t: &SpecId) -> Result<(), String> {
        self.0.prepare(ctx, t)
    }
    fn initialize(&mut self, ctx: &mut AppContext<'_>, t: &SpecId) -> Result<(), String> {
        self.0.initialize(ctx, t)
    }
    fn postcondition_established(&self) -> bool {
        self.0.postcondition_established()
    }
    fn precondition_established(&self, s: &SpecId) -> bool {
        self.0.precondition_established(s)
    }
    fn clone_box(&self) -> Box<dyn ReconfigurableApp> {
        Box::new(self.clone())
    }
}

fn run() -> System {
    let spec = spec();
    // A seeded random fault campaign, plus the faults this test needs
    // to be sure of: a torn halt commit, a jitter burst past the
    // budget, and a silence long enough to be quarantined.
    let mut plan = FaultPlan::random(SEED, &ChaosProfile::for_spec(&spec, HORIZON));
    plan.push(
        4,
        FaultKind::CommitFault {
            app: AppId::new("fcs"),
        },
    );
    plan.push(
        20,
        FaultKind::ClockJitter {
            app: AppId::new("fcs"),
            ticks: 500,
        },
    );
    plan.push(
        30,
        FaultKind::BusSilence {
            processor: ProcessorId::new(1),
            frames: 6,
        },
    );
    let mut system = System::builder(spec)
        .app(Box::new(NullApp::new("fcs", "full")))
        .app(Box::new(FailingHalt(NullApp::new("autopilot", "full"))))
        .mid_policy(MidReconfigPolicy::ImmediateRetarget)
        .fault_plan(plan)
        .flight_recorder(4096)
        .build()
        .expect("system builds");
    for frame in 0..HORIZON {
        match frame {
            3 => system.set_env("power", "low").expect("declared value"),
            // Mid-reconfiguration: the low-power reconfiguration is
            // still in flight.
            5 => system.set_env("power", "critical").expect("declared value"),
            16 => system.set_env("power", "good").expect("declared value"),
            40 => system.fail_processor(ProcessorId::new(0)),
            _ => {}
        }
        system.run_frame();
    }
    system
}

fn kinds(journal: &[JournalEvent], kind: &str) -> usize {
    journal.iter().filter(|e| e.kind == kind).count()
}

fn str_field<'a>(e: &'a JournalEvent, key: &str) -> &'a str {
    e.payload
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{e} lacks string `{key}`"))
}

fn u64_field(e: &JournalEvent, key: &str) -> u64 {
    e.payload
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("{e} lacks numeric `{key}`"))
}

#[test]
fn the_run_exercises_every_shared_kind() {
    let system = run();
    let journal = system.journal().events();
    for kind in [
        "env-changed",
        "fault-signal",
        "trigger-accepted",
        "retargeted",
        "completed",
        "commit-retry",
        "reconfig-signal",
        "status-signal",
        "stable-commit",
        "stage-error",
        "deadline-miss",
        "app-lost",
        "fault-injected",
        "quarantined",
        "torn-write",
        "bus-silenced",
        "clock-jitter",
        "membership-changed",
    ] {
        assert!(kinds(journal, kind) > 0, "the run never produced `{kind}`");
    }
}

#[test]
fn ring_and_journal_agree_event_for_event() {
    const RING_KINDS: [&str; 16] = [
        "env-changed",
        "fault-injected",
        "trigger-accepted",
        "phase-entered",
        "retargeted",
        "completed",
        "dwell-suppressed",
        "commit-retry",
        "safe-fallback",
        "torn-write",
        "bus-silenced",
        "clock-jitter",
        "quarantined",
        "deadline-miss",
        "stage-error",
        "app-lost",
    ];
    let system = run();
    let legend = RingLegend::for_spec(system.spec());
    let ring = legend.decode_ring(system.flight_ring().expect("ring enabled"));
    let journal = system.journal().events();

    // Full frames: one run per stretch, one `frame-start` per frame.
    let full: u64 = ring
        .iter()
        .filter(|e| e.kind == "full-frames")
        .map(|e| e.count)
        .sum();
    assert_eq!(full, kinds(journal, "frame-start") as u64);
    assert_eq!(full, HORIZON);

    let from_ring: Vec<(u64, &str)> = ring
        .iter()
        .filter(|e| e.kind != "full-frames")
        .map(|e| (e.frame, e.kind.as_str()))
        .collect();
    let from_journal: Vec<(u64, &str)> = journal
        .iter()
        .filter(|e| RING_KINDS.contains(&e.kind.as_str()))
        .map(|e| (e.frame, e.kind.as_str()))
        .collect();
    assert_eq!(from_ring, from_journal);

    // The arguments agree too, where the ring keeps them.
    for (r, j) in ring.iter().filter(|e| e.kind != "full-frames").zip(
        journal
            .iter()
            .filter(|e| RING_KINDS.contains(&e.kind.as_str())),
    ) {
        match j.kind.as_str() {
            "env-changed" => assert_eq!(
                r.detail,
                format!("{}={}", str_field(j, "factor"), str_field(j, "value"))
            ),
            "completed" => assert_eq!(
                r.detail,
                format!(
                    "{} after {} cycles",
                    str_field(j, "config"),
                    u64_field(j, "cycles")
                )
            ),
            "torn-write" | "stage-error" => assert_eq!(r.detail, str_field(j, "app")),
            "app-lost" => assert_eq!(
                r.detail,
                format!(
                    "{} on processor {}",
                    str_field(j, "app"),
                    u64_field(j, "processor")
                )
            ),
            "deadline-miss" => assert_eq!(
                r.detail,
                format!(
                    "{} consumed {} ticks",
                    str_field(j, "app"),
                    u64_field(j, "consumed")
                )
            ),
            _ => {}
        }
    }
}

#[test]
fn counters_count_the_journal() {
    const COUNTERS: [(&str, &[&str]); 17] = [
        ("frames", &["frame-start"]),
        ("signals.fault", &["fault-signal"]),
        ("signals.reconfig", &["reconfig-signal"]),
        ("signals.status", &["status-signal"]),
        ("stable.commits", &["stable-commit"]),
        ("failstop.fault_injections", &["fault-injected"]),
        (
            "chaos.faults_injected",
            &["torn-write", "bus-silenced", "clock-jitter"],
        ),
        ("chaos.quarantines", &["quarantined"]),
        ("chaos.commit_retries", &["commit-retry"]),
        ("chaos.safe_fallbacks", &["safe-fallback"]),
        ("scram.triggers", &["trigger-accepted"]),
        ("scram.retargets", &["retargeted"]),
        ("scram.completions", &["completed"]),
        ("scram.dwell_suppressed", &["dwell-suppressed"]),
        ("app.stage_errors", &["stage-error"]),
        ("rtos.deadline_misses", &["deadline-miss"]),
        ("bus.membership_changes", &["membership-changed"]),
    ];
    let system = run();
    let journal = system.journal().events();
    let snapshot = system.metrics_snapshot();
    for (counter, counted) in COUNTERS {
        let expected: usize = counted.iter().map(|k| kinds(journal, k)).sum();
        assert_eq!(
            snapshot.counters.get(counter).copied().unwrap_or(0),
            expected as u64,
            "counter `{counter}` disagrees with the journal"
        );
    }
    // No counter outside that table, other than the bus sample.
    for counter in snapshot.counters.keys() {
        assert!(
            counter == "bus.deliveries" || COUNTERS.iter().any(|(c, _)| c == counter),
            "unexpected counter `{counter}`"
        );
    }
    let latencies = journal
        .iter()
        .filter(|e| e.kind == "completed")
        .filter(|e| e.payload.get("cycles").and_then(Value::as_u64).is_some())
        .count();
    assert_eq!(
        snapshot.histograms["reconfig.latency_cycles"].count,
        latencies
    );
    let defenses = ["commit-retry", "safe-fallback", "quarantined"]
        .iter()
        .map(|k| kinds(journal, k))
        .sum::<usize>();
    assert_eq!(system.defense_events(), defenses as u64);
}

/// A comparable key for one fact, from either view.
type Fact = (u64, &'static str, String);

fn from_system_event(e: &SystemEvent) -> Fact {
    match e {
        SystemEvent::EnvChanged {
            frame,
            factor,
            value,
        } => (*frame, "env-changed", format!("{factor}={value}")),
        SystemEvent::SignalSent {
            frame,
            from,
            to,
            topic,
            detail,
        } => {
            let kind = match topic.as_str() {
                "fault" => "fault-signal",
                "reconfig" => "reconfig-signal",
                "status" => "status-signal",
                other => panic!("unknown topic {other}"),
            };
            (*frame, kind, format!("{from}>{to}:{detail}"))
        }
        SystemEvent::AppStageError {
            frame,
            app,
            stage,
            error,
        } => (*frame, "stage-error", format!("{app}:{stage}:{error}")),
        SystemEvent::DeadlineMiss {
            frame,
            app,
            consumed,
            budget,
        } => (
            *frame,
            "deadline-miss",
            format!("{app}:{}:{}", consumed.raw(), budget.raw()),
        ),
        SystemEvent::AppLost {
            frame,
            app,
            processor,
        } => (*frame, "app-lost", format!("{app}:{}", processor.raw())),
        SystemEvent::ProcessorDown { frame, processor } => {
            (*frame, "processor-down", processor.raw().to_string())
        }
    }
}

fn from_journal(e: &JournalEvent) -> Option<Fact> {
    let signal = || {
        format!(
            "{}>{}:{}",
            str_field(e, "from"),
            str_field(e, "to"),
            str_field(e, "detail")
        )
    };
    let (kind, detail) = match e.kind.as_str() {
        "env-changed" => (
            "env-changed",
            format!("{}={}", str_field(e, "factor"), str_field(e, "value")),
        ),
        "fault-signal" => ("fault-signal", signal()),
        "reconfig-signal" => ("reconfig-signal", signal()),
        "status-signal" => ("status-signal", signal()),
        "stage-error" => (
            "stage-error",
            format!(
                "{}:{}:{}",
                str_field(e, "app"),
                str_field(e, "stage"),
                str_field(e, "error")
            ),
        ),
        "deadline-miss" => (
            "deadline-miss",
            format!(
                "{}:{}:{}",
                str_field(e, "app"),
                u64_field(e, "consumed"),
                u64_field(e, "budget")
            ),
        ),
        "app-lost" => (
            "app-lost",
            format!("{}:{}", str_field(e, "app"), u64_field(e, "processor")),
        ),
        "fault-injected" | "quarantined" => {
            ("processor-down", u64_field(e, "processor").to_string())
        }
        _ => return None,
    };
    Some((e.frame, kind, detail))
}

#[test]
fn system_event_view_and_journal_agree_event_for_event() {
    let system = run();
    let from_events: Vec<Fact> = system.events().iter().map(from_system_event).collect();
    let from_journal: Vec<Fact> = system
        .journal()
        .events()
        .iter()
        .filter_map(from_journal)
        .collect();
    assert_eq!(from_events, from_journal);
    assert_eq!(system.events_len(), from_events.len());

    let mut per_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, kind, _) in &from_events {
        *per_kind.entry(kind).or_default() += 1;
    }
    assert!(per_kind["stage-error"] > 0 && per_kind["processor-down"] > 1);
    // The app supplied the stage-error text; the view keeps it verbatim.
    assert!(system.events().iter().any(|e| matches!(
        e,
        SystemEvent::AppStageError { stage, error, .. }
            if stage == "halt" && error == "actuator did not acknowledge halt"
    )));
}
