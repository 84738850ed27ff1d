//! The typed event stream: one [`Event`] per fact a
//! [`System`](crate::system::System) records.
//!
//! Every fact — a frame boundary, an environment change, a Figure 1
//! signal, a SCRAM decision, a chaos fault or defense, an application
//! failure, a substrate audit entry — is built once as an [`Event`] and
//! handed to `System::emit`, the only code that writes a sink. Each
//! sink is a view derived from the variant:
//!
//! - the flight ring keeps [`Event::ring`]'s `(kind, a, b)`;
//! - the journal keeps [`Event::journal`]'s `(subsystem, kind, payload)`;
//! - the metrics registry bumps [`EventKind::counter`];
//! - the event log keeps the events [`Event::logged`] admits and renders
//!   them as [`SystemEvent`]s through [`Event::system_event`].
//!
//! Variants name applications, configurations, environment factors and
//! values by their index in the specification — a functional
//! specification by its index among its application's declared ones,
//! one past the end for the implicit `off` — so recording an event never
//! allocates. Names come back only when a view is rendered.

use arfs_failstop::{PoolEvent, ProcessorId};
use arfs_rtos::Ticks;
use arfs_ttbus::MembershipChange;
use serde_json::{json, Value};

use super::journal::Subsystem;
use crate::app::ConfigStatus;
use crate::environment::EnvState;
use crate::scram::Phase;
use crate::spec::{FunctionalSpec, ReconfigSpec};
use crate::system::SystemEvent;
use crate::SpecId;

/// What kind of fact an [`Event`] records. Its name is the journal's
/// `kind` and, for the kinds the flight ring keeps, the ring code's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A run of steady-state fast frames (ring only).
    FastFrames,
    /// A run of full frames (ring only; journaled as `frame-start`).
    FullFrames,
    /// A full frame started.
    FrameStart,
    /// A full frame ended.
    FrameEnd,
    /// An environment factor changed value.
    EnvChanged,
    /// Figure 1's fault edge: environment → SCRAM.
    FaultSignal,
    /// A processor fail-stopped on request.
    ProcessorFailed,
    /// A chaos fault: a stable-storage commit tore.
    TornWrite,
    /// A chaos fault: a processor went bus-silent.
    BusSilenced,
    /// A chaos fault: injected clock jitter.
    ClockJitter,
    /// A chaos defense: a silent processor was quarantined.
    Quarantined,
    /// The SCRAM accepted a reconfiguration trigger.
    TriggerAccepted,
    /// The SCRAM entered a protocol phase.
    PhaseEntered,
    /// A mid-reconfiguration retarget (§5.3).
    Retargeted,
    /// A reconfiguration completed.
    Completed,
    /// A trigger was suppressed by the dwell guard.
    DwellSuppressed,
    /// A chaos defense: the commit retry path fired.
    CommitRetry,
    /// A chaos defense: fallback to the safe configuration.
    SafeFallback,
    /// A `configuration_status` commit to stable storage.
    StableCommit,
    /// Figure 1's reconfiguration edge: SCRAM → application.
    ReconfigSignal,
    /// Figure 1's status edge: application → SCRAM.
    StatusSignal,
    /// An application was lost with its failed host processor.
    AppLost,
    /// An application stage returned an error.
    StageError,
    /// An application overran its compute budget.
    DeadlineMiss,
    /// The bus membership service saw a node join or drop.
    MembershipChanged,
    /// A processor-pool audit entry (journaled under the pool's kind).
    PoolAudit,
}

impl EventKind {
    /// The one table every sink reads: `(name, subsystem, counter)`.
    fn row(self) -> (&'static str, Subsystem, Option<&'static str>) {
        use EventKind as K;
        use Subsystem as S;
        match self {
            K::FastFrames => ("fast-frames", S::System, None),
            K::FullFrames => ("full-frames", S::System, None),
            K::FrameStart => ("frame-start", S::System, Some("frames")),
            K::FrameEnd => ("frame-end", S::System, None),
            K::EnvChanged => ("env-changed", S::Env, None),
            K::FaultSignal => ("fault-signal", S::Env, Some("signals.fault")),
            K::ProcessorFailed => (
                "fault-injected",
                S::Failstop,
                Some("failstop.fault_injections"),
            ),
            K::TornWrite => ("torn-write", S::Failstop, Some("chaos.faults_injected")),
            K::BusSilenced => ("bus-silenced", S::Bus, Some("chaos.faults_injected")),
            K::ClockJitter => ("clock-jitter", S::Rtos, Some("chaos.faults_injected")),
            K::Quarantined => ("quarantined", S::Failstop, Some("chaos.quarantines")),
            K::TriggerAccepted => ("trigger-accepted", S::Scram, Some("scram.triggers")),
            K::PhaseEntered => ("phase-entered", S::Scram, None),
            K::Retargeted => ("retargeted", S::Scram, Some("scram.retargets")),
            K::Completed => ("completed", S::Scram, Some("scram.completions")),
            K::DwellSuppressed => ("dwell-suppressed", S::Scram, Some("scram.dwell_suppressed")),
            K::CommitRetry => ("commit-retry", S::Scram, Some("chaos.commit_retries")),
            K::SafeFallback => ("safe-fallback", S::Scram, Some("chaos.safe_fallbacks")),
            K::StableCommit => ("stable-commit", S::System, Some("stable.commits")),
            K::ReconfigSignal => ("reconfig-signal", S::System, Some("signals.reconfig")),
            K::StatusSignal => ("status-signal", S::App, Some("signals.status")),
            K::AppLost => ("app-lost", S::App, None),
            K::StageError => ("stage-error", S::App, Some("app.stage_errors")),
            K::DeadlineMiss => ("deadline-miss", S::Rtos, Some("rtos.deadline_misses")),
            K::MembershipChanged => ("membership-changed", S::Bus, Some("bus.membership_changes")),
            K::PoolAudit => ("pool-audit", S::Failstop, None),
        }
    }

    /// The stable kebab-case name.
    pub fn as_str(self) -> &'static str {
        self.row().0
    }

    /// The architectural element that raises this kind of event.
    pub fn subsystem(self) -> Subsystem {
        self.row().1
    }

    /// The metrics counter one event of this kind bumps, if any.
    pub fn counter(self) -> Option<&'static str> {
        self.row().2
    }

    /// Whether the ring coalesces consecutive events of this kind into
    /// one run (see [`FlightRing::bump_run`](super::FlightRing::bump_run)).
    pub fn is_run(self) -> bool {
        matches!(self, EventKind::FastFrames | EventKind::FullFrames)
    }

    /// Whether this kind is a chaos-defense activation (counted by
    /// `System::defense_events`, the fleet's triage trigger).
    pub fn is_defense(self) -> bool {
        use EventKind as K;
        matches!(self, K::CommitRetry | K::SafeFallback | K::Quarantined)
    }
}

/// One fact a [`System`](crate::system::System) records; see the
/// [module documentation](self). `app`, `config`, `factor`, `value` and
/// `spec` arguments are indices into the specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A steady-state fast frame ran.
    FastFrame,
    /// A full frame started: `(config)`.
    FrameStart(u32),
    /// A full frame ended: `(config, whether any app ran a non-normal
    /// command)`.
    FrameEnd(u32, bool),
    /// An environment factor took a new value: `(factor, value)`.
    EnvChanged(u32, u32),
    /// That change, signalled to the SCRAM: `(factor, value)`.
    FaultSignal(u32, u32),
    /// A requested processor failure took effect.
    ProcessorFailed(ProcessorId),
    /// An app's frame commit tore (chaos plan or failpoint): `(app)`.
    TornWrite(u32),
    /// A processor went bus-silent: `(processor, window frames)`.
    BusSilenced(ProcessorId, u64),
    /// Clock jitter inflated an app's consumed ticks: `(app, ticks)`.
    ClockJitter(u32, u64),
    /// A persistently silent processor was force-failed:
    /// `(processor, silent frames observed)`.
    Quarantined(ProcessorId, u64),
    /// The SCRAM accepted a trigger: `(source config, target config)`.
    TriggerAccepted(u32, u32),
    /// The SCRAM entered a protocol phase: `(phase, target config)`.
    PhaseEntered(Phase, u32),
    /// A mid-reconfiguration trigger replaced the target:
    /// `(old target config, new target config)`.
    Retargeted(u32, u32),
    /// A reconfiguration completed: `(config, latency)`, the latency in
    /// frames counting the trigger and completion frames.
    Completed(u32, Option<u64>),
    /// A trigger was suppressed by the dwell guard until a frame.
    DwellSuppressed(u64),
    /// A torn commit was absorbed by the retry budget:
    /// `(target config, retry frames used, budget)`.
    CommitRetry(u32, u64, u64),
    /// The retry budget ran out: `(abandoned config, safe config)`.
    SafeFallback(u32, u32),
    /// A non-normal command was committed to an app's stable storage:
    /// `(app, status, target spec)`.
    StableCommit(u32, ConfigStatus, Option<u32>),
    /// The SCRAM signalled a command to an app: `(app, status)`.
    ReconfigSignal(u32, ConfigStatus),
    /// An app signalled a finished stage to the SCRAM: `(app, stage)`.
    StatusSignal(u32, ConfigStatus),
    /// An app could not run because its host failed: `(app, host)`.
    AppLost(u32, ProcessorId),
    /// An app's stage failed: `(app, stage, the app's error text)`.
    StageError(u32, ConfigStatus, String),
    /// An app overran its budget: `(app, consumed, budget)`.
    DeadlineMiss(u32, Ticks, Ticks),
    /// A bus membership change, tailed from the bus's own log.
    MembershipChanged(MembershipChange),
    /// A processor-pool audit entry, tailed from the pool's own log.
    PoolAudit(PoolEvent),
}

pub(super) fn config(spec: &ReconfigSpec, index: u32) -> String {
    spec.configs()[index as usize].id().to_string()
}

pub(super) fn app(spec: &ReconfigSpec, index: u32) -> String {
    spec.apps()[index as usize].id().to_string()
}

pub(super) fn factor_value(spec: &ReconfigSpec, factor: u32, value: u32) -> (&str, &str) {
    let f = &spec.env_model().factors()[factor as usize];
    (f.name(), &f.domain()[value as usize])
}

/// Saturates a count into a ring argument.
fn arg(v: u64) -> u32 {
    v.min(u64::from(u32::MAX)) as u32
}

impl Event {
    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        use EventKind as K;
        match self {
            Event::FastFrame => K::FastFrames,
            Event::FrameStart(..) => K::FrameStart,
            Event::FrameEnd(..) => K::FrameEnd,
            Event::EnvChanged(..) => K::EnvChanged,
            Event::FaultSignal(..) => K::FaultSignal,
            Event::ProcessorFailed(..) => K::ProcessorFailed,
            Event::TornWrite(..) => K::TornWrite,
            Event::BusSilenced(..) => K::BusSilenced,
            Event::ClockJitter(..) => K::ClockJitter,
            Event::Quarantined(..) => K::Quarantined,
            Event::TriggerAccepted(..) => K::TriggerAccepted,
            Event::PhaseEntered(..) => K::PhaseEntered,
            Event::Retargeted(..) => K::Retargeted,
            Event::Completed(..) => K::Completed,
            Event::DwellSuppressed(..) => K::DwellSuppressed,
            Event::CommitRetry(..) => K::CommitRetry,
            Event::SafeFallback(..) => K::SafeFallback,
            Event::StableCommit(..) => K::StableCommit,
            Event::ReconfigSignal(..) => K::ReconfigSignal,
            Event::StatusSignal(..) => K::StatusSignal,
            Event::AppLost(..) => K::AppLost,
            Event::StageError(..) => K::StageError,
            Event::DeadlineMiss(..) => K::DeadlineMiss,
            Event::MembershipChanged(..) => K::MembershipChanged,
            Event::PoolAudit(..) => K::PoolAudit,
        }
    }

    /// The flight-ring view: the code and its `(a, b)` arguments, or
    /// `None` for kinds the ring does not keep. The arguments are the
    /// variant's own (a phase by [`Phase::index`], a processor by its
    /// id, a completion's unknown latency as 0, the budget of a deadline
    /// miss dropped); counts wider than 32 bits saturate. Run codes
    /// ([`EventKind::is_run`]) carry none.
    pub fn ring(&self) -> Option<(EventKind, u32, u32)> {
        use Event as E;
        let (a, b) = match *self {
            E::FastFrame => (0, 0),
            E::FrameStart(_) => return Some((EventKind::FullFrames, 0, 0)),
            E::EnvChanged(f, v) => (f, v),
            E::ProcessorFailed(p) => (p.raw(), 0),
            E::TriggerAccepted(from, to) => (from, to),
            E::PhaseEntered(phase, target) => (phase.index(), target),
            E::Retargeted(old, new) => (old, new),
            E::Completed(config, cycles) => (config, arg(cycles.unwrap_or(0))),
            E::DwellSuppressed(until) => (arg(until), 0),
            E::CommitRetry(_, used, budget) => (arg(used), arg(budget)),
            E::SafeFallback(abandoned, safe) => (abandoned, safe),
            E::TornWrite(app) | E::StageError(app, ..) => (app, 0),
            E::BusSilenced(p, frames) => (p.raw(), arg(frames)),
            E::ClockJitter(app, ticks) => (app, arg(ticks)),
            E::Quarantined(p, silent) => (p.raw(), arg(silent)),
            E::DeadlineMiss(app, consumed, _) => (app, arg(consumed.raw())),
            E::AppLost(app, p) => (app, p.raw()),
            _ => return None,
        };
        Some((self.kind(), a, b))
    }

    /// Whether the event log keeps this event (it has a
    /// [`SystemEvent`] view).
    pub fn logged(&self) -> bool {
        use Event as E;
        matches!(
            self,
            E::EnvChanged(..)
                | E::FaultSignal(..)
                | E::ProcessorFailed(..)
                | E::Quarantined(..)
                | E::ReconfigSignal(..)
                | E::StatusSignal(..)
                | E::AppLost(..)
                | E::StageError(..)
                | E::DeadlineMiss(..)
        )
    }

    /// The `(from, to, topic, detail)` of a Figure 1 signal.
    fn signal(&self, spec: &ReconfigSpec) -> Option<(String, String, &'static str, String)> {
        let scram = || "scram".to_owned();
        Some(match *self {
            Event::FaultSignal(f, v) => {
                let (f, v) = factor_value(spec, f, v);
                ("environment".into(), scram(), "fault", format!("{f}={v}"))
            }
            Event::ReconfigSignal(a, status) => {
                let a = app(spec, a);
                let detail = format!("{a}:{status}");
                (scram(), a, "reconfig", detail)
            }
            Event::StatusSignal(a, status) => {
                let a = app(spec, a);
                let detail = format!("{a}:{status}:done");
                (a, scram(), "status", detail)
            }
            _ => return None,
        })
    }

    /// The event-log view, for the events [`logged`](Event::logged)
    /// admits.
    pub fn system_event(&self, frame: u64, spec: &ReconfigSpec) -> Option<SystemEvent> {
        if let Some((from, to, topic, detail)) = self.signal(spec) {
            let topic = topic.into();
            return Some(SystemEvent::SignalSent {
                frame,
                from,
                to,
                topic,
                detail,
            });
        }
        let app = |a: u32| spec.apps()[a as usize].id().clone();
        Some(match self {
            Event::EnvChanged(f, v) => {
                let (factor, value) = factor_value(spec, *f, *v);
                let (factor, value) = (factor.into(), value.into());
                SystemEvent::EnvChanged {
                    frame,
                    factor,
                    value,
                }
            }
            Event::ProcessorFailed(processor) | Event::Quarantined(processor, _) => {
                SystemEvent::ProcessorDown {
                    frame,
                    processor: *processor,
                }
            }
            Event::AppLost(a, processor) => SystemEvent::AppLost {
                frame,
                app: app(*a),
                processor: *processor,
            },
            Event::StageError(a, stage, error) => SystemEvent::AppStageError {
                frame,
                app: app(*a),
                stage: stage.as_str().into(),
                error: error.clone(),
            },
            Event::DeadlineMiss(a, consumed, budget) => {
                let (consumed, budget) = (*consumed, *budget);
                SystemEvent::DeadlineMiss {
                    frame,
                    app: app(*a),
                    consumed,
                    budget,
                }
            }
            _ => return None,
        })
    }

    /// The journal view: `(subsystem, kind, payload)`. `env` is the
    /// environment in effect for the frame — the state a
    /// `trigger-accepted` event reports as its cause.
    pub fn journal(
        &self,
        frame: u64,
        spec: &ReconfigSpec,
        env: &EnvState,
    ) -> (Subsystem, &'static str, Value) {
        let kind = self.kind();
        let name = match self {
            Event::PoolAudit(event) => event.kind(),
            _ => kind.as_str(),
        };
        (kind.subsystem(), name, self.payload(frame, spec, env))
    }

    fn payload(&self, frame: u64, spec: &ReconfigSpec, env: &EnvState) -> Value {
        let app = |a| app(spec, a);
        let config = |c| config(spec, c);
        if let Some((from, to, _, detail)) = self.signal(spec) {
            return json!({"from": from, "to": to, "detail": detail});
        }
        match *self {
            Event::FrameStart(c) => json!({"config": config(c)}),
            Event::FrameEnd(c, restricted) => {
                json!({"config": config(c), "restricted": restricted})
            }
            Event::EnvChanged(f, v) => {
                let (factor, value) = factor_value(spec, f, v);
                json!({"factor": factor, "value": value})
            }
            Event::ProcessorFailed(p) => json!({"processor": u64::from(p.raw())}),
            Event::TornWrite(a) => json!({"app": app(a)}),
            Event::BusSilenced(p, frames) => {
                json!({"processor": u64::from(p.raw()), "frames": frames})
            }
            Event::ClockJitter(a, ticks) => json!({"app": app(a), "ticks": ticks}),
            Event::Quarantined(p, silent) => {
                json!({"processor": u64::from(p.raw()), "silent_frames": silent})
            }
            Event::TriggerAccepted(from, target) => {
                let c = |i: u32| spec.configs()[i as usize].id();
                let interrupted = spec.interrupted_apps(c(from), c(target));
                json!({
                    "env": env.to_string(),
                    "from": config(from),
                    "target": config(target),
                    "interrupted": interrupted.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
                })
            }
            Event::PhaseEntered(phase, t) => {
                json!({"phase": phase.to_string(), "target": config(t)})
            }
            Event::Retargeted(old, new) => {
                json!({"old_target": config(old), "new_target": config(new)})
            }
            Event::Completed(c, cycles) => json!({"config": config(c), "cycles": cycles}),
            Event::DwellSuppressed(until) => json!({"until": until}),
            Event::CommitRetry(t, used, budget) => {
                json!({"target": config(t), "used": used, "budget": budget})
            }
            Event::SafeFallback(abandoned, safe) => {
                json!({"abandoned": config(abandoned), "safe": config(safe)})
            }
            Event::StableCommit(a, status, target) => {
                let specs = spec.apps()[a as usize].specs();
                let target = target.map(|t| spec_name(specs, t).to_string());
                json!({"app": app(a), "status": status.as_str(), "target": target})
            }
            Event::AppLost(a, p) => json!({"app": app(a), "processor": u64::from(p.raw())}),
            Event::StageError(a, stage, ref error) => {
                json!({"app": app(a), "stage": stage.as_str(), "error": error.as_str()})
            }
            Event::DeadlineMiss(a, consumed, budget) => {
                // The executive's health-monitor view of the overrun
                // (the paper's "timing monitor" trigger source).
                let kind = arfs_rtos::HealthKind::DeadlineMiss { consumed, budget };
                let health = arfs_rtos::HealthEvent {
                    frame,
                    partition: app(a),
                    kind,
                };
                json!({
                    "app": health.partition.as_str(),
                    "consumed": consumed.raw(),
                    "budget": budget.raw(),
                    "detail": health.to_string(),
                })
            }
            Event::MembershipChanged(change) => json!({
                "round": change.round,
                "node": change.node.to_string(),
                "present": change.present,
            }),
            Event::PoolAudit(ref event) => Value::Str(format!("{event:?}")),
            Event::FastFrame
            | Event::FaultSignal(..)
            | Event::ReconfigSignal(..)
            | Event::StatusSignal(..) => Value::Null,
        }
    }
}

/// The index of `id` among an application's declared specifications;
/// one past the end stands for the implicit `off`.
pub(crate) fn spec_index(specs: &[FunctionalSpec], id: &SpecId) -> u32 {
    specs
        .iter()
        .position(|s| s.id() == id)
        .unwrap_or(specs.len()) as u32
}

fn spec_name(specs: &[FunctionalSpec], index: u32) -> SpecId {
    specs
        .get(index as usize)
        .map_or_else(SpecId::off, |s| s.id().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [EventKind; 26] = [
        EventKind::FastFrames,
        EventKind::FullFrames,
        EventKind::FrameStart,
        EventKind::FrameEnd,
        EventKind::EnvChanged,
        EventKind::FaultSignal,
        EventKind::ProcessorFailed,
        EventKind::TornWrite,
        EventKind::BusSilenced,
        EventKind::ClockJitter,
        EventKind::Quarantined,
        EventKind::TriggerAccepted,
        EventKind::PhaseEntered,
        EventKind::Retargeted,
        EventKind::Completed,
        EventKind::DwellSuppressed,
        EventKind::CommitRetry,
        EventKind::SafeFallback,
        EventKind::StableCommit,
        EventKind::ReconfigSignal,
        EventKind::StatusSignal,
        EventKind::AppLost,
        EventKind::StageError,
        EventKind::DeadlineMiss,
        EventKind::MembershipChanged,
        EventKind::PoolAudit,
    ];

    #[test]
    fn every_kind_has_a_unique_stable_name() {
        let mut names = std::collections::BTreeSet::new();
        for kind in ALL {
            let name = kind.as_str();
            assert!(name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-' || c.is_ascii_digit()));
            assert!(names.insert(name), "`{name}` names two kinds");
        }
    }

    #[test]
    fn ring_codes_are_the_event_kinds() {
        let events = [
            Event::FastFrame,
            Event::FrameStart(0),
            Event::EnvChanged(1, 2),
            Event::Completed(3, Some(u64::MAX)),
            Event::StageError(4, ConfigStatus::Halt, "boom".into()),
        ];
        let rings: Vec<_> = events.iter().map(Event::ring).collect();
        assert_eq!(
            rings,
            [
                Some((EventKind::FastFrames, 0, 0)),
                Some((EventKind::FullFrames, 0, 0)),
                Some((EventKind::EnvChanged, 1, 2)),
                Some((EventKind::Completed, 3, u32::MAX)),
                Some((EventKind::StageError, 4, 0)),
            ]
        );
        // Every non-run ring code is its event's own kind.
        for (event, ring) in events.iter().zip(&rings) {
            let (code, _, _) = ring.expect("kept by the ring");
            assert!(code.is_run() || code == event.kind());
        }
        assert_eq!(Event::FrameEnd(0, false).ring(), None);
    }

    #[test]
    fn the_implicit_off_spec_indexes_one_past_the_declared_specs() {
        let specs = [FunctionalSpec::new("full"), FunctionalSpec::new("direct")];
        assert_eq!(spec_index(&specs, &SpecId::new("direct")), 1);
        assert_eq!(spec_index(&specs, &SpecId::off()), 2);
        assert_eq!(spec_name(&specs, 1), SpecId::new("direct"));
        assert_eq!(spec_name(&specs, 2), SpecId::off());
    }
}
