//! Per-system flight-recorder ring buffers.
//!
//! The fleet runtime buys its throughput by journaling only 1-in-K
//! systems and running the unsampled majority with observability off —
//! so when a streaming SP1–SP4 violation or a chaos defense fires on an
//! unsampled system, the report used to carry a seed and a schedule but
//! no surrounding evidence. A [`FlightRing`] closes that gap: a
//! fixed-capacity, heap-preallocated ring of compact [`RingEvent`]s
//! (16 bytes each) that every system writes on the hot path with **zero
//! allocations** (proven by `tests/alloc_free_frame.rs`), then drains
//! into a [`TriageBundle`](super::triage::TriageBundle) only when
//! something goes wrong.
//!
//! # Compactness
//!
//! A ring event is `(frame, code, a, b)` — an [`EventKind`] plus two
//! `u32` arguments whose meaning depends on the kind, both derived from
//! the recorded [`Event`](super::Event) by
//! [`Event::ring`](super::Event::ring) (DESIGN.md § Observability tables
//! them). Names never enter the ring: configurations, environment
//! factors, and applications are referenced by their index in the
//! specification, and a [`RingLegend`] resolves indices back to names at
//! decode time, off the hot path.
//!
//! # Run-length coalescing
//!
//! Steady frames dominate a healthy system, and a naive ring of 256
//! events would hold ~256 frames of "nothing happened", evicting the
//! signal. [`FlightRing::bump_run`] coalesces consecutive events of the
//! same code into one event whose `a` argument is the run length, so a
//! quiet stretch of 10⁵ fast frames costs one slot and the interesting
//! events around a reconfiguration survive arbitrarily long runs.

use super::event::{self, EventKind};
use crate::scram::Phase;
use crate::spec::ReconfigSpec;

/// One compact flight-recorder event: 16 bytes, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingEvent {
    /// The frame the event occurred in (for coalesced runs: the first
    /// frame of the run).
    pub frame: u64,
    /// What happened.
    pub code: EventKind,
    /// First argument; see [`Event::ring`](super::Event::ring).
    pub a: u32,
    /// Second argument; see [`Event::ring`](super::Event::ring).
    pub b: u32,
}

/// A fixed-capacity ring of [`RingEvent`]s. All storage is allocated at
/// construction; pushes never touch the heap.
#[derive(Debug, Clone)]
pub struct FlightRing {
    buf: Box<[RingEvent]>,
    /// Index of the oldest event.
    head: usize,
    /// Number of live events.
    len: usize,
}

impl FlightRing {
    /// Allocates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let filler = RingEvent {
            frame: 0,
            code: EventKind::FastFrames,
            a: 0,
            b: 0,
        };
        FlightRing {
            buf: vec![filler; capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an event, evicting the oldest when full. No allocation.
    pub fn push(&mut self, event: RingEvent) {
        let cap = self.buf.len();
        if self.len < cap {
            self.buf[(self.head + self.len) % cap] = event;
            self.len += 1;
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % cap;
        }
    }

    /// Records one frame of a run: if the newest event already has this
    /// `code`, its run length (`a`) is bumped in place; otherwise a new
    /// run of length 1 starts at `frame`. No allocation either way.
    pub fn bump_run(&mut self, frame: u64, code: EventKind) {
        if let Some(last) = self.newest_mut() {
            if last.code == code {
                last.a = last.a.saturating_add(1);
                return;
            }
        }
        self.push(RingEvent {
            frame,
            code,
            a: 1,
            b: 0,
        });
    }

    fn newest_mut(&mut self) -> Option<&mut RingEvent> {
        if self.len == 0 {
            return None;
        }
        let cap = self.buf.len();
        let index = (self.head + self.len - 1) % cap;
        Some(&mut self.buf[index])
    }

    /// Iterates the live events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RingEvent> {
        let cap = self.buf.len();
        (0..self.len).map(move |i| &self.buf[(self.head + i) % cap])
    }
}

/// Resolves ring-event indices back to specification names.
#[derive(Debug, Clone, Copy)]
pub struct RingLegend<'a> {
    spec: &'a ReconfigSpec,
}

impl<'a> RingLegend<'a> {
    /// The legend for the specification the ring's system runs under.
    pub fn for_spec(spec: &'a ReconfigSpec) -> RingLegend<'a> {
        RingLegend { spec }
    }

    /// Decodes one compact event into its human-readable form.
    pub fn decode(&self, event: &RingEvent) -> DecodedRingEvent {
        let config = |c| event::config(self.spec, c);
        let app = |a| event::app(self.spec, a);
        let (count, detail) = match event.code {
            EventKind::FastFrames | EventKind::FullFrames => (u64::from(event.a), String::new()),
            EventKind::EnvChanged => {
                let (factor, value) = event::factor_value(self.spec, event.a, event.b);
                (1, format!("{factor}={value}"))
            }
            EventKind::ProcessorFailed => (1, format!("processor {}", event.a)),
            EventKind::TriggerAccepted => {
                (1, format!("{} -> {}", config(event.a), config(event.b)))
            }
            EventKind::PhaseEntered => {
                let phase = Phase::from_index(event.a).map_or("phase#?".into(), |p| p.to_string());
                (1, format!("{phase} (target {})", config(event.b)))
            }
            EventKind::Retargeted => (1, format!("{} -> {}", config(event.a), config(event.b))),
            EventKind::Completed => (1, format!("{} after {} cycles", config(event.a), event.b)),
            EventKind::DwellSuppressed => (1, format!("until frame {}", event.a)),
            EventKind::CommitRetry => (1, format!("retry {}/{}", event.a, event.b)),
            EventKind::SafeFallback => (
                1,
                format!("abandoned {} for {}", config(event.a), config(event.b)),
            ),
            EventKind::TornWrite => (1, app(event.a)),
            EventKind::BusSilenced => (1, format!("processor {} for {} frames", event.a, event.b)),
            EventKind::ClockJitter => (1, format!("{} +{} ticks", app(event.a), event.b)),
            EventKind::Quarantined => (
                1,
                format!("processor {} after {} silent frames", event.a, event.b),
            ),
            EventKind::DeadlineMiss => (1, format!("{} consumed {} ticks", app(event.a), event.b)),
            EventKind::StageError => (1, app(event.a)),
            EventKind::AppLost => (1, format!("{} on processor {}", app(event.a), event.b)),
            _ => (1, String::new()),
        };
        DecodedRingEvent {
            frame: event.frame,
            kind: event.code.as_str().to_owned(),
            count,
            detail,
        }
    }

    /// Decodes a whole ring, oldest first.
    pub fn decode_ring(&self, ring: &FlightRing) -> Vec<DecodedRingEvent> {
        ring.iter().map(|e| self.decode(e)).collect()
    }
}

/// A ring event with indices resolved to names — the serializable form
/// carried by triage bundles.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DecodedRingEvent {
    /// The frame of the event (first frame of a coalesced run).
    pub frame: u64,
    /// The [`EventKind`] name.
    pub kind: String,
    /// Run length for coalesced frame runs, 1 otherwise.
    pub count: u64,
    /// Human-readable arguments.
    pub detail: String,
}

impl std::fmt::Display for DecodedRingEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{} {}", self.frame, self.kind)?;
        if self.count > 1 {
            write!(f, " x{}", self.count)?;
        }
        if !self.detail.is_empty() {
            write!(f, " {}", self.detail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(frame: u64, code: EventKind) -> RingEvent {
        RingEvent {
            frame,
            code,
            a: 1,
            b: 2,
        }
    }

    #[test]
    fn ring_retains_newest_events() {
        let mut ring = FlightRing::new(3);
        assert!(ring.is_empty());
        for frame in 0..5 {
            ring.push(event(frame, EventKind::EnvChanged));
        }
        assert_eq!(ring.len(), 3);
        let frames: Vec<u64> = ring.iter().map(|e| e.frame).collect();
        assert_eq!(frames, vec![2, 3, 4]);
    }

    #[test]
    fn bump_run_coalesces_consecutive_frames() {
        let mut ring = FlightRing::new(4);
        for frame in 0..100 {
            ring.bump_run(frame, EventKind::FastFrames);
        }
        assert_eq!(ring.len(), 1);
        let run = ring.iter().next().unwrap();
        assert_eq!(run.frame, 0);
        assert_eq!(run.a, 100);

        ring.push(event(100, EventKind::TriggerAccepted));
        for frame in 101..104 {
            ring.bump_run(frame, EventKind::FullFrames);
        }
        for frame in 104..110 {
            ring.bump_run(frame, EventKind::FastFrames);
        }
        let kinds: Vec<EventKind> = ring.iter().map(|e| e.code).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::FastFrames,
                EventKind::TriggerAccepted,
                EventKind::FullFrames,
                EventKind::FastFrames
            ]
        );
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut ring = FlightRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(event(0, EventKind::EnvChanged));
        ring.push(event(1, EventKind::Completed));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.iter().next().unwrap().frame, 1);
    }

    #[test]
    fn decoded_events_render_compactly() {
        let d = DecodedRingEvent {
            frame: 7,
            kind: "fast-frames".into(),
            count: 12,
            detail: String::new(),
        };
        assert_eq!(d.to_string(), "@7 fast-frames x12");
        let d = DecodedRingEvent {
            frame: 9,
            kind: "env-changed".into(),
            count: 1,
            detail: "power=bad".into(),
        };
        assert_eq!(d.to_string(), "@9 env-changed power=bad");
    }
}
