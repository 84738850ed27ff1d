//! Frame-scoped observability: the structured event journal and the
//! metrics registry.
//!
//! The paper's Figure 1 argument is about *signal flow* — failure
//! signals into the SCRAM, reconfiguration signals out to the
//! applications, status signals back — yet a running [`System`] is
//! otherwise a black box. This module makes the flow first-class:
//!
//! - [`journal`] — an append-only, frame-scoped event journal. Every
//!   auditable occurrence (a SCRAM decision, a protocol phase entry, a
//!   stable-storage commit, a bus membership change, a deadline miss, a
//!   fault injection) is one [`JournalEvent`] carrying
//!   `(frame, subsystem, kind, payload)` and serializing as one JSON
//!   line. Journals round-trip through
//!   [`Journal::to_json_lines`]/[`Journal::from_json_lines`], summarize
//!   ([`Journal::summary`]), and diff ([`Journal::diff`]); the
//!   `arfs-trace` CLI in `arfs-bench` drives all three from the shell.
//! - [`event`] — the typed [`Event`] stream and its [`EventKind`]
//!   table (journal kind, subsystem, counter, ring code).
//! - [`metrics`] — a registry of counters, gauges, and histograms
//!   (reconfiguration latency in cycles, SCRAM decision time,
//!   restricted-frame ratio) snapshot-able per run as a JSON artifact.
//! - [`counterexample`] — the model checker's flight-recorder artifact:
//!   a failing schedule delta-debugged to a 1-minimal form, replayed
//!   with observability on, and packaged with its journal, per-frame
//!   verdicts, and derived causal chain. `arfs-trace explain` renders
//!   it from the shell.
//! - [`ring`] — per-system flight-recorder ring buffers: fixed-capacity,
//!   heap-preallocated rings of compact 16-byte events written on the
//!   steady-state fast path with zero allocations, decoded via a
//!   spec-derived [`RingLegend`].
//! - [`codec`] — the length-prefixed binary journal encoding the fleet
//!   emits (JSON-Lines stays the interchange format; `arfs-trace fleet
//!   decode` converts back).
//! - [`writer`] — the background journal writer thread with a bounded
//!   channel and a documented lossless backpressure policy.
//! - [`triage`] — the [`TriageBundle`] evidence package (ring + seed +
//!   schedule + metrics + causal chain) a fleet emits when a streaming
//!   verifier violation or chaos defense fires.
//!
//! # One emission point
//!
//! [`System`](crate::system::System) records every fact it observes —
//! frame boundaries, environment changes, Figure 1 signals, SCRAM
//! decisions, chaos faults and defenses, application failures, substrate
//! audit entries — as one typed [`Event`] passed to `System::emit`, the
//! only code that writes a sink. The event log, the flight ring, the
//! journal and the metrics registry are views of that one stream, each
//! derived from the variant by one function in [`event`] (see the table
//! in DESIGN.md, § Observability), so they cannot disagree about what
//! happened. The ring and the event log record always; the journal and
//! the metrics only while observability is on (the default; the model
//! checker turns it off with
//! [`SystemBuilder::observability`](crate::system::SystemBuilder::observability)).
//! Wall-clock and bus-throughput samples are measurements, not facts,
//! and are the only metrics recorded outside `emit`.
//!
//! [`System`]: crate::system::System

pub mod batch;
pub mod codec;
pub mod counterexample;
pub mod event;
pub mod journal;
pub mod metrics;
pub mod ring;
pub mod triage;
pub mod writer;

pub use batch::BatchedJournalWriter;
pub use codec::{BinaryJournalReader, BinaryRecord, JournalBytes};
pub use counterexample::{CausalLink, Counterexample, FrameVerdict, ShrinkAction, ShrinkStep};
pub use event::{Event, EventKind};
pub use journal::{Journal, JournalDiff, JournalEvent, JournalSummary, Subsystem};
pub use metrics::{
    FleetMetrics, FleetMetricsSnapshot, HistogramSummary, Log2Bucket, Log2Histogram,
    Log2HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use ring::{DecodedRingEvent, FlightRing, RingEvent, RingLegend};
pub use triage::TriageBundle;
pub use writer::{BackgroundJournalWriter, JournalBatch, SystemJournal};
