//! Frame-batched journal writing in the compact binary encoding.
//!
//! Writing each [`JournalEvent`] straight to an output flushes one small
//! write per event — fine for one system, ruinous for a fleet of 10⁵
//! journaling thousands of events per wall-clock second. A
//! [`BatchedJournalWriter`] encodes records with the length-prefixed
//! codec from [`super::codec`] (what the fleet's background writer
//! emits; decode back to JSON-Lines with `arfs-trace fleet decode`) into
//! one reusable byte buffer and pushes them to its sink only every K
//! frames (or on an explicit [`flush`](BatchedJournalWriter::flush)).
//!
//! Batching cannot reorder events **within** one system: events are
//! appended in the order the journal recorded them, the buffer is
//! strictly FIFO, and a flush writes the whole buffer in one call —
//! only the *timing* of the write moves, never the sequence. (Across
//! systems the fleet layer concatenates per-system sections in system-id
//! order, so aggregate output is deterministic too.)

use std::io::{self, Write};

use super::codec;
use super::journal::JournalEvent;

/// A buffered binary journal sink that flushes once per frame batch
/// instead of once per event. See the [module documentation](self).
#[derive(Debug)]
pub struct BatchedJournalWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
    /// Flush whenever this many frames have completed since the last
    /// flush (0 behaves like 1: flush every frame).
    flush_every_frames: u64,
    frames_since_flush: u64,
    records_written: u64,
    bytes_flushed: u64,
}

impl<W: Write> BatchedJournalWriter<W> {
    /// Creates a writer that flushes its buffer to `out` every
    /// `flush_every_frames` completed frames. The caller is responsible
    /// for the file magic (see [`codec::encode_magic`]) — the fleet
    /// writes it once per aggregate journal, not once per system
    /// section.
    pub fn new_binary(out: W, flush_every_frames: u64) -> Self {
        BatchedJournalWriter {
            out,
            buf: Vec::new(),
            flush_every_frames: flush_every_frames.max(1),
            frames_since_flush: 0,
            records_written: 0,
            bytes_flushed: 0,
        }
    }

    /// Encodes one event into the buffer (no I/O).
    pub fn append(&mut self, event: &JournalEvent) {
        codec::encode_event(&mut self.buf, event);
        self.records_written += 1;
    }

    /// Marks one frame as complete, flushing if the batch interval has
    /// elapsed.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the underlying sink.
    pub fn frame_complete(&mut self) -> io::Result<()> {
        self.frames_since_flush += 1;
        if self.frames_since_flush >= self.flush_every_frames {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes the buffered records to the sink and clears the buffer
    /// (retaining its capacity).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the underlying sink.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.out.write_all(&self.buf)?;
            self.out.flush()?;
            self.bytes_flushed += self.buf.len() as u64;
            self.buf.clear();
        }
        self.frames_since_flush = 0;
        Ok(())
    }

    /// Total records appended so far (flushed or still buffered).
    pub fn lines_written(&self) -> u64 {
        self.records_written
    }

    /// Total bytes pushed to the sink so far.
    pub fn bytes_flushed(&self) -> u64 {
        self.bytes_flushed
    }

    /// Flushes any remaining buffered records and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the final flush.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::codec::{BinaryJournalReader, BinaryRecord};
    use crate::obs::Subsystem;

    fn event(frame: u64, kind: &str) -> JournalEvent {
        JournalEvent {
            frame,
            subsystem: Subsystem::System,
            kind: kind.to_owned(),
            payload: serde_json::json!({"k": kind}),
        }
    }

    fn decode(bytes: &[u8]) -> Vec<JournalEvent> {
        BinaryJournalReader::after_magic(bytes)
            .map(|r| match r.expect("decodes") {
                BinaryRecord::Event(e) => e,
                other => panic!("unexpected record {other:?}"),
            })
            .collect()
    }

    #[test]
    fn batched_output_preserves_fifo_order() {
        let mut expected = Vec::new();
        let mut writer = BatchedJournalWriter::new_binary(Vec::new(), 4);
        for frame in 0..10 {
            for kind in ["frame-start", "frame-end"] {
                let e = event(frame, kind);
                writer.append(&e);
                expected.push(e);
            }
            writer.frame_complete().unwrap();
        }
        assert_eq!(writer.lines_written(), expected.len() as u64);
        assert_eq!(decode(&writer.into_inner().unwrap()), expected);
    }

    #[test]
    fn flush_happens_per_batch_not_per_event() {
        let mut writer = BatchedJournalWriter::new_binary(Vec::new(), 3);
        for frame in 0..2 {
            writer.append(&event(frame, "x"));
            writer.frame_complete().unwrap();
        }
        assert_eq!(writer.bytes_flushed(), 0, "no flush before the batch fills");
        writer.append(&event(2, "x"));
        writer.frame_complete().unwrap();
        assert!(
            writer.bytes_flushed() > 0,
            "third frame completes the batch"
        );
        assert_eq!(writer.lines_written(), 3);
    }

    #[test]
    fn into_inner_flushes_the_tail() {
        let mut writer = BatchedJournalWriter::new_binary(Vec::new(), 1000);
        writer.append(&event(0, "x"));
        writer.append(&event(1, "y"));
        assert_eq!(writer.bytes_flushed(), 0);
        let out = writer.into_inner().unwrap();
        assert_eq!(decode(&out), [event(0, "x"), event(1, "y")]);
    }

    #[test]
    fn binary_encoding_is_smaller_than_json_lines() {
        let events: Vec<JournalEvent> = (0..100).map(|f| event(f, "frame-start")).collect();
        let mut binary = BatchedJournalWriter::new_binary(Vec::new(), 1);
        let mut json = 0;
        for e in &events {
            binary.append(e);
            json += e.to_json_line().len() + 1;
        }
        let binary_bytes = binary.into_inner().unwrap();
        assert!(
            binary_bytes.len() < json,
            "binary {} vs json {json}",
            binary_bytes.len()
        );
    }
}
