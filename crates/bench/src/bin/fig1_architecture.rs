//! Regenerates **Figure 1 — Logical System Architecture** as a signal
//! audit.
//!
//! Figure 1 shows the architecture's signal paths: hardware fault
//! signals and application fault/status signals flow *into* the SCRAM;
//! reconfiguration signals flow *out* to the applications; everything
//! rides the real-time data bus over the computing platform. This
//! harness runs one alternator-failure reconfiguration and replays the
//! frame-scoped observability journal (`arfs_core::obs`): every signal
//! that crossed an architecture edge is a journal event, so the table,
//! the edge verdicts, and the SFTA protocol walk all come from the same
//! JSON-Lines record that ships as an artifact.

use arfs_avionics::AvionicsSystem;
use arfs_bench::{write_observability, ExitCode, Run, TextTable};
use arfs_core::obs::JournalEvent;

/// A payload field rendered for the table: strings verbatim, anything
/// else as JSON, absent fields blank.
fn field(event: &JournalEvent, key: &str) -> String {
    match event.payload.get(key) {
        Some(serde_json::Value::Str(s)) => s.clone(),
        Some(other) => serde_json::to_string(other).unwrap_or_default(),
        None => String::new(),
    }
}

fn main() -> ExitCode {
    let mut run = Run::start("Figure 1: logical architecture signal flows");

    let mut av = AvionicsSystem::new().expect("builds");
    av.engage_autopilot();
    av.run_frames(10);
    av.fail_alternator(1);
    av.run_frames(10);

    // --- The signal table, replayed from the journal. ---
    let journal = av.system().journal();
    let mut table = TextTable::new(["Frame", "From", "To", "Signal", "Detail"]);
    let mut rows = 0usize;
    for event in journal.events() {
        let topic = match event.kind.as_str() {
            "fault-signal" => "fault",
            "reconfig-signal" => "reconfig",
            "status-signal" => "status",
            _ => continue,
        };
        table.row([
            event.frame.to_string(),
            field(event, "from"),
            field(event, "to"),
            topic.to_string(),
            field(event, "detail"),
        ]);
        rows += 1;
    }
    println!("{table}");
    println!("{rows} signals logged");

    // --- Figure 1 edges. ---
    let fault_edge = journal.of_kind("fault-signal").count() > 0;
    let reconfig_edge = journal.of_kind("reconfig-signal").count() > 0;
    let status_edge = journal.of_kind("status-signal").count() > 0;
    run.verdict("fault signals: environment monitor -> SCRAM", fault_edge);
    run.verdict(
        "reconfiguration signals: SCRAM -> applications",
        reconfig_edge,
    );
    run.verdict(
        "application status signals: applications -> SCRAM",
        status_edge,
    );

    // Everything rode the simulated time-triggered bus.
    let bus_log = av.system().bus().log();
    let bus_topics: Vec<&str> = bus_log.iter().map(|d| d.message.topic()).collect();
    run.verdict(
        "all three signal kinds appear on the real-time data bus",
        ["fault", "reconfig", "status"]
            .iter()
            .all(|t| bus_topics.contains(t)),
    );

    // --- The SFTA protocol walk (Table 1), also from the journal. ---
    let phases: Vec<String> = journal
        .of_kind("phase-entered")
        .map(|e| field(e, "phase"))
        .collect();
    run.verdict(
        "SCRAM walked halt -> prepare -> initialize",
        phases == ["halt", "prepare", "initialize"],
    );
    run.verdict(
        "trigger, stable-storage commits, and completion journaled",
        journal.of_kind("trigger-accepted").count() == 1
            && journal.of_kind("stable-commit").count() > 0
            && journal.of_kind("completed").count() == 1,
    );
    run.verdict(
        "reconfiguration completed over the architecture",
        av.system().current_config().as_str() == "reduced-service",
    );

    let (journal_path, metrics_path) = write_observability("fig1_architecture", av.system());
    println!("journal:  {}", journal_path.display());
    println!("metrics:  {}", metrics_path.display());
    run.finish(
        "fig1_architecture.json",
        &serde_json::json!({
            "signals_logged": rows,
            "journal_events": journal.len(),
            "bus_transmissions": av.system().bus().log().len(),
            "edges": {
                "fault": fault_edge,
                "reconfig": reconfig_edge,
                "status": status_edge,
            }
        }),
    )
}
