//! Experiment: state-space exploration cost of the bounded model
//! checker — the seed replay engine vs. the prefix-sharing,
//! work-stealing tree walk.
//!
//! For each case this harness reports the size of the bounded schedule
//! space, how many trie nodes the walk actually simulates (explored vs.
//! elided-as-no-op), the frames simulated by each engine, and measured
//! throughput — then cross-checks that every engine reaches the same
//! verdict. The headline case runs the extended four-app UAV
//! specification to horizon 30 with up to three environment changes
//! (151,879 schedules), which the seed engine has no hope of covering
//! interactively.
//!
//! Each case also runs with the certified partial-order reduction on
//! ([`ModelChecker::with_por`]): choice-equivalence merging plus
//! quiescent-state fingerprint dedup, cross-checked against the plain
//! walk's verdict and against the accounting invariant
//! `run + elided + merged = total`. The content-hashed
//! [`IndependenceCertificate`] artifacts CI gates on are regenerated
//! into `results/independence_{avionics,extended}.json`.
//!
//! A second sweep runs every known-bad SCRAM mutation against the
//! avionics specification: each must fail the check, and the flight
//! recorder's shrunk, replayed counterexample is written to
//! `results/counterexample_<slug>.json` (render with `arfs-trace
//! explain`). The walk profiler's span timings and per-worker
//! steal/run/elide counters land in `BENCH_model_check.json` alongside
//! the throughput numbers.
//!
//! The harness also measures the substrate fork cost directly — the
//! price the prefix-sharing walk pays at every branch point, on a
//! system carrying 200 frames of history the way the checker builds
//! them.
//!
//! Usage: `exp_statespace [--smoke]` — `--smoke` runs only the small
//! cross-checked cases plus the mutant sweep (the CI entry point).
//! Exits 1 on a failed verification or agreement check; exits 3 when
//! the walk loses to the seed engine on `avionics_h14_e1`, or the fork
//! cost or the `exhaustive_h30_e3_extended` POR time regresses against
//! the last `results/BENCH_model_check.json` from the same core count
//! and mode.

use arfs_avionics::{known_bad_mutations, KNOWN_BAD_HORIZON};
use arfs_bench::{
    banner, recorded, write_json, write_text, Better, ExitCode, Run, Samples, TextTable,
    RECORDING_FLOOR, SAMPLES,
};
use arfs_core::lint::IndependenceCertificate;
use arfs_core::model::ModelChecker;
use arfs_core::system::System;

/// The small case the walk must never lose to the seed engine on: a
/// wallclock regression here fails the run with exit code 3.
const GUARD_CASE: &str = "avionics_h14_e1";

/// How badly the walk must lose on [`GUARD_CASE`] before the guard
/// fires: both a ratio band and an absolute floor, because the case
/// completes in ~0.5 ms and a raw `walk > seed` comparison flips on
/// scheduler noise a few microseconds wide. The regression this guard
/// exists for — the work-stealing pool setup dominating tiny spaces
/// before the `SERIAL_CUTOVER` fast path — was a multiple-of-seed,
/// milliseconds-scale loss, comfortably past both thresholds.
const GUARD_RATIO: f64 = 1.5;
const GUARD_FLOOR_SECS: f64 = 500e-6;

/// The case whose POR wallclock is gated against the previous recording.
const POR_GATE_CASE: &str = "exhaustive_h30_e3_extended";

/// Measures the substrate fork cost the walk pays at every branch
/// point, in nanoseconds: a system built the way the checker builds
/// them (observability off) carrying 200 frames of history including
/// several reconfigurations. With copy-on-write substrate state this
/// must stay flat as history accumulates; a deep-copy regression shows
/// up here first and linearly. Each sample is the mean of 20,000 forks
/// (~50 ms), so a short host stall moves one sample, not the median.
fn measure_fork_cost_ns() -> Samples {
    let spec = arfs_avionics::avionics_spec().expect("valid spec");
    let mut system = System::builder(spec)
        .observability(false)
        .build()
        .expect("builds");
    let values = ["both", "one", "battery", "one"];
    let mut level = 0;
    for f in 0..200u64 {
        if f % 25 == 24 {
            level = (level + 1) % values.len();
            system
                .set_env("electrical", values[level])
                .expect("known factor");
        }
        system.run_frame();
    }
    for _ in 0..500 {
        std::hint::black_box(system.fork());
    }
    let forks = 20_000;
    let (_, secs) = Samples::time(SAMPLES, || {
        for _ in 0..forks {
            std::hint::black_box(system.fork());
        }
    });
    Samples(secs.0.iter().map(|s| s * 1e9 / forks as f64).collect())
}

fn main() -> ExitCode {
    let mut run = Run::start("state-space exploration: engine comparison");
    let (smoke, threads) = (run.smoke, run.cores);

    let avionics = arfs_avionics::avionics_spec().expect("valid spec");
    let extended = arfs_avionics::extended::extended_uav_spec().expect("valid spec");

    // Regenerate the independence certificates CI gates on
    // (`arfs-lint independence <spec> --check results/...`).
    banner("independence certificates");
    let mut certificates = Vec::new();
    for (slug, spec) in [("avionics", &avionics), ("extended", &extended)] {
        let cert = IndependenceCertificate::build(spec);
        let path = write_json(&format!("independence_{slug}.json"), &cert);
        println!(
            "{slug}: spec {} ({} commuting pairs) -> {}",
            cert.spec_hash,
            cert.commuting_pairs.len(),
            path.display()
        );
        certificates.push(serde_json::json!({
            "spec": slug,
            "spec_hash": cert.spec_hash,
            "commuting_pairs": cert.commuting_pairs.len(),
            "artifact": path.display().to_string(),
        }));
    }

    // (name, spec, horizon, max events, whether to time the seed replay
    // engine too — skipped where replaying every schedule is the point of
    // not having to)
    let mut cases = vec![
        ("avionics_h14_e1", avionics.clone(), 14, 1, true),
        ("avionics_h16_e2", avionics.clone(), 16, 2, true),
    ];
    if !smoke {
        cases.extend([
            ("avionics_h22_e2", avionics, 22, 2, true),
            ("exhaustive_h30_e3_extended", extended.clone(), 30, 3, false),
            // The horizon the cheap forks and busy-state merging buy:
            // exhaustive coverage of the four-app UAV spec to 50 frames.
            ("exhaustive_h50_e3_extended", extended, 50, 3, false),
        ]);
    }

    let mut table = TextTable::new([
        "case",
        "schedules",
        "explored",
        "elided",
        "merged",
        "walk s",
        "por s",
        "seed s",
        "speedup",
        "por gain",
    ]);
    let mut artifacts = Vec::new();
    let mut all_passed = true;
    let mut engines_agree = true;
    let baseline = run.baseline("BENCH_model_check.json");

    for (name, spec, horizon, max_events, run_reference) in cases {
        let mc = ModelChecker::new(spec.clone(), horizon, max_events);
        let total = mc.total_schedule_count();

        // Small cases finish in microseconds and the h14/e1 guard below
        // reads their medians; the gated headline case is sampled too.
        let rounds = if total < 1_000 || name == POR_GATE_CASE {
            SAMPLES
        } else {
            1
        };
        let (parallel, walk) = Samples::time(rounds, || mc.run_parallel(threads));
        let walk_secs = walk.median();
        all_passed &= parallel.all_passed();

        // The same space under certified partial-order reduction:
        // choice-equivalence merging + quiescent fingerprint dedup.
        let por_mc = ModelChecker::new(spec, horizon, max_events).with_por();
        let (por, por_time) = Samples::time(rounds, || por_mc.run_parallel(threads));
        let por_secs = por_time.median();
        if name == POR_GATE_CASE {
            let prev = recorded(baseline.as_ref(), &["cases", POR_GATE_CASE, "por_secs"]);
            run.gate(
                &format!("{POR_GATE_CASE} POR seconds"),
                Better::Lower,
                RECORDING_FLOOR,
                prev.as_ref(),
                &por_time,
            );
        }
        all_passed &= por.all_passed();
        engines_agree &= por.all_passed() == parallel.all_passed();
        engines_agree &= por.cases_run + por.cases_elided + por.cases_merged == total;

        // The true seed engine replayed every schedule — elision is an
        // optimization of this PR — so its work is total × horizon
        // frames regardless of which engine stands in for it here.
        let seed_equiv_frames = (total as u64) * horizon;
        let seed = run_reference.then(|| {
            let (reference, seed) = Samples::time(rounds, || mc.run_reference());
            engines_agree &= reference == parallel;
            engines_agree &= reference.all_passed() == por.all_passed();
            seed
        });
        if let (GUARD_CASE, Some(seed)) = (name, &seed) {
            // Both bands as one tolerance: the walk may take 1.5x the
            // seed engine, or the seed time plus the absolute floor.
            let floor = (GUARD_RATIO - 1.0).max(GUARD_FLOOR_SECS / seed.median());
            run.gate(
                &format!("{GUARD_CASE} walk seconds vs the seed engine"),
                Better::Lower,
                floor,
                Some(seed),
                &walk,
            );
        }
        let seed_secs = seed.as_ref().map(Samples::median);
        let speedup = seed_secs.map(|s| s / walk_secs);

        table.row([
            name.to_string(),
            total.to_string(),
            parallel.cases_run.to_string(),
            parallel.cases_elided.to_string(),
            por.cases_merged.to_string(),
            format!("{walk_secs:.3}"),
            format!("{por_secs:.3}"),
            seed_secs.map_or("-".into(), |s| format!("{s:.3}")),
            speedup.map_or("-".into(), |s| format!("{s:.1}x")),
            format!("{:.1}x", walk_secs / por_secs.max(1e-9)),
        ]);
        artifacts.push(serde_json::json!({
            "case": name,
            "horizon": horizon,
            "max_events": max_events,
            "threads": threads,
            "schedules_total": total,
            "trie_nodes": parallel.cases_run,
            "cases_elided": parallel.cases_elided,
            "frames_walk": parallel.frames_simulated,
            "frames_seed_equivalent": seed_equiv_frames,
            "frame_reduction": seed_equiv_frames as f64 / parallel.frames_simulated.max(1) as f64,
            "walk_secs": walk,
            "walk_cases_per_sec": total as f64 / walk_secs.max(1e-9),
            "seed_secs": seed,
            "seed_cases_per_sec": seed_secs.map(|s| total as f64 / s.max(1e-9)),
            "speedup_wallclock": speedup,
            "por_cases_run": por.cases_run,
            "por_cases_merged": por.cases_merged,
            "por_frames_walk": por.frames_simulated,
            "por_secs": por_time,
            "por_gain_wallclock": walk_secs / por_secs.max(1e-9),
            "all_passed": parallel.all_passed(),
            "profile": parallel.metrics,
            "por_profile": por.metrics,
        }));
        println!(
            "{}: {} ({} frames, {:.3}s walk / {:.3}s por, {} threads)",
            name, por, parallel.frames_simulated, walk_secs, por_secs, threads
        );
    }

    println!("\n{table}");
    run.verdict("SP1-SP4 hold on every explored schedule", all_passed);
    run.verdict(
        "walk, POR, and seed engines report identical outcomes",
        engines_agree,
    );

    // The verification-of-the-verifier sweep: every known-bad mutation
    // must fail the check, and each failure's flight-recorder artifact
    // goes to `results/counterexample_<slug>.json`.
    banner("known-bad mutants: counterexample flight recorder");
    let avionics = arfs_avionics::avionics_spec().expect("valid spec");
    let mut mutants = Vec::new();
    let mut all_caught = true;
    for (slug, mutation) in known_bad_mutations() {
        let mc = ModelChecker::new(avionics.clone(), KNOWN_BAD_HORIZON, 1)
            .with_mutation(mutation.clone());
        let (report, secs) = Samples::time(1, || mc.run_parallel(threads));
        let caught = !report.all_passed();
        all_caught &= caught;
        let artifact = report.counterexample.as_ref().map(|ce| {
            let path = write_text(&format!("counterexample_{slug}.json"), &ce.to_json_pretty());
            println!(
                "{slug}: {} -> minimized `{}` ({} shrink steps, chain ends @{:?}) -> {}",
                report.failures.len(),
                ce.minimized,
                ce.shrink_steps.len(),
                ce.violating_frame(),
                path.display()
            );
            path.display().to_string()
        });
        if artifact.is_none() {
            println!("{slug}: NOT CAUGHT ({report})");
        }
        mutants.push(serde_json::json!({
            "mutant": slug,
            "mutation": format!("{mutation:?}"),
            "horizon": KNOWN_BAD_HORIZON,
            "caught": caught,
            "failures": report.failures.len(),
            "shrink_steps": report.counterexample.as_ref().map(|ce| ce.shrink_steps.len()),
            "minimized_events": report.counterexample.as_ref().map(|ce| ce.minimized.0.len()),
            "violating_frame": report.counterexample.as_ref().and_then(|ce| ce.violating_frame()),
            "counterexample_artifact": artifact,
            "check_secs": secs,
            "profile": report.metrics,
        }));
    }
    run.verdict(
        "every known-bad mutant caught with a counterexample artifact",
        all_caught,
    );

    // --- Fork-cost gate against the previous recording. ---
    banner("fork-cost gate");
    let fork_cost_ns = measure_fork_cost_ns();
    let prev = recorded(baseline.as_ref(), &["fork_cost_ns"]);
    run.gate(
        "substrate fork ns (200-frame history, observability off)",
        Better::Lower,
        RECORDING_FLOOR,
        prev.as_ref(),
        &fork_cost_ns,
    );

    run.finish(
        "BENCH_model_check.json",
        serde_json::json!({
            "fork_cost_ns": fork_cost_ns,
            "certificates": certificates,
            "cases": artifacts,
            "mutants": mutants,
        }),
    )
}
