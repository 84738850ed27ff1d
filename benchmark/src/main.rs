//! The repository benchmark: three workloads driven through the public
//! entry points of `arfs_core::{fleet, system, model, lint}`.
//!
//! ```text
//! arfs-benchmark --workload <fleet-quiet|fleet-stimulated|check-extended>
//!                [--seed N] [--seconds S] [--trace 0|1] [--plant DEFECT]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no clocks inside
//! the program's layers; `--trace 1` makes a separate traced pass that
//! clocks each call into a layer's public functions and prints the
//! per-layer metrics. `--plant` seeds a known protocol defect (a
//! negative control: the output checks must then fail the run).
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The line before it
//! is a JSON detail record (host parallelism, sample counts, medians,
//! quartiles, output checks). The exit code is 0 only when every output
//! check passed; 1 when a check failed; 2 on a usage error.

mod check;
mod expected;
mod fleet;
mod layers;
mod stats;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde_json::{json, Value};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10⁴ avionics cells with no stimuli: nearly every frame is fast.
    FleetQuiet,
    /// 10⁴ cells driven by the default random scenarios, journal sampled.
    FleetStimulated,
    /// Exhaustive POR model check of the extended UAV spec.
    CheckExtended,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet-quiet" => Some(Workload::FleetQuiet),
            "fleet-stimulated" => Some(Workload::FleetStimulated),
            "check-extended" => Some(Workload::CheckExtended),
            _ => None,
        }
    }

    /// The workload's name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetQuiet => "fleet-quiet",
            Workload::FleetStimulated => "fleet-stimulated",
            Workload::CheckExtended => "check-extended",
        }
    }
}

/// Checked command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub plant: Option<String>,
    /// Internal: take exactly one untraced sample and print its record
    /// (see [`sample_in_child`]).
    pub one_sample: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = Duration::from_secs(10);
    let mut trace = false;
    let mut plant = None;
    let mut one_sample = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == ONE_SAMPLE {
            one_sample = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if s == 0 || s > 600 {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds = Duration::from_secs(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--plant" => plant = Some(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        plant,
        one_sample,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Spread over the run's samples, when the value is a median of
    /// several.
    pub spread: Option<stats::Summary>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            spread: None,
        }
    }

    /// A metric reported as the median of `samples`.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = stats::Summary::of(samples);
        Metric {
            name,
            unit,
            value: summary.median,
            spread: Some(summary),
        }
    }
}

/// What one workload run produced: its metrics, output-check verdicts
/// and bookkeeping for the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cell runs, or explored schedules).
    pub attempted: u64,
    /// Operations that violated a property.
    pub violated: u64,
    /// Output checks that failed, one line each.
    pub check_failures: Vec<String>,
    /// Output checks that passed, one line each.
    pub checks_passed: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra workload-specific detail for the detail record.
    pub detail: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.checks_passed.push(what);
        } else {
            self.check_failures.push(what);
        }
    }

    /// `true` when no output check failed and nothing violated a property.
    fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.violated == 0
    }

    /// Failed operations for the result line: a run whose output checks
    /// fail counts as all-failed.
    fn failed(&self) -> u64 {
        if self.check_failures.is_empty() {
            self.violated
        } else {
            self.attempted.max(1)
        }
    }
}

/// The flag that makes a process take one sample for its parent.
const ONE_SAMPLE: &str = "--one-sample";

/// Takes one untraced sample in a fresh process of this program and
/// parses the record it prints. Each sample gets its own address space
/// and memory placement, so a run's samples are independent draws
/// rather than repeats inside one process.
pub fn sample_in_child<T: serde::Deserialize>(args: &Args) -> Result<T, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        ONE_SAMPLE,
    ]);
    if let Some(plant) = &args.plant {
        command.args(["--plant", plant]);
    }
    // `output` waits for the child to exit.
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a sample process: {e}"))?;
    if !output.status.success() {
        return Err(format!("a sample process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("a sample process printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("unreadable sample record: {e}"))
}

/// Takes samples until the next one, if it lasts as long as the last,
/// would end past `budget`; at least one.
pub fn sample_until<T>(
    budget: Duration,
    mut take: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let before = started.elapsed();
        samples.push(take()?);
        let now = started.elapsed();
        if now + (now - before) > budget {
            return Ok(samples);
        }
    }
}

/// A JSON object with entries in the given order.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(key, value)| (Value::Str(key.to_owned()), value))
            .collect(),
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("arfs-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if args.one_sample {
        let record = match args.workload {
            Workload::FleetQuiet | Workload::FleetStimulated => fleet::one_sample(&args),
            Workload::CheckExtended => check::one_sample(&args),
        };
        return match record {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("arfs-benchmark: {message}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match args.workload {
        Workload::FleetQuiet | Workload::FleetStimulated => fleet::run(&args),
        Workload::CheckExtended => check::run(&args),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("arfs-benchmark: {message}");
            return ExitCode::from(2);
        }
    };

    let correct = outcome.correct();
    let failed = outcome.failed();
    let failed_ratio = failed as f64 / outcome.attempted.max(1) as f64;

    println!(
        "workload {} seed {} trace {} nproc {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        nproc()
    );
    for m in &outcome.metrics {
        match &m.spread {
            Some(s) => println!(
                "  {:<36} {:>16.6} {:<6} (n={} q1={:.6} q3={:.6})",
                m.name, m.value, m.unit, s.n, s.q1, s.q3
            ),
            None => println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    println!("  {:<36} {:>16.6} ratio", "failed_ratio", failed_ratio);
    println!(
        "  check {}: no property violation ({} of {} attempted)",
        if outcome.violated == 0 {
            "ok    "
        } else {
            "FAILED"
        },
        outcome.violated,
        outcome.attempted
    );
    for line in &outcome.checks_passed {
        println!("  check ok    : {line}");
    }
    for line in &outcome.check_failures {
        println!("  check FAILED: {line}");
    }

    let summaries = outcome
        .metrics
        .iter()
        .filter_map(|m| Some((m.name, m.spread.as_ref()?.to_json(m.unit))))
        .collect();
    let mut detail = vec![
        ("workload", json!(args.workload.name())),
        ("seed", json!(args.seed)),
        ("trace", json!(args.trace)),
        ("nproc", json!(nproc() as u64)),
        ("plant", json!(args.plant)),
        ("failed_ratio", json!(failed_ratio)),
        ("summaries", object(summaries)),
        ("check_failures", json!(outcome.check_failures)),
    ];
    detail.extend(outcome.detail.iter().cloned());
    println!("{}", serde_json::to_string_infallible(&object(detail)));

    let metrics = outcome
        .metrics
        .iter()
        .map(|m| (m.name, json!({"value": m.value, "unit": m.unit})))
        .collect();
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted.max(1),
        "failed": failed,
        "metrics": object(metrics),
    });
    println!("{}", serde_json::to_string_infallible(&result));

    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
