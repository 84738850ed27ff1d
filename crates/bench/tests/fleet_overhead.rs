//! `arfs-trace fleet overhead` on two small `BENCH_fleet.json`
//! artifacts, run through the built binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use arfs_bench::Samples;

/// A fresh scratch directory for this test's artifacts.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("arfs-fleet-overhead-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A minimal artifact in the samples form `exp_fleet` writes.
fn artifact(fleet_1k: &[f64], obs_off: &[f64], obs_on: &[f64]) -> serde_json::Value {
    let samples = |v: &[f64]| Samples(v.to_vec());
    serde_json::json!({
        "experiment": "exp_fleet",
        "host": { "cores": 2, "os": "linux", "arch": "x86_64" },
        "smoke": true,
        "cases": [
            { "case": "fleet_1k", "frames_per_sec": samples(fleet_1k) },
        ],
        "obs": {
            "frames_per_sec_obs_off": samples(obs_off),
            "frames_per_sec_obs_on": samples(obs_on),
        },
    })
}

fn write(dir: &Path, name: &str, value: &serde_json::Value) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, serde_json::to_string_pretty(value).unwrap()).unwrap();
    path
}

fn overhead(a: &Path, b: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_arfs-trace"))
        .args(["fleet", "overhead"])
        .arg(a)
        .arg(b)
        .output()
        .unwrap()
}

#[test]
fn compares_medians_with_ranges_and_overhead() {
    let dir = scratch("ok");
    let a = write(
        &dir,
        "a.json",
        &artifact(
            &[90.0, 100.0, 110.0],
            &[110.0, 111.0, 112.0],
            &[100.0, 101.0, 102.0],
        ),
    );
    let b = write(
        &dir,
        "b.json",
        &artifact(
            &[140.0, 150.0, 160.0],
            &[200.0, 200.0, 200.0],
            &[200.0, 200.0, 200.0],
        ),
    );
    let out = overhead(&a, &b);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("| fleet_1k"), "{stdout}");
    assert!(stdout.contains("100 [90, 110]"), "{stdout}");
    assert!(stdout.contains("150 [140, 160]"), "{stdout}");
    assert!(stdout.contains("+50.0%"), "{stdout}");
    // A: 111 / 101 - 1; B: no overhead.
    assert!(
        stdout.contains("A: observability overhead 9.9%"),
        "{stdout}"
    );
    assert!(
        stdout.contains("B: observability overhead 0.0%"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_bare_number_is_not_a_samples_record() {
    let dir = scratch("bare");
    let a = write(&dir, "a.json", &artifact(&[100.0], &[100.0], &[100.0]));
    // The single-number form of earlier artifacts.
    let old = serde_json::json!({
        "cases": [{ "case": "fleet_1k", "frames_per_sec": 100.0 }],
        "obs": { "overhead_fraction": 0.05 },
    });
    let b = write(&dir, "b.json", &old);
    let out = overhead(&a, &b);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("frames_per_sec"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}
