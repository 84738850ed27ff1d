//! Order statistics, peak memory and a stable digest.

use serde_json::{json, Value};

/// Median and quartiles of a run's samples.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    /// The samples in the order they were taken.
    pub samples: Vec<f64>,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles by the "exclusive" method (Python's
    /// `statistics.quantiles(values, n=4)`); one sample is its own
    /// quartiles.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Summary {
                n,
                samples: samples.to_vec(),
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            samples: samples.to_vec(),
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    pub fn to_json(&self, unit: &str) -> Value {
        json!({
            "unit": unit,
            "n": self.n as u64,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "samples": self.samples,
        })
    }
}

/// The `q`-th percentile (0..=100) of `sorted` by nearest rank, or 0
/// for no samples.
pub fn percentile(sorted: &[u64], q: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1] as f64
}

#[repr(C)]
struct Rusage {
    utime: [std::ffi::c_long; 2],
    stime: [std::ffi::c_long; 2],
    maxrss: std::ffi::c_long,
    rest: [std::ffi::c_long; 13],
}

extern "C" {
    fn getrusage(who: std::ffi::c_int, usage: *mut Rusage) -> std::ffi::c_int;
}

/// The process's peak resident set size in bytes so far.
pub fn peak_rss_bytes() -> u64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` (two
    // `timeval`s of two `long`s, then fourteen `long`s — the Linux
    // layout), and RUSAGE_SELF (0) only writes into it.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // Linux reports ru_maxrss in kilobytes.
    u64::try_from(usage.maxrss).expect("non-negative maxrss") * 1024
}

/// FNV-1a, 64-bit: a digest that is the same on every host and build.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4)
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }
}
