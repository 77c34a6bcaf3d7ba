//! Shared measurement plumbing: the input RNG, percentiles, the metric
//! sink, the result line, and `/proc` / `getrusage` memory readings.
//!
//! Nothing here calls into the repository's crates — inputs must not
//! change when a library layer changes, so the workloads draw them from
//! the benchmark's own SplitMix64 stream.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded input stream.
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[low, high)`.
    pub fn range(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (NaN when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail statistic: the highest sample with at least ten samples above
/// it, returned with the percentile it sits at. With fewer than eleven
/// samples it is the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = sorted.len().saturating_sub(11);
    (sorted[idx], (idx + 1) as f64 / sorted.len() as f64 * 100.0)
}

/// Window of the dse-sweep and paper tails: ~4 s holds ~30 sweep batches
/// and ~40 paper batches, so a window's tail sits near p65–p72.
pub const TAIL_WINDOW_SECONDS: f64 = 4.0;

/// Runs operations back to back for `seconds` (at least twelve batches,
/// but stops after three times `seconds`), in batches of `batch`. `op(i)`
/// runs and checks operation `i` and returns the time of the part under
/// test. Returns each batch's start, in seconds from the first, and its
/// mean time per operation, in milliseconds.
pub fn timed_batches(
    seconds: f64,
    batch: usize,
    mut op: impl FnMut(usize) -> Duration,
) -> Vec<(f64, f64)> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut batches = Vec::new();
    let mut i = 0;
    while start.elapsed() < budget || batches.len() < 12 {
        let at = start.elapsed().as_secs_f64();
        let mut total = Duration::ZERO;
        for _ in 0..batch {
            total += op(i);
            i += 1;
        }
        batches.push((at, ms(total) / batch as f64));
        if start.elapsed() > budget * 3 {
            break;
        }
    }
    batches
}

/// The tail of each `window`-second slice of `(start_s, value)` samples
/// (by start time), median over the slices with at least eleven samples,
/// returned with the median percentile the slice tails sit at. A stall
/// then moves one slice's tail, not the run's. With no such slice it is
/// the whole run's [`tail`].
pub fn windowed_tail(samples: &[(f64, f64)], window: f64) -> (f64, f64) {
    let mut slices: Vec<Vec<f64>> = Vec::new();
    for &(start, value) in samples {
        let k = (start / window) as usize;
        if slices.len() <= k {
            slices.resize(k + 1, Vec::new());
        }
        slices[k].push(value);
    }
    let tails: Vec<(f64, f64)> =
        slices.iter().filter(|v| v.len() >= 11).map(|v| tail(v)).collect();
    if tails.is_empty() {
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        return tail(&all);
    }
    let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let pct: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (median(&values), median(&pct))
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics and operation counts, then prints the result line.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations whose output disagreed with the oracle (a subset of
    /// `failed`).
    pub wrong: u64,
    /// Human-readable notes printed to stderr (oracle mismatches, flags).
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Counts one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one operation whose output was checked against an oracle.
    pub fn checked(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.wrong += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// The JSON result line. A non-finite metric makes the run incorrect
    /// and is reported as `null`.
    pub fn result_line(&self) -> String {
        let mut finite = true;
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                finite = false;
                "null".to_owned()
            };
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        let correct = finite && self.wrong == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Escapes `s` as a JSON string literal (for the engine record).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

const KIB_PER_MIB: f64 = (1u32 << 10) as f64;

/// `VmHWM` (peak resident set) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / KIB_PER_MIB)
}

/// Peak resident set of the largest reaped child process, in MiB, from
/// `getrusage(RUSAGE_CHILDREN)`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_max_rss_mb() -> Option<f64> {
    // Only `maxrss` is read; the other fields give the C layout.
    #[allow(dead_code)]
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[allow(dead_code)]
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // x86-64/aarch64 layout (two `timeval`s of two `long`s, then fourteen
    // `long`s); getrusage writes only within it and retains no pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / KIB_PER_MIB)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_max_rss_mb() -> Option<f64> {
    None
}
