//! `cargo xtask bench` — the bench-trajectory harness.
//!
//! Builds the workspace in release mode, times every paper artifact
//! through the `act` binary, measures the parallel-vs-serial `act all`
//! speedup and the sweep throughput (`act bench-sweep`, including the
//! naive-vs-compiled model kernel A/B), and **appends** the lot as one
//! timestamped record to a machine-readable JSON trajectory (default
//! `BENCH_results.json`, schema `act-bench-trajectory/2`) so successive
//! commits accumulate a comparable performance history instead of
//! overwriting it. A legacy single-record `act-bench-trajectory/1` file is
//! wrapped into the trajectory on first append.
//!
//! When the trajectory already carries a compiled-kernel throughput
//! reading, the harness doubles as a **regression guard**: a new record
//! whose compiled points/sec drops below 70 % of the last committed one
//! fails the run with exit code 2 (the record is still appended, so the
//! regression itself is visible in the trajectory).
//!
//! Environments that cannot build the workspace (e.g. offline CI without a
//! registry mirror) degrade gracefully: the harness appends a record whose
//! timings are `null` and whose `error` field says why, instead of
//! aborting with nothing written.
//!
//! The harness shells out to `cargo`/`act` but renders its report with a
//! tiny hand-rolled JSON writer: xtask stays dependency-free.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What to run and where to put the report.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Workspace root (where `Cargo.toml` and `target/` live).
    pub root: PathBuf,
    /// Output path for the JSON trajectory.
    pub out: PathBuf,
    /// Timing repeats per artifact; the best (minimum) wall-clock wins.
    pub repeats: usize,
    /// Point count handed to `act bench-sweep`.
    pub sweep_points: usize,
    /// Point count for the parallel-must-win gate sweep (see
    /// [`gate_parallel_win`]). Runs in every mode, `--quick` included.
    pub gate_points: usize,
    /// Also run `act bench-sweep --million` (skipped by `--quick`).
    pub million: bool,
    /// Also run `cargo bench --workspace -- --test` as a smoke pass.
    pub criterion_smoke: bool,
    /// Optional human-readable tag stored in the appended record.
    pub label: Option<String>,
}

impl BenchConfig {
    /// The standard configuration rooted at `root`.
    #[must_use]
    pub fn new(root: PathBuf) -> Self {
        Self {
            root,
            out: PathBuf::from("BENCH_results.json"),
            repeats: 3,
            sweep_points: 10_000,
            gate_points: 100_000,
            million: true,
            criterion_smoke: false,
            label: None,
        }
    }

    /// CI-friendly variant: single repeat, smaller sweep, no million-point
    /// leg. The 100k parallel-win gate still runs (it soft-fails on a
    /// single-core host, so CI smoke keeps it).
    pub fn quick(&mut self) {
        self.repeats = 1;
        self.sweep_points = 2_000;
        self.million = false;
    }
}

/// Wall-clock timings for one run of the harness.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Release-build time in milliseconds (0 when already warm).
    pub build_ms: f64,
    /// Best-of-N milliseconds per concrete experiment, in `act list` order.
    pub figures: Vec<(String, f64)>,
    /// Best-of-N milliseconds for parallel `act all`.
    pub all_parallel_ms: f64,
    /// Best-of-N milliseconds for `act all --serial`.
    pub all_serial_ms: f64,
    /// Raw JSON line captured from `act bench-sweep` (verbatim).
    pub sweep: String,
    /// Raw JSON from the [`BenchConfig::gate_points`] gate sweep
    /// (empty on a degraded run → rendered `null`).
    pub sweep_gate: String,
    /// Raw JSON from `act bench-sweep --million` (empty when skipped).
    pub sweep_million: String,
    /// Raw JSON from `act fleet-bench` — the scenario fleet Monte-Carlo
    /// throughput probe (empty on a degraded run → rendered `null`). Its
    /// keys deliberately avoid the exact `"compiled"` key the regression
    /// guard scrapes for.
    pub fleet: String,
    /// Whether the criterion smoke pass ran and succeeded (None = skipped).
    pub criterion_ok: Option<bool>,
    /// Timing repeats used.
    pub repeats: usize,
    /// Optional tag from [`BenchConfig::label`].
    pub label: Option<String>,
    /// Seconds since the Unix epoch when the run started.
    pub unix_time: u64,
    /// Why the run degraded (e.g. the release build was unavailable);
    /// `None` for a complete run.
    pub error: Option<String>,
}

impl BenchReport {
    /// Serial wall-clock over parallel wall-clock for `act all`.
    #[must_use]
    pub fn all_speedup(&self) -> f64 {
        if self.all_parallel_ms > 0.0 {
            self.all_serial_ms / self.all_parallel_ms
        } else {
            0.0
        }
    }

    /// Sum of the per-figure best times — the serial lower bound for `all`.
    #[must_use]
    pub fn figure_total_ms(&self) -> f64 {
        self.figures.iter().map(|(_, ms)| ms).sum()
    }
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a millisecond reading with fixed (3-decimal) precision so
/// reports diff cleanly across commits.
fn json_ms(ms: f64) -> String {
    if ms.is_finite() {
        format!("{ms:.3}")
    } else {
        "null".to_owned()
    }
}

/// Renders one trajectory record as pretty-printed JSON. The `sweep` field
/// is spliced in verbatim (it is already a JSON object emitted by
/// `act bench-sweep`); an empty capture renders as `null`. Records carry no
/// `schema` field of their own — the enclosing trajectory document does.
#[must_use]
pub fn render_record(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"unix_time\": {},", report.unix_time);
    match &report.label {
        None => out.push_str("  \"label\": null,\n"),
        Some(label) => {
            let _ = writeln!(out, "  \"label\": \"{}\",", json_escape(label));
        }
    }
    match &report.error {
        None => out.push_str("  \"error\": null,\n"),
        Some(error) => {
            let _ = writeln!(out, "  \"error\": \"{}\",", json_escape(error));
        }
    }
    let _ = writeln!(out, "  \"repeats\": {},", report.repeats);
    let _ = writeln!(out, "  \"build_ms\": {},", json_ms(report.build_ms));
    out.push_str("  \"figures\": {\n");
    for (i, (id, ms)) in report.figures.iter().enumerate() {
        let comma = if i + 1 == report.figures.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}\": {}{comma}", json_escape(id), json_ms(*ms));
    }
    out.push_str("  },\n");
    let figure_total =
        if report.figures.is_empty() { f64::NAN } else { report.figure_total_ms() };
    let _ = writeln!(out, "  \"figure_total_ms\": {},", json_ms(figure_total));
    out.push_str("  \"all\": {\n");
    let _ = writeln!(out, "    \"parallel_ms\": {},", json_ms(report.all_parallel_ms));
    let _ = writeln!(out, "    \"serial_ms\": {},", json_ms(report.all_serial_ms));
    let speedup = if report.all_parallel_ms > 0.0 { report.all_speedup() } else { f64::NAN };
    let _ = writeln!(out, "    \"speedup\": {}", json_ms(speedup));
    out.push_str("  },\n");
    // The gate/million captures render *before* the canonical sweep: the
    // regression guard reads the **last** `"compiled"` object in the
    // trajectory, and that must stay the fixed-size canonical sweep so
    // baselines compare like against like.
    // `fleet` renders here too — before the canonical sweep — so its
    // throughput numbers can never shadow the sweep's `"compiled"` object.
    for (key, capture) in [
        ("sweep_gate", &report.sweep_gate),
        ("sweep_million", &report.sweep_million),
        ("fleet", &report.fleet),
    ] {
        let capture = capture.trim();
        if capture.is_empty() {
            let _ = writeln!(out, "  \"{key}\": null,");
        } else {
            let _ = writeln!(out, "  \"{key}\": {capture},");
        }
    }
    let sweep = report.sweep.trim();
    if sweep.is_empty() {
        out.push_str("  \"sweep\": null,\n");
    } else {
        let _ = writeln!(out, "  \"sweep\": {sweep},");
    }
    match report.criterion_ok {
        None => out.push_str("  \"criterion_smoke\": null\n"),
        Some(ok) => {
            let _ = writeln!(out, "  \"criterion_smoke\": {ok}");
        }
    }
    out.push_str("}\n");
    out
}

/// Extracts the verbatim inner body of the `"records": [...]` array from a
/// schema-v2 trajectory document. Returns `None` when `text` is not one
/// (e.g. a legacy v1 single-record file). The scanner is string-aware, so
/// brackets inside JSON strings don't confuse it.
#[must_use]
pub fn records_body(text: &str) -> Option<&str> {
    if !text.contains("\"act-bench-trajectory/2\"") {
        return None;
    }
    let key = text.find("\"records\"")?;
    let open = key + text[key..].find('[')?;
    let bytes = text.as_bytes();
    let mut depth = 1usize;
    let mut in_string = false;
    let mut i = open + 1;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => in_string = true,
                b'[' | b'{' => depth += 1,
                b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&text[open + 1..i]);
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Appends one rendered record to an existing trajectory, producing a
/// schema-v2 document. Pure: takes the current file contents (possibly
/// empty), returns the new contents.
///
/// - empty/missing file → a fresh trajectory with one record;
/// - schema-v2 file → the record joins the end of `records`;
/// - legacy schema-v1 single-record file → the old object is wrapped as the
///   first record and the new one appended after it.
#[must_use]
pub fn append_record(existing: &str, record: &str) -> String {
    let record = record.trim();
    let mut body = String::new();
    let trimmed = existing.trim();
    if let Some(prior) = records_body(trimmed) {
        let prior = prior.trim();
        if !prior.is_empty() {
            body.push_str(prior);
            body.push_str(",\n");
        }
    } else if !trimmed.is_empty() {
        body.push_str(trimmed);
        body.push_str(",\n");
    }
    body.push_str(record);
    format!(
        "{{\n  \"schema\": \"act-bench-trajectory/2\",\n  \"records\": [\n{body}\n  ]\n}}\n"
    )
}

/// Number of records in a trajectory document: the top-level objects of a
/// v2 `records` array, `1` for a legacy v1 single-record file, `0` for an
/// empty file.
#[must_use]
pub fn record_count(text: &str) -> usize {
    let Some(bodytext) = records_body(text) else {
        return usize::from(!text.trim().is_empty());
    };
    let bytes = bodytext.as_bytes();
    let mut count = 0usize;
    let mut depth = 0usize;
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => in_string = true,
                b'{' => {
                    if depth == 0 {
                        count += 1;
                    }
                    depth += 1;
                }
                b'[' => depth += 1,
                b'}' | b']' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        i += 1;
    }
    count
}

/// Pulls the most recent compiled-kernel sweep throughput
/// (`"compiled": {..., "points_per_sec": N, ...}`) out of a trajectory or a
/// single record. Returns `None` when no record carries a finite positive
/// reading — e.g. a degraded offline record whose sweep is `null`.
#[must_use]
pub fn extract_compiled_throughput(text: &str) -> Option<f64> {
    let at = text.rfind("\"compiled\"")?;
    let tail = &text[at..];
    let key = tail.find("\"points_per_sec\"")?;
    let after = tail[key + "\"points_per_sec\"".len()..].trim_start();
    let after = after.strip_prefix(':')?.trim_start();
    let end = after
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(after.len());
    after[..end].parse::<f64>().ok().filter(|v| v.is_finite() && *v > 0.0)
}

/// Fraction of the baseline throughput a new reading must retain to pass
/// the regression guard (0.7 ⇒ fail on a >30 % drop).
pub const GUARD_RETAIN_FRACTION: f64 = 0.7;

/// Regression-guard verdict: `Some((baseline, current))` when the new
/// record's compiled throughput fell below [`GUARD_RETAIN_FRACTION`] of the
/// trajectory's last reading; `None` when it passed or either side has no
/// reading (first run, or a degraded record).
#[must_use]
pub fn guard_regression(existing: &str, record: &str) -> Option<(f64, f64)> {
    let baseline = extract_compiled_throughput(existing)?;
    let current = extract_compiled_throughput(record)?;
    (current < GUARD_RETAIN_FRACTION * baseline).then_some((baseline, current))
}

/// Minimum compiled parallel-over-serial speedup the 100k gate demands on
/// a multi-core host: parallel must not lose to serial.
pub const GATE_MIN_SPEEDUP: f64 = 1.0;

/// Verdict of a parallel-must-win gate over one `act bench-sweep` record
/// ([`gate_parallel_win`]), one `act fleet-bench` record
/// ([`gate_fleet_parallel_win`]) or one trajectory record's `act all`
/// timings ([`gate_all_parallel_win`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GateOutcome {
    /// Multi-core host and the parallel leg held [`GATE_MIN_SPEEDUP`].
    Pass {
        /// Parallel-over-serial speedup.
        speedup: f64,
        /// Worker threads the run resolved to.
        threads: usize,
    },
    /// Single-core host: there is nothing to win, the gate soft-passes
    /// with a warning.
    SingleCore {
        /// What the machine offered.
        machine: usize,
    },
    /// Multi-core host but the parallel leg lost to serial.
    Fail {
        /// Parallel-over-serial speedup.
        speedup: f64,
        /// Worker threads the run resolved to.
        threads: usize,
    },
    /// The record carried no readable serial/parallel readings (e.g. an
    /// empty capture on a degraded run).
    Unreadable,
}

/// First JSON number after `key` at or past `from`, scanned textually
/// (the xtask workspace is dependency-free, so no JSON parser).
fn number_after(text: &str, from: usize, key: &str) -> Option<f64> {
    let at = from + text[from..].find(key)?;
    let after = text[at + key.len()..].trim_start();
    let after = after.strip_prefix(':')?.trim_start();
    let end = after
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(after.len());
    after[..end].parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Applies the parallel-must-win gate to one raw `act bench-sweep` record:
/// on a host with ≥ 2 hardware threads, the compiled-parallel leg must be
/// at least [`GATE_MIN_SPEEDUP`] times the compiled-serial leg. Pure —
/// callers decide how a [`GateOutcome::Fail`] maps to an exit code.
#[must_use]
pub fn gate_parallel_win(sweep_record: &str) -> GateOutcome {
    let Some(machine) = number_after(sweep_record, 0, "\"machine_threads\"") else {
        return GateOutcome::Unreadable;
    };
    let threads =
        number_after(sweep_record, 0, "\"threads\"").map_or(1, |t| t.max(1.0) as usize);
    // The parallel leg evaluates through the block plan, so its serial
    // baseline is the serial block leg when the record carries one;
    // pre-block records fall back to the per-point compiled leg.
    let serial_ms = sweep_record
        .find("\"compiled_block\"")
        .or_else(|| sweep_record.find("\"compiled\""))
        .and_then(|at| number_after(sweep_record, at, "\"ms\""));
    let parallel_ms = sweep_record
        .find("\"compiled_parallel\"")
        .and_then(|at| number_after(sweep_record, at, "\"ms\""));
    let (Some(serial_ms), Some(parallel_ms)) = (serial_ms, parallel_ms) else {
        return GateOutcome::Unreadable;
    };
    if machine < 2.0 {
        return GateOutcome::SingleCore { machine: machine.max(0.0) as usize };
    }
    let speedup = serial_ms / parallel_ms.max(1e-12);
    if speedup >= GATE_MIN_SPEEDUP {
        GateOutcome::Pass { speedup, threads }
    } else {
        GateOutcome::Fail { speedup, threads }
    }
}

/// Minimum block-over-per-point throughput ratio the retention gate
/// demands: the block-vectorized leg must never lose to the per-point
/// compiled leg it replaced on the hot paths.
pub const BLOCK_GATE_MIN_RATIO: f64 = 1.0;

/// Verdict of the block-path retention gate over one `act bench-sweep`
/// record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BlockGateOutcome {
    /// The `compiled_block` leg held at least [`BLOCK_GATE_MIN_RATIO`]
    /// times the per-point `compiled` throughput.
    Pass {
        /// Block points/sec over per-point points/sec.
        ratio: f64,
    },
    /// The block leg regressed below per-point throughput.
    Fail {
        /// Block points/sec over per-point points/sec.
        ratio: f64,
    },
    /// The record carried no readable `compiled` / `compiled_block`
    /// throughputs (a degraded run, or a record predating the block path).
    Unreadable,
}

/// Applies the block-path retention gate to one raw `act bench-sweep`
/// record: the block-vectorized leg's `points_per_sec` must be at least
/// [`BLOCK_GATE_MIN_RATIO`] times the per-point compiled leg's, on any
/// host (the comparison is serial vs. serial, so core count is
/// irrelevant). Pure — callers decide how a [`BlockGateOutcome::Fail`]
/// maps to an exit code.
#[must_use]
pub fn gate_block_retention(sweep_record: &str) -> BlockGateOutcome {
    let per_point = sweep_record
        .find("\"compiled\"")
        .and_then(|at| number_after(sweep_record, at, "\"points_per_sec\""));
    let block = sweep_record
        .find("\"compiled_block\"")
        .and_then(|at| number_after(sweep_record, at, "\"points_per_sec\""));
    let (Some(per_point), Some(block)) = (per_point, block) else {
        return BlockGateOutcome::Unreadable;
    };
    if !(per_point > 0.0 && block > 0.0) {
        return BlockGateOutcome::Unreadable;
    }
    let ratio = block / per_point;
    if ratio >= BLOCK_GATE_MIN_RATIO {
        BlockGateOutcome::Pass { ratio }
    } else {
        BlockGateOutcome::Fail { ratio }
    }
}

/// Applies the fleet parallel-must-win gate to one raw `act fleet-bench`
/// record: on a host with ≥ 2 hardware threads, `fleet_parallel`'s
/// `samples_per_sec` must be at least [`GATE_MIN_SPEEDUP`] times
/// `fleet_serial`'s. Pure — callers decide how a [`GateOutcome::Fail`]
/// maps to an exit code.
#[must_use]
pub fn gate_fleet_parallel_win(fleet_record: &str) -> GateOutcome {
    let throughput = |leg: &str| {
        fleet_record
            .find(leg)
            .and_then(|at| number_after(fleet_record, at, "\"samples_per_sec\""))
    };
    let (Some(machine), Some(serial), Some(parallel)) = (
        number_after(fleet_record, 0, "\"machine_threads\""),
        throughput("\"fleet_serial\""),
        throughput("\"fleet_parallel\""),
    ) else {
        return GateOutcome::Unreadable;
    };
    if !(serial > 0.0 && parallel > 0.0) {
        return GateOutcome::Unreadable;
    }
    if machine < 2.0 {
        return GateOutcome::SingleCore { machine: machine.max(0.0) as usize };
    }
    let threads =
        number_after(fleet_record, 0, "\"threads\"").map_or(1, |t| t.max(1.0) as usize);
    let speedup = parallel / serial;
    if speedup >= GATE_MIN_SPEEDUP {
        GateOutcome::Pass { speedup, threads }
    } else {
        GateOutcome::Fail { speedup, threads }
    }
}

/// Applies the `act all` parallel-must-win gate to one rendered trajectory
/// record ([`render_record`]): on a host with ≥ 2 hardware threads,
/// `all.serial_ms / all.parallel_ms` must be at least
/// [`GATE_MIN_SPEEDUP`]. The machine's thread count comes from the same
/// record's sweep or fleet capture. Pure — callers decide how a
/// [`GateOutcome::Fail`] maps to an exit code.
#[must_use]
pub fn gate_all_parallel_win(record: &str) -> GateOutcome {
    let all_ms =
        |key: &str| record.find("\"all\":").and_then(|at| number_after(record, at, key));
    let (Some(machine), Some(serial_ms), Some(parallel_ms)) = (
        number_after(record, 0, "\"machine_threads\""),
        all_ms("\"serial_ms\""),
        all_ms("\"parallel_ms\""),
    ) else {
        return GateOutcome::Unreadable;
    };
    if !(serial_ms > 0.0 && parallel_ms > 0.0) {
        return GateOutcome::Unreadable;
    }
    if machine < 2.0 {
        return GateOutcome::SingleCore { machine: machine.max(0.0) as usize };
    }
    let threads = number_after(record, 0, "\"threads\"").map_or(1, |t| t.max(1.0) as usize);
    let speedup = serial_ms / parallel_ms;
    if speedup >= GATE_MIN_SPEEDUP {
        GateOutcome::Pass { speedup, threads }
    } else {
        GateOutcome::Fail { speedup, threads }
    }
}

/// Tags every degraded `release build unavailable` record in a trajectory
/// with `"superseded": true`, marking it as replaced by a later complete
/// run so trend tooling skips it instead of reading its null timings as
/// data points. Pure and idempotent — already-tagged records and healthy
/// records pass through byte-for-byte. Call it only when the record being
/// appended is itself complete.
#[must_use]
pub fn tag_superseded_degraded(existing: &str) -> String {
    let mut out = String::with_capacity(existing.len() + 64);
    let mut lines = existing.lines().peekable();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let trimmed = line.trim_start();
        if trimmed.starts_with("\"error\": \"release build unavailable")
            && lines.peek().is_none_or(|next| !next.trim_start().starts_with("\"superseded\""))
        {
            let indent = &line[..line.len() - trimmed.len()];
            out.push_str(indent);
            out.push_str("\"superseded\": true,\n");
        }
    }
    if !existing.ends_with('\n') && out.ends_with('\n') && !existing.is_empty() {
        out.pop();
    }
    out
}

/// Seconds since the Unix epoch, `0` if the clock is before it.
fn unix_time_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Milliseconds elapsed while running `f`.
fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64() * 1e3, value)
}

/// Runs a command with output discarded; `Ok(())` iff it exited zero.
fn run_silent(cmd: &mut Command) -> Result<(), String> {
    let label = format!("{cmd:?}");
    let status = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("failed to spawn {label}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{label} exited with {status}"))
    }
}

/// Runs a command capturing stdout; `Ok(stdout)` iff it exited zero.
fn run_capture(cmd: &mut Command) -> Result<String, String> {
    let label = format!("{cmd:?}");
    let output = cmd
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("failed to spawn {label}: {e}"))?;
    if output.status.success() {
        String::from_utf8(output.stdout).map_err(|e| format!("{label}: non-UTF-8 stdout: {e}"))
    } else {
        Err(format!("{label} exited with {}", output.status))
    }
}

/// Path to the release `act` binary under `root`.
fn act_binary(root: &Path) -> PathBuf {
    root.join("target").join("release").join("act")
}

/// Best-of-`repeats` wall-clock for one `act` invocation.
fn best_act_ms(root: &Path, args: &[&str], repeats: usize) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let (ms, result) = time_ms(|| run_silent(Command::new(act_binary(root)).args(args)));
        result?;
        best = best.min(ms);
    }
    Ok(best)
}

/// Runs the full harness: build, per-figure timings, `all` speedup, sweep
/// probe, optional criterion smoke. Returns the report without writing it.
///
/// A failed release build does not abort the run: it yields a degraded
/// report (`error` set, timings NaN → rendered `null`) so offline
/// environments still append an honest trajectory record.
pub fn run_bench(config: &BenchConfig) -> Result<BenchReport, String> {
    let unix_time = unix_time_now();
    let root = &config.root;
    // `--workspace` matters: the root umbrella package does not depend on
    // `act-cli`, so a bare `cargo build --release` would skip the binary.
    let (build_ms, built) = time_ms(|| {
        run_silent(
            Command::new("cargo").args(["build", "--release", "--workspace"]).current_dir(root),
        )
    });
    if let Err(err) = built {
        return Ok(BenchReport {
            build_ms: f64::NAN,
            figures: Vec::new(),
            all_parallel_ms: f64::NAN,
            all_serial_ms: f64::NAN,
            sweep: String::new(),
            sweep_gate: String::new(),
            sweep_million: String::new(),
            fleet: String::new(),
            criterion_ok: None,
            repeats: config.repeats.max(1),
            label: config.label.clone(),
            unix_time,
            error: Some(format!("release build unavailable: {err}")),
        });
    }

    let listing = run_capture(Command::new(act_binary(root)).arg("list"))?;
    let ids: Vec<String> = listing
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && *l != "all")
        .map(str::to_owned)
        .collect();
    if ids.is_empty() {
        return Err("`act list` reported no experiments".to_owned());
    }

    let mut figures = Vec::with_capacity(ids.len());
    for id in &ids {
        let ms = best_act_ms(root, &[id.as_str()], config.repeats)?;
        figures.push((id.clone(), ms));
    }

    let all_parallel_ms = best_act_ms(root, &["all"], config.repeats)?;
    let all_serial_ms = best_act_ms(root, &["all", "--serial"], config.repeats)?;

    let points = config.sweep_points.to_string();
    let sweep = run_capture(Command::new(act_binary(root)).args(["bench-sweep", &points]))?;

    // The parallel-must-win gate probe: large enough that the calibrated
    // engine should dispatch in parallel and beat serial on a multi-core
    // host. Verdict rendering is the caller's job (see `gate_parallel_win`).
    let gate_points = config.gate_points.to_string();
    let sweep_gate =
        run_capture(Command::new(act_binary(root)).args(["bench-sweep", &gate_points]))?;

    let sweep_million = if config.million {
        run_capture(Command::new(act_binary(root)).args(["bench-sweep", "--million"]))?
    } else {
        String::new()
    };

    // Fleet Monte-Carlo throughput probe: a fixed 100k-sample run of the
    // built-in server-class scenario so the trajectory tracks the scenario
    // pipeline alongside the sweep engine; also the fleet parallel gate's
    // input (see `gate_fleet_parallel_win`).
    let fleet = run_capture(Command::new(act_binary(root)).args(["fleet-bench", "100000"]))?;

    let criterion_ok = if config.criterion_smoke {
        Some(
            run_silent(
                Command::new("cargo")
                    .args(["bench", "--workspace", "--", "--test"])
                    .current_dir(root),
            )
            .is_ok(),
        )
    } else {
        None
    };

    Ok(BenchReport {
        build_ms,
        figures,
        all_parallel_ms,
        all_serial_ms,
        sweep,
        sweep_gate,
        sweep_million,
        fleet,
        criterion_ok,
        repeats: config.repeats.max(1),
        label: config.label.clone(),
        unix_time,
        error: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            build_ms: 1234.5678,
            figures: vec![("fig1".to_owned(), 10.0), ("table5-11".to_owned(), 2.5)],
            all_parallel_ms: 40.0,
            all_serial_ms: 100.0,
            sweep: "{\"points\":100,\"speedup\":2.0,\"compiled\":{\"ms\":1.0,\"points_per_sec\":4000.0}}\n"
                .to_owned(),
            sweep_gate: "{\"points\":1000,\"machine_threads\":2,\"compiled\":{\"ms\":2.0},\"compiled_parallel\":{\"ms\":1.0}}\n"
                .to_owned(),
            sweep_million: String::new(),
            fleet: "{\"samples\":100000,\"fleet_serial\":{\"ms\":50.0,\"samples_per_sec\":2000000.0},\"fleet_parallel\":{\"ms\":25.0,\"samples_per_sec\":4000000.0}}\n"
                .to_owned(),
            criterion_ok: Some(true),
            repeats: 3,
            label: Some("sample".to_owned()),
            unix_time: 1_754_500_000,
            error: None,
        }
    }

    #[test]
    fn speedup_is_serial_over_parallel() {
        assert!((sample_report().all_speedup() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn speedup_of_degenerate_timing_is_zero_not_nan() {
        let mut r = sample_report();
        r.all_parallel_ms = 0.0;
        assert_eq!(r.all_speedup(), 0.0);
    }

    #[test]
    fn figure_total_sums_entries() {
        assert!((sample_report().figure_total_ms() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn record_renders_all_sections() {
        let text = render_record(&sample_report());
        for needle in [
            "\"unix_time\": 1754500000",
            "\"label\": \"sample\"",
            "\"error\": null",
            "\"repeats\": 3",
            "\"fig1\": 10.000",
            "\"table5-11\": 2.500",
            "\"figure_total_ms\": 12.500",
            "\"parallel_ms\": 40.000",
            "\"serial_ms\": 100.000",
            "\"speedup\": 2.500",
            "\"sweep\": {\"points\":100,\"speedup\":2.0",
            "\"sweep_gate\": {\"points\":1000,\"machine_threads\":2",
            "\"sweep_million\": null",
            "\"fleet\": {\"samples\":100000",
            "\"criterion_smoke\": true",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn canonical_sweep_renders_after_gate_and_million_captures() {
        // The regression guard reads the **last** `"compiled"` object; that
        // must stay the fixed-size canonical sweep, not the gate/million
        // probes, or baselines would compare across point counts.
        let mut r = sample_report();
        r.sweep_million =
            "{\"mode\":\"million\",\"compiled\":{\"ms\":20.0,\"points_per_sec\":50000000.0}}"
                .to_owned();
        let text = render_record(&r);
        let gate_at = text.find("\"sweep_gate\"").unwrap();
        let million_at = text.find("\"sweep_million\"").unwrap();
        let fleet_at = text.find("\"fleet\"").unwrap();
        let sweep_at = text.find("\"sweep\": {").unwrap();
        assert!(
            gate_at < million_at && million_at < fleet_at && fleet_at < sweep_at,
            "order wrong:\n{text}"
        );
        let got = extract_compiled_throughput(&text).unwrap();
        assert!((got - 4000.0).abs() < 1e-9, "guard read the wrong compiled object: {got}");
    }

    #[test]
    fn empty_sweep_capture_renders_null() {
        let mut r = sample_report();
        r.sweep = String::new();
        r.fleet = String::new();
        r.criterion_ok = None;
        let text = render_record(&r);
        assert!(text.contains("\"sweep\": null"));
        assert!(text.contains("\"fleet\": null"));
        assert!(text.contains("\"criterion_smoke\": null"));
    }

    #[test]
    fn non_finite_timings_render_null_not_inf() {
        let mut r = sample_report();
        r.all_parallel_ms = f64::INFINITY;
        let text = render_record(&r);
        assert!(text.contains("\"parallel_ms\": null"));
    }

    fn degraded_report() -> BenchReport {
        BenchReport {
            build_ms: f64::NAN,
            figures: Vec::new(),
            all_parallel_ms: f64::NAN,
            all_serial_ms: f64::NAN,
            sweep: String::new(),
            sweep_gate: String::new(),
            sweep_million: String::new(),
            fleet: String::new(),
            criterion_ok: None,
            repeats: 1,
            label: None,
            unix_time: 1_754_500_100,
            error: Some("release build unavailable: no registry".to_owned()),
        }
    }

    #[test]
    fn degraded_record_is_null_timings_plus_reason() {
        let text = render_record(&degraded_report());
        for needle in [
            "\"label\": null",
            "\"error\": \"release build unavailable: no registry\"",
            "\"build_ms\": null",
            "\"figure_total_ms\": null",
            "\"speedup\": null",
            "\"sweep\": null",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn append_to_empty_starts_a_trajectory() {
        let text = append_record("", &render_record(&sample_report()));
        assert!(text.starts_with("{\n  \"schema\": \"act-bench-trajectory/2\""));
        assert_eq!(record_count(&text), 1);
    }

    #[test]
    fn append_accumulates_records_in_order() {
        let first = append_record("", &render_record(&sample_report()));
        let second = append_record(&first, &render_record(&degraded_report()));
        assert_eq!(record_count(&second), 2);
        let sample_at = second.find("\"label\": \"sample\"").unwrap();
        let degraded_at = second.find("\"unix_time\": 1754500100").unwrap();
        assert!(sample_at < degraded_at, "records out of order:\n{second}");
        // Appending must be lossless: the earlier record survives verbatim.
        assert!(second.contains("\"fig1\": 10.000"));
    }

    #[test]
    fn append_wraps_a_legacy_v1_file_as_the_first_record() {
        let legacy = "{\n  \"schema\": \"act-bench-trajectory/1\",\n  \"build_ms\": 5.0\n}\n";
        let text = append_record(legacy, &render_record(&sample_report()));
        assert_eq!(record_count(&text), 2);
        assert!(text.contains("\"act-bench-trajectory/1\""));
        let v1_at = text.find("act-bench-trajectory/1").unwrap();
        let new_at = text.find("\"label\": \"sample\"").unwrap();
        assert!(v1_at < new_at);
    }

    #[test]
    fn records_body_ignores_brackets_inside_strings() {
        let doc =
            append_record("", "{\n  \"label\": \"tricky ] } [ {\",\n  \"unix_time\": 1\n}");
        assert_eq!(record_count(&doc), 1);
        let appended = append_record(&doc, "{\n  \"unix_time\": 2\n}");
        assert_eq!(record_count(&appended), 2);
    }

    #[test]
    fn records_body_rejects_non_v2_documents() {
        assert!(records_body("{\"schema\": \"act-bench-trajectory/1\"}").is_none());
        assert!(records_body("").is_none());
        assert_eq!(record_count(""), 0);
        assert_eq!(record_count("{\"schema\": \"act-bench-trajectory/1\"}"), 1);
    }

    #[test]
    fn compiled_throughput_reads_the_last_record() {
        let older = "{\n  \"sweep\": {\"compiled\": {\"points_per_sec\": 1000.0}}\n}";
        let newer = "{\n  \"sweep\": {\"compiled\": {\"points_per_sec\": 2500.5}}\n}";
        let doc = append_record(&append_record("", older), newer);
        let got = match extract_compiled_throughput(&doc) {
            Some(v) => v,
            None => panic!("throughput missing from:\n{doc}"),
        };
        assert!((got - 2500.5).abs() < 1e-9);
    }

    #[test]
    fn compiled_throughput_absent_from_degraded_records() {
        assert!(extract_compiled_throughput(&render_record(&degraded_report())).is_none());
        assert!(
            extract_compiled_throughput("{\"compiled\": {\"points_per_sec\": null}}").is_none()
        );
        assert!(extract_compiled_throughput("").is_none());
    }

    #[test]
    fn guard_trips_only_on_a_real_regression() {
        let baseline = append_record("", &render_record(&sample_report())); // 4000 pts/s
        let fast = "{\"sweep\": {\"compiled\": {\"points_per_sec\": 3500.0}}}";
        let slow = "{\"sweep\": {\"compiled\": {\"points_per_sec\": 2000.0}}}";
        assert!(guard_regression(&baseline, fast).is_none(), "25% drop is within tolerance");
        let (base, cur) = match guard_regression(&baseline, slow) {
            Some(pair) => pair,
            None => panic!("50% drop must trip the guard"),
        };
        assert!((base - 4000.0).abs() < 1e-9 && (cur - 2000.0).abs() < 1e-9);
        // No baseline reading (fresh file) or no current reading (degraded
        // run) both skip the guard rather than failing it.
        assert!(guard_regression("", slow).is_none());
        assert!(guard_regression(&baseline, &render_record(&degraded_report())).is_none());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn quick_mode_shrinks_the_run_but_keeps_the_gate() {
        let mut config = BenchConfig::new(PathBuf::from("."));
        config.quick();
        assert_eq!(config.repeats, 1);
        assert!(config.sweep_points < 10_000);
        assert!(!config.million, "--quick must skip the million-point leg");
        assert_eq!(config.gate_points, 100_000, "--quick must keep the 100k gate");
    }

    /// A minimal bench-sweep record for gate tests.
    fn gate_record(machine: u32, serial_ms: f64, parallel_ms: f64) -> String {
        format!(
            "{{\"points\":100000,\"threads\":{machine},\"threads_source\":\"machine\",\
             \"machine_threads\":{machine},\"decision\":\"parallel\",\
             \"compiled\":{{\"ms\":{serial_ms},\"points_per_sec\":1.0}},\
             \"compiled_parallel\":{{\"ms\":{parallel_ms},\"points_per_sec\":1.0,\
             \"speedup_vs_serial\":1.0}}}}"
        )
    }

    #[test]
    fn gate_passes_when_parallel_wins_on_multicore() {
        match gate_parallel_win(&gate_record(4, 20.0, 10.0)) {
            GateOutcome::Pass { speedup, threads } => {
                assert!((speedup - 2.0).abs() < 1e-9);
                assert_eq!(threads, 4);
            }
            other => panic!("expected Pass, got {other:?}"),
        }
    }

    #[test]
    fn gate_fails_when_parallel_loses_on_multicore() {
        match gate_parallel_win(&gate_record(2, 10.0, 20.0)) {
            GateOutcome::Fail { speedup, .. } => assert!(speedup < 1.0),
            other => panic!("expected Fail, got {other:?}"),
        }
    }

    #[test]
    fn gate_soft_passes_on_a_single_core_host() {
        // Even a losing parallel leg is not a failure with one hardware
        // thread — there is nothing to win.
        assert_eq!(
            gate_parallel_win(&gate_record(1, 10.0, 20.0)),
            GateOutcome::SingleCore { machine: 1 }
        );
    }

    #[test]
    fn gate_reports_unreadable_records_instead_of_guessing() {
        assert_eq!(gate_parallel_win(""), GateOutcome::Unreadable);
        assert_eq!(
            gate_parallel_win("{\"machine_threads\":4}"),
            GateOutcome::Unreadable,
            "missing compiled timings must not pass or fail the gate"
        );
    }

    /// A bench-sweep record carrying both the per-point and block-vectorized
    /// compiled legs, in the shape `act bench-sweep` emits since the block
    /// engine landed (including the `null` calibration threshold).
    fn block_record(per_point_pps: f64, block_pps: f64) -> String {
        format!(
            "{{\"points\":100000,\"threads\":1,\"threads_source\":\"machine\",\
             \"machine_threads\":1,\"decision\":\"serial\",\
             \"calibration\":{{\"threshold_points\":null,\"source\":\"single-core\"}},\
             \"compiled\":{{\"ms\":10.0,\"points_per_sec\":{per_point_pps}}},\
             \"compiled_block\":{{\"ms\":8.0,\"points_per_sec\":{block_pps},\
             \"speedup_vs_per_point\":1.0}}}}"
        )
    }

    #[test]
    fn block_gate_passes_when_block_leg_holds_per_point_throughput() {
        match gate_block_retention(&block_record(1.0e7, 2.5e7)) {
            BlockGateOutcome::Pass { ratio } => assert!((ratio - 2.5).abs() < 1e-9),
            other => panic!("expected Pass, got {other:?}"),
        }
        // Exactly matching per-point throughput retains the path too.
        match gate_block_retention(&block_record(1.0e7, 1.0e7)) {
            BlockGateOutcome::Pass { ratio } => assert!((ratio - 1.0).abs() < 1e-9),
            other => panic!("expected Pass at parity, got {other:?}"),
        }
    }

    #[test]
    fn block_gate_fails_when_block_leg_regresses() {
        match gate_block_retention(&block_record(2.0e7, 1.5e7)) {
            BlockGateOutcome::Fail { ratio } => assert!((ratio - 0.75).abs() < 1e-9),
            other => panic!("expected Fail, got {other:?}"),
        }
    }

    #[test]
    fn block_gate_reports_unreadable_records_instead_of_guessing() {
        assert_eq!(gate_block_retention(""), BlockGateOutcome::Unreadable);
        // Pre-block trajectory records have no compiled_block section.
        assert_eq!(
            gate_block_retention(&gate_record(4, 20.0, 10.0)),
            BlockGateOutcome::Unreadable,
            "records without a compiled_block leg must not pass or fail the gate"
        );
    }

    #[test]
    fn parallel_gate_prefers_the_block_leg_as_its_serial_baseline() {
        // With a block leg present, the parallel gate measures against it:
        // block 8ms vs parallel 4ms -> 2x speedup on a 4-thread host.
        let record = "{\"points\":100000,\"threads\":4,\"threads_source\":\"machine\",\
             \"machine_threads\":4,\"decision\":\"parallel\",\
             \"compiled\":{\"ms\":10.0,\"points_per_sec\":1.0},\
             \"compiled_block\":{\"ms\":8.0,\"points_per_sec\":1.0},\
             \"compiled_parallel\":{\"ms\":4.0,\"points_per_sec\":1.0}}";
        match gate_parallel_win(record) {
            GateOutcome::Pass { speedup, threads } => {
                assert!((speedup - 2.0).abs() < 1e-9, "baseline should be the 8ms block leg");
                assert_eq!(threads, 4);
            }
            other => panic!("expected Pass, got {other:?}"),
        }
    }

    /// A minimal fleet-bench record for fleet gate tests.
    fn fleet_record(machine: u32, serial_sps: f64, parallel_sps: f64) -> String {
        format!(
            "{{\"samples\":100000,\"devices\":1000,\"seed\":1,\"threads\":{machine},\
             \"threads_source\":\"machine\",\"machine_threads\":{machine},\
             \"fleet_serial\":{{\"ms\":1.0,\"samples_per_sec\":{serial_sps}}},\
             \"fleet_parallel\":{{\"ms\":1.0,\"samples_per_sec\":{parallel_sps},\
             \"speedup_vs_serial\":1.0}},\"mean_g\":1.0,\"rejected\":0}}"
        )
    }

    #[test]
    fn fleet_gate_passes_when_parallel_wins_on_multicore() {
        match gate_fleet_parallel_win(&fleet_record(2, 6.0e6, 1.05e7)) {
            GateOutcome::Pass { speedup, threads } => {
                assert!((speedup - 1.75).abs() < 1e-9);
                assert_eq!(threads, 2);
            }
            other => panic!("expected Pass, got {other:?}"),
        }
    }

    #[test]
    fn fleet_gate_fails_when_parallel_loses_on_multicore() {
        match gate_fleet_parallel_win(&fleet_record(4, 8.0e6, 6.0e6)) {
            GateOutcome::Fail { speedup, threads } => {
                assert!((speedup - 0.75).abs() < 1e-9);
                assert_eq!(threads, 4);
            }
            other => panic!("expected Fail, got {other:?}"),
        }
    }

    #[test]
    fn fleet_gate_soft_passes_on_a_single_core_host() {
        assert_eq!(
            gate_fleet_parallel_win(&fleet_record(1, 8.0e6, 6.0e6)),
            GateOutcome::SingleCore { machine: 1 }
        );
    }

    #[test]
    fn fleet_gate_reports_unreadable_records_instead_of_guessing() {
        assert_eq!(gate_fleet_parallel_win(""), GateOutcome::Unreadable);
        assert_eq!(
            gate_fleet_parallel_win("{\"machine_threads\":2,\"fleet_serial\":{\"ms\":1.0}}"),
            GateOutcome::Unreadable,
            "missing fleet throughputs must not pass or fail the gate"
        );
        // A sweep record is not a fleet record.
        assert_eq!(
            gate_fleet_parallel_win(&gate_record(4, 20.0, 10.0)),
            GateOutcome::Unreadable
        );
    }

    /// A rendered trajectory record with the given `act all` timings and a
    /// sweep capture from a `machine`-thread host.
    fn all_record(machine: u32, serial_ms: f64, parallel_ms: f64) -> String {
        render_record(&BenchReport {
            all_parallel_ms: parallel_ms,
            all_serial_ms: serial_ms,
            sweep_gate: gate_record(machine, 20.0, 10.0),
            ..sample_report()
        })
    }

    #[test]
    fn all_gate_passes_when_parallel_all_wins_on_multicore() {
        match gate_all_parallel_win(&all_record(2, 21.0, 12.0)) {
            GateOutcome::Pass { speedup, threads } => {
                assert!((speedup - 1.75).abs() < 1e-9);
                assert_eq!(threads, 2);
            }
            other => panic!("expected Pass, got {other:?}"),
        }
    }

    #[test]
    fn all_gate_fails_when_parallel_all_loses_on_multicore() {
        match gate_all_parallel_win(&all_record(4, 18.0, 24.0)) {
            GateOutcome::Fail { speedup, threads } => {
                assert!((speedup - 0.75).abs() < 1e-9);
                assert_eq!(threads, 4);
            }
            other => panic!("expected Fail, got {other:?}"),
        }
    }

    #[test]
    fn all_gate_soft_passes_on_a_single_core_host() {
        assert_eq!(
            gate_all_parallel_win(&all_record(1, 18.0, 24.0)),
            GateOutcome::SingleCore { machine: 1 }
        );
    }

    #[test]
    fn all_gate_reports_unreadable_records_instead_of_guessing() {
        assert_eq!(gate_all_parallel_win(""), GateOutcome::Unreadable);
        // A degraded run renders its `all` timings as null.
        assert_eq!(
            gate_all_parallel_win(&render_record(&degraded_report())),
            GateOutcome::Unreadable
        );
        // A bare sweep capture has machine threads but no `all` block.
        assert_eq!(gate_all_parallel_win(&gate_record(4, 20.0, 10.0)), GateOutcome::Unreadable);
    }

    #[test]
    fn tagging_marks_degraded_records_and_only_them() {
        let doc = append_record(
            &append_record("", &render_record(&degraded_report())),
            &render_record(&sample_report()),
        );
        let tagged = tag_superseded_degraded(&doc);
        assert_eq!(tagged.matches("\"superseded\": true").count(), 1);
        let superseded_at = tagged.find("\"superseded\": true").unwrap();
        let healthy_at = tagged.find("\"label\": \"sample\"").unwrap();
        assert!(superseded_at < healthy_at, "tag landed on the wrong record:\n{tagged}");
        // The tag must not disturb record structure or the guard baseline.
        assert_eq!(record_count(&tagged), 2);
        assert_eq!(extract_compiled_throughput(&tagged), extract_compiled_throughput(&doc));
    }

    #[test]
    fn tagging_is_idempotent_and_leaves_healthy_trajectories_alone() {
        let healthy = append_record("", &render_record(&sample_report()));
        assert_eq!(tag_superseded_degraded(&healthy), healthy);
        let degraded = append_record("", &render_record(&degraded_report()));
        let once = tag_superseded_degraded(&degraded);
        assert_eq!(tag_superseded_degraded(&once), once);
    }

    #[test]
    fn last_figure_entry_has_no_trailing_comma() {
        let text = render_record(&sample_report());
        let figures_block =
            text.split("\"figures\": {").nth(1).and_then(|s| s.split('}').next()).unwrap();
        let last_entry = figures_block.trim_end().lines().last().unwrap();
        assert!(!last_entry.trim_end().ends_with(','), "trailing comma in:\n{figures_block}");
    }
}
