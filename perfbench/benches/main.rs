//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --act PATH --state-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `fleet-mc`, `dse-sweep`, `paper` (see `perfbench/README.md`
//! for what each measures and why). `act serve` is measured by the traced
//! run only.
//! With `--trace 0` the run measures the workload and prints every
//! end-to-end metric; with `--trace 1` it runs the per-layer probes of
//! `trace.rs` and prints every per-layer metric. Either way the last
//! stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it is the run's engine-decision record.
//!
//! `perfbench/run.sh` builds this binary and `act`, then calls it.

mod adapter;
mod common;
mod engine;
mod fleet;
mod http;
mod paper;
mod service;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Report;
use engine::EngineRecord;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// The release `act` binary.
    pub act: PathBuf,
    /// Where cross-run engine-decision records and trace spans go.
    pub state_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["fleet-mc", "dse-sweep", "paper"];

fn usage() -> &'static str {
    "usage: perfbench --act PATH --state-dir DIR --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: fleet-mc, dse-sweep, paper"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--probe") {
        return trace::run_probe_child(&args[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut act = None;
    let mut state_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("perfbench: `{flag}` needs a value\n{}", usage());
            return ExitCode::from(2);
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--act" => act = Some(PathBuf::from(value)),
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            _ => {
                eprintln!("perfbench: unknown flag `{flag}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced), Some(act), Some(state_dir)) =
        (workload, seed, seconds, traced, act, state_dir)
    else {
        eprintln!("perfbench: missing or invalid arguments\n{}", usage());
        return ExitCode::from(2);
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!("perfbench: unknown workload `{workload}`\n{}", usage());
        return ExitCode::from(2);
    }
    if !act.is_file() {
        eprintln!("perfbench: `act` binary not found at {}", act.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx { workload, seed, seconds, act, state_dir };

    let mut report = Report::default();
    let mut engine = EngineRecord::default();
    let outcome = if traced {
        trace::run(&ctx, &mut report, &mut engine)
    } else {
        match ctx.workload.as_str() {
            "fleet-mc" => fleet::run(&ctx, &mut report, &mut engine),
            "dse-sweep" => sweep::run(&ctx, &mut report, &mut engine),
            _ => paper::run(&ctx, &mut report, &mut engine),
        }
    };
    if let Err(err) = outcome {
        eprintln!("perfbench: {}: {err}", ctx.workload);
        return ExitCode::from(1);
    }
    engine.compare_with_previous(&ctx, traced);
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    println!("{}", engine.to_line());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
