//! `paper`: the release `act --json all` as a child process — every
//! paper artifact rendered with `act_core::memo` cold, as a user pays it
//! per process. One operation is a batch of four such processes run back
//! to back, reported per process: single ~25 ms processes on a 2-core
//! host jitter by tens of percent, and the batch keeps the tail steady.
//!
//! Oracle: stdout is byte-identical to an in-process serial
//! `try_render_experiment("all")` rendering made at set-up.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

use crate::adapter;
use crate::common::{
    children_max_rss_mb, median, timed, timed_batches, windowed_tail, Report,
    TAIL_WINDOW_SECONDS,
};
use crate::engine::EngineRecord;
use crate::Ctx;

/// Runs `act <args>` to completion; returns its stdout (`None` on a
/// spawn failure or a non-zero exit) and the spawn-to-exit time.
pub fn run_act(act: &Path, args: &[&str]) -> (Option<Vec<u8>>, Duration) {
    timed(|| {
        let out = Command::new(act)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()?;
        out.status.success().then_some(out.stdout)
    })
}

/// `act --json all` processes per operation.
const BATCH: usize = 4;

pub fn run(ctx: &Ctx, report: &mut Report, engine: &mut EngineRecord) -> Result<(), String> {
    let expected = adapter::render_all_stdout()?.into_bytes();
    let artifacts = adapter::experiment_ids().len();
    // `act` calibrates in its own process; this records the machine and
    // this process's calibration only.
    engine.record(&[]);
    let check = |out: &Option<Vec<u8>>, i: usize, report: &mut Report| {
        report.checked(out.as_deref() == Some(expected.as_slice()), || {
            format!("paper op {i}: stdout differs from the in-process rendering")
        });
    };

    // Set-up: the first cold `act all` processes of the run.
    let mut setup = Vec::new();
    for i in 0..3 {
        let (out, dt) = run_act(&ctx.act, &["--json", "all"]);
        check(&out, i, report);
        setup.push(dt.as_secs_f64());
    }
    let times = timed_batches(ctx.seconds, BATCH, |i| {
        let (out, dt) = run_act(&ctx.act, &["--json", "all"]);
        check(&out, i + 3, report);
        dt
    });
    let (tail_ms, tail_pct) = windowed_tail(&times, TAIL_WINDOW_SECONDS);
    let times: Vec<f64> = times.into_iter().map(|t| t.1).collect();
    let total_s: f64 = times.iter().sum::<f64>() * BATCH as f64 / 1e3;
    report.put("setup_s", median(&setup), "s");
    report.put("op_p50_ms", median(&times), "ms");
    report.put("op_tail_ms", tail_ms, "ms");
    report.put("work_per_s", (artifacts * times.len() * BATCH) as f64 / total_s, "1/s");
    report.put("peak_rss_mb", children_max_rss_mb().unwrap_or(f64::NAN), "MB");
    report.note(format!(
        "paper: {} batches of {BATCH} `act --json all` processes, {artifacts} artifacts each; \
         window tail = p{tail_pct:.1}",
        times.len()
    ));
    Ok(())
}
