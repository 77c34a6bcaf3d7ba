//! `dse-sweep`: `ModelParams::mobile_reference()` compiled over four free
//! axes — design axes SoC area × fab yield, operating axes lifetime × use
//! intensity — and swept as one 2,097,152-point block sweep under
//! `Parallelism::Auto`, then reduced to each design's worst-case
//! footprint and filtered with `act_dse::pareto_indices` over
//! (area, worst case).
//!
//! One fab-yield value in 128 is 0.0 (a dead wafer), so 1/128 of the grid
//! evaluates to +inf and takes the skip-and-record path. (A yield just
//! above 1.0 would not: the block path does not range-check coordinates,
//! only `CompiledFootprint::try_eval` does, so such points come back
//! finite.) The four SoA columns are 64 MiB and
//! the output 16 MiB: far beyond a 4 MiB L2, inside a 105 MiB shared L3.
//!
//! Oracle: the values checksum, the exact rejected count and the Pareto
//! set match a scalar `CompiledFootprint::eval` pass made at set-up.

use std::time::Duration;

use crate::adapter::{self, Axes, Grid, Plan, SweepOut};
use crate::common::{
    median, timed, timed_batches, vm_hwm_mb, windowed_tail, InputRng, Report,
    TAIL_WINDOW_SECONDS,
};
use crate::engine::EngineRecord;
use crate::trace::setup_probes;
use crate::Ctx;

pub const AREAS: usize = 16;
pub const YIELDS: usize = 128;
pub const LIFETIMES: usize = 32;
pub const INTENSITIES: usize = 32;
/// Operating points per design (contiguous in the grid).
pub const OPS_PER_DESIGN: usize = LIFETIMES * INTENSITIES;
pub const DESIGNS: usize = AREAS * YIELDS;
pub const POINTS: usize = DESIGNS * OPS_PER_DESIGN;

/// Sweeps per operation, timed back to back and reported per sweep. A
/// ~30 ms sweep slows by a third or more whenever another tenant takes
/// one of the two vCPUs for a few milliseconds, so how often that happened
/// decided a single-sweep tail: over ten runs of the same code the tail
/// of single sweeps (4 s windows, ~p92) spread by 0.26 of its median, and
/// deeper tails spread more. A batch of four spreads such a stall over
/// its sweeps.
const BATCH: usize = 4;

/// The seeded grid plus everything the oracle expects of a sweep over it.
pub struct SweepCase {
    pub plan: Plan,
    pub grid: Grid,
    /// `area` of each design, in design order.
    pub design_area: Vec<f64>,
    pub checksum: u64,
    pub rejected: usize,
    pub front: Vec<usize>,
}

fn axis(rng: &mut InputRng, n: usize, low: f64, high: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| rng.range(low, high)).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Builds the grid columns for `seed`.
pub fn grid_columns(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = InputRng::new(seed, 0x5EE9);
    let areas = axis(&mut rng, AREAS, 20.0, 400.0);
    let mut yields = axis(&mut rng, YIELDS - 1, 0.5, 0.999);
    let dead = rng.index(YIELDS);
    yields.insert(dead, 0.0);
    let lifetimes = axis(&mut rng, LIFETIMES, 1.0, 8.0);
    let intensities = axis(&mut rng, INTENSITIES, 20.0, 800.0);
    let mut cols: Vec<Vec<f64>> = (0..4).map(|_| Vec::with_capacity(POINTS)).collect();
    for &a in &areas {
        for &y in &yields {
            for &l in &lifetimes {
                for &ci in &intensities {
                    cols[0].push(a);
                    cols[1].push(y);
                    cols[2].push(l);
                    cols[3].push(ci);
                }
            }
        }
    }
    let design_area = areas.iter().flat_map(|a| std::iter::repeat_n(*a, YIELDS)).collect();
    (cols, design_area)
}

/// Wrapping sum of the bit patterns of the finite values, and the count of
/// non-finite ones.
pub fn checksum(values: &[f64]) -> (u64, usize) {
    let mut sum = 0u64;
    let mut bad = 0;
    for v in values {
        if v.is_finite() {
            sum = sum.wrapping_add(v.to_bits());
        } else {
            bad += 1;
        }
    }
    (sum, bad)
}

/// Each design's worst-case footprint over its operating points, as
/// (−area, worst case) objective pairs — die area is maximized as the
/// performance proxy, carbon minimized; designs with no finite point drop
/// out. Returns the pairs and their design indices.
pub fn worst_cases(values: &[f64], design_area: &[f64]) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut points = Vec::with_capacity(design_area.len());
    let mut ids = Vec::with_capacity(design_area.len());
    for (d, chunk) in values.chunks(OPS_PER_DESIGN).enumerate() {
        let worst =
            chunk.iter().copied().filter(|v| v.is_finite()).fold(f64::NEG_INFINITY, f64::max);
        if worst.is_finite() {
            points.push(vec![-design_area[d], worst]);
            ids.push(d);
        }
    }
    (points, ids)
}

/// Worst cases + `pareto_indices`, mapped back to design indices.
pub fn front(values: &[f64], design_area: &[f64]) -> Vec<usize> {
    let (points, ids) = worst_cases(values, design_area);
    adapter::pareto(&points).into_iter().map(|i| ids[i]).collect()
}

/// Compiles the kernel, builds the grid and runs the scalar oracle.
/// Returns the case and the scalar pass's duration.
pub fn prepare(seed: u64) -> Result<(SweepCase, Duration), String> {
    let kernel = adapter::compile_reference(Axes::Sweep)?;
    let plan = adapter::plan(&kernel);
    let (cols, design_area) = grid_columns(seed);
    let (scalar, scalar_time) = timed(|| {
        let mut values = Vec::with_capacity(POINTS);
        let points = cols[0].iter().zip(&cols[1]).zip(&cols[2]).zip(&cols[3]);
        for (((a, y), l), ci) in points {
            let v = adapter::eval_scalar(&kernel, &[*a, *y, *l, *ci]);
            values.push(if v.is_finite() { v } else { f64::NAN });
        }
        values
    });
    let (sum, rejected) = checksum(&scalar);
    let front = front(&scalar, &design_area);
    let grid = adapter::grid(cols)?;
    Ok((SweepCase { plan, grid, design_area, checksum: sum, rejected, front }, scalar_time))
}

/// One dse-sweep operation: the block sweep, worst cases and Pareto front.
pub fn sweep_op(case: &SweepCase, parallel: bool, out: &mut SweepOut) -> Vec<usize> {
    adapter::block_sweep(&case.plan, &case.grid, parallel, out);
    front(out.values(), &case.design_area)
}

/// Checks a finished op against the scalar oracle.
pub fn verify(case: &SweepCase, out: &SweepOut, front: &[usize]) -> Result<(), String> {
    let (sum, bad) = checksum(out.values());
    if out.rejected() != case.rejected || bad != case.rejected {
        return Err(format!(
            "rejected {} (nan {bad}) != oracle {}",
            out.rejected(),
            case.rejected
        ));
    }
    if sum != case.checksum {
        return Err(format!("values checksum {sum:#x} != oracle {:#x}", case.checksum));
    }
    if front != case.front {
        return Err(format!("pareto front {front:?} != oracle {:?}", case.front));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, report: &mut Report, engine: &mut EngineRecord) -> Result<(), String> {
    let (setup, thresholds) = setup_probes(7)?;
    engine.probe_thresholds = thresholds;
    adapter::calibration();
    engine.record(&[POINTS]);
    let (case, _) = prepare(ctx.seed)?;

    let mut out = SweepOut::default();
    let _ = sweep_op(&case, true, &mut out);
    let times = timed_batches(ctx.seconds, BATCH, |i| {
        let (front, dt) = timed(|| sweep_op(&case, true, &mut out));
        let verdict = verify(&case, &out, &front);
        report.checked(verdict.is_ok(), || format!("dse-sweep op {i}: {verdict:?}"));
        dt
    });
    let (tail_ms, tail_pct) = windowed_tail(&times, TAIL_WINDOW_SECONDS);
    let times: Vec<f64> = times.into_iter().map(|t| t.1).collect();
    let total_s: f64 = times.iter().sum::<f64>() * BATCH as f64 / 1e3;
    report.put("setup_s", median(&setup), "s");
    report.put("op_p50_ms", median(&times), "ms");
    report.put("op_tail_ms", tail_ms, "ms");
    report.put("work_per_s", (POINTS * times.len() * BATCH) as f64 / total_s, "1/s");
    report.put("peak_rss_mb", vm_hwm_mb("self").unwrap_or(f64::NAN), "MB");
    report.note(format!(
        "dse-sweep: {} batches of {BATCH} ops of {POINTS} points ({} rejected, front of {}); \
         window tail = p{tail_pct:.1}",
        times.len(),
        case.rejected,
        case.front.len()
    ));
    Ok(())
}
