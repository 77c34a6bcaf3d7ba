//! Compiled-kernel benchmarks: the per-point footprint pipeline versus
//! [`CompiledFootprint`] over a 10k-point single-axis SoC-area sweep, plus
//! a 20k-sample compiled Monte-Carlo over area and fab yield. The
//! per-point leg is the oracle: the compiled kernel is checked bit-for-bit
//! against it on every sweep point before either is timed.

use act_bench::{black_box, Harness};
use act_core::{CompiledFootprint, FreeAxis, ModelParams};
use act_dse::{logspace, monte_carlo_compiled_block_budgeted, EvalBudget, McBuffer};

/// Point count for the headline single-axis sweep.
const SWEEP_POINTS: usize = 10_000;

/// The swept axis: SoC area in mm2 across a mobile-to-server range.
fn area_axis() -> Vec<f64> {
    logspace(10.0, 1000.0, SWEEP_POINTS)
}

/// Per-point reference evaluation: clone the params, substitute the axis
/// value, run the full pipeline.
fn naive_eval(params: &ModelParams, area_mm2: f64) -> f64 {
    let mut point = params.clone();
    point.soc_area_mm2 = area_mm2;
    point.footprint().as_grams()
}

fn main() {
    let mut h = Harness::from_env();
    let params = ModelParams::mobile_reference();
    let areas = area_axis();

    // The per-point path: full `ModelParams` pipeline per evaluation (fab
    // scenario, system spec, component vector rebuilt every point).
    h.bench("footprint_sweep_per_point_10k", || {
        let mut total = 0.0;
        for area in &areas {
            total += naive_eval(&params, *area);
        }
        black_box(total)
    });

    // The compiled path: partial evaluation once, then a handful of FLOPs
    // per point with zero heap allocation. Cross-check bit-identity
    // against the per-point path before timing.
    let kernel = CompiledFootprint::compile(&params, &[FreeAxis::SocArea]);
    for area in &areas {
        assert_eq!(
            kernel.eval(&[*area]).to_bits(),
            naive_eval(&params, *area).to_bits(),
            "compiled kernel diverged from the per-point pipeline"
        );
    }
    let mut out = vec![0.0; areas.len()];
    h.bench("footprint_sweep_compiled_10k", || {
        for (slot, area) in out.iter_mut().zip(&areas) {
            *slot = kernel.eval(&[*area]);
        }
        black_box(out.last().copied())
    });

    // Compiled Monte-Carlo: uncertain fab yield through a two-axis kernel
    // lowered to its block plan, reusing the sample buffer across
    // iterations.
    let mc_plan =
        CompiledFootprint::compile(&params, &[FreeAxis::SocArea, FreeAxis::FabYield]).plan();
    let mut buf = McBuffer::new();
    h.bench("footprint_mc_compiled_20k", || {
        let result = monte_carlo_compiled_block_budgeted(
            20_000,
            42,
            2,
            |rng, k, columns| {
                columns[0][k] = rng.gen_range(60.0..120.0);
                columns[1][k] = rng.gen_range(0.7..1.0);
            },
            |cols, range, out| mc_plan.eval_block(cols, range, out),
            &mut buf,
            &EvalBudget::unlimited(),
        );
        let outcome = match result {
            Ok((outcome, _)) => outcome,
            Err(err) => panic!("mobile reference stays finite: {err}"),
        };
        black_box(outcome.stats.mean)
    });

    h.finish();
}
