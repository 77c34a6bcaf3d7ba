//! Equivalence and determinism properties of the block-vectorized batch
//! engine: it must reproduce a scalar one-point-at-a-time loop bit for
//! bit — same values, same rejection log as `sweep_finite`, same
//! Monte-Carlo summaries as `par_try_monte_carlo` — for any batch length,
//! thread count, and budget, with cut-offs landing on identical completed
//! prefixes.
//!
//! The kernels here are plain closures (act-dse is model-agnostic); the
//! pairing of `act_core::EvalPlan::eval_block` with the scalar oracle
//! `CompiledFootprint::eval` is pinned by the property suite in
//! `act-core` itself.

use std::ops::Range;
use std::time::{Duration, Instant};

use act_dse::{
    mc_sample_seed, monte_carlo_compiled_block_budgeted,
    par_monte_carlo_compiled_block_budgeted, par_sweep_compiled_block_budgeted,
    par_sweep_compiled_block_with, par_try_monte_carlo_with, sweep_compiled_block,
    sweep_finite, BatchOutput, BatchRun, BatchShapeError, EvalBudget, McBuffer, Parallelism,
    PointBatch, RejectedPoint,
};
use act_rng::Rng;

/// Batch lengths straddling the worker, lane (64), budget-block (1024
/// default check interval) and block/chunk (4096) boundaries, including a
/// ragged tail.
const SIZES: [usize; 7] = [0, 1, 63, 64, 65, 1024, 5000];

/// Worker counts covering serial, two-way and oversubscribed pools.
const WORKERS: [usize; 4] = [1, 2, 5, 8];

/// The reference model: two axes, a pole along `x == 0` so rejection
/// slots are exercised, evaluated with one exact per-point chain.
fn model(x: f64, y: f64) -> f64 {
    (y.mul_add(3.0, 1.0) / x).sqrt() + x * y
}

fn point_kernel(p: &[f64]) -> f64 {
    model(p[0], p[1])
}

fn block_kernel(cols: &[&[f64]], range: Range<usize>, out: &mut [f64]) {
    let xs = &cols[0][range.clone()];
    let ys = &cols[1][range];
    for ((slot, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        *slot = model(x, y);
    }
}

/// A seeded two-column batch with exact zeros injected on the pole axis.
fn batch(seed: u64, n: usize) -> PointBatch {
    let mut rng = Rng::seed_from_u64(seed);
    let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
    for slot in xs.iter_mut().step_by(7) {
        *slot = 0.0;
    }
    let ys = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    PointBatch::from_columns(vec![xs, ys])
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: bit divergence at point {i}");
    }
}

/// The scalar oracle: one `point_kernel` call per point, through
/// `sweep_finite` so the rejection log (indices, order and reason strings)
/// is the per-point API's. Rejected slots hold NaN.
fn scalar_sweep(batch: &PointBatch) -> (Vec<f64>, Vec<RejectedPoint>) {
    let (xs, ys) = (batch.column(0), batch.column(1));
    let outcome = sweep_finite(0..batch.len(), |&i| point_kernel(&[xs[i], ys[i]]));
    let mut values = vec![f64::NAN; batch.len()];
    for (i, v) in outcome.results {
        values[i] = v;
    }
    (values, outcome.rejected)
}

#[test]
fn block_sweep_equals_scalar_loop_bitwise() {
    for (i, n) in SIZES.into_iter().enumerate() {
        let batch = batch(i as u64, n);
        let (values, rejected) = scalar_sweep(&batch);
        let mut block = BatchOutput::new();
        sweep_compiled_block(&batch, block_kernel, &mut block);
        assert_bitwise_eq(&values, block.values(), &format!("n={n}"));
        assert_eq!(rejected, block.rejected(), "n={n}: rejection logs differ");
    }
}

#[test]
fn par_block_sweep_is_thread_count_invariant() {
    for (i, n) in SIZES.into_iter().enumerate() {
        let batch = batch(100 + i as u64, n);
        let mut serial = BatchOutput::new();
        sweep_compiled_block(&batch, block_kernel, &mut serial);
        for workers in WORKERS {
            let mut parallel = BatchOutput::new();
            par_sweep_compiled_block_with(
                Parallelism::threads(workers),
                &batch,
                block_kernel,
                &mut parallel,
            );
            let context = format!("n={n}, workers={workers}");
            assert_bitwise_eq(serial.values(), parallel.values(), &context);
            assert_eq!(serial.rejected(), parallel.rejected(), "{context}: rejection logs");
        }
    }
}

#[test]
fn budgeted_block_cutoff_is_a_bit_identical_prefix_for_any_thread_count() {
    let n = 5000;
    let batch = batch(7, n);
    let mut reference = BatchOutput::new();
    sweep_compiled_block(&batch, block_kernel, &mut reference);
    // A deadline a few hundred microseconds out: the run may finish or be
    // cut anywhere, but whatever prefix completed must match the
    // unbudgeted bits and every untouched slot must hold NaN.
    for workers in WORKERS {
        let budget = EvalBudget::with_deadline(Instant::now() + Duration::from_micros(300));
        let mut out = BatchOutput::new();
        let run = par_sweep_compiled_block_budgeted(
            Parallelism::threads(workers),
            &batch,
            block_kernel,
            &mut out,
            &budget,
        );
        let completed = match run {
            BatchRun::Completed => n,
            BatchRun::DeadlineExceeded { completed } => completed,
        };
        assert!(completed <= n);
        let context = format!("workers={workers}, completed={completed}");
        assert_bitwise_eq(
            &reference.values()[..completed],
            &out.values()[..completed],
            &context,
        );
        for (i, v) in out.values()[completed..].iter().enumerate() {
            assert!(
                v.is_nan(),
                "{context}: slot {} past the prefix must be NaN",
                completed + i
            );
        }
        // Every logged rejection belongs to the completed prefix and
        // matches the reference log's order for that prefix.
        let expected: Vec<_> =
            reference.rejected().iter().filter(|r| r.index < completed).cloned().collect();
        assert_eq!(expected.as_slice(), out.rejected(), "{context}: rejection prefix");
    }
}

#[test]
fn expired_budget_reports_an_empty_block_prefix() {
    let batch = batch(11, 512);
    let budget = EvalBudget::with_deadline(Instant::now() - Duration::from_millis(1));
    for workers in WORKERS {
        let mut out = BatchOutput::new();
        let run = par_sweep_compiled_block_budgeted(
            Parallelism::threads(workers),
            &batch,
            block_kernel,
            &mut out,
            &budget,
        );
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 0 }, "workers={workers}");
        assert!(out.values().iter().all(|v| v.is_nan()));
        assert!(out.rejected().is_empty());
    }
}

/// Sample `i`'s coordinates, drawn from its own seed-split RNG.
fn draw(rng: &mut Rng) -> (f64, f64) {
    (rng.gen_range(-4.0..4.0), rng.gen_range(-2.0..2.0))
}

#[test]
fn block_monte_carlo_matches_scalar_monte_carlo_bitwise() {
    let block_sampler = |rng: &mut Rng, k: usize, columns: &mut [Vec<f64>]| {
        let (x, y) = draw(rng);
        columns[0][k] = x;
        columns[1][k] = y;
    };
    for seed in [0, 42, 0xAC70, u64::MAX] {
        for samples in [1, 63, 64, 65, 1024, 3000, 5000] {
            let context = format!("seed={seed}, samples={samples}");
            let reference =
                par_try_monte_carlo_with(Parallelism::Serial, samples, seed, |rng| {
                    let (x, y) = draw(rng);
                    model(x, y)
                });
            // The scalar draw loop: every sample's value, rejected as NaN.
            let scalar_draws: Vec<f64> = (0..samples)
                .map(|i| {
                    let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, i as u64));
                    let (x, y) = draw(&mut rng);
                    let v = model(x, y);
                    if v.is_finite() {
                        v
                    } else {
                        f64::NAN
                    }
                })
                .collect();
            let mut serial_buf = McBuffer::default();
            let serial = monte_carlo_compiled_block_budgeted(
                samples,
                seed,
                2,
                block_sampler,
                block_kernel,
                &mut serial_buf,
                &EvalBudget::unlimited(),
            )
            .map(|(outcome, _)| outcome);
            assert_eq!(serial, reference, "{context}: summaries diverged");
            assert_bitwise_eq(&scalar_draws, serial_buf.draws(), &context);
            // The pooled engine is invariant under thread count too.
            for workers in [1, 2, 5, 8] {
                let mut par_buf = McBuffer::default();
                let parallel = par_monte_carlo_compiled_block_budgeted(
                    Parallelism::threads(workers),
                    samples,
                    seed,
                    2,
                    block_sampler,
                    block_kernel,
                    &mut par_buf,
                    &EvalBudget::unlimited(),
                )
                .map(|(outcome, _)| outcome);
                let context = format!("{context}, workers={workers}");
                assert_eq!(serial, parallel, "{context}");
                assert_bitwise_eq(&scalar_draws, par_buf.draws(), &context);
            }
        }
    }
}

#[test]
fn try_from_columns_rejects_malformed_shapes() {
    assert_eq!(PointBatch::try_from_columns(Vec::new()), Err(BatchShapeError::Empty));
    let ragged = PointBatch::try_from_columns(vec![vec![1.0, 2.0], vec![3.0]]);
    assert_eq!(ragged, Err(BatchShapeError::Ragged { axis: 1, len: 1, expected: 2 }));
    let err = ragged.expect_err("ragged columns must be rejected");
    assert_eq!(err.to_string(), "axis column 1 has 1 points but column 0 has 2");
    assert_eq!(
        BatchShapeError::Empty.to_string(),
        "a point batch needs at least one axis column"
    );
    let ok = PointBatch::try_from_columns(vec![vec![1.0, 2.0], vec![3.0, 4.0]])
        .expect("well-formed columns");
    assert_eq!(ok.len(), 2);
    assert_eq!(ok.axis_count(), 2);
}
