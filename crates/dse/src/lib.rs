//! Design-space exploration machinery shared by the ACT case studies:
//! parameter sweeps, Pareto frontiers, constrained optima and normalization.
//!
//! Every case study in the paper is a design-space exploration — over SoC
//! generations (Figure 8), engine provisioning (Figures 9–10), MAC-array
//! sizes (Figures 12–13), hardware lifetimes (Figure 14) or over-provisioning
//! factors (Figure 15). This crate holds the exploration primitives so each
//! study only writes its model.
//!
//! Sweeps over untrusted configurations use the fallible primitives
//! ([`try_sweep`], [`sweep_finite`], [`try_monte_carlo`]): invalid design
//! points are skipped and recorded in the returned [`SweepOutcome`] /
//! [`McOutcome`] rather than panicking mid-exploration.
//!
//! Large design spaces evaluate in parallel through the `par_*` twins
//! ([`par_sweep`], [`par_try_sweep`], [`par_sweep_finite`],
//! [`par_monte_carlo`], [`par_try_monte_carlo`]): results come back in
//! input order and — via per-sample seed-splitting for Monte-Carlo — are
//! bit-for-bit identical to their serial counterparts for any thread
//! count. The [`Parallelism`] policy picks the worker count (`Serial`,
//! `Auto` honoring `ACT_THREADS`, or explicit `Threads(n)`); disabling the
//! default `parallel` cargo feature removes the threading entirely while
//! keeping every `par_*` API compiling (serial fallback).
//!
//! Million-point explorations use the block-vectorized batch engine
//! ([`PointBatch`], [`sweep_compiled_block`],
//! [`par_sweep_compiled_block_budgeted`],
//! [`par_monte_carlo_compiled_block_budgeted`]): design points live in
//! structure-of-arrays columns, results land in reusable buffers, and the
//! kernel receives whole column ranges (pair it with
//! `act_core::EvalPlan::eval_block`), so the hot loop reads columns
//! directly with no per-point gather, enum dispatch or heap allocation —
//! with the same skip-and-record and seed-splitting semantics as the
//! per-point API and results bit-identical to
//! `act_core::CompiledFootprint::eval`, the scalar oracle.
//!
//! # Examples
//!
//! ```
//! use act_dse::{argmin_by, pareto_indices, powers_of_two};
//!
//! let macs = powers_of_two(64, 2048);
//! assert_eq!(macs, vec![64, 128, 256, 512, 1024, 2048]);
//!
//! // Smallest design meeting a constraint.
//! let best = argmin_by(&macs, |m| f64::from(*m));
//! assert_eq!(best, Some(0));
//!
//! // Two objectives: (cost, -quality). Only non-dominated points survive.
//! let points = vec![vec![1.0, 5.0], vec![2.0, 1.0], vec![3.0, 3.0]];
//! assert_eq!(pareto_indices(&points), vec![0, 1]);
//! ```

// `deny`, not `forbid`: the persistent worker pool (`pool` module) needs
// two narrowly-scoped `unsafe` items to share stack-borrowed closures with
// pool threads (crossbeam-scope-style lifetime confinement, documented
// there). Everything else in the crate stays `unsafe`-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod montecarlo;
mod optimize;
mod parallel;
mod pareto;
#[cfg(feature = "parallel")]
mod pool;
mod sweep;

pub use batch::{
    monte_carlo_compiled_block_budgeted, par_monte_carlo_compiled_block_budgeted,
    par_sweep_compiled_block_budgeted, par_sweep_compiled_block_with, sweep_compiled_block,
    BatchOutput, BatchRun, BatchShapeError, EvalBudget, McBuffer, PointBatch,
};
pub use montecarlo::{
    mc_sample_seed, monte_carlo, par_monte_carlo, par_monte_carlo_with, par_try_monte_carlo,
    par_try_monte_carlo_with, triangular, try_monte_carlo, try_triangular, McError, McOutcome,
    McStats, TriangularError,
};
pub use optimize::{argmin_by, argmin_feasible, knee_point, normalize_to, normalize_to_last};
pub use parallel::{
    calibration, machine_parallelism, par_map_ordered, par_map_range, BatchDecision,
    Calibration, CalibrationSource, Parallelism, ResolvedParallelism, ThreadsSource,
    ThreadsWarning, ThreadsWarningReason,
};
pub use pareto::{dominates, pareto_indices, pareto_indices_reference};
pub use sweep::{
    linspace, linspace_iter, logspace, logspace_iter, par_sweep, par_sweep_finite,
    par_sweep_finite_with, par_sweep_with, par_try_sweep, par_try_sweep_with, powers_of_two,
    powers_of_two_iter, sweep, sweep_finite, try_sweep, RejectedPoint, SweepOutcome,
};
