//! Block-vectorized batch evaluation for compiled kernels.
//!
//! The per-point sweep API ([`sweep`](crate::sweep())) hands the model an
//! owned parameter and collects `(param, result)` pairs — fine for dozens
//! of points, wasteful for millions. This module is the batch engine:
//! design points live in a [`PointBatch`] (one contiguous column per free
//! axis), results land in a caller-owned reusable [`BatchOutput`] or
//! [`McBuffer`], and the model is a **block kernel** — any
//! `Fn(&[&[f64]], Range<usize>, &mut [f64])` that evaluates points `range`
//! of a structure-of-arrays column set into an output slice, typically
//! `act_core::EvalPlan::eval_block`. The hot loop reads columns directly:
//! no per-point gather, no per-point enum dispatch, no per-point heap
//! allocation.
//!
//! Five entry points share one chunk/fill core:
//!
//! | | serial | under a [`Parallelism`] policy |
//! |---|---|---|
//! | sweep | [`sweep_compiled_block`] | [`par_sweep_compiled_block_with`], [`par_sweep_compiled_block_budgeted`] |
//! | Monte-Carlo | [`monte_carlo_compiled_block_budgeted`] | [`par_monte_carlo_compiled_block_budgeted`] |
//!
//! Every leg walks the points in blocks of at most 4096 (`MAX_CHUNK_POINTS`)
//! through one per-chunk body; the policy-driven legs fall back to the
//! serial leg when the policy resolves to one worker (for `Auto`, below
//! the committed break-even size of [`calibration`](crate::calibration)
//! or [`monte_carlo_calibration`](crate::monte_carlo_calibration)), and
//! otherwise hand ≤4096-point chunks to the persistent worker pool through
//! an atomic cursor (work stealing). The serial legs accept kernels and samplers
//! that are not `Sync`. Semantics:
//!
//! * **skip-and-record** — a non-finite kernel result does not abort the
//!   sweep; the point's output slot is poisoned to NaN and a
//!   [`RejectedPoint`] with the same reason string as
//!   [`sweep_finite`](crate::sweep_finite) is recorded, in sweep order.
//!   Monte-Carlo runs only count rejections;
//! * **thread-count invariance** — each point's value depends only on its
//!   coordinates and per-chunk rejection logs merge back in chunk order,
//!   so serial and pooled runs are bit-for-bit identical;
//! * **deterministic seed-splitting** — Monte-Carlo sample `i` draws from
//!   an RNG seeded with [`mc_sample_seed`]`(seed, i)` and nothing else, so
//!   the outcome is bit-identical for any thread count and equals the
//!   scalar loop that seeds, samples and evaluates one point at a time;
//! * **budgeted cut-off** — under an [`EvalBudget`] a run stops at a
//!   completed prefix that is bit-for-bit identical to the unbudgeted run:
//!   block-aligned on the serial leg (the block is the budget's check
//!   interval), chunk-aligned on the pooled one.
//!
//! The test oracle for all of it is `act_core::CompiledFootprint::eval`,
//! one point at a time.

use std::fmt;
use std::ops::Range;
use std::time::Instant;

use act_rng::Rng;

use crate::montecarlo::{mc_sample_seed, summarize_slice, McError, McOutcome};
use crate::parallel::Parallelism;
use crate::sweep::RejectedPoint;

/// A cooperative evaluation budget for batch loops: a wall-clock deadline
/// checked every [`check_interval`](Self::check_interval) points, so a
/// hot loop stays allocation-free and branch-cheap but can still be cut
/// off mid-batch. This is the hook `act-server` uses to enforce
/// per-request deadlines inside long sweeps — the socket timeouts bound
/// I/O, this bounds compute.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use act_dse::EvalBudget;
///
/// let unlimited = EvalBudget::unlimited();
/// assert!(!unlimited.is_exhausted());
///
/// let expired = EvalBudget::with_deadline(Instant::now() - Duration::from_millis(1));
/// assert!(expired.is_exhausted());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EvalBudget {
    deadline: Option<Instant>,
    check_interval: usize,
}

impl EvalBudget {
    /// How many points a budgeted loop evaluates between deadline checks
    /// by default. `Instant::now` costs tens of nanoseconds; a compiled
    /// kernel point costs a few — checking every 1024 points keeps the
    /// overhead under 1 % while bounding overshoot to ~a microsecond.
    pub const DEFAULT_CHECK_INTERVAL: usize = 1024;

    /// A budget that never expires: budgeted loops behave exactly like
    /// their unbudgeted twins.
    #[must_use]
    pub fn unlimited() -> Self {
        Self { deadline: None, check_interval: Self::DEFAULT_CHECK_INTERVAL }
    }

    /// A budget that expires at `deadline`.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        Self { deadline: Some(deadline), check_interval: Self::DEFAULT_CHECK_INTERVAL }
    }

    /// Overrides the points-between-checks interval (clamped up to 1).
    /// Smaller intervals tighten deadline precision at the cost of more
    /// clock reads; tests use `1` for exact cut-off points.
    #[must_use]
    pub fn check_every(mut self, interval: usize) -> Self {
        self.check_interval = interval.max(1);
        self
    }

    /// The configured points-between-checks interval.
    #[must_use]
    pub fn check_interval(&self) -> usize {
        self.check_interval
    }

    /// `true` once the deadline has passed (always `false` when unlimited).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }
}

/// How a budgeted batch run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchRun {
    /// Every point was evaluated.
    Completed,
    /// The [`EvalBudget`] expired after `completed` points; the remaining
    /// output slots hold NaN and recorded no rejections.
    DeadlineExceeded {
        /// Number of leading points that were evaluated before cut-off.
        completed: usize,
    },
}

impl BatchRun {
    /// `true` when every point was evaluated.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, Self::Completed)
    }

    /// The run that evaluated the leading `completed` of `len` points.
    fn after(completed: usize, len: usize) -> Self {
        if completed == len {
            Self::Completed
        } else {
            Self::DeadlineExceeded { completed }
        }
    }
}

/// Why a set of columns cannot form a [`PointBatch`]: the typed twin of
/// the panics in [`PointBatch::from_columns`], for request paths (like
/// `act-server`) that must turn a hostile body into an error response
/// instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchShapeError {
    /// No axis columns at all — a batch needs at least one.
    Empty,
    /// Column `axis` disagrees with column 0 on length.
    Ragged {
        /// Index of the offending column.
        axis: usize,
        /// Its length.
        len: usize,
        /// Column 0's length, which every column must match.
        expected: usize,
    },
}

impl fmt::Display for BatchShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "a point batch needs at least one axis column"),
            Self::Ragged { axis, len, expected } => {
                write!(f, "axis column {axis} has {len} points but column 0 has {expected}")
            }
        }
    }
}

impl std::error::Error for BatchShapeError {}

/// A structure-of-arrays block of design points: one `f64` column per free
/// axis, all columns the same length.
///
/// Column `a` holds coordinate `a` of every point, so a single-axis sweep
/// is just the swept values and a block kernel reads point `i` as
/// `columns[0][i], columns[1][i], ...` with no gather.
///
/// # Examples
///
/// ```
/// use act_dse::PointBatch;
///
/// let batch = PointBatch::single_axis(vec![1.0, 2.0, 3.0]);
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.axis_count(), 1);
///
/// let grid = PointBatch::from_columns(vec![vec![1.0, 2.0], vec![10.0, 20.0]]);
/// assert_eq!(grid.column(1), &[10.0, 20.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PointBatch {
    columns: Vec<Vec<f64>>,
    len: usize,
}

impl PointBatch {
    /// Batch over a single free axis: each value is one design point.
    #[must_use]
    pub fn single_axis(values: Vec<f64>) -> Self {
        let len = values.len();
        Self { columns: vec![values], len }
    }

    /// Batch over several free axes, one column per axis.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or the columns disagree on length.
    #[must_use]
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Self {
        match Self::try_from_columns(columns) {
            Ok(batch) => batch,
            Err(shape) => panic!("{shape}"),
        }
    }

    /// Fallible twin of [`Self::from_columns`] for untrusted input: the
    /// same shape checks, reported as a typed [`BatchShapeError`] instead
    /// of a panic. `act-server` uses it so a hostile sweep body becomes a
    /// 400 response rather than a caught panic.
    ///
    /// # Errors
    ///
    /// Returns [`BatchShapeError::Empty`] when `columns` is empty and
    /// [`BatchShapeError::Ragged`] when the columns disagree on length.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_dse::{BatchShapeError, PointBatch};
    ///
    /// assert_eq!(PointBatch::try_from_columns(Vec::new()), Err(BatchShapeError::Empty));
    /// assert_eq!(
    ///     PointBatch::try_from_columns(vec![vec![1.0, 2.0], vec![3.0]]),
    ///     Err(BatchShapeError::Ragged { axis: 1, len: 1, expected: 2 }),
    /// );
    /// assert!(PointBatch::try_from_columns(vec![vec![1.0], vec![2.0]]).is_ok());
    /// ```
    pub fn try_from_columns(columns: Vec<Vec<f64>>) -> Result<Self, BatchShapeError> {
        if columns.is_empty() {
            return Err(BatchShapeError::Empty);
        }
        let len = columns[0].len();
        for (axis, column) in columns.iter().enumerate() {
            if column.len() != len {
                return Err(BatchShapeError::Ragged { axis, len: column.len(), expected: len });
            }
        }
        Ok(Self { columns, len })
    }

    /// Number of design points in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the batch holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of free axes (columns).
    #[must_use]
    pub fn axis_count(&self) -> usize {
        self.columns.len()
    }

    /// The values of axis `axis` across every point.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    #[must_use]
    pub fn column(&self, axis: usize) -> &[f64] {
        &self.columns[axis]
    }

    /// All columns as borrowed slices, in axis order — the
    /// structure-of-arrays view block kernels read directly (e.g.
    /// `act_core::EvalPlan::eval_block`). The small per-call `Vec` of
    /// references is amortized over the whole batch, not per point.
    #[must_use]
    pub fn column_slices(&self) -> Vec<&[f64]> {
        self.columns.iter().map(Vec::as_slice).collect()
    }
}

/// Reusable output buffer for the sweep entry points: one value per design
/// point plus the skip-and-record rejection log.
///
/// Rejected points keep their slot in [`values`](Self::values) — poisoned to
/// NaN — so output index `i` always corresponds to batch point `i`.
/// Reusing one buffer across sweeps amortizes its allocation to zero.
#[derive(Clone, Debug, Default)]
pub struct BatchOutput {
    values: Vec<f64>,
    rejected: Vec<RejectedPoint>,
}

impl BatchOutput {
    /// An empty buffer; the first sweep sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-point results, in batch order. Rejected points hold NaN.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The rejected points, in sweep order.
    #[must_use]
    pub fn rejected(&self) -> &[RejectedPoint] {
        &self.rejected
    }

    /// Number of rejected points.
    #[must_use]
    pub fn rejected_count(&self) -> usize {
        self.rejected.len()
    }

    /// `true` when no point was rejected.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.rejected.is_empty()
    }

    /// Drops the previous sweep's contents and sizes the value buffer for
    /// `len` points, retaining allocated capacity.
    pub fn reset(&mut self, len: usize) {
        self.values.clear();
        self.values.resize(len, f64::NAN);
        self.rejected.clear();
    }

    /// Empties the buffer entirely (capacity is retained).
    pub fn clear(&mut self) {
        self.values.clear();
        self.rejected.clear();
    }
}

/// The reason string shared with [`sweep_finite`](crate::sweep_finite) —
/// byte-identical so batch and per-point rejection logs agree.
fn non_finite_reason(v: f64) -> String {
    format!("model produced a non-finite result ({v})")
}

/// Upper bound on points per work-stealing chunk and per block-kernel
/// call: 4096 points are 32 KiB of output — small enough to stay
/// cache-resident per steal, large enough that the per-chunk cursor bump,
/// slot lock and kernel call are noise. It also bounds the Monte-Carlo
/// sample columns, which hold one block at a time.
pub(crate) const MAX_CHUNK_POINTS: usize = 4096;

/// Points per chunk: at least four chunks per worker (stealing slack for
/// skewed kernels), capped at [`MAX_CHUNK_POINTS`]. Deterministic in
/// `(len, workers)` — though output never depends on the chunking anyway,
/// since every point is computed from its coordinates alone.
#[cfg(feature = "parallel")]
fn chunk_points(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.max(1) * 4).clamp(1, MAX_CHUNK_POINTS)
}

/// Points per block-kernel call, the one block-size rule of every leg:
/// [`MAX_CHUNK_POINTS`], or the budget's
/// [`check_interval`](EvalBudget::check_interval) when that is smaller and
/// a deadline is set — the clock is read once per block.
fn block_points(budget: &EvalBudget) -> usize {
    match budget.deadline {
        Some(_) => budget.check_interval.min(MAX_CHUNK_POINTS),
        None => MAX_CHUNK_POINTS,
    }
}

/// The per-chunk body every leg shares: evaluates `slice` — global points
/// `start..start + slice.len()` — through `fill(state, range, out)` in
/// [`block_points`]-sized blocks, consulting the budget before each block,
/// and canonicalizes non-finite results to NaN, recording each in `log`
/// (when given) with the raw value in its reason. Returns how many leading
/// points of `slice` completed: all of them unless the deadline cut in.
fn fill_chunk<S>(
    state: &mut S,
    fill: &impl Fn(&mut S, Range<usize>, &mut [f64]),
    slice: &mut [f64],
    start: usize,
    mut log: Option<&mut Vec<RejectedPoint>>,
    budget: &EvalBudget,
) -> usize {
    let block = block_points(budget);
    let mut offset = 0;
    while offset < slice.len() {
        if budget.is_exhausted() {
            return offset;
        }
        let end = (offset + block).min(slice.len());
        let first = start + offset;
        let out = &mut slice[offset..end];
        fill(state, first..start + end, out);
        for (index, slot) in (first..).zip(out.iter_mut()) {
            let v = *slot;
            if !v.is_finite() {
                *slot = f64::NAN;
                if let Some(log) = log.as_deref_mut() {
                    log.push(RejectedPoint { index, reason: non_finite_reason(v) });
                }
            }
        }
        offset = end;
    }
    offset
}

/// The pooled leg: partitions `values` into contiguous ≤[`MAX_CHUNK_POINTS`]
/// chunks, hands chunk indices to the persistent worker pool through an
/// atomic cursor (work stealing), runs [`fill_chunk`] on each with one
/// `make_state()` scratch state per worker, and merges per-chunk rejection
/// logs back in chunk order. Panics in workers propagate with their
/// payload after every worker has stopped.
///
/// Budget expiry leaves the worker's chunk unfinished and stops every
/// worker at its next steal or block; the result is the **chunk-aligned
/// completed prefix** (all chunks before the first unfinished one). Slots
/// past it are wiped back to NaN and their rejections dropped, so the
/// caller sees the serial contract with a coarser cut-off.
#[cfg(feature = "parallel")]
fn fill_chunked_block<S>(
    workers: usize,
    values: &mut [f64],
    rejected: Option<&mut Vec<RejectedPoint>>,
    make_state: &(impl Fn() -> S + Sync),
    fill: &(impl Fn(&mut S, Range<usize>, &mut [f64]) + Sync),
    budget: &EvalBudget,
) -> BatchRun {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Mutex, PoisonError};

    let len = values.len();
    if len == 0 {
        return BatchRun::Completed;
    }
    let chunk = chunk_points(len, workers);
    let record = rejected.is_some();
    let completed_chunks;
    {
        // Each chunk is a `Mutex<Option<&mut [f64]>>` slot its claimer
        // takes exactly once — one uncontended lock per ≤4096 points keeps
        // the engine free of `unsafe` while costing well under 0.1 %.
        let slots: Vec<Mutex<Option<&mut [f64]>>> =
            values.chunks_mut(chunk).map(|c| Mutex::new(Some(c))).collect();
        let chunk_count = slots.len();
        let done: Vec<AtomicBool> = (0..chunk_count).map(|_| AtomicBool::new(false)).collect();
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let logs: Mutex<Vec<(usize, Vec<RejectedPoint>)>> = Mutex::new(Vec::new());
        crate::pool::run(workers, &|| {
            let mut state = make_state();
            let mut local: Vec<(usize, Vec<RejectedPoint>)> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let ci = cursor.fetch_add(1, Ordering::Relaxed);
                if ci >= chunk_count {
                    break;
                }
                let taken = slots[ci].lock().unwrap_or_else(PoisonError::into_inner).take();
                let Some(slice) = taken else { continue };
                let points = slice.len();
                let mut chunk_log: Vec<RejectedPoint> = Vec::new();
                let log = record.then_some(&mut chunk_log);
                if fill_chunk(&mut state, fill, slice, ci * chunk, log, budget) < points {
                    // Leave this chunk unfinished: it marks the end of the
                    // completed prefix. Other workers stop at their next
                    // steal or block boundary.
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                done[ci].store(true, Ordering::Release);
                if !chunk_log.is_empty() {
                    local.push((ci, chunk_log));
                }
            }
            if !local.is_empty() {
                logs.lock().unwrap_or_else(PoisonError::into_inner).extend(local);
            }
        });
        completed_chunks = done.iter().take_while(|flag| flag.load(Ordering::Acquire)).count();
        if let Some(rejected) = rejected {
            let mut merged = logs.into_inner().unwrap_or_else(PoisonError::into_inner);
            merged.sort_unstable_by_key(|&(ci, _)| ci);
            for (ci, chunk_log) in merged {
                if ci < completed_chunks {
                    rejected.extend(chunk_log);
                }
            }
        }
        if completed_chunks == chunk_count {
            return BatchRun::Completed;
        }
    }
    // Deadline cut in: wipe everything past the chunk-aligned completed
    // prefix back to NaN (chunks may finish out of order past a gap, and
    // the cut-off chunk may hold partial blocks).
    let completed = (completed_chunks * chunk).min(len);
    for slot in &mut values[completed..] {
        *slot = f64::NAN;
    }
    BatchRun::DeadlineExceeded { completed }
}

/// Serial fallback when the `parallel` feature is disabled: same output,
/// one worker, block-aligned budget cut-off.
#[cfg(not(feature = "parallel"))]
fn fill_chunked_block<S>(
    _workers: usize,
    values: &mut [f64],
    rejected: Option<&mut Vec<RejectedPoint>>,
    make_state: &(impl Fn() -> S + Sync),
    fill: &(impl Fn(&mut S, Range<usize>, &mut [f64]) + Sync),
    budget: &EvalBudget,
) -> BatchRun {
    let len = values.len();
    BatchRun::after(fill_chunk(&mut make_state(), fill, values, 0, rejected, budget), len)
}

/// Evaluates `block_kernel` over the whole batch, serially, writing results
/// into `out`. `block_kernel(columns, range, out)` fills `out` with the
/// results for points `range` of the structure-of-arrays `columns`.
///
/// Non-finite results are skipped and recorded exactly like
/// [`sweep_finite`](crate::sweep_finite): the slot is poisoned to NaN and a
/// [`RejectedPoint`] carries the index and reason. With
/// `act_core::EvalPlan::eval_block` as the kernel, results are bit-for-bit
/// identical to `CompiledFootprint::eval` point by point.
///
/// # Examples
///
/// ```
/// use act_dse::{sweep_compiled_block, BatchOutput, PointBatch};
///
/// let batch = PointBatch::single_axis(vec![4.0, 0.0, 1.0]);
/// let mut out = BatchOutput::new();
/// sweep_compiled_block(
///     &batch,
///     |cols, range, out| {
///         for (slot, &x) in out.iter_mut().zip(&cols[0][range]) {
///             *slot = 1.0 / x;
///         }
///     },
///     &mut out,
/// );
/// assert_eq!(out.values()[0], 0.25);
/// assert!(out.values()[1].is_nan()); // 1/0 = inf, rejected
/// assert_eq!(out.rejected()[0].index, 1);
/// ```
pub fn sweep_compiled_block(
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]),
    out: &mut BatchOutput,
) {
    let run = sweep_serial(batch, &block_kernel, out, &EvalBudget::unlimited());
    debug_assert!(run.is_complete(), "an unlimited budget cannot expire");
}

/// The serial sweep leg, block-aligned cut-off.
fn sweep_serial(
    batch: &PointBatch,
    block_kernel: &impl Fn(&[&[f64]], Range<usize>, &mut [f64]),
    out: &mut BatchOutput,
    budget: &EvalBudget,
) -> BatchRun {
    out.reset(batch.len());
    let columns = batch.column_slices();
    let fill = |_: &mut (), range, slice: &mut [f64]| block_kernel(&columns, range, slice);
    let completed =
        fill_chunk(&mut (), &fill, &mut out.values, 0, Some(&mut out.rejected), budget);
    BatchRun::after(completed, batch.len())
}

/// [`sweep_compiled_block`] under an explicit [`Parallelism`] policy; see
/// [`par_sweep_compiled_block_budgeted`].
pub fn par_sweep_compiled_block_with(
    parallelism: Parallelism,
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    out: &mut BatchOutput,
) {
    let run = par_sweep_compiled_block_budgeted(
        parallelism,
        batch,
        block_kernel,
        out,
        &EvalBudget::unlimited(),
    );
    debug_assert!(run.is_complete(), "an unlimited budget cannot expire");
}

/// The sweep engine: [`sweep_compiled_block`] under a [`Parallelism`]
/// policy and a cooperative [`EvalBudget`].
///
/// When the policy resolves to one worker — `Serial`, `threads(0 | 1)`, or
/// a machine-default `Auto` below the break-even size of
/// [`calibration`](crate::calibration) — the serial leg runs and a
/// deadline cuts off at a **block-aligned** completed prefix (the block is
/// the budget's [`check_interval`](EvalBudget::check_interval)). Otherwise
/// the pool evaluates ≤4096-point chunks and the cut-off is
/// **chunk-aligned**. Either way the completed prefix is bit-for-bit
/// identical to an unbudgeted serial run, every slot past it holds NaN,
/// and the rejection log covers exactly the completed prefix, in sweep
/// order.
///
/// # Examples
///
/// ```
/// use act_dse::{par_sweep_compiled_block_budgeted, BatchOutput, BatchRun, EvalBudget};
/// use act_dse::{Parallelism, PointBatch};
///
/// let batch = PointBatch::single_axis(vec![1.0, 2.0, 4.0]);
/// let mut out = BatchOutput::new();
/// let run = par_sweep_compiled_block_budgeted(
///     Parallelism::threads(2),
///     &batch,
///     |cols, range, out| {
///         for (slot, &x) in out.iter_mut().zip(&cols[0][range]) {
///             *slot = 1.0 / x;
///         }
///     },
///     &mut out,
///     &EvalBudget::unlimited(),
/// );
/// assert_eq!(run, BatchRun::Completed);
/// assert_eq!(out.values(), &[1.0, 0.5, 0.25]);
/// ```
pub fn par_sweep_compiled_block_budgeted(
    parallelism: Parallelism,
    batch: &PointBatch,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    out: &mut BatchOutput,
    budget: &EvalBudget,
) -> BatchRun {
    let len = batch.len();
    let workers = parallelism.resolve_for(len).workers.min(len.max(1));
    if workers <= 1 {
        return sweep_serial(batch, &block_kernel, out, budget);
    }
    out.reset(len);
    let columns = batch.column_slices();
    fill_chunked_block(
        workers,
        &mut out.values,
        Some(&mut out.rejected),
        &|| (),
        &|_: &mut (), range, slice: &mut [f64]| block_kernel(&columns, range, slice),
        budget,
    )
}

/// Reusable sample buffer for the Monte-Carlo entry points: the raw draws
/// (finite and not), the finite subset the statistics are reduced from,
/// and the serial leg's structure-of-arrays sample columns. Reuse one
/// buffer across runs to amortize allocation.
#[derive(Clone, Debug, Default)]
pub struct McBuffer {
    draws: Vec<f64>,
    /// The finite draws compacted in sample order (so the mean is the
    /// draw-order sum); the percentile selection then permutes it in
    /// place, leaving [`draws`](Self::draws) untouched.
    finite: Vec<f64>,
    /// One column per axis, refilled per block (≤[`MAX_CHUNK_POINTS`]
    /// points), so sampling allocates nothing per point.
    columns: Vec<Vec<f64>>,
}

impl McBuffer {
    /// An empty buffer; the first run sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every draw of the last run's completed prefix, in sample order;
    /// rejected (non-finite) draws appear as NaN regardless of whether the
    /// model produced NaN or ±∞.
    #[must_use]
    pub fn draws(&self) -> &[f64] {
        &self.draws
    }

    /// Sizes the draw buffer for a run of `samples`, every slot NaN.
    fn reset(&mut self, samples: usize) {
        self.draws.clear();
        self.draws.resize(samples, f64::NAN);
    }

    /// The one summarize step: truncates the draws to the completed prefix
    /// of `run`, compacts its finite draws in sample order and reduces
    /// them in O(n) — a draw-order sum for the mean, selection for the
    /// percentiles (see [`McStats`](crate::McStats)).
    fn summarize(&mut self, run: BatchRun) -> Result<(McOutcome, BatchRun), McError> {
        if let BatchRun::DeadlineExceeded { completed } = run {
            self.draws.truncate(completed);
        }
        if self.draws.is_empty() {
            return Err(McError::NoSamples);
        }
        self.finite.clear();
        self.finite.extend(self.draws.iter().copied().filter(|v| v.is_finite()));
        let rejected = self.draws.len() - self.finite.len();
        if self.finite.is_empty() {
            return Err(McError::AllRejected { rejected });
        }
        Ok((McOutcome { stats: summarize_slice(&mut self.finite), rejected }, run))
    }
}

/// The Monte-Carlo fill both legs share: samples points `range` straight
/// into the reusable `columns` (sample `i` seeded with
/// [`mc_sample_seed`]`(seed, i)`, written to slot `i - range.start`), then
/// evaluates them as one block.
fn mc_fill<'a>(
    seed: u64,
    axes: usize,
    sampler: &'a impl Fn(&mut Rng, usize, &mut [Vec<f64>]),
    block_kernel: &'a impl Fn(&[&[f64]], Range<usize>, &mut [f64]),
) -> impl Fn(&mut Vec<Vec<f64>>, Range<usize>, &mut [f64]) + 'a {
    move |columns, range, out| {
        let n = range.len();
        columns.resize(axes, Vec::new());
        for column in columns.iter_mut() {
            column.clear();
            column.resize(n, 0.0);
        }
        for (k, index) in range.enumerate() {
            let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, index as u64));
            sampler(&mut rng, k, columns);
        }
        let column_refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        block_kernel(&column_refs, 0..n, out);
    }
}

/// The serial Monte-Carlo leg: samples **directly into reusable
/// structure-of-arrays columns** ([`McBuffer`] keeps them across runs,
/// sized to one ≤4096-point block) and evaluates whole blocks through the
/// block kernel, until the [`EvalBudget`] expires; then summarizes **the
/// block-aligned completed prefix**.
///
/// `sampler(rng, k, columns)` draws one point's coordinates into slot `k`
/// of each axis column, with the RNG seeded per *sample* by
/// [`mc_sample_seed`] — so a model split into `(sampler, block_kernel)`
/// gives the same draws as a scalar loop that seeds, samples and evaluates
/// one point at a time, for any budget or thread count. After the call,
/// [`McBuffer::draws`] holds exactly the completed prefix.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] when `samples` is zero or the budget
/// expired before the first block, and [`McError::AllRejected`] when every
/// completed draw was non-finite.
///
/// # Examples
///
/// ```
/// use act_dse::{mc_sample_seed, monte_carlo_compiled_block_budgeted};
/// use act_dse::{EvalBudget, McBuffer};
/// use act_rng::Rng;
///
/// let mut buf = McBuffer::new();
/// let (block, _) = monte_carlo_compiled_block_budgeted(
///     2_000, 42, 1,
///     |rng, k, columns| columns[0][k] = rng.gen_range(0.7..1.0),
///     |cols, range, out| {
///         for (slot, &y) in out.iter_mut().zip(&cols[0][range]) {
///             *slot = 0.9 * 1370.0 / y;
///         }
///     },
///     &mut buf,
///     &EvalBudget::unlimited(),
/// )?;
/// // The scalar loop: sample `i` seeded by `mc_sample_seed(42, i)`.
/// for (i, &draw) in buf.draws().iter().enumerate() {
///     let mut rng = Rng::seed_from_u64(mc_sample_seed(42, i as u64));
///     let y: f64 = rng.gen_range(0.7..1.0);
///     assert_eq!(draw.to_bits(), (0.9 * 1370.0 / y).to_bits());
/// }
/// assert_eq!(block.stats.samples, 2_000);
/// # Ok::<(), act_dse::McError>(())
/// ```
pub fn monte_carlo_compiled_block_budgeted(
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, usize, &mut [Vec<f64>]),
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]),
    buf: &mut McBuffer,
    budget: &EvalBudget,
) -> Result<(McOutcome, BatchRun), McError> {
    buf.reset(samples);
    let fill = mc_fill(seed, axes, &sampler, &block_kernel);
    let completed = fill_chunk(&mut buf.columns, &fill, &mut buf.draws, 0, None, budget);
    buf.summarize(BatchRun::after(completed, samples))
}

/// The Monte-Carlo engine: [`monte_carlo_compiled_block_budgeted`] under a
/// [`Parallelism`] policy, resolved by
/// [`Parallelism::resolve_for_monte_carlo`]. When the policy resolves to
/// one worker it runs the serial leg; otherwise every pool worker keeps
/// its own sample columns and a deadline cuts off at a **chunk-aligned**
/// completed prefix. Seed-splitting is per *sample*, so the outcome and
/// [`McBuffer::draws`] are bit-identical to the serial leg for any thread
/// count.
///
/// # Errors
///
/// Returns [`McError::NoSamples`] when `samples` is zero or the budget
/// expired before the first chunk completed, and [`McError::AllRejected`]
/// when every completed draw was non-finite.
#[allow(clippy::too_many_arguments)]
pub fn par_monte_carlo_compiled_block_budgeted(
    parallelism: Parallelism,
    samples: usize,
    seed: u64,
    axes: usize,
    sampler: impl Fn(&mut Rng, usize, &mut [Vec<f64>]) + Sync,
    block_kernel: impl Fn(&[&[f64]], Range<usize>, &mut [f64]) + Sync,
    buf: &mut McBuffer,
    budget: &EvalBudget,
) -> Result<(McOutcome, BatchRun), McError> {
    let workers = parallelism.resolve_for_monte_carlo(samples).workers.min(samples.max(1));
    if workers <= 1 {
        return monte_carlo_compiled_block_budgeted(
            samples,
            seed,
            axes,
            sampler,
            block_kernel,
            buf,
            budget,
        );
    }
    buf.reset(samples);
    let fill = mc_fill(seed, axes, &sampler, &block_kernel);
    let run = fill_chunked_block(workers, &mut buf.draws, None, &Vec::new, &fill, budget);
    buf.summarize(run)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::sweep::sweep_finite;

    /// Thread counts covering the serial leg, the pool, and a pool wider
    /// than some batches.
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    /// `1 / x` as a block kernel: the pole at zero exercises skip-and-record.
    fn reciprocal(cols: &[&[f64]], range: Range<usize>, out: &mut [f64]) {
        for (slot, &x) in out.iter_mut().zip(&cols[0][range]) {
            *slot = 1.0 / x;
        }
    }

    fn expired() -> EvalBudget {
        EvalBudget::with_deadline(Instant::now() - Duration::from_millis(1)).check_every(1)
    }

    fn assert_bitwise_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "bit divergence at point {i}");
        }
    }

    #[test]
    fn batch_construction() {
        let batch = PointBatch::from_columns(vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.axis_count(), 2);
        assert_eq!(batch.column(1), &[10.0, 20.0, 30.0]);
        assert_eq!(batch.column_slices(), vec![&[1.0, 2.0, 3.0][..], &[10.0, 20.0, 30.0][..]]);
    }

    #[test]
    #[should_panic(expected = "at least one axis")]
    fn empty_batch_rejected() {
        let _ = PointBatch::from_columns(Vec::new());
    }

    #[test]
    #[should_panic(expected = "column 0 has")]
    fn ragged_batch_rejected() {
        let _ = PointBatch::from_columns(vec![vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn sweep_records_rejections_like_sweep_finite_for_any_thread_count() {
        let params = vec![4.0, 0.0, -2.0, f64::NAN, 1.0, -0.0, f64::INFINITY];
        let reference = sweep_finite(params.clone(), |x| 1.0 / x);
        let batch = PointBatch::single_axis(params);
        for threads in THREADS {
            let mut out = BatchOutput::new();
            par_sweep_compiled_block_with(
                Parallelism::threads(threads),
                &batch,
                reciprocal,
                &mut out,
            );
            // Same indices, same order, byte-identical reason strings.
            assert_eq!(out.rejected(), &reference.rejected[..], "threads={threads}");
            assert_eq!(out.rejected()[0].reason, "model produced a non-finite result (inf)");
            assert_eq!(out.rejected_count(), 3);
            assert!(!out.is_clean());
            for r in out.rejected() {
                assert!(out.values()[r.index].is_nan());
            }
            let finite: Vec<f64> =
                out.values().iter().copied().filter(|v| !v.is_nan()).collect();
            let expected: Vec<f64> = reference.results.iter().map(|&(_, v)| v).collect();
            assert_bitwise_eq(&finite, &expected);
        }
    }

    #[test]
    fn buffer_reuse_resets_state() {
        let mut out = BatchOutput::new();
        sweep_compiled_block(&PointBatch::single_axis(vec![0.0, 0.0]), reciprocal, &mut out);
        assert_eq!(out.rejected_count(), 2);
        sweep_compiled_block(&PointBatch::single_axis(vec![1.0]), reciprocal, &mut out);
        assert_eq!(out.rejected_count(), 0);
        assert_eq!(out.values(), &[1.0]);
        out.clear();
        assert!(out.values().is_empty() && out.is_clean());
    }

    #[test]
    fn empty_batch_sweeps_cleanly_under_any_budget() {
        let batch = PointBatch::single_axis(Vec::new());
        for threads in THREADS {
            for budget in [EvalBudget::unlimited(), expired()] {
                let mut out = BatchOutput::new();
                let run = par_sweep_compiled_block_budgeted(
                    Parallelism::threads(threads),
                    &batch,
                    reciprocal,
                    &mut out,
                    &budget,
                );
                assert_eq!(run, BatchRun::Completed);
                assert!(out.values().is_empty() && out.is_clean());
            }
        }
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_sweep_bitwise() {
        let batch = PointBatch::single_axis((0..5000).map(|i| f64::from(i) - 2500.0).collect());
        let mut plain = BatchOutput::new();
        sweep_compiled_block(&batch, reciprocal, &mut plain);
        for threads in THREADS {
            let mut budgeted = BatchOutput::new();
            let run = par_sweep_compiled_block_budgeted(
                Parallelism::threads(threads),
                &batch,
                reciprocal,
                &mut budgeted,
                &EvalBudget::unlimited(),
            );
            assert!(run.is_complete());
            assert_eq!(budgeted.rejected(), plain.rejected());
            assert_bitwise_eq(budgeted.values(), plain.values());
        }
    }

    #[test]
    fn expired_budget_stops_before_the_first_point() {
        let batch = PointBatch::single_axis((0..500).map(f64::from).collect());
        for threads in THREADS {
            let mut out = BatchOutput::new();
            let run = par_sweep_compiled_block_budgeted(
                Parallelism::threads(threads),
                &batch,
                reciprocal,
                &mut out,
                &expired(),
            );
            assert_eq!(run, BatchRun::DeadlineExceeded { completed: 0 });
            assert!(out.values().iter().all(|v| v.is_nan()));
            assert!(out.is_clean(), "cut-off points must not be recorded as rejections");
        }
    }

    #[test]
    fn mid_run_expiry_keeps_a_bitwise_identical_prefix() {
        // A kernel that burns the clock past the deadline on point 2; with
        // the check interval at 1 every block is one point, so the serial
        // cut-off lands exactly on point 3.
        let deadline = Instant::now() + Duration::from_millis(100);
        let slow = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
            if cols[0][range.clone()].contains(&2.0) {
                while Instant::now() < deadline + Duration::from_millis(1) {
                    std::hint::spin_loop();
                }
            }
            reciprocal(cols, range, out);
        };
        let batch = PointBatch::single_axis(vec![4.0, 0.0, 2.0, 8.0, 16.0]);
        let mut out = BatchOutput::new();
        let run = par_sweep_compiled_block_budgeted(
            Parallelism::Serial,
            &batch,
            slow,
            &mut out,
            &EvalBudget::with_deadline(deadline).check_every(1),
        );
        assert_eq!(run, BatchRun::DeadlineExceeded { completed: 3 });
        let mut reference = BatchOutput::new();
        sweep_compiled_block(&batch, reciprocal, &mut reference);
        assert_bitwise_eq(&out.values()[..3], &reference.values()[..3]);
        assert!(out.values()[3].is_nan() && out.values()[4].is_nan());
        // The rejection log covers only the completed prefix (point 1).
        assert_eq!(out.rejected().iter().map(|r| r.index).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn budget_check_interval_clamps_and_sets_the_block_size() {
        assert_eq!(
            EvalBudget::unlimited().check_interval(),
            EvalBudget::DEFAULT_CHECK_INTERVAL
        );
        assert_eq!(EvalBudget::unlimited().check_every(0).check_interval(), 1);
        assert!(!EvalBudget::unlimited().is_exhausted());
        // Unlimited budgets ignore the interval; deadlines use it, capped
        // at the chunk bound.
        let later = EvalBudget::with_deadline(Instant::now() + Duration::from_secs(60));
        assert_eq!(block_points(&EvalBudget::unlimited().check_every(7)), MAX_CHUNK_POINTS);
        assert_eq!(block_points(&later.check_every(64)), 64);
        assert_eq!(block_points(&later.check_every(1 << 20)), MAX_CHUNK_POINTS);
    }

    #[test]
    fn mc_reports_degenerate_and_expired_runs() {
        let sampler = |_: &mut Rng, k: usize, columns: &mut [Vec<f64>]| columns[0][k] = 0.0;
        let mut buf = McBuffer::new();
        for threads in [1, 4] {
            let mut run = |samples: usize, budget: &EvalBudget| {
                par_monte_carlo_compiled_block_budgeted(
                    Parallelism::threads(threads),
                    samples,
                    7,
                    1,
                    sampler,
                    reciprocal,
                    &mut buf,
                    budget,
                )
                .map(|(outcome, _)| outcome)
            };
            assert_eq!(run(0, &EvalBudget::unlimited()), Err(McError::NoSamples));
            assert_eq!(run(100, &expired()), Err(McError::NoSamples));
            assert_eq!(
                run(10, &EvalBudget::unlimited()),
                Err(McError::AllRejected { rejected: 10 })
            );
            assert_eq!(buf.draws().len(), 10);
            assert!(buf.draws().iter().all(|v| v.is_nan()));
        }
    }

    #[test]
    fn serial_mc_columns_hold_one_block() {
        let mut buf = McBuffer::new();
        let (outcome, run) = monte_carlo_compiled_block_budgeted(
            100_000,
            3,
            2,
            |rng, k, columns| {
                columns[0][k] = rng.gen_range(1.0..2.0);
                columns[1][k] = rng.gen_range(1.0..2.0);
            },
            |cols, range, out| {
                for ((slot, &x), &y) in
                    out.iter_mut().zip(&cols[0][range.clone()]).zip(&cols[1][range])
                {
                    *slot = x * y;
                }
            },
            &mut buf,
            &EvalBudget::unlimited(),
        )
        .expect("finite draws");
        assert!(run.is_complete());
        assert_eq!(outcome.rejected, 0);
        assert_eq!(buf.draws().len(), 100_000);
        assert_eq!(buf.columns.len(), 2);
        for column in &buf.columns {
            assert!(column.len() <= MAX_CHUNK_POINTS, "column holds {} points", column.len());
            assert!(
                column.capacity() <= MAX_CHUNK_POINTS,
                "column reserves {}",
                column.capacity()
            );
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn chunk_sizing_has_stealing_slack_and_cache_cap() {
        // Small batches: at least one point per chunk, ≥ 4 chunks/worker.
        assert_eq!(chunk_points(4, 4), 1);
        assert_eq!(chunk_points(1000, 2), 125);
        // Large batches cap at the cache-friendly maximum.
        assert_eq!(chunk_points(1_000_000, 8), MAX_CHUNK_POINTS);
        // Degenerate worker counts never panic or return zero.
        assert!(chunk_points(10, 0) >= 1);
        assert!(chunk_points(0, 3) >= 1);
    }
}
