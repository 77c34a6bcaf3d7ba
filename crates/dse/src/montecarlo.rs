//! Monte-Carlo propagation of parameter uncertainty through a model.
//!
//! Carbon accounting is built on uncertain inputs — yields, grid
//! intensities, abatement effectiveness. Sampling the model under a
//! distribution of inputs turns a point estimate into a defensible range.
//!
//! The closure-based entry points here ([`monte_carlo`],
//! [`try_monte_carlo`]) thread one RNG through every draw, serially.
//! Parallel and compiled-kernel runs go through the block engine in
//! [`batch`](crate::batch) — [`crate::monte_carlo_compiled_block_budgeted`]
//! and its pooled twin [`crate::par_monte_carlo_compiled_block_budgeted`]
//! — which samples straight into reusable structure-of-arrays columns,
//! evaluates whole blocks per kernel call, and seeds sample `i` with
//! [`mc_sample_seed`]`(seed, i)`, so its [`McStats`] are bit-identical for
//! any thread count.

use act_rng::Rng;

/// Summary statistics of a Monte-Carlo run over `n` finite samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McStats {
    /// Sample mean: the finite samples summed in draw (sample-index)
    /// order, divided by `n`.
    pub mean: f64,
    /// 5th percentile: the nearest-rank order statistic at index
    /// `round((n - 1) · 0.05)` under [`f64::total_cmp`].
    pub p05: f64,
    /// Median: the order statistic at index `round((n - 1) · 0.5)` under
    /// [`f64::total_cmp`].
    pub p50: f64,
    /// 95th percentile: the order statistic at index
    /// `round((n - 1) · 0.95)` under [`f64::total_cmp`].
    pub p95: f64,
    /// Number of samples.
    pub samples: usize,
}

act_json::impl_to_json!(McStats { mean, p05, p50, p95, samples });
act_json::impl_from_json!(McStats { mean, p05, p50, p95, samples });

impl McStats {
    /// The p05–p95 spread relative to the magnitude of the mean — a
    /// unitless uncertainty indicator.
    ///
    /// Never returns NaN: a zero spread is `0.0` regardless of the mean
    /// (even an all-zero run is "perfectly certain"), and a nonzero spread
    /// over a mean too small to normalize by (`|mean| <
    /// f64::MIN_POSITIVE`, or a non-finite mean from poisoned statistics)
    /// reports `f64::INFINITY` — "infinitely uncertain" — instead of
    /// dividing by ~zero. The divisor is `|mean|`, so the indicator is
    /// non-negative for negative-mean models too.
    #[must_use]
    pub fn relative_spread(&self) -> f64 {
        let spread = self.p95 - self.p05;
        if spread == 0.0 {
            return 0.0;
        }
        let scale = self.mean.abs();
        if spread.is_nan() || !scale.is_finite() || scale < f64::MIN_POSITIVE {
            return f64::INFINITY;
        }
        spread / scale
    }
}

/// Error returned by [`try_monte_carlo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum McError {
    /// `samples` was zero.
    NoSamples,
    /// Every draw produced a non-finite value; no statistics exist.
    AllRejected {
        /// Number of rejected draws (equals the requested sample count).
        rejected: usize,
    },
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSamples => write!(f, "Monte-Carlo run needs at least one sample"),
            Self::AllRejected { rejected } => {
                write!(f, "all {rejected} Monte-Carlo draws were non-finite")
            }
        }
    }
}

impl std::error::Error for McError {}

/// The result of a fault-tolerant Monte-Carlo run: statistics over the
/// finite draws plus the count of rejected (non-finite) ones.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McOutcome {
    /// Statistics over the finite samples.
    pub stats: McStats,
    /// Number of draws discarded because the model returned NaN or ±∞.
    pub rejected: usize,
}

act_json::impl_to_json!(McOutcome { stats, rejected });
act_json::impl_from_json!(McOutcome { stats, rejected });

/// Runs `samples` evaluations of `model`, each fed a fresh RNG-driven
/// input draw, and summarizes the outputs. Deterministic for a fixed
/// `seed`.
///
/// # Panics
///
/// Panics if `samples` is zero or the model produces non-finite outputs.
///
/// # Examples
///
/// ```
/// use act_dse::monte_carlo;
///
/// // Footprint = area x CPA where yield is uncertain in [0.7, 1.0].
/// let stats = monte_carlo(2_000, 42, |rng| {
///     let y: f64 = rng.gen_range(0.7..1.0);
///     0.9 * 1370.0 / y
/// });
/// assert!(stats.p05 < stats.mean && stats.mean < stats.p95);
/// ```
pub fn monte_carlo(
    samples: usize,
    seed: u64,
    mut model: impl FnMut(&mut Rng) -> f64,
) -> McStats {
    assert!(samples > 0, "need at least one sample");
    let mut rng = Rng::seed_from_u64(seed);
    let mut values: Vec<f64> = (0..samples)
        .map(|_| {
            let v = model(&mut rng);
            assert!(v.is_finite(), "model produced a non-finite sample");
            v
        })
        .collect();
    summarize_slice(&mut values)
}

/// Fault-tolerant variant of [`monte_carlo`]: draws that evaluate to NaN or
/// ±∞ are skipped and counted instead of panicking, and the statistics are
/// computed over the remaining finite samples. Deterministic for a fixed
/// `seed` (the RNG advances identically whether a draw is kept or not).
///
/// # Errors
///
/// Returns [`McError::NoSamples`] if `samples` is zero and
/// [`McError::AllRejected`] if every draw was non-finite.
///
/// # Examples
///
/// ```
/// use act_dse::try_monte_carlo;
///
/// // A model with a pole: some yield draws divide by zero.
/// let outcome = try_monte_carlo(1_000, 42, |rng| {
///     let y: f64 = rng.gen_range(-0.1..1.0);
///     1370.0 / y.max(0.0) // y <= 0 -> +inf, rejected
/// })?;
/// assert!(outcome.rejected > 0);
/// assert!(outcome.stats.samples + outcome.rejected == 1_000);
/// # Ok::<(), act_dse::McError>(())
/// ```
pub fn try_monte_carlo(
    samples: usize,
    seed: u64,
    mut model: impl FnMut(&mut Rng) -> f64,
) -> Result<McOutcome, McError> {
    if samples == 0 {
        return Err(McError::NoSamples);
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut values = Vec::with_capacity(samples);
    let mut rejected = 0usize;
    for _ in 0..samples {
        let v = model(&mut rng);
        if v.is_finite() {
            values.push(v);
        } else {
            rejected += 1;
        }
    }
    if values.is_empty() {
        return Err(McError::AllRejected { rejected });
    }
    Ok(McOutcome { stats: summarize_slice(&mut values), rejected })
}

/// Derives the independent RNG seed for sample `index` of a run keyed by
/// `master` — the seed-splitting scheme behind the block Monte-Carlo
/// engine ([`crate::par_monte_carlo_compiled_block_budgeted`]).
///
/// This is the SplitMix64 output function evaluated at position
/// `index + 1` of the stream seeded by `master`: every sample gets its own
/// statistically independent `Rng`, no RNG state is shared between
/// samples, and the draw for sample `i` depends only on `(master, i)` —
/// never on which thread evaluated it or in what order. That is the whole
/// determinism argument: parallel and serial runs see bit-identical draws.
#[must_use]
pub fn mc_sample_seed(master: u64, index: u64) -> u64 {
    const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = master.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reduces the finite samples to summary statistics in O(n), permuting
/// `values` in place. Borrowing the slice lets the batch path summarize a
/// reusable buffer without reallocating.
///
/// * `mean` is the sum of `values` **in the order given** — every caller
///   passes draw (sample-index) order, which depends only on `(seed, i)`,
///   so the mean is thread-count invariant and budget-prefix safe. The sum
///   is taken before anything permutes the slice.
/// * `p05`/`p50`/`p95` are the nearest-rank order statistics at index
///   `round((n - 1) · q)` under [`f64::total_cmp`], found by selection:
///   p50 over the whole slice, then p05 inside its left partition and p95
///   inside its right one. `total_cmp` equality is bit equality, so each
///   is bitwise the element a full sort would put at that index.
pub(crate) fn summarize_slice(values: &mut [f64]) -> McStats {
    let samples = values.len();
    let mean = values.iter().sum::<f64>() / samples as f64;
    let rank = |q: f64| ((samples - 1) as f64 * q).round() as usize;
    let (i05, i50, i95) = (rank(0.05), rank(0.5), rank(0.95));
    let (left, &mut p50, right) = values.select_nth_unstable_by(i50, f64::total_cmp);
    let p05 =
        if i05 == i50 { p50 } else { *left.select_nth_unstable_by(i05, f64::total_cmp).1 };
    let p95 = if i95 == i50 {
        p50
    } else {
        *right.select_nth_unstable_by(i95 - i50 - 1, f64::total_cmp).1
    };
    McStats { mean, p05, p50, p95, samples }
}

/// Error returned by [`try_triangular`] for parameters that do not define
/// a triangular distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TriangularError {
    /// The rejected lower bound.
    pub low: f64,
    /// The rejected mode.
    pub mode: f64,
    /// The rejected upper bound.
    pub high: f64,
}

impl std::fmt::Display for TriangularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid triangular parameters: need finite low < high with low <= mode <= high, \
             got low={}, mode={}, high={}",
            self.low, self.mode, self.high
        )
    }
}

impl std::error::Error for TriangularError {}

/// Fallible twin of [`triangular`]: draws a triangular-distributed value
/// on `[low, high]` with the given mode, rejecting bad parameters with a
/// typed error instead of panicking — the form user-supplied fleet
/// distributions must go through, so a hostile payload becomes a 400
/// instead of a caught-panic 500.
///
/// The RNG is only advanced when the parameters are valid, so a rejected
/// draw consumes no randomness.
///
/// # Errors
///
/// Returns [`TriangularError`] unless all three parameters are finite,
/// `low < high`, and `low <= mode <= high`.
pub fn try_triangular(
    rng: &mut Rng,
    low: f64,
    mode: f64,
    high: f64,
) -> Result<f64, TriangularError> {
    let valid = low.is_finite()
        && mode.is_finite()
        && high.is_finite()
        && low < high
        && (low..=high).contains(&mode);
    if !valid {
        return Err(TriangularError { low, mode, high });
    }
    let u: f64 = rng.gen();
    let cut = (mode - low) / (high - low);
    Ok(if u < cut {
        low + ((high - low) * (mode - low) * u).sqrt()
    } else {
        high - ((high - low) * (high - mode) * (1.0 - u)).sqrt()
    })
}

/// Draws a triangular-distributed value on `[low, high]` with the given
/// mode — the standard shape for expert-judgment parameters like yield.
/// Delegates to [`try_triangular`]; use that form directly when the
/// parameters come from untrusted input.
///
/// # Panics
///
/// Panics unless `low <= mode <= high` and `low < high` (all finite).
pub fn triangular(rng: &mut Rng, low: f64, mode: f64, high: f64) -> f64 {
    match try_triangular(rng, low, mode, high) {
        Ok(value) => value,
        Err(err) => panic!("{err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_deterministic() {
        let f = |rng: &mut Rng| rng.gen_range(0.0..1.0);
        let a = monte_carlo(5_000, 7, f);
        let b = monte_carlo(5_000, 7, f);
        assert_eq!(a, b);
        assert!(a.p05 <= a.p50 && a.p50 <= a.p95);
        assert!((a.mean - 0.5).abs() < 0.02);
        assert_eq!(a.samples, 5_000);
    }

    #[test]
    fn constant_model_has_zero_spread() {
        let s = monte_carlo(100, 0, |_| 42.0);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn triangular_respects_bounds_and_mode() {
        let mut rng = Rng::seed_from_u64(3);
        let mut below = 0;
        let n = 20_000;
        for _ in 0..n {
            let v = triangular(&mut rng, 0.5, 0.9, 1.0);
            assert!((0.5..=1.0).contains(&v));
            if v < 0.9 {
                below += 1;
            }
        }
        // P(X < mode) = (mode-low)/(high-low) = 0.8 for the triangular.
        let frac = f64::from(below) / f64::from(n);
        assert!((frac - 0.8).abs() < 0.02, "fraction below mode {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = monte_carlo(0, 0, |_| 1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_model_rejected() {
        let _ = monte_carlo(10, 0, |_| f64::NAN);
    }

    #[test]
    #[should_panic(expected = "triangular")]
    fn bad_triangular_rejected() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = triangular(&mut rng, 1.0, 0.5, 0.9);
    }

    #[test]
    fn try_triangular_rejects_bad_parameters_with_typed_error() {
        let mut rng = Rng::seed_from_u64(0);
        // Mode outside [low, high].
        let err = try_triangular(&mut rng, 1.0, 0.5, 0.9).unwrap_err();
        assert_eq!(err, TriangularError { low: 1.0, mode: 0.5, high: 0.9 });
        assert!(err.to_string().contains("triangular"));
        // Degenerate interval (low == high) and inverted bounds.
        assert!(try_triangular(&mut rng, 1.0, 1.0, 1.0).is_err());
        assert!(try_triangular(&mut rng, 2.0, 1.5, 1.0).is_err());
        // Non-finite parameters never reach the sampling arithmetic.
        assert!(try_triangular(&mut rng, f64::NAN, 0.5, 1.0).is_err());
        assert!(try_triangular(&mut rng, 0.0, 0.5, f64::INFINITY).is_err());
        // A rejected draw consumes no randomness: the next valid draw
        // matches a fresh RNG's first draw bit for bit.
        let mut fresh = Rng::seed_from_u64(0);
        let after_rejects = try_triangular(&mut rng, 0.0, 0.5, 1.0).unwrap();
        let first = try_triangular(&mut fresh, 0.0, 0.5, 1.0).unwrap();
        assert_eq!(after_rejects.to_bits(), first.to_bits());
    }

    #[test]
    fn try_triangular_matches_panicking_variant_on_valid_parameters() {
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..1_000 {
            let x = triangular(&mut a, 0.5, 0.9, 1.0);
            let y = try_triangular(&mut b, 0.5, 0.9, 1.0).unwrap();
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn try_monte_carlo_matches_panicking_variant_on_clean_models() {
        let f = |rng: &mut Rng| rng.gen_range(0.0..1.0);
        let outcome = try_monte_carlo(2_000, 7, f).unwrap();
        assert_eq!(outcome.rejected, 0);
        assert_eq!(outcome.stats, monte_carlo(2_000, 7, f));
    }

    #[test]
    fn try_monte_carlo_skips_and_counts_poisoned_draws() {
        let f = |rng: &mut Rng| {
            let v: f64 = rng.gen_range(0.0..1.0);
            if v < 0.25 {
                f64::NAN
            } else {
                v
            }
        };
        let outcome = try_monte_carlo(4_000, 11, f).unwrap();
        assert!(outcome.rejected > 0, "expected some rejections");
        assert_eq!(outcome.stats.samples + outcome.rejected, 4_000);
        assert!(outcome.stats.p05 >= 0.25);
    }

    #[test]
    fn relative_spread_is_nan_free() {
        // Zero spread, zero mean: certain, not NaN.
        let zero = McStats { mean: 0.0, p05: 0.0, p50: 0.0, p95: 0.0, samples: 10 };
        assert_eq!(zero.relative_spread(), 0.0);
        // Nonzero spread around a zero mean: infinitely uncertain.
        let centered = McStats { mean: 0.0, p05: -1.0, p50: 0.0, p95: 1.0, samples: 10 };
        assert_eq!(centered.relative_spread(), f64::INFINITY);
        // Near-zero (subnormal-adjacent) mean: still no blow-up into NaN.
        let tiny = McStats { mean: 1e-320, p05: 0.0, p50: 1e-320, p95: 1.0, samples: 10 };
        assert_eq!(tiny.relative_spread(), f64::INFINITY);
        // Negative mean: indicator stays non-negative.
        let negative = McStats { mean: -2.0, p05: -3.0, p50: -2.0, p95: -1.0, samples: 10 };
        assert_eq!(negative.relative_spread(), 1.0);
        // Poisoned stats never produce NaN either.
        let poisoned = McStats { mean: f64::NAN, p05: 0.0, p50: 1.0, p95: 2.0, samples: 10 };
        assert_eq!(poisoned.relative_spread(), f64::INFINITY);
    }

    /// The summarize contract: percentiles are bitwise the nearest-rank
    /// elements of a `total_cmp`-sorted copy, and the mean is bitwise the
    /// draw-order sum of the unpermuted input.
    #[test]
    fn summarize_slice_selects_sorted_ranks_and_sums_in_draw_order() {
        let mut rng = Rng::seed_from_u64(5);
        let subnormal = f64::from_bits(3);
        for n in [1usize, 2, 3, 19, 20, 21, 64, 4097] {
            let input: Vec<f64> = (0..n)
                .map(|i| match i % 7 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => subnormal,
                    3 => -subnormal,
                    // Ties: a small set of repeated values.
                    4 => f64::from(rng.gen_range(0u32..4)) - 1.5,
                    _ => rng.gen_range(-1e3..1e3),
                })
                .collect();
            let mut sorted = input.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = |q: f64| sorted[((n - 1) as f64 * q).round() as usize];
            let mean = input.iter().sum::<f64>() / n as f64;

            let mut values = input.clone();
            let stats = summarize_slice(&mut values);
            assert_eq!(stats.samples, n);
            assert_eq!(stats.mean.to_bits(), mean.to_bits(), "mean, n={n}");
            assert_eq!(stats.p05.to_bits(), rank(0.05).to_bits(), "p05, n={n}");
            assert_eq!(stats.p50.to_bits(), rank(0.5).to_bits(), "p50, n={n}");
            assert_eq!(stats.p95.to_bits(), rank(0.95).to_bits(), "p95, n={n}");
            // Selection only permutes: the multiset is unchanged.
            values.sort_by(f64::total_cmp);
            assert!(values.iter().zip(&sorted).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn sample_seeds_are_well_spread() {
        // Consecutive indices and nearby masters must not collide.
        let mut seen = std::collections::HashSet::new();
        for master in 0..8u64 {
            for index in 0..1_000u64 {
                assert!(seen.insert(mc_sample_seed(master, index)));
            }
        }
    }

    #[test]
    fn try_monte_carlo_reports_degenerate_runs() {
        assert_eq!(try_monte_carlo(0, 0, |_| 1.0), Err(McError::NoSamples));
        assert_eq!(
            try_monte_carlo(10, 0, |_| f64::INFINITY),
            Err(McError::AllRejected { rejected: 10 })
        );
        let err = try_monte_carlo(10, 0, |_| f64::NAN).unwrap_err();
        assert!(err.to_string().contains("non-finite"));
    }
}
