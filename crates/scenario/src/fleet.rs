//! Fleet-scale Monte-Carlo over a compiled scenario kernel.
//!
//! [`FleetKernel::run`] drives `act_dse`'s block-vectorized Monte-Carlo
//! engine: sample `i` draws from an RNG seeded with
//! [`act_dse::mc_sample_seed`]`(seed, i)`, so the outcome is
//! **bit-identical** for any thread count, block size, or deadline
//! budget — sharding is a scheduling decision, never a numerical one.
//!
//! Each sample draws, in fixed order, a lifetime, a grid intensity, and
//! a utilization from the scenario's distributions, then evaluates the
//! operational kernel and adds the embodied total. Draws that land
//! outside the model's documented ranges (or are non-finite, e.g. a
//! wide normal's tail) poison the sample's columns to NaN; the batch
//! layer counts such samples as `rejected` instead of corrupting the
//! statistics.

use act_core::CompiledFootprint;
use act_dse::{
    par_monte_carlo_compiled_block_budgeted, try_triangular, BatchRun, EvalBudget, McBuffer,
    McError, McOutcome, Parallelism,
};
use act_rng::Rng;
use act_units::SECONDS_PER_YEAR;

use crate::compile::{INTENSITY_RANGE, LIFETIME_RANGE, UTILIZATION_RANGE};
use crate::schema::{Distribution, FleetSpec};

impl Distribution {
    /// One draw. Invalid parameters (unreachable after
    /// [`Distribution::validate`], but kept total for safety) and
    /// non-finite results surface as NaN, which the sampler treats as a
    /// rejection.
    fn sample(&self, rng: &mut Rng) -> f64 {
        match *self {
            Self::Point { value } => value,
            Self::Uniform { low, high } => rng.gen_range(low..high),
            Self::Triangular { low, mode, high } => {
                try_triangular(rng, low, mode, high).unwrap_or(f64::NAN)
            }
            Self::Normal { mean, std_dev } => rng.normal_with(mean, std_dev),
        }
    }
}

/// A compiled fleet block: the operational kernel, the embodied constant,
/// and the per-device distributions.
#[derive(Debug)]
pub struct FleetKernel {
    kernel: CompiledFootprint,
    embodied_g: f64,
    power_w: f64,
    spec: FleetSpec,
}

impl FleetKernel {
    pub(crate) fn new(
        kernel: CompiledFootprint,
        embodied_g: f64,
        power_w: f64,
        spec: FleetSpec,
    ) -> Self {
        Self { kernel, embodied_g, power_w, spec }
    }

    /// Number of devices the fleet total scales to.
    #[must_use]
    pub fn devices(&self) -> u64 {
        self.spec.devices
    }

    /// Monte-Carlo sample count.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.spec.samples
    }

    /// Base RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.spec.seed
    }

    /// Fleet total in grams CO₂: the per-device mean scaled to the fleet
    /// size. NaN-free whenever `outcome` came from a successful run.
    #[must_use]
    pub fn fleet_total_grams(&self, outcome: &McOutcome) -> f64 {
        outcome.stats.mean * self.spec.devices as f64
    }

    /// Runs the fleet Monte-Carlo under `budget`, sharded over `threads`
    /// (serial when `threads <= 1`). The caller supplies the thread
    /// count and budget so this crate never consults the clock or the
    /// machine topology itself.
    ///
    /// # Errors
    ///
    /// [`McError::NoSamples`] when the budget expires before the first
    /// block completes; [`McError::AllRejected`] when every draw landed
    /// outside the model's ranges.
    pub fn run(
        &self,
        threads: usize,
        buf: &mut McBuffer,
        budget: &EvalBudget,
    ) -> Result<(McOutcome, BatchRun), McError> {
        let lifetime = self.spec.lifetime_years;
        let intensity = self.spec.use_intensity_g_per_kwh;
        let utilization = self.spec.utilization;
        let power_w = self.power_w;
        // Column layout matches the kernel's axes: [ExecutionTime,
        // Lifetime, UseIntensity, Energy]. The draw order (lifetime,
        // intensity, utilization) is part of the seed contract — changing
        // it would change every result.
        let sampler = move |rng: &mut Rng, k: usize, columns: &mut [Vec<f64>]| {
            let l = lifetime.sample(rng);
            let ci = intensity.sample(rng);
            let u = utilization.sample(rng);
            let valid = LIFETIME_RANGE.contains(&l)
                && INTENSITY_RANGE.contains(&ci)
                && UTILIZATION_RANGE.contains(&u);
            let point = if valid {
                // Exactly `TimeSpan::years(l).as_seconds()`: the ratio
                // axis divides this by the lifetime column and must see
                // x/x == 1.0 (see `crate::compile` module docs).
                let exec_s = l * SECONDS_PER_YEAR;
                [exec_s, l, ci, power_w * u * exec_s]
            } else {
                [f64::NAN; 4]
            };
            for (column, value) in columns.iter_mut().zip(point) {
                if let Some(slot) = column.get_mut(k) {
                    *slot = value;
                }
            }
        };
        let plan = self.kernel.plan();
        let embodied = self.embodied_g;
        let block_kernel =
            move |cols: &[&[f64]], range: std::ops::Range<usize>, out: &mut [f64]| {
                plan.eval_block(cols, range, out);
                // The kernel's embodied term folded to 0.0; add the oracle's
                // embodied total so each draw is a full per-device footprint.
                for slot in out.iter_mut() {
                    *slot += embodied;
                }
            };
        par_monte_carlo_compiled_block_budgeted(
            Parallelism::threads(threads),
            self.spec.samples,
            self.spec.seed,
            4,
            sampler,
            block_kernel,
            buf,
            budget,
        )
    }
}
