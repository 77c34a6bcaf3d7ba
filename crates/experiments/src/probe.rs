//! One FTL steady-state write-amplification measurement — the unit of work
//! behind Figure 15's simulated WA column and the WA ablation.
//!
//! The FTL simulations are nearly all of `act all`'s compute, so the
//! experiments that need them list their probes (`fig15::probes`,
//! `ablations::probes`) and build their result from the measured values.
//! `run()` measures serially; the parallel `all` schedule in the crate root
//! runs every probe as its own pool unit.

use act_ssd::{FtlConfig, FtlSimulator, OverProvisioning, TracePattern, WriteTrace};

/// One steady-state WA measurement on [`FtlConfig::small`] under uniform
/// random writes.
///
/// # Examples
///
/// ```
/// use act_experiments::probe::WaProbe;
/// use act_ssd::OverProvisioning;
///
/// let probe =
///     WaProbe { pf: OverProvisioning::new(0.28)?, seed: 1, measure_writes: 5_000 };
/// assert!(probe.measure() >= 1.0);
/// # Ok::<(), act_ssd::OverProvisioningError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaProbe {
    /// The over-provisioning factor of the simulated device.
    pub pf: OverProvisioning,
    /// Seed of the uniform-random write trace.
    pub seed: u64,
    /// Host writes measured after the two-pass warmup.
    pub measure_writes: u64,
}

impl WaProbe {
    /// Runs the simulation and returns the measured write amplification.
    #[must_use]
    pub fn measure(&self) -> f64 {
        let config = FtlConfig::small(self.pf);
        let mut ftl = FtlSimulator::new(config);
        let mut trace =
            WriteTrace::new(TracePattern::UniformRandom, config.logical_pages(), self.seed);
        ftl.measure_steady_state_wa(&mut trace, self.measure_writes)
    }
}
