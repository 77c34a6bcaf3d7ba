//! Partially-evaluated footprint kernels: eq. 1 compiled down to a
//! handful of FLOPs per design point.
//!
//! Every point of a sweep or Monte-Carlo run that goes through
//! [`ModelParams::footprint`] re-derives the whole pipeline — a fresh
//! [`crate::FabScenario`], a fresh [`crate::SystemSpec`] (heap-allocated
//! component list), per-GB table lookups — even when only one axis varies.
//! [`CompiledFootprint`] partially evaluates a `ModelParams` against a set
//! of declared [`FreeAxis`] values: every sweep-invariant sub-term
//! (per-component embodied gCO₂, the CPA numerator pieces of eq. 5, the
//! operational coefficient of eq. 2, the `T/LT` amortization ratio of
//! eq. 1) is folded into a plain `f64` coefficient at compile time, so
//! [`CompiledFootprint::eval`] runs with **zero heap allocation**.
//!
//! Folding replays the *exact* floating-point operation sequence of the
//! interpreted model (same associativity, same division-vs-multiply
//! choices, same component order in the eq. 3 sum), so results are
//! bit-for-bit identical to [`ModelParams::try_footprint`] — the old
//! per-point path stays public as the oracle, and the property tests in
//! `crates/core/tests/compiled.rs` pin the equivalence. The discrete
//! sub-terms (CPA, per-device storage footprints) are closed-form and
//! computed once, directly, at compile time.
//!
//! # Examples
//!
//! ```
//! use act_core::{CompiledFootprint, FreeAxis, ModelParams};
//!
//! let params = ModelParams::mobile_reference();
//! let kernel = CompiledFootprint::try_compile(&params, &[FreeAxis::SocArea])?;
//! // Evaluating the kernel at the baseline area reproduces the oracle
//! // bit-for-bit.
//! let compiled = kernel.eval(&[params.soc_area_mm2]);
//! let oracle = params.try_footprint()?.as_grams();
//! assert_eq!(compiled.to_bits(), oracle.to_bits());
//! # Ok::<(), act_core::ModelError>(())
//! ```

use std::fmt;
use std::ops::Range;

use act_units::{Area, Capacity, CarbonIntensity, Energy, TimeSpan, UnitError};

use crate::{ModelError, ModelParams, OperationalModel, PACKAGING_FOOTPRINT};

/// Lane width of the block-vectorized evaluation path: [`EvalPlan::eval_block`]
/// walks design points in fixed blocks of `LANES` so every inner loop has a
/// compile-time trip count rustc can unroll and auto-vectorize. 64 lanes of
/// `f64` are 512 bytes per operand buffer — a handful of cache lines, well
/// inside L1 even with several live lanes.
pub const LANES: usize = 64;

/// One `ModelParams` field (or storage-population entry) left *free* — i.e.
/// supplied per point at [`CompiledFootprint::eval`] time instead of folded
/// into the kernel's constants.
///
/// Point coordinates are given in the same units as the corresponding
/// `ModelParams` field (seconds, years, mm², g CO₂/kWh, a yield fraction,
/// joules, GB).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FreeAxis {
    /// `T` — application execution time in seconds.
    ExecutionTime,
    /// `LT` — hardware lifetime in years.
    Lifetime,
    /// `A` — application-processor die area in mm².
    SocArea,
    /// `CIuse` — use-phase carbon intensity in g CO₂/kWh.
    UseIntensity,
    /// `CIfab` — fab carbon intensity in g CO₂/kWh.
    FabIntensity,
    /// `Y` — fab yield in `(0, 1]`.
    FabYield,
    /// Application energy over `T`, in joules.
    Energy,
    /// Capacity (GB) of the `i`-th DRAM population entry.
    DramCapacity(usize),
    /// Capacity (GB) of the `i`-th SSD population entry.
    SsdCapacity(usize),
    /// Capacity (GB) of the `i`-th HDD population entry.
    HddCapacity(usize),
}

impl fmt::Display for FreeAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ExecutionTime => f.write_str("execution time (s)"),
            Self::Lifetime => f.write_str("lifetime (years)"),
            Self::SocArea => f.write_str("SoC area (mm^2)"),
            Self::UseIntensity => f.write_str("use carbon intensity (g/kWh)"),
            Self::FabIntensity => f.write_str("fab carbon intensity (g/kWh)"),
            Self::FabYield => f.write_str("fab yield"),
            Self::Energy => f.write_str("application energy (J)"),
            Self::DramCapacity(i) => write!(f, "DRAM[{i}] capacity (GB)"),
            Self::SsdCapacity(i) => write!(f, "SSD[{i}] capacity (GB)"),
            Self::HddCapacity(i) => write!(f, "HDD[{i}] capacity (GB)"),
        }
    }
}

impl FreeAxis {
    /// Validates one point coordinate against the same Table 1 range the
    /// corresponding [`ModelParams`] field enforces.
    fn check(self, value: f64) -> Result<(), ModelError> {
        let domain = |quantity: &'static str, expected: &'static str| {
            let err = if value.is_finite() {
                UnitError::out_of_domain(quantity, value, expected)
            } else {
                UnitError::non_finite(quantity, value)
            };
            Err(ModelError::from(err))
        };
        match self {
            Self::ExecutionTime if !(value >= 0.0 && value.is_finite()) => {
                domain("execution time", "non-negative seconds")
            }
            Self::Lifetime if !(0.1..=50.0).contains(&value) => {
                domain("hardware lifetime", "within [0.1, 50] years")
            }
            Self::SocArea if !(value >= 0.0 && value.is_finite()) => {
                domain("SoC area", "non-negative mm^2")
            }
            Self::UseIntensity | Self::FabIntensity if !(0.0..=2000.0).contains(&value) => {
                domain("carbon intensity", "within [0, 2000] g CO2/kWh")
            }
            Self::FabYield if !(value > 0.0 && value <= 1.0) => {
                domain("fab yield", "within (0, 1]")
            }
            Self::Energy if !(value >= 0.0 && value.is_finite()) => {
                domain("application energy", "non-negative joules")
            }
            Self::DramCapacity(_) | Self::SsdCapacity(_) | Self::HddCapacity(_)
                if !(value >= 0.0 && value.is_finite()) =>
            {
                domain("storage capacity", "non-negative GB")
            }
            _ => Ok(()),
        }
    }
}

/// A scalar operand of the compiled kernel: either folded to a constant or
/// read from a point coordinate (already in the oracle's base unit).
#[derive(Clone, Copy, Debug)]
enum Scalar {
    Const(f64),
    Axis(usize),
}

impl Scalar {
    #[inline]
    fn get(self, point: &[f64]) -> f64 {
        match self {
            Self::Const(value) => value,
            Self::Axis(index) => point[index],
        }
    }
}

/// The operational term of eq. 2, `CIuse × (E × effectiveness)`.
#[derive(Clone, Copy, Debug)]
enum OpTerm {
    /// Fully invariant: the folded gCO₂ value.
    Const(f64),
    /// At least one operand varies per point.
    Dynamic { intensity: Scalar, energy: EnergySource },
}

/// Where the per-point useful energy (kWh) comes from.
#[derive(Clone, Copy, Debug)]
enum EnergySource {
    /// Invariant energy, pre-converted to the model's kWh base.
    KwhConst(f64),
    /// Free axis carrying joules; converted per point exactly like the
    /// oracle's `Energy::joules` constructor.
    JoulesAxis(usize),
}

/// Where the per-point SoC die area (cm²) comes from.
#[derive(Clone, Copy, Debug)]
enum AreaSource {
    /// Invariant area, pre-converted to the model's cm² base.
    Cm2Const(f64),
    /// Free axis carrying mm²; converted per point exactly like the
    /// oracle's `Area::square_millimeters` constructor.
    Mm2Axis(usize),
}

/// One addend of the eq. 3 embodied sum, in component order.
#[derive(Clone, Copy, Debug)]
enum EmbodiedTerm {
    /// Fully invariant component: its folded gCO₂ footprint.
    Const(f64),
    /// SoC with an invariant CPA but a free die area: `CPA × A` (eq. 4).
    SocAreaScaled { cpa_g_per_cm2: f64, area: AreaSource },
    /// SoC whose CPA itself varies (free fab intensity and/or yield):
    /// the full eq. 5 residual `(CI·EPA + GPA + MPA) / Y × A`.
    SocCpa {
        epa_kwh_per_cm2: f64,
        gpa_g_per_cm2: f64,
        mpa_g_per_cm2: f64,
        intensity: Scalar,
        fab_yield: Scalar,
        area: AreaSource,
    },
    /// Storage entry with a free capacity: `CPS × capacity` (eqs. 6–8).
    StorageScaled { grams_per_gb: f64, capacity_axis: usize },
}

impl EmbodiedTerm {
    #[inline]
    fn eval(&self, point: &[f64]) -> f64 {
        match self {
            Self::Const(value) => *value,
            Self::SocAreaScaled { cpa_g_per_cm2, area } => cpa_g_per_cm2 * area.get(point),
            Self::SocCpa {
                epa_kwh_per_cm2,
                gpa_g_per_cm2,
                mpa_g_per_cm2,
                intensity,
                fab_yield,
                area,
            } => {
                // Exactly eq. 5 as `FabScenario::cpa_breakdown` + `total()`
                // compute it: CI×EPA, then left-associated additions, then
                // the yield division, then eq. 4's area multiply.
                let energy = intensity.get(point) * epa_kwh_per_cm2;
                let before_yield = (energy + gpa_g_per_cm2) + mpa_g_per_cm2;
                let cpa = before_yield / fab_yield.get(point);
                cpa * area.get(point)
            }
            Self::StorageScaled { grams_per_gb, capacity_axis } => {
                grams_per_gb * point[*capacity_axis]
            }
        }
    }
}

impl EnergySource {
    #[inline]
    fn get(self, point: &[f64]) -> f64 {
        match self {
            Self::KwhConst(value) => value,
            Self::JoulesAxis(index) => Energy::joules(point[index]).as_kilowatt_hours(),
        }
    }
}

impl AreaSource {
    #[inline]
    fn get(self, point: &[f64]) -> f64 {
        match self {
            Self::Cm2Const(value) => value,
            Self::Mm2Axis(index) => {
                Area::square_millimeters(point[index]).as_square_centimeters()
            }
        }
    }
}

/// The embodied sum of eq. 3: either folded entirely or a term list that
/// is re-summed per point in the oracle's component order (f64 addition is
/// not associative, so constants are *not* merged across terms).
#[derive(Clone, Debug)]
enum EcfTerm {
    Const(f64),
    Terms(Vec<EmbodiedTerm>),
}

/// The `T / LT` amortization ratio of eq. 1.
#[derive(Clone, Copy, Debug)]
enum AmortTerm {
    Const(f64),
    Dynamic { run_time: TimeSource, lifetime: TimeSource },
}

/// Where a per-point time span (seconds) comes from.
#[derive(Clone, Copy, Debug)]
enum TimeSource {
    SecondsConst(f64),
    /// Free axis carrying seconds (already the model's base unit).
    SecondsAxis(usize),
    /// Free axis carrying years; converted per point exactly like the
    /// oracle's `TimeSpan::years` constructor.
    YearsAxis(usize),
}

impl TimeSource {
    #[inline]
    fn get(self, point: &[f64]) -> f64 {
        match self {
            Self::SecondsConst(value) => value,
            Self::SecondsAxis(index) => point[index],
            Self::YearsAxis(index) => TimeSpan::years(point[index]).as_seconds(),
        }
    }
}

/// A partially-evaluated eq. 1 kernel: see the [module docs](self).
///
/// Compile once with [`Self::try_compile`], then call [`Self::eval`] per
/// point — a handful of FLOPs, no heap allocation, bit-for-bit identical
/// to [`ModelParams::try_footprint`] with the free axes substituted.
#[derive(Clone, Debug)]
pub struct CompiledFootprint {
    axes: Vec<FreeAxis>,
    op: OpTerm,
    ecf: EcfTerm,
    amortization: AmortTerm,
}

impl CompiledFootprint {
    /// Partially evaluates `params` against `axes`.
    ///
    /// The baseline `params` must fully validate (free fields included —
    /// their baseline values are simply never read at eval time), matching
    /// the contract of every other `ModelParams` entry point.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the baseline parameters do not
    /// validate, an axis is listed twice, or a storage axis indexes past
    /// the corresponding population vector.
    pub fn try_compile(params: &ModelParams, axes: &[FreeAxis]) -> Result<Self, ModelError> {
        params.validate()?;
        for (i, axis) in axes.iter().enumerate() {
            if axes[..i].contains(axis) {
                return Err(ModelError::invariant(format!("free axis {axis} is listed twice")));
            }
            let (population, in_range) = match axis {
                FreeAxis::DramCapacity(k) => ("DRAM", *k < params.dram.len()),
                FreeAxis::SsdCapacity(k) => ("SSD", *k < params.ssd.len()),
                FreeAxis::HddCapacity(k) => ("HDD", *k < params.hdd.len()),
                _ => continue,
            };
            if !in_range {
                return Err(ModelError::invariant(format!(
                    "free axis {axis} indexes past the {population} population"
                )));
            }
        }
        let position = |wanted: FreeAxis| axes.iter().position(|axis| *axis == wanted);

        // Operational term (eq. 2).
        let use_intensity = match position(FreeAxis::UseIntensity) {
            Some(index) => Scalar::Axis(index),
            None => Scalar::Const(params.use_intensity_g_per_kwh),
        };
        let energy = match position(FreeAxis::Energy) {
            Some(index) => EnergySource::JoulesAxis(index),
            None => EnergySource::KwhConst(Energy::joules(params.energy_j).as_kilowatt_hours()),
        };
        let op = match (use_intensity, energy) {
            (Scalar::Const(_), EnergySource::KwhConst(_)) => OpTerm::Const(
                // Fold by replaying the oracle's own call chain.
                OperationalModel::new(CarbonIntensity::grams_per_kwh(
                    params.use_intensity_g_per_kwh,
                ))
                .footprint(Energy::joules(params.energy_j))
                .as_grams(),
            ),
            (intensity, energy) => OpTerm::Dynamic { intensity, energy },
        };

        // Embodied terms (eq. 3), in `SystemSpec::embodied` component
        // order: SoC, DRAM entries, SSD entries, HDD entries, packaging.
        let fab = params.try_fab_scenario()?;
        let fab_intensity = match position(FreeAxis::FabIntensity) {
            Some(index) => Scalar::Axis(index),
            None => Scalar::Const(params.fab_intensity_g_per_kwh),
        };
        let fab_yield = match position(FreeAxis::FabYield) {
            Some(index) => Scalar::Axis(index),
            None => Scalar::Const(params.fab_yield),
        };
        let area = match position(FreeAxis::SocArea) {
            Some(index) => AreaSource::Mm2Axis(index),
            None => AreaSource::Cm2Const(
                Area::square_millimeters(params.soc_area_mm2).as_square_centimeters(),
            ),
        };
        let mut terms = Vec::new();
        terms.push(match (fab_intensity, fab_yield, area) {
            (Scalar::Const(_), Scalar::Const(_), AreaSource::Cm2Const(_)) => {
                EmbodiedTerm::Const(
                    (fab.carbon_per_area(params.process_node)
                        * Area::square_millimeters(params.soc_area_mm2))
                    .as_grams(),
                )
            }
            (Scalar::Const(_), Scalar::Const(_), area) => EmbodiedTerm::SocAreaScaled {
                cpa_g_per_cm2: fab.carbon_per_area(params.process_node).as_grams_per_cm2(),
                area,
            },
            (intensity, fab_yield, area) => {
                let node = params.process_node;
                EmbodiedTerm::SocCpa {
                    epa_kwh_per_cm2: node.energy_per_area().as_kwh_per_cm2(),
                    gpa_g_per_cm2: node.gas_per_area(fab.abatement).as_grams_per_cm2(),
                    mpa_g_per_cm2: node.materials_per_area().as_grams_per_cm2(),
                    intensity,
                    fab_yield,
                    area,
                }
            }
        });
        for (k, (technology, gb)) in params.dram.iter().enumerate() {
            terms.push(match position(FreeAxis::DramCapacity(k)) {
                Some(index) => EmbodiedTerm::StorageScaled {
                    grams_per_gb: technology.carbon_per_gb().as_grams_per_gb(),
                    capacity_axis: index,
                },
                None => EmbodiedTerm::Const(
                    (technology.carbon_per_gb() * Capacity::gigabytes(*gb)).as_grams(),
                ),
            });
        }
        for (k, (technology, gb)) in params.ssd.iter().enumerate() {
            terms.push(match position(FreeAxis::SsdCapacity(k)) {
                Some(index) => EmbodiedTerm::StorageScaled {
                    grams_per_gb: technology.carbon_per_gb().as_grams_per_gb(),
                    capacity_axis: index,
                },
                None => EmbodiedTerm::Const(
                    (technology.carbon_per_gb() * Capacity::gigabytes(*gb)).as_grams(),
                ),
            });
        }
        for (k, (model, gb)) in params.hdd.iter().enumerate() {
            terms.push(match position(FreeAxis::HddCapacity(k)) {
                Some(index) => EmbodiedTerm::StorageScaled {
                    grams_per_gb: model.carbon_per_gb().as_grams_per_gb(),
                    capacity_axis: index,
                },
                None => EmbodiedTerm::Const(
                    (model.carbon_per_gb() * Capacity::gigabytes(*gb)).as_grams(),
                ),
            });
        }
        if params.packaged_ic_count > 0 {
            terms.push(EmbodiedTerm::Const(
                (PACKAGING_FOOTPRINT * f64::from(params.packaged_ic_count)).as_grams(),
            ));
        }
        let all_const = terms.iter().all(|term| matches!(term, EmbodiedTerm::Const(_)));
        let ecf = if all_const {
            // Replay the oracle's `.sum()` fold (0.0, then += per
            // component, in order) so the folded constant carries the same
            // rounding as the interpreted sum.
            EcfTerm::Const(terms.iter().fold(0.0, |acc, term| acc + term.eval(&[])))
        } else {
            EcfTerm::Terms(terms)
        };

        // Amortization (eq. 1's T / LT).
        let run_time = match position(FreeAxis::ExecutionTime) {
            Some(index) => TimeSource::SecondsAxis(index),
            None => TimeSource::SecondsConst(
                TimeSpan::seconds(params.execution_time_s).as_seconds(),
            ),
        };
        let lifetime = match position(FreeAxis::Lifetime) {
            Some(index) => TimeSource::YearsAxis(index),
            None => {
                TimeSource::SecondsConst(TimeSpan::years(params.lifetime_years).as_seconds())
            }
        };
        let amortization = match (run_time, lifetime) {
            (TimeSource::SecondsConst(t), TimeSource::SecondsConst(lt)) => {
                AmortTerm::Const(t / lt)
            }
            (run_time, lifetime) => AmortTerm::Dynamic { run_time, lifetime },
        };

        Ok(Self { axes: axes.to_vec(), op, ecf, amortization })
    }

    /// Panicking convenience for [`Self::try_compile`] — for baselines and
    /// axis sets known statically, mirroring [`ModelParams::footprint`].
    ///
    /// # Panics
    ///
    /// Panics if [`Self::try_compile`] would return an error.
    #[must_use]
    pub fn compile(params: &ModelParams, axes: &[FreeAxis]) -> Self {
        match Self::try_compile(params, axes) {
            Ok(kernel) => kernel,
            Err(err) => panic!("parameters must compile: {err}"),
        }
    }

    /// The free axes, in point-coordinate order.
    #[must_use]
    pub fn axes(&self) -> &[FreeAxis] {
        &self.axes
    }

    /// Number of point coordinates [`Self::eval`] expects.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.axes.len()
    }

    /// Evaluates eq. 1 at one design point, returning the total footprint
    /// in grams CO₂ — a handful of FLOPs, no heap allocation.
    ///
    /// Coordinates are in the axis units documented on [`FreeAxis`] and
    /// are assumed to be in range (use [`Self::try_eval`] for untrusted
    /// points); any non-finite coordinate yields `NaN`, which the batch
    /// drivers in `act-dse` skip-and-record.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.arity()`.
    #[must_use]
    pub fn eval(&self, point: &[f64]) -> f64 {
        assert_eq!(
            point.len(),
            self.axes.len(),
            "point arity must match the compiled free axes"
        );
        if !point.iter().all(|value| value.is_finite()) {
            return f64::NAN;
        }
        let operational = match &self.op {
            OpTerm::Const(value) => *value,
            OpTerm::Dynamic { intensity, energy } => {
                // Eq. 2 exactly as `OperationalModel::footprint`:
                // CI × (E × effectiveness), effectiveness folded at 1.0.
                intensity.get(point) * (energy.get(point) * 1.0)
            }
        };
        let embodied = match &self.ecf {
            EcfTerm::Const(value) => *value,
            EcfTerm::Terms(terms) => terms.iter().fold(0.0, |acc, term| acc + term.eval(point)),
        };
        let ratio = match self.amortization {
            AmortTerm::Const(value) => value,
            AmortTerm::Dynamic { run_time, lifetime } => {
                run_time.get(point) / lifetime.get(point)
            }
        };
        operational + embodied * ratio
    }

    /// Checked variant of [`Self::eval`]: validates every coordinate
    /// against its axis's Table 1 range, then verifies the result is
    /// finite.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] on an arity mismatch, an out-of-range
    /// coordinate, or a non-finite result.
    pub fn try_eval(&self, point: &[f64]) -> Result<f64, ModelError> {
        if point.len() != self.axes.len() {
            return Err(ModelError::invariant(format!(
                "expected {} point coordinate(s), got {}",
                self.axes.len(),
                point.len()
            )));
        }
        for (axis, value) in self.axes.iter().zip(point) {
            axis.check(*value)?;
        }
        let value = self.eval(point);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(ModelError::non_finite("total footprint"))
        }
    }

    /// Lowers the kernel's term trees into a flat [`EvalPlan`] for the
    /// block-vectorized batch path: every operand becomes either a folded
    /// constant or a column index into a structure-of-arrays batch, so
    /// [`EvalPlan::eval_block`] dispatches each instruction **once per
    /// block** instead of walking the enums once per point.
    ///
    /// The plan replays the exact per-point floating-point operation
    /// sequence of [`Self::eval`] (same associativity, same unit
    /// conversions, same eq. 3 component order), so block results are
    /// bit-for-bit identical to the per-point kernel and the interpreted
    /// oracle.
    #[must_use]
    pub fn plan(&self) -> EvalPlan {
        let op = match &self.op {
            OpTerm::Const(value) => PlanOp::Const(*value),
            OpTerm::Dynamic { intensity, energy } => PlanOp::Product {
                intensity: ColOperand::from_scalar(*intensity),
                energy: match energy {
                    EnergySource::KwhConst(kwh) => PlanEnergy::KwhConst(*kwh),
                    EnergySource::JoulesAxis(col) => PlanEnergy::JoulesCol(*col),
                },
            },
        };
        let embodied = match &self.ecf {
            EcfTerm::Const(value) => PlanEmbodied::Const(*value),
            EcfTerm::Terms(terms) => PlanEmbodied::Instrs(
                terms
                    .iter()
                    .map(|term| match term {
                        EmbodiedTerm::Const(value) => PlanInstr::Const(*value),
                        EmbodiedTerm::SocAreaScaled { cpa_g_per_cm2, area } => {
                            PlanInstr::AreaScaled {
                                cpa_g_per_cm2: *cpa_g_per_cm2,
                                area: PlanArea::from_source(*area),
                            }
                        }
                        EmbodiedTerm::SocCpa {
                            epa_kwh_per_cm2,
                            gpa_g_per_cm2,
                            mpa_g_per_cm2,
                            intensity,
                            fab_yield,
                            area,
                        } => PlanInstr::Cpa {
                            epa_kwh_per_cm2: *epa_kwh_per_cm2,
                            gpa_g_per_cm2: *gpa_g_per_cm2,
                            mpa_g_per_cm2: *mpa_g_per_cm2,
                            intensity: ColOperand::from_scalar(*intensity),
                            fab_yield: ColOperand::from_scalar(*fab_yield),
                            area: PlanArea::from_source(*area),
                        },
                        EmbodiedTerm::StorageScaled { grams_per_gb, capacity_axis } => {
                            PlanInstr::Storage {
                                grams_per_gb: *grams_per_gb,
                                capacity_col: *capacity_axis,
                            }
                        }
                    })
                    .collect(),
            ),
        };
        let amort = match self.amortization {
            AmortTerm::Const(value) => PlanAmort::Const(value),
            AmortTerm::Dynamic { run_time, lifetime } => PlanAmort::Ratio {
                run_time: PlanTime::from_source(run_time),
                lifetime: PlanTime::from_source(lifetime),
            },
        };
        EvalPlan { arity: self.axes.len(), op, embodied, amort }
    }
}

/// A block-instruction operand that is either a folded constant or a raw
/// read of column `col` (no unit conversion).
#[derive(Clone, Copy, Debug)]
enum ColOperand {
    Const(f64),
    Col(usize),
}

impl ColOperand {
    fn from_scalar(scalar: Scalar) -> Self {
        match scalar {
            Scalar::Const(value) => Self::Const(value),
            Scalar::Axis(col) => Self::Col(col),
        }
    }

    #[inline]
    fn at(self, columns: &[&[f64]], index: usize) -> f64 {
        match self {
            Self::Const(value) => value,
            Self::Col(col) => columns[col][index],
        }
    }

    /// Fills `dst` with this operand over `start..start + dst.len()`.
    #[inline]
    fn lane(self, dst: &mut [f64], columns: &[&[f64]], start: usize) {
        match self {
            Self::Const(value) => dst.fill(value),
            Self::Col(col) => dst.copy_from_slice(&columns[col][start..start + dst.len()]),
        }
    }
}

/// Where the per-point useful energy (kWh) comes from in a plan.
#[derive(Clone, Copy, Debug)]
enum PlanEnergy {
    KwhConst(f64),
    /// Column carrying joules; converted per point exactly like the
    /// oracle's `Energy::joules` constructor.
    JoulesCol(usize),
}

/// Where the per-point SoC die area (cm²) comes from in a plan.
#[derive(Clone, Copy, Debug)]
enum PlanArea {
    Cm2Const(f64),
    /// Column carrying mm²; converted per point exactly like the oracle's
    /// `Area::square_millimeters` constructor.
    Mm2Col(usize),
}

impl PlanArea {
    fn from_source(source: AreaSource) -> Self {
        match source {
            AreaSource::Cm2Const(value) => Self::Cm2Const(value),
            AreaSource::Mm2Axis(col) => Self::Mm2Col(col),
        }
    }

    #[inline]
    fn at(self, columns: &[&[f64]], index: usize) -> f64 {
        match self {
            Self::Cm2Const(value) => value,
            Self::Mm2Col(col) => {
                Area::square_millimeters(columns[col][index]).as_square_centimeters()
            }
        }
    }

    #[inline]
    fn lane(self, dst: &mut [f64], columns: &[&[f64]], start: usize) {
        match self {
            Self::Cm2Const(value) => dst.fill(value),
            Self::Mm2Col(col) => {
                let src = &columns[col][start..start + dst.len()];
                for (slot, &mm2) in dst.iter_mut().zip(src) {
                    // The unit layer rejects non-finite magnitudes; such
                    // points are poisoned to NaN by the block's finite
                    // mask, so any NaN placeholder is equivalent here.
                    *slot = if mm2.is_finite() {
                        Area::square_millimeters(mm2).as_square_centimeters()
                    } else {
                        f64::NAN
                    };
                }
            }
        }
    }
}

/// Where a per-point time span (seconds) comes from in a plan.
#[derive(Clone, Copy, Debug)]
enum PlanTime {
    SecondsConst(f64),
    SecondsCol(usize),
    /// Column carrying years; converted per point exactly like the
    /// oracle's `TimeSpan::years` constructor.
    YearsCol(usize),
}

impl PlanTime {
    fn from_source(source: TimeSource) -> Self {
        match source {
            TimeSource::SecondsConst(value) => Self::SecondsConst(value),
            TimeSource::SecondsAxis(col) => Self::SecondsCol(col),
            TimeSource::YearsAxis(col) => Self::YearsCol(col),
        }
    }

    #[inline]
    fn at(self, columns: &[&[f64]], index: usize) -> f64 {
        match self {
            Self::SecondsConst(value) => value,
            Self::SecondsCol(col) => columns[col][index],
            Self::YearsCol(col) => TimeSpan::years(columns[col][index]).as_seconds(),
        }
    }

    #[inline]
    fn lane(self, dst: &mut [f64], columns: &[&[f64]], start: usize) {
        match self {
            Self::SecondsConst(value) => dst.fill(value),
            Self::SecondsCol(col) => {
                dst.copy_from_slice(&columns[col][start..start + dst.len()]);
            }
            Self::YearsCol(col) => {
                let src = &columns[col][start..start + dst.len()];
                for (slot, &years) in dst.iter_mut().zip(src) {
                    // Non-finite magnitudes would trip the unit layer;
                    // the block's finite mask poisons them to NaN anyway.
                    *slot = if years.is_finite() {
                        TimeSpan::years(years).as_seconds()
                    } else {
                        f64::NAN
                    };
                }
            }
        }
    }
}

/// The operational term of a plan (eq. 2).
#[derive(Clone, Copy, Debug)]
enum PlanOp {
    Const(f64),
    Product { intensity: ColOperand, energy: PlanEnergy },
}

/// One flat, branch-free instruction of the embodied sum (eq. 3): each
/// adds its term into the block's embodied accumulator lane. Instruction
/// order is the oracle's component order — f64 addition is not
/// associative, so the lowering never merges or reorders terms.
#[derive(Clone, Copy, Debug)]
enum PlanInstr {
    Const(f64),
    AreaScaled {
        cpa_g_per_cm2: f64,
        area: PlanArea,
    },
    Cpa {
        epa_kwh_per_cm2: f64,
        gpa_g_per_cm2: f64,
        mpa_g_per_cm2: f64,
        intensity: ColOperand,
        fab_yield: ColOperand,
        area: PlanArea,
    },
    Storage {
        grams_per_gb: f64,
        capacity_col: usize,
    },
}

/// The embodied sum of a plan: folded entirely or an instruction list.
#[derive(Clone, Debug)]
enum PlanEmbodied {
    Const(f64),
    Instrs(Vec<PlanInstr>),
}

/// The `T / LT` amortization of a plan (eq. 1).
#[derive(Clone, Copy, Debug)]
enum PlanAmort {
    Const(f64),
    Ratio { run_time: PlanTime, lifetime: PlanTime },
}

/// A [`CompiledFootprint`] lowered for block-vectorized batch evaluation:
/// a flat instruction list whose operands are constants or column indices
/// into a structure-of-arrays point batch.
///
/// [`Self::eval_block`] reads the columns directly — no per-point gather
/// into a scratch slice, no per-point enum dispatch — processing
/// [`LANES`]-wide blocks whose inner loops rustc auto-vectorizes (no
/// `unsafe`, no intrinsics; the tail shorter than a block runs through a
/// scalar loop). Because every per-point operation chain is identical to
/// [`CompiledFootprint::eval`], results are **bit-for-bit identical** to
/// the per-point kernel and the interpreted oracle; the property tests in
/// `crates/core/tests/compiled.rs` pin the equivalence.
///
/// # Examples
///
/// ```
/// use act_core::{CompiledFootprint, FreeAxis, ModelParams};
///
/// let params = ModelParams::mobile_reference();
/// let kernel = CompiledFootprint::try_compile(&params, &[FreeAxis::SocArea])?;
/// let plan = kernel.plan();
/// let areas: Vec<f64> = (0..100).map(|i| 50.0 + f64::from(i)).collect();
/// let mut block = vec![0.0; areas.len()];
/// plan.eval_block(&[&areas], 0..areas.len(), &mut block);
/// for (i, value) in block.iter().enumerate() {
///     assert_eq!(value.to_bits(), kernel.eval(&[areas[i]]).to_bits());
/// }
/// # Ok::<(), act_core::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EvalPlan {
    arity: usize,
    op: PlanOp,
    embodied: PlanEmbodied,
    amort: PlanAmort,
}

impl EvalPlan {
    /// Number of structure-of-arrays columns [`Self::eval_block`] expects.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Evaluates eq. 1 for points `range` of a structure-of-arrays batch
    /// (`columns[axis][point]`, axes in [`CompiledFootprint::axes`] order),
    /// writing one gram-CO₂ result per point into `out`.
    ///
    /// Results are bit-identical to calling [`CompiledFootprint::eval`] on
    /// each gathered point; any point with a non-finite coordinate yields
    /// NaN, keeping its slot.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len() != self.arity()`, `out.len()` differs from
    /// the range length, or a column is shorter than `range.end`.
    pub fn eval_block(&self, columns: &[&[f64]], range: Range<usize>, out: &mut [f64]) {
        assert_eq!(columns.len(), self.arity, "column count must match the compiled free axes");
        assert_eq!(out.len(), range.len(), "output slot per point in the range");
        for (axis, column) in columns.iter().enumerate() {
            assert!(
                column.len() >= range.end,
                "axis column {axis} has {} points but the range ends at {}",
                column.len(),
                range.end
            );
        }
        let mut start = range.start;
        let mut done = 0;
        // Cache-blocked hot path: full LANES-wide blocks with fixed-size
        // lane buffers...
        while out.len() - done >= LANES {
            self.eval_lane_block(columns, start, &mut out[done..done + LANES]);
            start += LANES;
            done += LANES;
        }
        // ...and a scalar tail for the remainder.
        for slot in &mut out[done..] {
            *slot = self.eval_scalar(columns, start);
            start += 1;
        }
    }

    /// One `n ≤ LANES` block: every instruction is dispatched once, its
    /// inner loop runs branch-free over the lane. Loop interchange (term
    /// loops over points instead of point loops over terms) preserves each
    /// point's operation chain exactly, so it cannot change a single bit.
    fn eval_lane_block(&self, columns: &[&[f64]], start: usize, out: &mut [f64]) {
        let n = out.len();

        // Eq. 2, exactly `intensity * (energy * 1.0)` per point.
        let mut op_buf = [0.0f64; LANES];
        let op_lane = &mut op_buf[..n];
        match self.op {
            PlanOp::Const(value) => op_lane.fill(value),
            PlanOp::Product { intensity, energy } => {
                let mut energy_buf = [0.0f64; LANES];
                let energy_lane = &mut energy_buf[..n];
                match energy {
                    PlanEnergy::KwhConst(kwh) => energy_lane.fill(kwh),
                    PlanEnergy::JoulesCol(col) => {
                        let src = &columns[col][start..start + n];
                        for (slot, &joules) in energy_lane.iter_mut().zip(src) {
                            // Non-finite magnitudes would trip the unit
                            // layer; the finite mask below poisons such
                            // points to NaN regardless of this value.
                            *slot = if joules.is_finite() {
                                Energy::joules(joules).as_kilowatt_hours()
                            } else {
                                f64::NAN
                            };
                        }
                    }
                }
                match intensity {
                    ColOperand::Const(ci) => {
                        for (slot, &kwh) in op_lane.iter_mut().zip(&*energy_lane) {
                            *slot = ci * (kwh * 1.0);
                        }
                    }
                    ColOperand::Col(col) => {
                        let src = &columns[col][start..start + n];
                        for ((slot, &kwh), &ci) in
                            op_lane.iter_mut().zip(&*energy_lane).zip(src)
                        {
                            *slot = ci * (kwh * 1.0);
                        }
                    }
                }
            }
        }

        // Eq. 3: accumulate from 0.0 in instruction (= component) order.
        let mut emb_buf = [0.0f64; LANES];
        let emb_lane = &mut emb_buf[..n];
        match &self.embodied {
            PlanEmbodied::Const(value) => emb_lane.fill(*value),
            PlanEmbodied::Instrs(instrs) => {
                for instr in instrs {
                    match *instr {
                        PlanInstr::Const(value) => {
                            for slot in emb_lane.iter_mut() {
                                *slot += value;
                            }
                        }
                        PlanInstr::AreaScaled { cpa_g_per_cm2, area } => {
                            let mut area_buf = [0.0f64; LANES];
                            let area_lane = &mut area_buf[..n];
                            area.lane(area_lane, columns, start);
                            for (slot, &cm2) in emb_lane.iter_mut().zip(&*area_lane) {
                                *slot += cpa_g_per_cm2 * cm2;
                            }
                        }
                        PlanInstr::Cpa {
                            epa_kwh_per_cm2,
                            gpa_g_per_cm2,
                            mpa_g_per_cm2,
                            intensity,
                            fab_yield,
                            area,
                        } => {
                            let mut ci_buf = [0.0f64; LANES];
                            let mut yield_buf = [0.0f64; LANES];
                            let mut area_buf = [0.0f64; LANES];
                            let ci_lane = &mut ci_buf[..n];
                            let yield_lane = &mut yield_buf[..n];
                            let area_lane = &mut area_buf[..n];
                            intensity.lane(ci_lane, columns, start);
                            fab_yield.lane(yield_lane, columns, start);
                            area.lane(area_lane, columns, start);
                            // Exactly the eq. 5 chain of the per-point
                            // path: CI×EPA, left-associated additions,
                            // yield division, eq. 4 area multiply.
                            for i in 0..n {
                                let energy = ci_lane[i] * epa_kwh_per_cm2;
                                let before_yield = (energy + gpa_g_per_cm2) + mpa_g_per_cm2;
                                let cpa = before_yield / yield_lane[i];
                                emb_lane[i] += cpa * area_lane[i];
                            }
                        }
                        PlanInstr::Storage { grams_per_gb, capacity_col } => {
                            let src = &columns[capacity_col][start..start + n];
                            for (slot, &gb) in emb_lane.iter_mut().zip(src) {
                                *slot += grams_per_gb * gb;
                            }
                        }
                    }
                }
            }
        }

        // Eq. 1's T / LT.
        let mut ratio_buf = [0.0f64; LANES];
        let ratio_lane = &mut ratio_buf[..n];
        match self.amort {
            PlanAmort::Const(value) => ratio_lane.fill(value),
            PlanAmort::Ratio { run_time, lifetime } => {
                let mut time_buf = [0.0f64; LANES];
                let mut life_buf = [0.0f64; LANES];
                let time_lane = &mut time_buf[..n];
                let life_lane = &mut life_buf[..n];
                run_time.lane(time_lane, columns, start);
                lifetime.lane(life_lane, columns, start);
                for i in 0..n {
                    ratio_lane[i] = time_lane[i] / life_lane[i];
                }
            }
        }

        // Combine, then poison points with a non-finite coordinate to NaN
        // — same outcome as `eval`'s up-front finiteness bail-out, applied
        // as a mask so the lane loops stay branch-free.
        let mut finite_buf = [true; LANES];
        let finite_lane = &mut finite_buf[..n];
        for column in columns {
            let src = &column[start..start + n];
            for (flag, &value) in finite_lane.iter_mut().zip(src) {
                *flag &= value.is_finite();
            }
        }
        for i in 0..n {
            let value = op_lane[i] + emb_lane[i] * ratio_lane[i];
            out[i] = if finite_lane[i] { value } else { f64::NAN };
        }
    }

    /// Scalar tail: the same per-point operation chain as
    /// [`CompiledFootprint::eval`], reading columns directly.
    fn eval_scalar(&self, columns: &[&[f64]], index: usize) -> f64 {
        if !columns.iter().all(|column| column[index].is_finite()) {
            return f64::NAN;
        }
        let operational = match self.op {
            PlanOp::Const(value) => value,
            PlanOp::Product { intensity, energy } => {
                let kwh = match energy {
                    PlanEnergy::KwhConst(kwh) => kwh,
                    PlanEnergy::JoulesCol(col) => {
                        Energy::joules(columns[col][index]).as_kilowatt_hours()
                    }
                };
                intensity.at(columns, index) * (kwh * 1.0)
            }
        };
        let embodied = match &self.embodied {
            PlanEmbodied::Const(value) => *value,
            PlanEmbodied::Instrs(instrs) => instrs.iter().fold(0.0, |acc, instr| {
                acc + match *instr {
                    PlanInstr::Const(value) => value,
                    PlanInstr::AreaScaled { cpa_g_per_cm2, area } => {
                        cpa_g_per_cm2 * area.at(columns, index)
                    }
                    PlanInstr::Cpa {
                        epa_kwh_per_cm2,
                        gpa_g_per_cm2,
                        mpa_g_per_cm2,
                        intensity,
                        fab_yield,
                        area,
                    } => {
                        let energy = intensity.at(columns, index) * epa_kwh_per_cm2;
                        let before_yield = (energy + gpa_g_per_cm2) + mpa_g_per_cm2;
                        let cpa = before_yield / fab_yield.at(columns, index);
                        cpa * area.at(columns, index)
                    }
                    PlanInstr::Storage { grams_per_gb, capacity_col } => {
                        grams_per_gb * columns[capacity_col][index]
                    }
                }
            }),
        };
        let ratio = match self.amort {
            PlanAmort::Const(value) => value,
            PlanAmort::Ratio { run_time, lifetime } => {
                run_time.at(columns, index) / lifetime.at(columns, index)
            }
        };
        operational + embodied * ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_with(params: &ModelParams, axes: &[FreeAxis], point: &[f64]) -> f64 {
        let mut substituted = params.clone();
        for (axis, value) in axes.iter().zip(point) {
            match axis {
                FreeAxis::ExecutionTime => substituted.execution_time_s = *value,
                FreeAxis::Lifetime => substituted.lifetime_years = *value,
                FreeAxis::SocArea => substituted.soc_area_mm2 = *value,
                FreeAxis::UseIntensity => substituted.use_intensity_g_per_kwh = *value,
                FreeAxis::FabIntensity => substituted.fab_intensity_g_per_kwh = *value,
                FreeAxis::FabYield => substituted.fab_yield = *value,
                FreeAxis::Energy => substituted.energy_j = *value,
                FreeAxis::DramCapacity(k) => substituted.dram[*k].1 = *value,
                FreeAxis::SsdCapacity(k) => substituted.ssd[*k].1 = *value,
                FreeAxis::HddCapacity(k) => substituted.hdd[*k].1 = *value,
            }
        }
        substituted.try_footprint().expect("substituted params evaluate").as_grams()
    }

    #[test]
    fn fully_folded_kernel_matches_oracle_bitwise() {
        let params = ModelParams::mobile_reference();
        let kernel = CompiledFootprint::try_compile(&params, &[]).expect("compiles");
        assert_eq!(kernel.arity(), 0);
        let oracle = params.try_footprint().expect("evaluates").as_grams();
        assert_eq!(kernel.eval(&[]).to_bits(), oracle.to_bits());
    }

    #[test]
    fn each_single_axis_matches_oracle_bitwise() {
        let params = ModelParams::mobile_reference();
        let cases: [(FreeAxis, f64); 9] = [
            (FreeAxis::ExecutionTime, 7200.0),
            (FreeAxis::Lifetime, 4.5),
            (FreeAxis::SocArea, 123.75),
            (FreeAxis::UseIntensity, 41.0),
            (FreeAxis::FabIntensity, 583.0),
            (FreeAxis::FabYield, 0.61),
            (FreeAxis::Energy, 9999.5),
            (FreeAxis::DramCapacity(0), 12.0),
            (FreeAxis::SsdCapacity(0), 512.0),
        ];
        for (axis, value) in cases {
            let kernel = CompiledFootprint::try_compile(&params, &[axis]).expect("compiles");
            let compiled = kernel.eval(&[value]);
            let oracle = oracle_with(&params, &[axis], &[value]);
            assert_eq!(
                compiled.to_bits(),
                oracle.to_bits(),
                "axis {axis}: compiled {compiled} vs oracle {oracle}"
            );
        }
    }

    #[test]
    fn all_axes_free_matches_oracle_bitwise() {
        let params = ModelParams::mobile_reference();
        let axes = [
            FreeAxis::ExecutionTime,
            FreeAxis::Lifetime,
            FreeAxis::SocArea,
            FreeAxis::UseIntensity,
            FreeAxis::FabIntensity,
            FreeAxis::FabYield,
            FreeAxis::Energy,
            FreeAxis::DramCapacity(0),
            FreeAxis::SsdCapacity(0),
        ];
        let point = [1800.0, 2.5, 101.3, 300.0, 700.0, 0.9, 3600.0, 16.0, 256.0];
        let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
        let compiled = kernel.eval(&point);
        let oracle = oracle_with(&params, &axes, &point);
        assert_eq!(compiled.to_bits(), oracle.to_bits());
    }

    #[test]
    fn rejects_duplicate_axes_and_bad_storage_indices() {
        let params = ModelParams::mobile_reference();
        assert!(CompiledFootprint::try_compile(
            &params,
            &[FreeAxis::SocArea, FreeAxis::SocArea]
        )
        .is_err());
        assert!(
            CompiledFootprint::try_compile(&params, &[FreeAxis::HddCapacity(0)]).is_err(),
            "mobile reference has no HDD population"
        );
        assert!(CompiledFootprint::try_compile(&params, &[FreeAxis::DramCapacity(1)]).is_err());
    }

    #[test]
    fn rejects_invalid_baselines() {
        let mut params = ModelParams::mobile_reference();
        params.fab_yield = 0.0;
        assert!(CompiledFootprint::try_compile(&params, &[FreeAxis::FabYield]).is_err());
    }

    #[test]
    fn try_eval_enforces_axis_ranges() {
        let params = ModelParams::mobile_reference();
        let kernel =
            CompiledFootprint::try_compile(&params, &[FreeAxis::FabYield]).expect("compiles");
        assert!(kernel.try_eval(&[0.5]).is_ok());
        assert!(kernel.try_eval(&[0.0]).is_err());
        assert!(kernel.try_eval(&[f64::NAN]).is_err());
        assert!(kernel.try_eval(&[0.5, 0.5]).is_err(), "arity mismatch");
    }

    #[test]
    fn non_finite_coordinates_poison_to_nan_in_eval() {
        let params = ModelParams::mobile_reference();
        let kernel =
            CompiledFootprint::try_compile(&params, &[FreeAxis::SocArea]).expect("compiles");
        assert!(kernel.eval(&[f64::NAN]).is_nan());
        assert!(kernel.eval(&[f64::INFINITY]).is_nan());
    }

    // ---- block-path property suite -------------------------------------
    //
    // The block engine must be a pure loop interchange: for every axis
    // subset and every batch length, `eval_block` must reproduce `eval`
    // (and the interpreted oracle) bit for bit, including NaN slots.

    /// Deterministic splitmix-style generator for test columns — no
    /// external RNG dependency in act-core.
    struct TestRng(u64);

    impl TestRng {
        fn next_unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut z = self.0;
            z = (z ^ (z >> 33)).wrapping_mul(0xff51afd7ed558ccd);
            z ^= z >> 33;
            ((z >> 11) as f64) / ((1u64 << 53) as f64)
        }

        fn in_range(&mut self, low: f64, high: f64) -> f64 {
            low + (high - low) * self.next_unit()
        }
    }

    /// A plausible in-domain sampling range for each free axis, so the
    /// interpreted oracle accepts every generated point.
    fn axis_range(axis: FreeAxis) -> (f64, f64) {
        match axis {
            FreeAxis::ExecutionTime => (60.0, 36_000.0),
            FreeAxis::Lifetime => (0.5, 10.0),
            FreeAxis::SocArea => (10.0, 250.0),
            FreeAxis::UseIntensity => (10.0, 700.0),
            FreeAxis::FabIntensity => (100.0, 900.0),
            FreeAxis::FabYield => (0.5, 0.999),
            FreeAxis::Energy => (100.0, 100_000.0),
            FreeAxis::DramCapacity(_) => (1.0, 64.0),
            FreeAxis::SsdCapacity(_) => (32.0, 1024.0),
            FreeAxis::HddCapacity(_) => (100.0, 4000.0),
        }
    }

    fn fill_columns(rng: &mut TestRng, axes: &[FreeAxis], len: usize) -> Vec<Vec<f64>> {
        axes.iter()
            .map(|axis| {
                let (low, high) = axis_range(*axis);
                (0..len).map(|_| rng.in_range(low, high)).collect()
            })
            .collect()
    }

    /// Every axis subset exercised by the property suite: each single
    /// axis, a few mixed pairs/triples, and the full 9-axis kernel.
    fn axis_subsets() -> Vec<Vec<FreeAxis>> {
        let all = [
            FreeAxis::ExecutionTime,
            FreeAxis::Lifetime,
            FreeAxis::SocArea,
            FreeAxis::UseIntensity,
            FreeAxis::FabIntensity,
            FreeAxis::FabYield,
            FreeAxis::Energy,
            FreeAxis::DramCapacity(0),
            FreeAxis::SsdCapacity(0),
        ];
        let mut subsets: Vec<Vec<FreeAxis>> = all.iter().map(|a| vec![*a]).collect();
        subsets.push(vec![FreeAxis::SocArea, FreeAxis::FabYield]);
        subsets.push(vec![FreeAxis::Energy, FreeAxis::UseIntensity, FreeAxis::Lifetime]);
        subsets.push(vec![
            FreeAxis::ExecutionTime,
            FreeAxis::FabIntensity,
            FreeAxis::DramCapacity(0),
            FreeAxis::SsdCapacity(0),
        ]);
        subsets.push(all.to_vec());
        subsets.push(Vec::new());
        subsets
    }

    #[test]
    fn eval_block_is_bitwise_identical_to_eval_and_oracle_for_every_length() {
        let params = ModelParams::mobile_reference();
        // Lengths straddle every lane boundary: empty, single, LANES-1,
        // LANES, LANES+1, and a multi-block run with a ragged tail.
        let lengths = [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 17];
        let mut rng = TestRng(0x5eed_ac70_0000_0001);
        for axes in axis_subsets() {
            let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
            let plan = kernel.plan();
            for &len in &lengths {
                let columns = fill_columns(&mut rng, &axes, len);
                let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
                let mut out = vec![0.0; len];
                plan.eval_block(&views, 0..len, &mut out);
                for i in 0..len {
                    let point: Vec<f64> = columns.iter().map(|c| c[i]).collect();
                    let scalar = kernel.eval(&point);
                    let oracle = oracle_with(&params, &axes, &point);
                    assert_eq!(
                        out[i].to_bits(),
                        scalar.to_bits(),
                        "block vs eval diverged at point {i}/{len} with {} axes",
                        axes.len()
                    );
                    assert_eq!(
                        out[i].to_bits(),
                        oracle.to_bits(),
                        "block vs oracle diverged at point {i}/{len} with {} axes",
                        axes.len()
                    );
                }
            }
        }
    }

    #[test]
    fn eval_block_subranges_match_full_range_bitwise() {
        let params = ModelParams::mobile_reference();
        let axes = [FreeAxis::SocArea, FreeAxis::FabYield, FreeAxis::Energy];
        let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
        let plan = kernel.plan();
        let len = 2 * LANES + 31;
        let mut rng = TestRng(0xfeed_0000_0000_0002);
        let columns = fill_columns(&mut rng, &axes, len);
        let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let mut full = vec![0.0; len];
        plan.eval_block(&views, 0..len, &mut full);
        // Sub-ranges starting mid-column and ending mid-lane must produce
        // the same bits as the corresponding window of the full run —
        // the chunked engines in act-dse depend on this.
        for (start, end) in [(0, 1), (3, LANES + 5), (LANES - 1, 2 * LANES + 1), (7, len)] {
            let mut window = vec![f64::NAN; end - start];
            plan.eval_block(&views, start..end, &mut window);
            for (offset, value) in window.iter().enumerate() {
                assert_eq!(
                    value.to_bits(),
                    full[start + offset].to_bits(),
                    "window {start}..{end} diverged at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn eval_block_poisons_non_finite_points_without_disturbing_neighbors() {
        let params = ModelParams::mobile_reference();
        let axes = [FreeAxis::SocArea, FreeAxis::UseIntensity];
        let kernel = CompiledFootprint::try_compile(&params, &axes).expect("compiles");
        let plan = kernel.plan();
        let len = LANES + 9;
        let mut rng = TestRng(0xbad0_0000_0000_0003);
        let mut columns = fill_columns(&mut rng, &axes, len);
        // Poison a scatter of slots across both the lane body and the
        // scalar tail, alternating NaN and infinity across the two axes.
        let poisoned = [0, 5, LANES - 1, LANES, len - 1];
        for (which, &i) in poisoned.iter().enumerate() {
            columns[which % 2][i] = if which % 3 == 0 { f64::NAN } else { f64::INFINITY };
        }
        let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let mut out = vec![0.0; len];
        plan.eval_block(&views, 0..len, &mut out);
        for i in 0..len {
            let point: Vec<f64> = columns.iter().map(|c| c[i]).collect();
            let scalar = kernel.eval(&point);
            if poisoned.contains(&i) {
                assert!(out[i].is_nan(), "poisoned slot {i} must stay NaN");
                assert!(scalar.is_nan(), "eval must agree the slot is poisoned");
            } else {
                assert_eq!(
                    out[i].to_bits(),
                    scalar.to_bits(),
                    "healthy neighbor {i} disturbed by poisoned slots"
                );
            }
        }
    }
}
