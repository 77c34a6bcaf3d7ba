//! The embodied-carbon model of eqs. 3–8: per-component footprints for
//! application processors, DRAM, SSD and HDD storage, plus IC packaging.

use std::borrow::Cow;
use std::fmt;

use act_data::devices::DeviceBom;
use act_data::{DramTechnology, HddModel, ProcessNode, SsdTechnology};
use act_units::{Area, Capacity, MassCo2, UnitError};

use crate::{FabScenario, ModelError, Validate};

/// Per-IC packaging footprint `Kr` (eq. 3), from SPIL's environmental
/// reporting: 0.15 kg CO₂ per packaged IC.
pub const PACKAGING_FOOTPRINT: MassCo2 = MassCo2::grams(150.0);

/// The component class an embodied contribution belongs to (the categories
/// of eq. 3 plus packaging).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKind {
    /// Application processors and other logic dies (eq. 4).
    Soc,
    /// DRAM memory (eq. 6).
    Dram,
    /// NAND-flash storage (eq. 8).
    Ssd,
    /// Magnetic storage (eq. 7).
    Hdd,
    /// IC packaging overhead (`Nr × Kr`).
    Packaging,
}

act_json::impl_json_enum!(ComponentKind { Soc, Dram, Ssd, Hdd, Packaging });

impl ComponentKind {
    /// All kinds in eq. 3 order.
    pub const ALL: [Self; 5] = [Self::Soc, Self::Dram, Self::Ssd, Self::Hdd, Self::Packaging];
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Soc => "SoC",
            Self::Dram => "DRAM",
            Self::Ssd => "SSD",
            Self::Hdd => "HDD",
            Self::Packaging => "Packaging",
        };
        f.write_str(name)
    }
}

/// One hardware component of a [`SystemSpec`].
#[derive(Clone, Debug, PartialEq)]
enum Component {
    Soc { label: Cow<'static, str>, area: Area, node: ProcessNode },
    Dram { technology: DramTechnology, capacity: Capacity },
    Ssd { technology: SsdTechnology, capacity: Capacity },
    Hdd { model: HddModel, capacity: Capacity },
}

impl act_json::ToJson for Component {
    fn to_json(&self) -> act_json::JsonValue {
        match self {
            Self::Soc { label, area, node } => act_json::obj! {
                "Soc": act_json::obj! { "label": label, "area": area, "node": node },
            },
            Self::Dram { technology, capacity } => act_json::obj! {
                "Dram": act_json::obj! { "technology": technology, "capacity": capacity },
            },
            Self::Ssd { technology, capacity } => act_json::obj! {
                "Ssd": act_json::obj! { "technology": technology, "capacity": capacity },
            },
            Self::Hdd { model, capacity } => act_json::obj! {
                "Hdd": act_json::obj! { "model": model, "capacity": capacity },
            },
        }
    }
}

/// Checks every component magnitude a spec (or builder) holds: die areas
/// and capacities must be finite and non-negative.
fn validate_components(components: &[Component]) -> Result<(), ModelError> {
    for component in components {
        match component {
            Component::Soc { label, area, node: _ } => {
                let mm2 = area.as_square_millimeters();
                if !mm2.is_finite() {
                    return Err(UnitError::non_finite("SoC die area", mm2).into());
                }
                if mm2 < 0.0 {
                    return Err(ModelError::invariant(format!(
                        "SoC `{label}` has a negative die area ({mm2} mm^2)"
                    )));
                }
            }
            Component::Dram { capacity, .. }
            | Component::Ssd { capacity, .. }
            | Component::Hdd { capacity, .. } => {
                let gb = capacity.as_gigabytes();
                if !gb.is_finite() {
                    return Err(UnitError::non_finite("storage capacity", gb).into());
                }
                if gb < 0.0 {
                    return Err(ModelError::invariant(format!(
                        "storage capacity must be non-negative, got {gb} GB"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// A hardware platform description: the inputs to the embodied model
/// (eq. 3). Build one with [`SystemSpec::builder`] or from a device teardown
/// with [`SystemSpec::from_bom`].
///
/// # Examples
///
/// ```
/// use act_core::{FabScenario, SystemSpec};
/// use act_data::{ProcessNode, SsdTechnology};
/// use act_units::{Area, Capacity};
///
/// let ssd_device = SystemSpec::builder()
///     .soc("controller", Area::square_millimeters(50.0), ProcessNode::N28)
///     .ssd(SsdTechnology::V3NandTlc, Capacity::gigabytes(512.0))
///     .packaged_ics(5)
///     .build();
/// let report = ssd_device.embodied(&FabScenario::default());
/// assert!(report.total().as_kilograms() > 3.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSpec {
    components: Vec<Component>,
    packaged_ic_count: u32,
}

act_json::impl_to_json!(SystemSpec { components, packaged_ic_count });

impl SystemSpec {
    /// Starts building a system description.
    #[must_use]
    pub fn builder() -> SystemSpecBuilder {
        SystemSpecBuilder::default()
    }

    /// Builds a system from one of the encoded device teardowns.
    #[must_use]
    pub fn from_bom(bom: &DeviceBom) -> Self {
        let mut builder = Self::builder();
        for chip in bom.chips {
            builder = builder.soc(chip.name, chip.area(), chip.node);
        }
        for dram in bom.dram {
            builder = builder.dram(dram.technology, dram.capacity());
        }
        for ssd in bom.ssd {
            builder = builder.ssd(ssd.technology, ssd.capacity());
        }
        for hdd in bom.hdd {
            builder = builder.hdd(hdd.model, Capacity::gigabytes(hdd.capacity_gb));
        }
        builder.packaged_ics(bom.packaged_ic_count).build()
    }

    /// Number of packaged ICs, `Nr` in eq. 3.
    #[must_use]
    pub fn packaged_ic_count(&self) -> u32 {
        self.packaged_ic_count
    }

    /// Evaluates the embodied model under the Figure 6 uncertainty band:
    /// the lower bound assumes solar-powered fabs with 99 % abatement, the
    /// upper bound the Taiwan grid with 95 % abatement. Memory/storage
    /// factors and packaging are report-based constants, so only the logic
    /// components spread.
    #[must_use]
    pub fn embodied_bounds(&self, fab: &FabScenario) -> (MassCo2, MassCo2) {
        use act_data::Abatement;
        let lower = crate::FabScenario::renewable()
            .with_abatement(Abatement::Percent99)
            .with_yield(fab.fab_yield);
        let upper = crate::FabScenario::taiwan_grid()
            .with_abatement(Abatement::Percent95)
            .with_yield(fab.fab_yield);
        (self.embodied(&lower).total(), self.embodied(&upper).total())
    }

    /// Evaluates the embodied model (eqs. 3–8) under a fab scenario,
    /// returning the per-component breakdown.
    #[must_use]
    pub fn embodied(&self, fab: &FabScenario) -> EmbodiedReport {
        let mut components = Vec::with_capacity(self.components.len() + 1);
        for component in &self.components {
            let (kind, label, mass) = match component {
                Component::Soc { label, area, node } => (
                    ComponentKind::Soc,
                    label.clone().into_owned(),
                    // Eq. 4: E_SoC = Area x CPA.
                    fab.carbon_per_area(*node) * *area,
                ),
                Component::Dram { technology, capacity } => (
                    ComponentKind::Dram,
                    technology.to_string(),
                    technology.carbon_per_gb() * *capacity,
                ),
                Component::Ssd { technology, capacity } => (
                    ComponentKind::Ssd,
                    technology.to_string(),
                    technology.carbon_per_gb() * *capacity,
                ),
                Component::Hdd { model, capacity } => {
                    (ComponentKind::Hdd, model.to_string(), model.carbon_per_gb() * *capacity)
                }
            };
            components.push(EmbodiedComponent { kind, label, footprint: mass });
        }
        if self.packaged_ic_count > 0 {
            components.push(EmbodiedComponent {
                kind: ComponentKind::Packaging,
                label: format!("{} packaged ICs", self.packaged_ic_count),
                footprint: PACKAGING_FOOTPRINT * f64::from(self.packaged_ic_count),
            });
        }
        EmbodiedReport { components }
    }

    /// Checked variant of [`Self::embodied`]: validates the spec and the fab
    /// scenario up front and guarantees every component footprint in the
    /// returned report is finite.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the spec holds a non-finite or negative
    /// magnitude, the fab scenario is invalid (e.g. zero yield), or any
    /// component footprint evaluates to a non-finite mass.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_core::{FabScenario, SystemSpec};
    /// use act_units::Fraction;
    ///
    /// let spec = SystemSpec::builder().packaged_ics(3).build();
    /// assert!(spec.try_embodied(&FabScenario::default()).is_ok());
    ///
    /// let zero_yield = FabScenario::default().with_yield(Fraction::ZERO);
    /// assert!(spec.try_embodied(&zero_yield).is_err());
    /// ```
    pub fn try_embodied(&self, fab: &FabScenario) -> Result<EmbodiedReport, ModelError> {
        self.validate()?;
        fab.validate()?;
        let report = self.embodied(fab);
        for component in report.components() {
            if !component.footprint.as_grams().is_finite() {
                return Err(ModelError::non_finite(format!(
                    "embodied footprint of {} `{}`",
                    component.kind, component.label
                )));
            }
        }
        Ok(report)
    }
}

impl Validate for SystemSpec {
    fn validate(&self) -> Result<(), ModelError> {
        validate_components(&self.components)
    }
}

/// Builder for [`SystemSpec`].
#[derive(Clone, Debug, Default)]
pub struct SystemSpecBuilder {
    components: Vec<Component>,
    packaged_ic_count: u32,
}

impl SystemSpecBuilder {
    /// Adds a logic die (application processor, co-processor, controller…).
    ///
    /// The label accepts both `&'static str` (no allocation — this is the
    /// sweep hot path, where a per-point `String` allocation used to
    /// dominate) and owned `String`s for dynamically-built labels.
    #[must_use]
    pub fn soc(
        mut self,
        label: impl Into<Cow<'static, str>>,
        area: Area,
        node: ProcessNode,
    ) -> Self {
        self.components.push(Component::Soc { label: label.into(), area, node });
        self
    }

    /// Adds DRAM capacity of a given technology.
    #[must_use]
    pub fn dram(mut self, technology: DramTechnology, capacity: Capacity) -> Self {
        self.components.push(Component::Dram { technology, capacity });
        self
    }

    /// Adds NAND/SSD capacity of a given technology.
    #[must_use]
    pub fn ssd(mut self, technology: SsdTechnology, capacity: Capacity) -> Self {
        self.components.push(Component::Ssd { technology, capacity });
        self
    }

    /// Adds HDD capacity of a given model.
    #[must_use]
    pub fn hdd(mut self, model: HddModel, capacity: Capacity) -> Self {
        self.components.push(Component::Hdd { model, capacity });
        self
    }

    /// Sets the packaged IC count `Nr` (each IC incurs `Kr` = 0.15 kg CO₂).
    #[must_use]
    pub fn packaged_ics(mut self, count: u32) -> Self {
        self.packaged_ic_count = count;
        self
    }

    /// Finalizes the system description.
    #[must_use]
    pub fn build(self) -> SystemSpec {
        SystemSpec { components: self.components, packaged_ic_count: self.packaged_ic_count }
    }

    /// Validating variant of [`Self::build`]: rejects specs holding
    /// non-finite or negative die areas or capacities.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] naming the first invalid component.
    pub fn try_build(self) -> Result<SystemSpec, ModelError> {
        self.validate()?;
        Ok(self.build())
    }
}

impl Validate for SystemSpecBuilder {
    fn validate(&self) -> Result<(), ModelError> {
        validate_components(&self.components)
    }
}

/// One component's contribution to an [`EmbodiedReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct EmbodiedComponent {
    /// Component class.
    pub kind: ComponentKind,
    /// Human-readable label.
    pub label: String,
    /// Embodied footprint of the component.
    pub footprint: MassCo2,
}

act_json::impl_to_json!(EmbodiedComponent { kind, label, footprint });

/// The result of evaluating the embodied model: eq. 3's sum, kept
/// per-component so designers can see the breakdown Figure 4 argues LCAs
/// cannot provide.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbodiedReport {
    components: Vec<EmbodiedComponent>,
}

act_json::impl_to_json!(EmbodiedReport { components });

impl EmbodiedReport {
    /// Total embodied footprint, `ECF` (eq. 3).
    #[must_use]
    pub fn total(&self) -> MassCo2 {
        self.components.iter().map(|c| c.footprint).sum()
    }

    /// Total contribution of one component class.
    #[must_use]
    pub fn by_kind(&self, kind: ComponentKind) -> MassCo2 {
        self.components.iter().filter(|c| c.kind == kind).map(|c| c.footprint).sum()
    }

    /// Iterates over the individual component contributions.
    pub fn components(&self) -> impl Iterator<Item = &EmbodiedComponent> {
        self.components.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_data::devices;

    #[test]
    fn eq4_soc_footprint_is_area_times_cpa() {
        let fab = FabScenario::default();
        let area = Area::square_millimeters(94.0);
        let spec = SystemSpec::builder().soc("die", area, ProcessNode::N10).build();
        let expected = fab.carbon_per_area(ProcessNode::N10) * area;
        assert_eq!(spec.embodied(&fab).total(), expected);
    }

    #[test]
    fn eq6_to_8_capacity_scaling() {
        let fab = FabScenario::default();
        let spec = SystemSpec::builder()
            .dram(DramTechnology::Lpddr4, Capacity::gigabytes(8.0))
            .ssd(SsdTechnology::V3NandTlc, Capacity::gigabytes(256.0))
            .hdd(HddModel::ExosX16, Capacity::terabytes(16.0))
            .build();
        let report = spec.embodied(&fab);
        assert!((report.by_kind(ComponentKind::Dram).as_grams() - 8.0 * 48.0).abs() < 1e-9);
        assert!((report.by_kind(ComponentKind::Ssd).as_grams() - 256.0 * 6.3).abs() < 1e-9);
        assert!(
            (report.by_kind(ComponentKind::Hdd).as_grams() - 16.0 * 1024.0 * 1.33).abs() < 1e-6
        );
    }

    #[test]
    fn packaging_is_count_times_kr() {
        let spec = SystemSpec::builder().packaged_ics(30).build();
        let report = spec.embodied(&FabScenario::default());
        assert!((report.total().as_kilograms() - 4.5).abs() < 1e-9);
        assert_eq!(report.by_kind(ComponentKind::Packaging), report.total());
    }

    #[test]
    fn report_total_is_sum_of_components() {
        let spec = SystemSpec::from_bom(&devices::IPHONE_11);
        let report = spec.embodied(&FabScenario::default());
        let sum: MassCo2 = ComponentKind::ALL.iter().map(|k| report.by_kind(*k)).sum();
        assert!((report.total().ratio(sum) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn figure4_iphone11_lands_near_17kg() {
        let report =
            SystemSpec::from_bom(&devices::IPHONE_11).embodied(&FabScenario::default());
        let kg = report.total().as_kilograms();
        assert!((15.0..=19.0).contains(&kg), "iPhone 11 ICs = {kg} kg");
    }

    #[test]
    fn figure4_ipad_lands_near_21kg() {
        let report = SystemSpec::from_bom(&devices::IPAD).embodied(&FabScenario::default());
        let kg = report.total().as_kilograms();
        assert!((18.5..=23.5).contains(&kg), "iPad ICs = {kg} kg");
    }

    #[test]
    fn snapdragon845_block_areas_reproduce_table4_embodied() {
        use act_data::snapdragon845::{profile, Engine, NODE};
        let fab = FabScenario::default();
        let ecf =
            |engine| (fab.carbon_per_area(NODE) * profile(engine).block_area()).as_grams();
        assert!((ecf(Engine::Cpu) - 253.0).abs() < 3.0, "CPU {}", ecf(Engine::Cpu));
        assert!((ecf(Engine::Gpu) - 189.0).abs() < 3.0, "GPU {}", ecf(Engine::Gpu));
        assert!((ecf(Engine::Dsp) - 205.0).abs() < 3.0, "DSP {}", ecf(Engine::Dsp));
    }

    #[test]
    fn greener_fab_shrinks_only_soc_share() {
        let spec = SystemSpec::from_bom(&devices::IPHONE_11);
        let default_fab = spec.embodied(&FabScenario::default());
        let green = spec.embodied(&FabScenario::renewable());
        assert!(green.by_kind(ComponentKind::Soc) < default_fab.by_kind(ComponentKind::Soc));
        assert_eq!(
            green.by_kind(ComponentKind::Dram),
            default_fab.by_kind(ComponentKind::Dram)
        );
        assert_eq!(
            green.by_kind(ComponentKind::Packaging),
            default_fab.by_kind(ComponentKind::Packaging)
        );
    }

    #[test]
    fn bounds_bracket_the_point_estimate() {
        let spec = SystemSpec::from_bom(&devices::IPHONE_11);
        let fab = FabScenario::default();
        let (lo, hi) = spec.embodied_bounds(&fab);
        let point = spec.embodied(&fab).total();
        assert!(lo < point && point < hi, "{lo} < {point} < {hi}");
        // Memory, storage and packaging don't spread, so the band is
        // moderate for a device dominated by packaging and report factors.
        assert!(hi.ratio(lo) < 2.0, "band {lo}..{hi}");
    }

    #[test]
    fn component_iteration_exposes_labels() {
        let report =
            SystemSpec::from_bom(&devices::IPHONE_11).embodied(&FabScenario::default());
        let labels: Vec<_> = report.components().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"A13 Bionic SoC"));
        assert!(labels.iter().any(|l| l.contains("packaged ICs")));
    }

    #[test]
    fn empty_system_has_zero_footprint() {
        let report = SystemSpec::builder().build().embodied(&FabScenario::default());
        assert_eq!(report.total(), MassCo2::ZERO);
    }

    #[test]
    fn component_kind_display() {
        assert_eq!(ComponentKind::Soc.to_string(), "SoC");
        assert_eq!(ComponentKind::Packaging.to_string(), "Packaging");
    }

    #[test]
    fn try_build_accepts_valid_and_rejects_negative_magnitudes() {
        let ok = SystemSpec::builder()
            .soc("die", Area::square_millimeters(90.0), ProcessNode::N7)
            .packaged_ics(2)
            .try_build();
        assert!(ok.is_ok());

        let err = SystemSpec::builder()
            .soc("die", Area::square_millimeters(-5.0), ProcessNode::N7)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("die area"), "{err}");

        let err = SystemSpec::builder()
            .dram(DramTechnology::Lpddr4, Capacity::gigabytes(-8.0))
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("capacity"), "{err}");
    }

    #[test]
    fn try_embodied_agrees_with_unchecked_path() {
        let spec = SystemSpec::from_bom(&devices::IPHONE_11);
        let fab = FabScenario::default();
        let checked = spec.try_embodied(&fab).unwrap();
        assert_eq!(checked.total(), spec.embodied(&fab).total());
    }

    #[test]
    fn try_embodied_rejects_zero_yield_instead_of_panicking() {
        use act_units::Fraction;
        let spec = SystemSpec::builder()
            .soc("die", Area::square_millimeters(90.0), ProcessNode::N7)
            .build();
        let err =
            spec.try_embodied(&FabScenario::default().with_yield(Fraction::ZERO)).unwrap_err();
        assert!(err.to_string().contains("yield"), "{err}");
    }
}
