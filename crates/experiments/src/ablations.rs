//! Sensitivity studies over the model's calibration choices — the ablation
//! companion to the paper reproductions (DESIGN.md §5).

use std::fmt;

use act_core::{FabScenario, SystemSpec};
use act_data::{Abatement, DramTechnology, ProcessNode};
use act_ssd::{analytical_write_amplification, OverProvisioning};
use act_units::{Area, Capacity, Fraction, MassCo2};

use crate::probe::WaProbe;
use crate::render::TextTable;

/// One sensitivity series: a swept parameter and the resulting outputs.
#[derive(Clone, Debug)]
pub struct Sensitivity {
    /// What is being swept.
    pub parameter: String,
    /// (setting label, output value) pairs.
    pub series: Vec<(String, f64)>,
}

act_json::impl_to_json!(Sensitivity { parameter, series });

impl Sensitivity {
    /// Max output over min output — how much the assumption matters.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty or contains non-positive values.
    #[must_use]
    pub fn spread(&self) -> f64 {
        let min = self.series.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
        let max = self.series.iter().map(|(_, v)| *v).fold(0.0, f64::max);
        assert!(min > 0.0, "sensitivity outputs must be positive");
        max / min
    }
}

/// All ablations.
#[derive(Clone, Debug)]
pub struct AblationsResult {
    /// The sensitivity series, one per calibration choice.
    pub studies: Vec<Sensitivity>,
}

act_json::impl_to_json!(AblationsResult { studies });

/// The write-amplification study's FTL simulations, heaviest first: one
/// per anchor over-provisioning point.
#[must_use]
pub fn probes() -> Vec<WaProbe> {
    [0.16, 0.34]
        .map(|op| WaProbe {
            pf: OverProvisioning::new_const(op),
            seed: 5,
            measure_writes: 30_000,
        })
        .to_vec()
}

/// Runs every ablation: the FTL simulations serially, then [`assemble`].
#[must_use]
pub fn run() -> AblationsResult {
    let wa: Vec<f64> = probes().iter().map(WaProbe::measure).collect();
    assemble(&wa)
}

/// Builds every ablation from the measured [`probes`], in the same order.
///
/// # Panics
///
/// Panics unless there is exactly one measurement per probe.
#[must_use]
pub fn assemble(wa_simulated: &[f64]) -> AblationsResult {
    assert_eq!(wa_simulated.len(), probes().len(), "one FTL measurement per probe");
    let die = Area::square_millimeters(90.0);
    let node = ProcessNode::N7;

    // Yield: ECF of a flagship die across realistic yields.
    let yield_study = Sensitivity {
        parameter: "fab yield (7nm 90mm2 die, g CO2)".into(),
        series: [0.5, 0.625, 0.75, 0.875, 1.0]
            .into_iter()
            .map(|y| {
                let fab = FabScenario::default().with_yield(Fraction::new_const(y));
                (format!("Y={y}"), (fab.carbon_per_area(node) * die).as_grams())
            })
            .collect(),
    };

    // Abatement: same die across the three characterized strategies.
    let abatement_study = Sensitivity {
        parameter: "gaseous abatement (7nm 90mm2 die, g CO2)".into(),
        series: Abatement::ALL
            .into_iter()
            .map(|a| {
                let fab = FabScenario::default().with_abatement(a);
                (a.to_string(), (fab.carbon_per_area(node) * die).as_grams())
            })
            .collect(),
    };

    // Fab energy source: a whole device under four fabs.
    let spec = SystemSpec::from_bom(&act_data::devices::IPHONE_11);
    let fab_study = Sensitivity {
        parameter: "fab energy source (iPhone 11 ICs, kg CO2)".into(),
        series: [
            ("coal", FabScenario::coal()),
            ("Taiwan grid", FabScenario::taiwan_grid()),
            ("25% renewable", FabScenario::default()),
            ("solar", FabScenario::renewable()),
        ]
        .into_iter()
        .map(|(label, fab)| (label.to_owned(), spec.embodied(&fab).total().as_kilograms()))
        .collect(),
    };

    // WA model: analytical vs simulated at the study's anchor points.
    let wa_study = Sensitivity {
        parameter: "write-amplification model (WA at PF)".into(),
        series: probes()
            .iter()
            .zip(wa_simulated)
            .flat_map(|(probe, &simulated)| {
                let pf = probe.pf;
                [
                    (format!("analytical @ {pf}"), analytical_write_amplification(pf)),
                    (format!("FTL sim @ {pf}"), simulated),
                ]
            })
            .collect(),
    };

    // DRAM-node assignment: the era choice behind Figure 8c's minimum.
    let dram_study = Sensitivity {
        parameter: "DRAM technology (4 GB phone memory, g CO2)".into(),
        series: DramTechnology::ALL
            .into_iter()
            .map(|t| {
                let mass: MassCo2 = t.carbon_per_gb() * Capacity::gigabytes(4.0);
                (t.to_string(), mass.as_grams())
            })
            .collect(),
    };

    AblationsResult {
        studies: vec![yield_study, abatement_study, fab_study, wa_study, dram_study],
    }
}

impl fmt::Display for AblationsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for study in &self.studies {
            let mut t = TextTable::new(
                &format!("Ablation: {}", study.parameter),
                &["setting", "value"],
            );
            for (label, value) in &study.series {
                t.row(vec![label.clone(), format!("{value:.2}")]);
            }
            write!(f, "{t}")?;
            writeln!(f, "  spread: {:.2}x", study.spread())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_studies_present() {
        assert_eq!(run().studies.len(), 5);
    }

    #[test]
    fn yield_spread_is_2x_over_the_range() {
        // 1/Y from 1.0 to 0.5 doubles the footprint.
        let r = run();
        let spread = r.studies[0].spread();
        assert!((1.9..=2.1).contains(&spread), "spread {spread}");
    }

    #[test]
    fn abatement_matters_less_than_yield() {
        let r = run();
        assert!(r.studies[1].spread() < r.studies[0].spread());
    }

    #[test]
    fn fab_energy_source_moves_device_footprints_substantially() {
        let r = run();
        let spread = r.studies[2].spread();
        assert!(spread > 1.3, "fab CI spread {spread}");
    }

    #[test]
    fn dram_node_assignment_is_the_largest_lever() {
        // 50 nm DDR3 vs LPDDR4 differ 12.5x per GB — dwarfing every fab
        // parameter; exactly why legacy-node LCAs mislead (Table 12).
        let r = run();
        let spread = r.studies[4].spread();
        assert!(spread > 10.0, "DRAM spread {spread}");
    }

    #[test]
    fn wa_study_pairs_each_probe_with_its_analytical_twin() {
        let wa = [2.5, 1.5];
        let series = &assemble(&wa).studies[3].series;
        let labels: Vec<&str> = series.iter().map(|(label, _)| label.as_str()).collect();
        assert_eq!(
            labels,
            ["analytical @ 16%", "FTL sim @ 16%", "analytical @ 34%", "FTL sim @ 34%"]
        );
        assert_eq!((series[1].1, series[3].1), (2.5, 1.5));
    }

    #[test]
    #[should_panic(expected = "one FTL measurement per probe")]
    fn assemble_rejects_a_short_measurement_list() {
        let _ = assemble(&[1.0]);
    }

    #[test]
    fn renders_every_study() {
        let s = run().to_string();
        assert_eq!(s.matches("Ablation:").count(), 5);
        assert!(s.contains("spread"));
    }
}
