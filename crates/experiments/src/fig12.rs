//! Figure 12: the NVDLA MAC-array sweep — performance/EDP pick the widest
//! array, while each carbon metric picks a successively leaner design.

use crate::Present;
use std::fmt;

use act_accel::{AccelConfig, Network};
use act_core::{DesignPoint, FabScenario, OptimizationMetric};
use act_dse::powers_of_two_iter;
use act_units::MassCo2;

use crate::render::TextTable;

/// One configuration's coordinates.
#[derive(Clone, Debug)]
pub struct MacRow {
    /// MAC-array width.
    pub macs: u32,
    /// Embodied footprint of the accelerator silicon.
    pub embodied: MassCo2,
    /// Inference throughput in FPS.
    pub fps: f64,
    /// The design point for metric evaluation.
    pub design: DesignPoint,
}

act_json::impl_to_json!(MacRow { macs, embodied, fps, design });

/// The sweep.
#[derive(Clone, Debug)]
pub struct Fig12Result {
    /// Rows for 64…2048 MACs.
    pub rows: Vec<MacRow>,
}

act_json::impl_to_json!(Fig12Result { rows });

/// Runs the 16 nm sweep on the mobile-vision network under the default fab.
#[must_use]
pub fn run() -> Fig12Result {
    let fab = FabScenario::default();
    let network = Network::mobile_vision();
    let rows = powers_of_two_iter(64, 2048)
        .map(|macs| {
            let config = AccelConfig::new(macs);
            let eval = config.evaluate(&network);
            let embodied = fab.carbon_per_area(config.node()) * config.area();
            MacRow {
                macs,
                embodied,
                fps: eval.throughput().as_per_second(),
                design: DesignPoint {
                    embodied,
                    energy: eval.energy(),
                    delay: eval.latency(),
                    area: config.area(),
                },
            }
        })
        .collect();
    Fig12Result { rows }
}

impl Fig12Result {
    /// The MAC count a metric selects.
    #[must_use]
    pub fn optimum(&self, metric: OptimizationMetric) -> u32 {
        self.rows
            .iter()
            .min_by(|a, b| metric.score(&a.design).total_cmp(&metric.score(&b.design)))
            .present("sweep is nonempty")
            .macs
    }

    /// The MAC count with the best raw performance.
    #[must_use]
    pub fn performance_optimum(&self) -> u32 {
        self.rows
            .iter()
            .max_by(|a, b| a.fps.total_cmp(&b.fps))
            .present("sweep is nonempty")
            .macs
    }
}

impl fmt::Display for Fig12Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 12: 16nm NVDLA-style sweep",
            &["MACs", "FPS", "energy mJ", "embodied g", "EDP", "CDP", "CEP", "C2EP", "CE2P"],
        );
        let norm: Vec<(OptimizationMetric, f64)> = [
            OptimizationMetric::Edp,
            OptimizationMetric::Cdp,
            OptimizationMetric::Cep,
            OptimizationMetric::C2ep,
            OptimizationMetric::Ce2p,
        ]
        .into_iter()
        .map(|m| (m, m.score(&self.rows[0].design)))
        .collect();
        for r in &self.rows {
            let mut cells = vec![
                r.macs.to_string(),
                format!("{:.1}", r.fps),
                format!("{:.2}", r.design.energy.as_millijoules()),
                format!("{:.1}", r.embodied.as_grams()),
            ];
            for (m, base) in &norm {
                cells.push(format!("{:.3}", m.score(&r.design) / base));
            }
            t.row(cells);
        }
        write!(f, "{t}")?;
        writeln!(f, "  performance optimal -> {} MACs", self.performance_optimum())?;
        for metric in OptimizationMetric::ALL {
            writeln!(f, "  {metric:<5} optimal -> {} MACs", self.optimum(metric))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_and_edp_pick_the_widest_array() {
        let r = run();
        assert_eq!(r.performance_optimum(), 2048);
        assert_eq!(r.optimum(OptimizationMetric::Edp), 2048);
    }

    #[test]
    fn carbon_metrics_pick_successively_leaner_designs() {
        // "the optimal configuration for CDP, CE2P, CEP, C2EP are 1024,
        // 512, 256, 128 MACs, respectively."
        let r = run();
        assert_eq!(r.optimum(OptimizationMetric::Cdp), 1024);
        assert_eq!(r.optimum(OptimizationMetric::Ce2p), 512);
        assert_eq!(r.optimum(OptimizationMetric::Cep), 256);
        assert_eq!(r.optimum(OptimizationMetric::C2ep), 128);
    }

    #[test]
    fn sustainability_targets_shrink_by_up_to_an_order_of_magnitude() {
        // "designing the accelerator based on the sustainability target
        // reduces the carbon-aware optimization target by up to an order of
        // magnitude" vs the most parallel configuration.
        let r = run();
        let widest = &r.rows.last().unwrap().design;
        let mut best_reduction: f64 = 1.0;
        for metric in OptimizationMetric::CARBON_AWARE {
            let at_widest = metric.score(widest);
            let at_opt = r
                .rows
                .iter()
                .map(|row| metric.score(&row.design))
                .fold(f64::INFINITY, f64::min);
            best_reduction = best_reduction.max(at_widest / at_opt);
        }
        assert!(best_reduction > 5.0, "best reduction only {best_reduction}");
    }

    #[test]
    fn embodied_grows_monotonically_with_macs() {
        let r = run();
        for pair in r.rows.windows(2) {
            assert!(pair[1].embodied > pair[0].embodied);
        }
    }

    #[test]
    fn fps_grows_monotonically_with_macs() {
        let r = run();
        for pair in r.rows.windows(2) {
            assert!(pair[1].fps > pair[0].fps);
        }
    }

    #[test]
    fn renders_sweep_and_optima() {
        let s = run().to_string();
        assert!(s.contains("2048") && s.contains("optimal"));
    }
}
