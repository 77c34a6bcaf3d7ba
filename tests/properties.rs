//! Cross-crate property tests: invariants of the carbon model and the
//! substrates over deterministic input grids.

use act::accel::{AccelConfig, Network};
use act::core::{
    total_footprint, DesignPoint, FabScenario, OperationalModel, OptimizationMetric, SystemSpec,
};
use act::data::{DramTechnology, ProcessNode, SsdTechnology};
use act::ssd::{analytical_write_amplification, LifetimeModel, OverProvisioning};
use act::units::{Area, Capacity, CarbonIntensity, Energy, Fraction, MassCo2, TimeSpan};

/// Die areas in mm² spanning mobile to reticle-limit dies.
const AREAS: [f64; 4] = [1.0, 68.3, 147.0, 500.0];

#[test]
fn embodied_is_monotone_in_die_area() {
    let fab = FabScenario::default();
    for node in ProcessNode::ALL {
        for area in AREAS {
            for extra in [1.0, 75.5, 500.0] {
                let small = SystemSpec::builder()
                    .soc("die", Area::square_millimeters(area), node)
                    .build()
                    .embodied(&fab)
                    .total();
                let big = SystemSpec::builder()
                    .soc("die", Area::square_millimeters(area + extra), node)
                    .build()
                    .embodied(&fab)
                    .total();
                assert!(big > small, "node {node:?}, area {area} + {extra}");
            }
        }
    }
}

#[test]
fn embodied_is_additive_over_components() {
    let fab = FabScenario::default();
    for node in [ProcessNode::ALL[0], *ProcessNode::ALL.last().expect("nodes")] {
        for dram in DramTechnology::ALL {
            for ssd in [SsdTechnology::ALL[0], *SsdTechnology::ALL.last().expect("ssds")] {
                let (area, dram_gb, ssd_gb, ics) = (123.4, 8.0, 512.0, 17_u32);
                let combined = SystemSpec::builder()
                    .soc("die", Area::square_millimeters(area), node)
                    .dram(dram, Capacity::gigabytes(dram_gb))
                    .ssd(ssd, Capacity::gigabytes(ssd_gb))
                    .packaged_ics(ics)
                    .build()
                    .embodied(&fab)
                    .total();
                let parts = SystemSpec::builder()
                    .soc("die", Area::square_millimeters(area), node)
                    .build()
                    .embodied(&fab)
                    .total()
                    + SystemSpec::builder()
                        .dram(dram, Capacity::gigabytes(dram_gb))
                        .build()
                        .embodied(&fab)
                        .total()
                    + SystemSpec::builder()
                        .ssd(ssd, Capacity::gigabytes(ssd_gb))
                        .build()
                        .embodied(&fab)
                        .total()
                    + SystemSpec::builder().packaged_ics(ics).build().embodied(&fab).total();
                assert!(
                    (combined.as_grams() - parts.as_grams()).abs()
                        <= combined.as_grams().abs() * 1e-12 + 1e-9,
                    "node {node:?}, dram {dram:?}, ssd {ssd:?}"
                );
            }
        }
    }
}

#[test]
fn lower_yield_never_lowers_cpa() {
    for node in ProcessNode::ALL {
        for lo in [0.3, 0.5, 0.7, 0.875] {
            for hi in [0.875, 0.95, 1.0] {
                let low = FabScenario::default().with_yield(Fraction::new(lo).unwrap());
                let high = FabScenario::default().with_yield(Fraction::new(hi).unwrap());
                assert!(
                    low.carbon_per_area(node) >= high.carbon_per_area(node),
                    "node {node:?}, yields {lo} vs {hi}"
                );
            }
        }
    }
}

#[test]
fn cleaner_fab_energy_never_raises_cpa() {
    for node in ProcessNode::ALL {
        for lo in [0.0, 30.0, 583.0] {
            for hi in [583.0, 700.0, 900.0] {
                let clean = FabScenario::with_intensity(CarbonIntensity::grams_per_kwh(lo));
                let dirty = FabScenario::with_intensity(CarbonIntensity::grams_per_kwh(hi));
                assert!(
                    clean.carbon_per_area(node) <= dirty.carbon_per_area(node),
                    "node {node:?}, intensities {lo} vs {hi}"
                );
            }
        }
    }
}

#[test]
fn total_footprint_is_monotone_in_runtime() {
    for (op_g, emb_g) in [(0.0, 0.0), (1e3, 5e5), (1e6, 1e6)] {
        for lt in [0.5, 3.0, 10.0] {
            let f = |t: f64| {
                total_footprint(
                    MassCo2::grams(op_g),
                    MassCo2::grams(emb_g),
                    TimeSpan::years(t),
                    TimeSpan::years(lt),
                )
            };
            let mut last = f(0.0);
            for t in [0.1, 1.0, 4.9, 10.0] {
                let now = f(t);
                assert!(now >= last, "op {op_g}, emb {emb_g}, lt {lt}, t {t}");
                last = now;
            }
        }
    }
}

#[test]
fn full_lifetime_use_charges_full_embodied() {
    for (op_g, emb_g) in [(0.0, 0.0), (12_345.6, 987.0), (1e6, 1e6)] {
        for lt in [0.5, 2.5, 10.0] {
            let cf = total_footprint(
                MassCo2::grams(op_g),
                MassCo2::grams(emb_g),
                TimeSpan::years(lt),
                TimeSpan::years(lt),
            );
            assert!(
                (cf.as_grams() - (op_g + emb_g)).abs() <= (op_g + emb_g) * 1e-12 + 1e-9,
                "op {op_g}, emb {emb_g}, lt {lt}"
            );
        }
    }
}

#[test]
fn operational_model_is_linear() {
    for ci in [0.0, 41.0, 583.0, 1000.0] {
        for kwh in [0.0, 2.7, 1e4] {
            for k in [0.1, 2.0, 10.0] {
                let op = OperationalModel::new(CarbonIntensity::grams_per_kwh(ci));
                let base = op.footprint(Energy::kilowatt_hours(kwh));
                let scaled = op.footprint(Energy::kilowatt_hours(kwh * k));
                assert!(
                    (scaled.as_grams() - base.as_grams() * k).abs()
                        <= scaled.as_grams().abs() * 1e-9 + 1e-9,
                    "ci {ci}, kwh {kwh}, k {k}"
                );
            }
        }
    }
}

#[test]
fn metric_scores_scale_with_their_exponents() {
    for (c, e, d, a) in [(1.0, 1.0, 1e-3, 1e-2), (250.0, 4e3, 0.5, 3.0), (1e4, 1e4, 1e2, 1e2)] {
        for k in [1.1, 2.0, 4.0] {
            let point = DesignPoint {
                embodied: MassCo2::grams(c),
                energy: Energy::joules(e),
                delay: TimeSpan::seconds(d),
                area: Area::square_centimeters(a),
            };
            let doubled_c = DesignPoint { embodied: MassCo2::grams(c * k), ..point };
            // CDP and CEP are linear in C; C2EP is quadratic.
            let lin = OptimizationMetric::Cep.score(&doubled_c)
                / OptimizationMetric::Cep.score(&point);
            let quad = OptimizationMetric::C2ep.score(&doubled_c)
                / OptimizationMetric::C2ep.score(&point);
            assert!((lin - k).abs() <= k * 1e-9, "c {c}, k {k}: linear ratio {lin}");
            assert!((quad - k * k).abs() <= k * k * 1e-9, "c {c}, k {k}: quad ratio {quad}");
        }
    }
}

#[test]
fn wa_is_monotone_and_floored() {
    let pfs = [0.01, 0.04, 0.16, 0.28, 0.5, 1.0];
    for pair in pfs.windows(2) {
        let wa_lo = analytical_write_amplification(OverProvisioning::new(pair[0]).unwrap());
        let wa_hi = analytical_write_amplification(OverProvisioning::new(pair[1]).unwrap());
        assert!(wa_lo >= wa_hi, "pf {} vs {}", pair[0], pair[1]);
        assert!(wa_hi >= 1.0);
    }
}

#[test]
fn ssd_lifetime_grows_with_over_provisioning() {
    let model = LifetimeModel::default();
    let pfs = [0.01, 0.04, 0.16, 0.28, 0.5, 1.0];
    for pair in pfs.windows(2) {
        assert!(
            model.lifetime_years(OverProvisioning::new(pair[0]).unwrap())
                <= model.lifetime_years(OverProvisioning::new(pair[1]).unwrap()),
            "pf {} vs {}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn wider_accelerators_are_faster_but_heavier() {
    let network = Network::mobile_vision();
    for m in 6..11_u32 {
        let narrow = AccelConfig::new(1 << m);
        let wide = AccelConfig::new(1 << (m + 1));
        assert!(
            wide.evaluate(&network).latency() < narrow.evaluate(&network).latency(),
            "2^{m} lanes"
        );
        assert!(wide.area() > narrow.area(), "2^{m} lanes");
    }
}

#[test]
fn accelerator_energy_bounded_under_node_scaling() {
    for nm in 7..40_u32 {
        let config = AccelConfig::new(512).with_nanometers(nm);
        let eval = config.evaluate(&Network::mobile_vision());
        assert!(eval.energy().as_joules() > 0.0);
        assert!(eval.energy().as_joules() < 1.0, "runaway energy at {nm} nm");
    }
}
