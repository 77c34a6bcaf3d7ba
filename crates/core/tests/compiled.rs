//! Deterministic tests pinning the compiled-kernel contract: for valid
//! `ModelParams` and every subset of free axes, [`CompiledFootprint::eval`]
//! is **bit-for-bit** identical to substituting the point into the params
//! and calling the interpreted oracle [`ModelParams::try_footprint`].
//!
//! The properties are driven from a seeded `act_rng` stream, so the
//! hermetic std-only workspace covers a wide — and exactly reproducible —
//! slice of the case space.

use act_core::{CompiledFootprint, FreeAxis, ModelParams};
use act_data::{DramTechnology, HddModel, ProcessNode, SsdTechnology};
use act_rng::Rng;

/// The seven scalar (non-storage) axes, in a fixed order for masking.
const SCALAR_AXES: [FreeAxis; 7] = [
    FreeAxis::ExecutionTime,
    FreeAxis::Lifetime,
    FreeAxis::SocArea,
    FreeAxis::UseIntensity,
    FreeAxis::FabIntensity,
    FreeAxis::FabYield,
    FreeAxis::Energy,
];

/// Randomized cases per property — each derives its params, mask and point
/// from one seeded stream, so failures replay exactly.
const CASES: u64 = 64;

/// Draws `ModelParams` strictly inside Table 1's valid ranges, with 0–2
/// entries per storage population.
fn draw_params(rng: &mut Rng) -> ModelParams {
    let node = ProcessNode::ALL[rng.gen_range(0..ProcessNode::ALL.len())];
    let storage_len = |rng: &mut Rng| rng.gen_range(0..3_usize);
    let dram = (0..storage_len(rng))
        .map(|_| {
            let i = rng.gen_range(0..DramTechnology::ALL.len());
            (DramTechnology::ALL[i], rng.gen_range(0.0..2048.0))
        })
        .collect();
    let ssd = (0..storage_len(rng))
        .map(|_| {
            let i = rng.gen_range(0..SsdTechnology::ALL.len());
            (SsdTechnology::ALL[i], rng.gen_range(0.0..4096.0))
        })
        .collect();
    let hdd = (0..storage_len(rng))
        .map(|_| {
            let i = rng.gen_range(0..HddModel::ALL.len());
            (HddModel::ALL[i], rng.gen_range(0.0..8192.0))
        })
        .collect();
    ModelParams {
        execution_time_s: rng.gen_range(0.0..1e6),
        lifetime_years: rng.gen_range(0.1..50.0),
        packaged_ic_count: rng.gen_range(0..8_u32),
        soc_area_mm2: rng.gen_range(0.0..1500.0),
        process_node: node,
        use_intensity_g_per_kwh: rng.gen_range(0.0..2000.0),
        fab_intensity_g_per_kwh: rng.gen_range(0.0..2000.0),
        fab_yield: rng.gen_range(0.05..1.0),
        dram,
        ssd,
        hdd,
        energy_j: rng.gen_range(0.0..1e9),
    }
}

/// Selects a subset of the axes available for `params` from the bits of
/// `mask`: seven scalar axes first, then one capacity axis per storage
/// population entry.
fn free_axes(params: &ModelParams, mask: u32) -> Vec<FreeAxis> {
    let mut axes = Vec::new();
    let mut bit = 0u32;
    let mut take = |axis: FreeAxis| {
        if mask & (1 << bit) != 0 {
            axes.push(axis);
        }
        bit += 1;
    };
    for axis in SCALAR_AXES {
        take(axis);
    }
    for k in 0..params.dram.len() {
        take(FreeAxis::DramCapacity(k));
    }
    for k in 0..params.ssd.len() {
        take(FreeAxis::SsdCapacity(k));
    }
    for k in 0..params.hdd.len() {
        take(FreeAxis::HddCapacity(k));
    }
    axes
}

/// Maps a unit draw `u ∈ [0, 1)` onto a valid coordinate for `axis`.
fn coordinate(axis: FreeAxis, u: f64) -> f64 {
    match axis {
        FreeAxis::ExecutionTime => u * 1e6,
        FreeAxis::Lifetime => 0.1 + u * 49.0,
        FreeAxis::SocArea => u * 1500.0,
        FreeAxis::UseIntensity | FreeAxis::FabIntensity => u * 2000.0,
        FreeAxis::FabYield => 0.05 + u * 0.95,
        FreeAxis::Energy => u * 1e9,
        FreeAxis::DramCapacity(_) | FreeAxis::SsdCapacity(_) | FreeAxis::HddCapacity(_) => {
            u * 4096.0
        }
    }
}

/// Draws an in-range point for `axes` from the case's unit-draw stream.
fn draw_point(rng: &mut Rng, axes: &[FreeAxis]) -> Vec<f64> {
    axes.iter().map(|axis| coordinate(*axis, rng.gen::<f64>())).collect()
}

/// The interpreted oracle: substitute the point into a clone of `params`
/// field-by-field, then run the full per-point pipeline.
fn oracle(params: &ModelParams, axes: &[FreeAxis], point: &[f64]) -> f64 {
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
    substituted.try_footprint().expect("substituted params stay valid").as_grams()
}

/// The headline property: any axis subset, any in-range point — compiled
/// and interpreted paths agree to the last bit.
#[test]
fn compiled_eval_matches_try_footprint_bitwise() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(act_rng::split_seed(0xC0DE, case));
        let params = draw_params(&mut rng);
        let mask: u32 = rng.gen();
        let axes = free_axes(&params, mask);
        let kernel = match CompiledFootprint::try_compile(&params, &axes) {
            Ok(kernel) => kernel,
            Err(err) => panic!("case {case}: valid params must compile: {err}"),
        };
        assert_eq!(kernel.arity(), axes.len());
        assert_eq!(kernel.axes(), axes.as_slice());
        let point = draw_point(&mut rng, &axes);
        let compiled = kernel.eval(&point);
        let interpreted = oracle(&params, &axes, &point);
        assert_eq!(
            compiled.to_bits(),
            interpreted.to_bits(),
            "case {case}, axes {axes:?}: compiled {compiled} vs interpreted {interpreted}"
        );
    }
}

/// Arity-zero kernels fold the whole model into one constant equal to the
/// oracle's result for the baseline.
#[test]
fn fully_folded_kernel_matches_baseline_footprint() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(act_rng::split_seed(0xF01D, case));
        let params = draw_params(&mut rng);
        let kernel = match CompiledFootprint::try_compile(&params, &[]) {
            Ok(kernel) => kernel,
            Err(err) => panic!("case {case}: valid params must compile: {err}"),
        };
        let baseline = params.try_footprint().expect("valid params evaluate").as_grams();
        assert_eq!(kernel.eval(&[]).to_bits(), baseline.to_bits(), "case {case}");
    }
}

/// `try_eval` never disagrees with `eval` on in-range points.
#[test]
fn try_eval_agrees_with_eval_on_valid_points() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(act_rng::split_seed(0x7E57, case));
        let params = draw_params(&mut rng);
        let mask: u32 = rng.gen();
        let axes = free_axes(&params, mask);
        let kernel = match CompiledFootprint::try_compile(&params, &axes) {
            Ok(kernel) => kernel,
            Err(err) => panic!("case {case}: valid params must compile: {err}"),
        };
        let point = draw_point(&mut rng, &axes);
        let unchecked = kernel.eval(&point);
        match kernel.try_eval(&point) {
            Ok(checked) => assert_eq!(checked.to_bits(), unchecked.to_bits(), "case {case}"),
            // `try_eval` additionally rejects non-finite totals; `eval`
            // must then have produced exactly such a value.
            Err(_) => assert!(!unchecked.is_finite(), "case {case}"),
        }
    }
}
