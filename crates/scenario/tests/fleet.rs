//! Fleet Monte-Carlo contract tests: thread-count bit-identity, the
//! point-distribution ↔ single-device consistency law, rejection
//! accounting, deadline prefix determinism, the summarize contract, and
//! compile-time validation of fleet blocks.

use std::time::{Duration, Instant};

use act_dse::{BatchRun, EvalBudget, McBuffer, McError};
use act_scenario::{Scenario, ScenarioError};

/// A phone-class scenario with genuinely random distributions.
fn fleet_doc() -> &'static str {
    r#"{
        "name": "handset fleet",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 98.5, "count": 1}],
        "dram": [{"technology": "Lpddr4", "capacity_gb": 4.0}],
        "ssd": [{"technology": "V3NandTlc", "capacity_gb": 64.0}],
        "packaged_ic_count": 30,
        "workload": {
            "power_w": 2.5, "utilization": 0.15,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 301.0
        },
        "fleet": {
            "devices": 1000000, "samples": 4096, "seed": 7,
            "lifetime_years": {"dist": "triangular", "low": 1.0, "mode": 3.0, "high": 6.0},
            "use_intensity_g_per_kwh": {"dist": "normal", "mean": 301.0, "std_dev": 80.0},
            "utilization": {"dist": "uniform", "low": 0.05, "high": 0.3}
        }
    }"#
}

/// Sharding is a scheduling decision, never a numerical one: the serial
/// and 8-thread runs agree on every statistic and every draw, bit for
/// bit.
#[test]
fn fleet_outcome_is_bit_identical_across_thread_counts() {
    let compiled = Scenario::parse(fleet_doc()).expect("parse").compile().expect("compile");
    let fleet = compiled.fleet().expect("fleet block");
    let budget = EvalBudget::unlimited();

    let mut serial_buf = McBuffer::new();
    let (serial, run) = fleet.run(1, &mut serial_buf, &budget).expect("serial run");
    assert_eq!(run, BatchRun::Completed);

    let mut par_buf = McBuffer::new();
    let (par, run) = fleet.run(8, &mut par_buf, &budget).expect("parallel run");
    assert_eq!(run, BatchRun::Completed);

    assert_eq!(serial.stats.mean.to_bits(), par.stats.mean.to_bits());
    assert_eq!(serial.stats.p05.to_bits(), par.stats.p05.to_bits());
    assert_eq!(serial.stats.p50.to_bits(), par.stats.p50.to_bits());
    assert_eq!(serial.stats.p95.to_bits(), par.stats.p95.to_bits());
    assert_eq!(serial.stats.samples, par.stats.samples);
    assert_eq!(serial.rejected, par.rejected);
    assert_eq!(serial_buf.draws().len(), par_buf.draws().len());
    for (i, (a, b)) in serial_buf.draws().iter().zip(par_buf.draws()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "draw {i} diverged: {a} vs {b}"
        );
    }
    // The fleet total scales the per-device mean; with a million devices
    // it must dwarf a single handset's footprint.
    assert!(fleet.fleet_total_grams(&serial) > serial.stats.mean * 1e5);
}

/// Point distributions pin every draw to the workload's values, so each
/// Monte-Carlo sample reproduces the single-device footprint exactly —
/// the fleet path and the device path are the same kernel.
#[test]
fn point_distributions_reproduce_the_device_footprint_bitwise() {
    let doc = r#"{
        "name": "degenerate fleet",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 98.5, "count": 1}],
        "packaged_ic_count": 30,
        "workload": {
            "power_w": 2.5, "utilization": 0.15,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 301.0
        },
        "fleet": {
            "devices": 50, "samples": 257, "seed": 1,
            "lifetime_years": {"dist": "point", "value": 3.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 301.0},
            "utilization": {"dist": "point", "value": 0.15}
        }
    }"#;
    let compiled = Scenario::parse(doc).expect("parse").compile().expect("compile");
    let device = compiled.device().expect("device footprint");
    let fleet = compiled.fleet().expect("fleet block");

    let mut buf = McBuffer::new();
    let (outcome, _) = fleet.run(1, &mut buf, &EvalBudget::unlimited()).expect("run");
    assert_eq!(outcome.rejected, 0);
    for (i, draw) in buf.draws().iter().enumerate() {
        assert_eq!(
            draw.to_bits(),
            device.total_g.to_bits(),
            "sample {i} diverged from the device footprint"
        );
    }
}

/// Out-of-range draws (a wide normal's tail) are counted as rejections;
/// the surviving statistics stay finite.
#[test]
fn out_of_range_draws_are_rejected_not_poisoned() {
    let doc = r#"{
        "name": "noisy fleet",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "workload": {
            "power_w": 1.0, "utilization": 0.5,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 300.0
        },
        "fleet": {
            "devices": 10, "samples": 2048, "seed": 42,
            "lifetime_years": {"dist": "normal", "mean": 3.0, "std_dev": 10.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let compiled = Scenario::parse(doc).expect("parse").compile().expect("compile");
    let fleet = compiled.fleet().expect("fleet block");
    let mut buf = McBuffer::new();
    let (outcome, _) = fleet.run(1, &mut buf, &EvalBudget::unlimited()).expect("run");
    assert!(outcome.rejected > 0, "a std_dev-10 normal must throw tails outside [0.1, 50]");
    assert!(outcome.stats.samples + outcome.rejected == 2048);
    for stat in [outcome.stats.mean, outcome.stats.p05, outcome.stats.p50, outcome.stats.p95] {
        assert!(stat.is_finite());
    }
}

/// A distribution whose entire support is out of range rejects every
/// draw and surfaces as the typed `AllRejected` error, never a panic.
#[test]
fn fully_out_of_range_support_is_all_rejected() {
    let doc = r#"{
        "name": "broken fleet",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "workload": {
            "power_w": 1.0, "utilization": 0.5,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 300.0
        },
        "fleet": {
            "devices": 10, "samples": 64, "seed": 3,
            "lifetime_years": {"dist": "point", "value": 100.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let compiled = Scenario::parse(doc).expect("parse").compile().expect("compile");
    let fleet = compiled.fleet().expect("fleet block");
    let mut buf = McBuffer::new();
    let err = fleet.run(1, &mut buf, &EvalBudget::unlimited()).expect_err("must reject all");
    assert!(matches!(err, McError::AllRejected { rejected: 64 }), "got {err:?}");
}

/// A deadline that expires mid-run completes a prefix, and that prefix
/// is bitwise identical to the unlimited run — the budget changes how
/// far we get, never what we compute.
#[test]
fn deadline_cutoff_yields_a_bitwise_prefix() {
    let doc = fleet_doc().replace("\"samples\": 4096", "\"samples\": 400000");
    let compiled = Scenario::parse(&doc).expect("parse").compile().expect("compile");
    let fleet = compiled.fleet().expect("fleet block");

    let mut reference = McBuffer::new();
    let (_, run) = fleet.run(1, &mut reference, &EvalBudget::unlimited()).expect("reference");
    assert_eq!(run, BatchRun::Completed);

    let deadline = Instant::now() + Duration::from_micros(500);
    let budget = EvalBudget::with_deadline(deadline).check_every(64);
    let mut clipped = McBuffer::new();
    match fleet.run(1, &mut clipped, &budget) {
        Ok((outcome, run)) => {
            let completed = match run {
                BatchRun::Completed => 400_000,
                BatchRun::DeadlineExceeded { completed } => completed,
            };
            assert_eq!(outcome.stats.samples + outcome.rejected, completed);
            for (i, (got, want)) in
                clipped.draws().iter().zip(&reference.draws()[..completed]).enumerate()
            {
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "prefix diverged at sample {i}"
                );
            }
        }
        // The deadline can expire before the first block on a loaded
        // machine; that is the documented NoSamples path, not a failure.
        Err(McError::NoSamples) => {}
        Err(other) => panic!("unexpected error: {other:?}"),
    }
}

/// The summarize contract, re-derived from the draws a run leaves in its
/// buffer: `rejected` counts the NaN slots, the mean is bitwise the
/// draw-order sum of the finite draws, and each percentile is bitwise the
/// nearest-rank element of a `total_cmp`-sorted copy.
fn assert_summary_matches_draws(outcome: &act_dse::McOutcome, draws: &[f64]) {
    let finite: Vec<f64> = draws.iter().copied().filter(|v| v.is_finite()).collect();
    assert!(draws.iter().all(|v| v.is_finite() || v.is_nan()), "rejections are stored as NaN");
    assert_eq!(outcome.rejected, draws.len() - finite.len());
    assert_eq!(outcome.stats.samples, finite.len());
    let n = finite.len();
    let mean = finite.iter().sum::<f64>() / n as f64;
    assert_eq!(outcome.stats.mean.to_bits(), mean.to_bits(), "mean is the draw-order sum");
    let mut sorted = finite;
    sorted.sort_by(f64::total_cmp);
    let rank = |q: f64| sorted[((n - 1) as f64 * q).round() as usize].to_bits();
    assert_eq!(outcome.stats.p05.to_bits(), rank(0.05), "p05");
    assert_eq!(outcome.stats.p50.to_bits(), rank(0.5), "p50");
    assert_eq!(outcome.stats.p95.to_bits(), rank(0.95), "p95");
}

/// Serial, pooled and deadline-cut runs all reduce their draws by the
/// same O(n) contract, with rejected draws interleaved among the finite
/// ones.
#[test]
fn summary_is_the_draw_order_mean_and_nearest_rank_percentiles() {
    // A std_dev-2 normal lifetime throws a few percent of its draws below
    // the 0.1-year floor, scattered through the run.
    let doc = fleet_doc().replace("\"samples\": 4096", "\"samples\": 200000").replace(
        r#"{"dist": "triangular", "low": 1.0, "mode": 3.0, "high": 6.0}"#,
        r#"{"dist": "normal", "mean": 3.0, "std_dev": 2.0}"#,
    );
    let compiled = Scenario::parse(&doc).expect("parse").compile().expect("compile");
    let fleet = compiled.fleet().expect("fleet block");
    let unlimited = EvalBudget::unlimited();

    let mut serial_buf = McBuffer::new();
    let (serial, _) = fleet.run(1, &mut serial_buf, &unlimited).expect("serial run");
    let draws = serial_buf.draws();
    let first_nan = draws.iter().position(|v| v.is_nan()).expect("some rejections");
    let last_nan = draws.iter().rposition(|v| v.is_nan()).expect("some rejections");
    assert!(
        draws[..first_nan].iter().any(|v| v.is_finite()),
        "finite draws before a rejection"
    );
    assert!(draws[last_nan..].iter().any(|v| v.is_finite()), "finite draws after a rejection");
    assert_summary_matches_draws(&serial, draws);

    let mut pooled_buf = McBuffer::new();
    let (pooled, _) = fleet.run(4, &mut pooled_buf, &unlimited).expect("pooled run");
    assert_summary_matches_draws(&pooled, pooled_buf.draws());

    let deadline = Instant::now() + Duration::from_micros(500);
    let budget = EvalBudget::with_deadline(deadline).check_every(64);
    let mut clipped = McBuffer::new();
    match fleet.run(1, &mut clipped, &budget) {
        Ok((outcome, _)) => assert_summary_matches_draws(&outcome, clipped.draws()),
        // The deadline can expire before the first block on a loaded
        // machine; that is the documented NoSamples path, not a failure.
        Err(McError::NoSamples) => {}
        Err(other) => panic!("unexpected error: {other:?}"),
    }
}

/// Fleet blocks are rejected at compile time without a workload and with
/// malformed distributions.
#[test]
fn fleet_validation_rejects_bad_blocks_with_typed_errors() {
    let no_workload = r#"{
        "name": "x",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "fleet": {
            "devices": 10, "samples": 64,
            "lifetime_years": {"dist": "point", "value": 3.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let err = Scenario::parse(no_workload).expect("parse").compile().expect_err("no workload");
    assert!(matches!(err, ScenarioError::Invalid { field: "fleet", .. }), "{err}");

    let bad_dist = r#"{
        "name": "x",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "workload": {
            "power_w": 1.0, "utilization": 0.5,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 300.0
        },
        "fleet": {
            "devices": 10, "samples": 64,
            "lifetime_years": {"dist": "triangular", "low": 5.0, "mode": 2.0, "high": 1.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let err = Scenario::parse(bad_dist).expect("parse").compile().expect_err("bad triangular");
    assert!(
        matches!(err, ScenarioError::Invalid { field: "fleet.lifetime_years", .. }),
        "{err}"
    );

    let zero_samples = r#"{
        "name": "x",
        "chips": [{"name": "SoC", "node": "N7", "area_mm2": 50.0, "count": 1}],
        "packaged_ic_count": 8,
        "workload": {
            "power_w": 1.0, "utilization": 0.5,
            "lifetime_years": 3.0, "use_intensity_g_per_kwh": 300.0
        },
        "fleet": {
            "devices": 10, "samples": 0,
            "lifetime_years": {"dist": "point", "value": 3.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }
    }"#;
    let err =
        Scenario::parse(zero_samples).expect("parse").compile().expect_err("zero samples");
    assert!(matches!(err, ScenarioError::Invalid { field: "fleet.samples", .. }), "{err}");
}
