//! Determinism and equivalence properties of the parallel evaluation
//! engine: `par_sweep == sweep`, parallel-vs-serial Monte-Carlo bitwise
//! equality, and the skyline `pareto_indices` against the quadratic
//! reference oracle.
//!
//! The properties are driven from seeded `act_rng` streams, so the
//! hermetic std-only workspace pins them reproducibly.

use act_dse::{
    monte_carlo, par_monte_carlo_with, par_sweep_finite_with, par_sweep_with,
    par_try_monte_carlo_with, par_try_sweep_with, pareto_indices, pareto_indices_reference,
    sweep, sweep_finite, try_monte_carlo, try_sweep, Parallelism,
};
use act_rng::Rng;

fn threads(n: usize) -> Parallelism {
    Parallelism::threads(n)
}

/// Input sizes covering empty, singleton, sub-worker and multi-chunk runs.
const SIZES: [usize; 5] = [0, 1, 7, 64, 200];

/// Worker counts covering serial, two-way and oversubscribed pools.
const WORKERS: [usize; 4] = [1, 2, 5, 8];

/// A seeded vector of uniform draws in `lo..hi`.
fn draws(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn par_sweep_equals_serial_sweep() {
    let model = |x: &f64| x.mul_add(3.0, 1.0).abs().sqrt();
    for (i, n) in SIZES.into_iter().enumerate() {
        let params = draws(i as u64, n, -1e6, 1e6);
        let serial = sweep(params.clone(), model);
        for workers in WORKERS {
            let parallel = par_sweep_with(threads(workers), params.clone(), model);
            assert_eq!(serial, parallel, "n={n}, workers={workers}");
        }
    }
}

#[test]
fn par_try_sweep_equals_serial_try_sweep() {
    let model = |x: &i64| {
        if x % 7 == 0 {
            Err(format!("multiple of seven: {x}"))
        } else {
            Ok(x * x)
        }
    };
    for (i, n) in SIZES.into_iter().enumerate() {
        let mut rng = Rng::seed_from_u64(100 + i as u64);
        #[allow(clippy::cast_possible_wrap)]
        let params: Vec<i64> = (0..n).map(|_| rng.gen_range(0..200_u64) as i64 - 100).collect();
        let serial = try_sweep(params.clone(), model);
        for workers in WORKERS {
            let parallel = par_try_sweep_with(threads(workers), params.clone(), model);
            assert_eq!(serial.results, parallel.results, "n={n}, workers={workers}");
            assert_eq!(serial.rejected, parallel.rejected, "n={n}, workers={workers}");
        }
    }
}

#[test]
fn par_sweep_finite_equals_serial_sweep_finite() {
    // Poles at 0 produce infinities that must be rejected identically;
    // inject exact zeros so the rejection path is always exercised.
    let model = |x: &f64| 1.0 / x;
    for (i, n) in SIZES.into_iter().enumerate() {
        let mut params = draws(200 + i as u64, n, -10.0, 10.0);
        for slot in params.iter_mut().step_by(5) {
            *slot = 0.0;
        }
        let serial = sweep_finite(params.clone(), model);
        for workers in WORKERS {
            let parallel = par_sweep_finite_with(threads(workers), params.clone(), model);
            assert_eq!(serial.results, parallel.results, "n={n}, workers={workers}");
            assert_eq!(serial.rejected, parallel.rejected, "n={n}, workers={workers}");
        }
    }
}

#[test]
fn par_monte_carlo_is_bitwise_thread_count_invariant() {
    let model = |rng: &mut Rng| {
        let y: f64 = rng.gen_range(0.5..1.5);
        1370.0 / y
    };
    for seed in [0, 1, 0xDEAD_BEEF, u64::MAX] {
        for samples in [1, 2, 63, 500, 2999] {
            let serial = par_monte_carlo_with(Parallelism::Serial, samples, seed, model);
            for workers in [2, 3, 8] {
                let parallel = par_monte_carlo_with(threads(workers), samples, seed, model);
                // PartialEq on McStats is f64 equality — bit-for-bit stats.
                assert_eq!(
                    serial, parallel,
                    "seed={seed}, samples={samples}, workers={workers}"
                );
            }
        }
    }
}

#[test]
fn par_try_monte_carlo_is_bitwise_thread_count_invariant() {
    let model = |rng: &mut Rng| {
        let y: f64 = rng.gen_range(-0.2..1.0);
        1.0 / y.max(0.0)
    };
    for seed in [7, 0xAC70, u64::MAX - 1] {
        for samples in [1, 64, 1000] {
            let serial = par_try_monte_carlo_with(Parallelism::Serial, samples, seed, model);
            for workers in [2, 5, 8] {
                let parallel = par_try_monte_carlo_with(threads(workers), samples, seed, model);
                assert_eq!(
                    serial, parallel,
                    "seed={seed}, samples={samples}, workers={workers}"
                );
            }
        }
    }
}

#[test]
fn serial_apis_unchanged_by_engine() {
    // The legacy single-RNG entry points still agree with themselves
    // run-to-run (regression guard for the shared-RNG schedule).
    let model = |rng: &mut Rng| rng.gen_range(0.0..1.0);
    for seed in [0, 42, u64::MAX] {
        for samples in [1, 17, 500] {
            assert_eq!(monte_carlo(samples, seed, model), monte_carlo(samples, seed, model));
            let a = try_monte_carlo(samples, seed, model);
            let b = try_monte_carlo(samples, seed, model);
            assert_eq!(a, b, "seed={seed}, samples={samples}");
        }
    }
}

/// A seeded `n × dims` point cloud in `[lo, hi)`.
fn cloud(seed: u64, n: usize, dims: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| (0..dims).map(|_| rng.gen_range(lo..hi)).collect()).collect()
}

#[test]
fn pareto_skyline_matches_quadratic_oracle_2d() {
    for (seed, n) in [(0, 0), (1, 1), (2, 13), (3, 60), (4, 120)] {
        let points = cloud(seed, n, 2, -5.0, 5.0);
        assert_eq!(
            pareto_indices(&points),
            pareto_indices_reference(&points),
            "seed={seed}, n={n}"
        );
    }
}

#[test]
fn pareto_skyline_matches_quadratic_oracle_kd() {
    for dims in 1..5 {
        for n in [0, 1, 20, 80] {
            let points = cloud(1000 + dims as u64, n, dims, -3.0, 3.0);
            assert_eq!(
                pareto_indices(&points),
                pareto_indices_reference(&points),
                "dims={dims}, n={n}"
            );
        }
    }
}

#[test]
fn pareto_skyline_keeps_duplicates_like_oracle() {
    for (seed, base_n, dupes) in [(7, 1, 1), (8, 10, 2), (9, 39, 3)] {
        // Duplicate a prefix of the cloud so exact ties are guaranteed.
        let base = cloud(seed, base_n, 2, 0.0, 2.0);
        let mut points = base.clone();
        for _ in 0..dupes {
            points.extend(base.iter().take(3).cloned());
        }
        assert_eq!(
            pareto_indices(&points),
            pareto_indices_reference(&points),
            "seed={seed}, base_n={base_n}, dupes={dupes}"
        );
    }
}

#[test]
fn pareto_skyline_handles_discrete_grids() {
    // Integer-valued coordinates force heavy tie/duplicate pressure.
    for (seed, n) in [(20, 10), (21, 35), (22, 60)] {
        let mut rng = Rng::seed_from_u64(seed);
        let points: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| f64::from(rng.gen_range(0..4_u32))).collect())
            .collect();
        assert_eq!(
            pareto_indices(&points),
            pareto_indices_reference(&points),
            "seed={seed}, n={n}"
        );
    }
}

#[test]
fn pareto_nan_and_signed_zero_edge_cases_match_reference() {
    let clouds: Vec<Vec<Vec<f64>>> = vec![
        vec![vec![f64::NAN, 0.0], vec![0.0, 0.0], vec![1.0, 1.0]],
        vec![vec![-0.0, 0.0], vec![0.0, -0.0], vec![0.0, 0.0]],
        vec![vec![f64::INFINITY, 1.0], vec![1.0, f64::INFINITY], vec![2.0, 2.0]],
        vec![vec![f64::NEG_INFINITY, 5.0], vec![0.0, 5.0]],
    ];
    for cloud in clouds {
        assert_eq!(pareto_indices(&cloud), pareto_indices_reference(&cloud), "cloud {cloud:?}");
    }
}

#[test]
fn one_dimensional_oracle_including_ties() {
    let points: Vec<Vec<f64>> =
        [3.0, 1.0, 2.0, 1.0, 1.0, 9.0].iter().map(|&v| vec![v]).collect();
    assert_eq!(pareto_indices(&points), pareto_indices_reference(&points));
    assert_eq!(pareto_indices(&points), vec![1, 3, 4]);
}
