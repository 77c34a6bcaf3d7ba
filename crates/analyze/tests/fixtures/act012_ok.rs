//! ACT012 negative fixture: parallel work routed through the pool API,
//! plus a test-gated raw spawn (tests are exempt).

use act_dse::{par_map_range, Parallelism};

/// The sanctioned path: the pool engine decides the worker count.
pub fn fan_out(xs: Vec<f64>) -> Vec<f64> {
    par_map_range(Parallelism::Auto, xs.len(), |i| xs[i] * 2.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn raw_spawns_are_fine_in_tests() {
        let handle = std::thread::spawn(|| 2 + 2);
        assert_eq!(handle.join().unwrap(), 4);
    }
}
