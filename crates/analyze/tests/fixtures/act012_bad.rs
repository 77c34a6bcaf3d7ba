//! ACT012 positive fixture: a library crate spawning raw threads instead
//! of going through the `act_dse` worker pool.

/// Fans a reduction out onto an ad-hoc thread — pool bypass.
pub fn fan_out(xs: Vec<f64>) -> f64 {
    let handle = std::thread::spawn(move || xs.iter().sum::<f64>());
    match handle.join() {
        Ok(total) => total,
        Err(_) => 0.0,
    }
}

/// Scoped flavor of the same bypass.
pub fn scoped_sum(xs: &[f64]) -> f64 {
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| xs.iter().sum::<f64>());
        match handle.join() {
            Ok(total) => total,
            Err(_) => 0.0,
        }
    })
}
