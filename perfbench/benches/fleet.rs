//! `fleet-mc`: the server-class fleet document of `act fleet-bench`
//! (triangular lifetime, normal grid intensity, uniform utilization),
//! parsed, compiled and run through `FleetKernel::run` over 2,097,152
//! samples on the thread count `Parallelism::Auto` resolves, as
//! `act fleet` does.
//!
//! Oracle: every run's `McStats` and `rejected` count are bit-identical
//! to a serial run of the same document made at set-up (the
//! thread-invariance contract).

use crate::adapter::{self, FleetDraws, McScratch, McSummary};
use crate::common::{median, ms, tail, timed, timed_batches, vm_hwm_mb, InputRng, Report};
use crate::engine::EngineRecord;
use crate::trace::setup_probes;
use crate::Ctx;

/// Samples per fleet run: above the 1,048,576-point calibration clamp, so
/// Auto's parallel decision cannot flip between runs.
pub const SAMPLES: usize = 2_097_152;

/// Device power in the fleet document, W.
pub const POWER_W: f64 = 350.0;

/// Distinct documents per run; each op cycles through them.
const DOCS: usize = 2;

pub struct FleetDoc {
    pub text: String,
    pub draws: FleetDraws,
    pub seed: u64,
}

/// A seeded variant of the `act fleet-bench` document with `samples`
/// Monte-Carlo samples.
pub fn fleet_doc(rng: &mut InputRng, samples: usize) -> FleetDoc {
    let draws = FleetDraws {
        lifetime_tri: (rng.range(1.8, 2.2), rng.range(3.7, 4.3), rng.range(6.7, 7.3)),
        intensity_normal: (rng.range(360.0, 400.0), rng.range(55.0, 65.0)),
        utilization_uniform: (rng.range(0.25, 0.35), rng.range(0.85, 0.95)),
    };
    let seed = rng.next_u64() >> 16;
    let (lo, mode, hi) = draws.lifetime_tri;
    let (mean, sd) = draws.intensity_normal;
    let (ulo, uhi) = draws.utilization_uniform;
    let text = format!(
        r#"{{
  "name": "fleet-bench (server class)",
  "chips": [
    {{"name": "Xeon CPUs", "node": "N14", "area_mm2": 1388.0, "count": 2}},
    {{"name": "Chipset + NICs + BMC", "node": "N28", "area_mm2": 400.0, "count": 6}}
  ],
  "dram": [{{"technology": "Ddr4_10nm", "capacity_gb": 576.0}}],
  "ssd": [{{"technology": "V3NandTlc", "capacity_gb": 31744.0}}],
  "packaged_ic_count": 40,
  "workload": {{
    "power_w": {POWER_W:?}, "utilization": 0.6,
    "lifetime_years": 4.0, "use_intensity_g_per_kwh": 380.0
  }},
  "fleet": {{
    "devices": 100000, "samples": {samples}, "seed": {seed},
    "lifetime_years": {{"dist": "triangular", "low": {lo}, "mode": {mode}, "high": {hi}}},
    "use_intensity_g_per_kwh": {{"dist": "normal", "mean": {mean}, "std_dev": {sd}}},
    "utilization": {{"dist": "uniform", "low": {ulo}, "high": {uhi}}}
  }}
}}"#
    );
    FleetDoc { text, draws, seed }
}

/// One fleet operation: parse + compile + run on `threads` threads.
pub fn fleet_op(
    doc: &str,
    threads: usize,
    scratch: &mut McScratch,
) -> Result<McSummary, String> {
    let model = adapter::scenario_compile(doc)?;
    adapter::fleet_run(&model, threads, scratch)
}

/// The documents and their serial oracles.
pub fn prepare(
    seed: u64,
    samples: usize,
    docs: usize,
) -> Result<Vec<(FleetDoc, McSummary)>, String> {
    let mut rng = InputRng::new(seed, 0xF1EE7);
    let mut scratch = McScratch::default();
    (0..docs)
        .map(|_| {
            let doc = fleet_doc(&mut rng, samples);
            let oracle = fleet_op(&doc.text, 1, &mut scratch)?;
            Ok((doc, oracle))
        })
        .collect()
}

pub fn run(ctx: &Ctx, report: &mut Report, engine: &mut EngineRecord) -> Result<(), String> {
    let (setup, thresholds) = setup_probes(7)?;
    engine.probe_thresholds = thresholds;
    let ((), own_setup) = timed(|| {
        adapter::calibration();
    });
    engine.record(&[SAMPLES]);
    let threads = adapter::auto_decision(SAMPLES).workers;
    let docs = prepare(ctx.seed, SAMPLES, DOCS)?;

    let mut scratch = McScratch::default();
    // One untimed warm-up op sizes the sample buffers.
    let _ = fleet_op(&docs[0].0.text, threads, &mut scratch);
    let times: Vec<f64> = timed_batches(ctx.seconds, 1, |i| {
        let (doc, oracle) = &docs[i % docs.len()];
        let (result, dt) = timed(|| fleet_op(&doc.text, threads, &mut scratch));
        report.checked(matches!(&result, Ok(s) if s.same_bits(oracle)), || {
            format!("fleet-mc op {i}: {result:?} != serial oracle {oracle:?}")
        });
        dt
    })
    .into_iter()
    .map(|t| t.1)
    .collect();
    let total_s: f64 = times.iter().sum::<f64>() / 1e3;
    let (tail_ms, tail_pct) = tail(&times);
    report.put("setup_s", median(&setup), "s");
    report.put("op_p50_ms", median(&times), "ms");
    report.put("op_tail_ms", tail_ms, "ms");
    report.put("work_per_s", (SAMPLES * times.len()) as f64 / total_s, "1/s");
    report.put("peak_rss_mb", vm_hwm_mb("self").unwrap_or(f64::NAN), "MB");
    report.note(format!(
        "fleet-mc: {} ops of {SAMPLES} samples on {threads} threads; tail = p{tail_pct:.1}; \
         in-process first calibration {:.3} ms",
        times.len(),
        ms(own_setup)
    ));
    Ok(())
}
