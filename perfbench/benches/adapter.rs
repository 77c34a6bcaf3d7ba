//! The benchmark's only door into the repository's crates.
//!
//! Every library call the workloads and the traced run make goes through
//! this file, and only through surfaces the roadmap keeps:
//! `CompiledFootprint` / `EvalPlan`, `Scenario` / `FleetKernel`, the
//! block-path batch entry points, the `act_experiments` renderers, and
//! (from `service.rs`, over TCP) `act serve`. Nothing here touches
//! `act_core::memo`, the per-point `*_compiled` batch twins, or
//! `external-dev`. When those APIs are collapsed, this is the one
//! benchmark file to edit.

use act_core::{CompiledFootprint, EvalPlan, FreeAxis, ModelParams};
use act_dse::{
    monte_carlo_compiled_block_budgeted, par_sweep_compiled_block_with, sweep_compiled_block,
    BatchOutput, EvalBudget, McBuffer, Parallelism, PointBatch,
};
use act_json::{FromJson, JsonObject, JsonValue, ToJson};
use act_rng::Rng;
use act_scenario::{CompiledScenario, Scenario};

// ---------------------------------------------------------------------------
// Engine decisions (act-dse).
// ---------------------------------------------------------------------------

/// What `Parallelism::Auto` decided for one operation size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    pub points: usize,
    pub workers: usize,
    pub source: &'static str,
    pub machine: usize,
    pub decision: &'static str,
}

/// The process-wide break-even calibration: `(threshold, source)`. The
/// first call in a process measures it and starts the worker pool.
pub fn calibration() -> (usize, &'static str) {
    let cal = act_dse::calibration();
    (cal.threshold_points, cal.source.as_str())
}

/// `Parallelism::Auto` resolved for a batch of `points`.
pub fn auto_decision(points: usize) -> Decision {
    let resolved = Parallelism::Auto.resolve_for(points);
    Decision {
        points,
        workers: resolved.workers.min(points.max(1)),
        source: resolved.source.as_str(),
        machine: resolved.machine,
        decision: resolved.decision.as_str(),
    }
}

// ---------------------------------------------------------------------------
// Fleet Monte-Carlo (act-scenario over act-dse and act-rng).
// ---------------------------------------------------------------------------

/// Bit-comparable summary of one Monte-Carlo outcome.
#[derive(Clone, Copy, Debug)]
pub struct McSummary {
    pub mean: f64,
    pub p05: f64,
    pub p50: f64,
    pub p95: f64,
    pub samples: usize,
    pub rejected: usize,
}

impl McSummary {
    pub fn same_bits(&self, other: &Self) -> bool {
        self.mean.to_bits() == other.mean.to_bits()
            && self.p05.to_bits() == other.p05.to_bits()
            && self.p50.to_bits() == other.p50.to_bits()
            && self.p95.to_bits() == other.p95.to_bits()
            && self.samples == other.samples
            && self.rejected == other.rejected
    }

    fn from_outcome(outcome: &act_dse::McOutcome) -> Self {
        Self {
            mean: outcome.stats.mean,
            p05: outcome.stats.p05,
            p50: outcome.stats.p50,
            p95: outcome.stats.p95,
            samples: outcome.stats.samples,
            rejected: outcome.rejected,
        }
    }
}

/// A parsed and compiled scenario document.
pub struct ScenarioModel(CompiledScenario);

/// Reusable Monte-Carlo sample storage.
#[derive(Default)]
pub struct McScratch(McBuffer);

impl McScratch {
    /// The per-sample draws of the last run.
    pub fn draws(&self) -> &[f64] {
        self.0.draws()
    }
}

/// A parsed, not yet compiled, scenario document.
pub struct ParsedScenario(Scenario);

/// `Scenario::parse` alone.
pub fn scenario_parse(doc: &str) -> Result<ParsedScenario, String> {
    Scenario::parse(doc).map(ParsedScenario).map_err(|e| e.to_string())
}

/// `Scenario::compile` of a parsed document.
pub fn scenario_compile_parsed(parsed: &ParsedScenario) -> Result<ScenarioModel, String> {
    parsed.0.compile().map(ScenarioModel).map_err(|e| e.to_string())
}

/// `Scenario::parse` then `compile`.
pub fn scenario_compile(doc: &str) -> Result<ScenarioModel, String> {
    scenario_compile_parsed(&scenario_parse(doc)?)
}

/// `FleetKernel::run` on `threads` threads with an unlimited budget.
pub fn fleet_run(
    model: &ScenarioModel,
    threads: usize,
    scratch: &mut McScratch,
) -> Result<McSummary, String> {
    let fleet = model.0.fleet().ok_or("scenario has no fleet block")?;
    let (outcome, run) = fleet
        .run(threads, &mut scratch.0, &EvalBudget::unlimited())
        .map_err(|e| e.to_string())?;
    if !run.is_complete() {
        return Err("unlimited fleet run stopped early".to_owned());
    }
    Ok(McSummary::from_outcome(&outcome))
}

/// The same serial block Monte-Carlo entry point `FleetKernel::run` uses,
/// with the sampler and kernel held to a fixed copy of `values` (sample
/// `k` evaluates to `values[k]`). What remains is the engine's per-sample
/// seeding, the copy, and the reduce, which `trace.rs` separates by
/// difference.
pub fn mc_fixed_copy(
    values: &[f64],
    seed: u64,
    scratch: &mut McScratch,
) -> Result<McSummary, String> {
    let next = std::cell::Cell::new(0usize);
    let sampler = |_rng: &mut Rng, k: usize, columns: &mut [Vec<f64>]| {
        let i = next.get();
        next.set(i + 1);
        if let (Some(slot), Some(v)) = (columns[0].get_mut(k), values.get(i)) {
            *slot = *v;
        }
    };
    let kernel = |cols: &[&[f64]], range: std::ops::Range<usize>, out: &mut [f64]| {
        out.copy_from_slice(&cols[0][range]);
    };
    let (outcome, _) = monte_carlo_compiled_block_budgeted(
        values.len(),
        seed,
        1,
        sampler,
        kernel,
        &mut scratch.0,
        &EvalBudget::unlimited(),
    )
    .map_err(|e| e.to_string())?;
    Ok(McSummary::from_outcome(&outcome))
}

/// Parameters of the three per-device fleet draws, in draw order.
#[derive(Clone, Copy, Debug)]
pub struct FleetDraws {
    pub lifetime_tri: (f64, f64, f64),
    pub intensity_normal: (f64, f64),
    pub utilization_uniform: (f64, f64),
}

/// Seeds one RNG per sample exactly as the Monte-Carlo engine does
/// (`Rng::seed_from_u64(mc_sample_seed(seed, i))`) and draws nothing.
pub fn rng_seed_only(seed: u64, samples: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..samples {
        let mut rng = Rng::seed_from_u64(act_dse::mc_sample_seed(seed, i as u64));
        acc = acc.wrapping_add(rng.next_u64());
    }
    acc
}

/// The fleet's three draws for one sample, in the seed contract's order:
/// lifetime (triangular), grid intensity (normal), utilization (uniform).
fn fleet_draws(rng: &mut Rng, draws: &FleetDraws) -> (f64, f64, f64) {
    let (lo, mode, hi) = draws.lifetime_tri;
    let (mean, sd) = draws.intensity_normal;
    let (ulo, uhi) = draws.utilization_uniform;
    let l = act_dse::try_triangular(rng, lo, mode, hi).unwrap_or(f64::NAN);
    let ci = rng.normal_with(mean, sd);
    let u = rng.gen_range(ulo..uhi);
    (l, ci, u)
}

/// Per-sample seeding plus the fleet's three draws through the same
/// public act-rng / act-dse samplers.
pub fn rng_seed_and_draw(seed: u64, samples: usize, draws: &FleetDraws) -> f64 {
    let mut acc = 0.0;
    for i in 0..samples {
        let mut rng = Rng::seed_from_u64(act_dse::mc_sample_seed(seed, i as u64));
        let (l, ci, u) = fleet_draws(&mut rng, draws);
        acc += l + ci + u;
    }
    acc
}

/// Seeding, the three draws, and the `FleetKernel` sampler's range check
/// and column writes, replayed in bench code: sample `k` fills slot `k` of
/// the four `[execution time, lifetime, intensity, energy]` columns, which
/// are zeroed to `samples` first as the serial engine does.
pub fn rng_seed_draw_fill(
    seed: u64,
    draws: &FleetDraws,
    power_w: f64,
    columns: &mut [Vec<f64>; 4],
) {
    let samples = columns[0].len();
    for column in columns.iter_mut() {
        column.clear();
        column.resize(samples, 0.0);
    }
    for k in 0..samples {
        let mut rng = Rng::seed_from_u64(act_dse::mc_sample_seed(seed, k as u64));
        let (l, ci, u) = fleet_draws(&mut rng, draws);
        let valid = (0.1..=50.0).contains(&l)
            && (0.0..=2000.0).contains(&ci)
            && (0.0..=1.0).contains(&u);
        let point = if valid {
            let exec_s = l * act_units::SECONDS_PER_YEAR;
            [exec_s, l, ci, power_w * u * exec_s]
        } else {
            [f64::NAN; 4]
        };
        for (column, value) in columns.iter_mut().zip(point) {
            column[k] = value;
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled kernels and block sweeps (act-core, act-dse).
// ---------------------------------------------------------------------------

/// The four free axes of the dse-sweep grid, design axes first.
const SWEEP_AXES: [FreeAxis; 4] =
    [FreeAxis::SocArea, FreeAxis::FabYield, FreeAxis::Lifetime, FreeAxis::UseIntensity];

/// The axes of the fleet's per-device operational kernel.
const FLEET_AXES: [FreeAxis; 4] =
    [FreeAxis::ExecutionTime, FreeAxis::Lifetime, FreeAxis::UseIntensity, FreeAxis::Energy];

/// Which of the two axis sets to compile over.
#[derive(Clone, Copy)]
pub enum Axes {
    Sweep,
    Fleet,
}

/// A compiled mobile-reference kernel.
pub struct Kernel(CompiledFootprint);

/// A kernel lowered to its block plan.
pub struct Plan(EvalPlan);

/// `CompiledFootprint::try_compile` of `ModelParams::mobile_reference()`.
pub fn compile_reference(axes: Axes) -> Result<Kernel, String> {
    let axes: &[FreeAxis] = match axes {
        Axes::Sweep => &SWEEP_AXES,
        Axes::Fleet => &FLEET_AXES,
    };
    CompiledFootprint::try_compile(&ModelParams::mobile_reference(), axes)
        .map(Kernel)
        .map_err(|e| e.to_string())
}

pub fn plan(kernel: &Kernel) -> Plan {
    Plan(kernel.0.plan())
}

/// The scalar oracle: `CompiledFootprint::eval` on one point.
pub fn eval_scalar(kernel: &Kernel, point: &[f64]) -> f64 {
    kernel.0.eval(point)
}

/// A direct `EvalPlan::eval_block` call over all of `columns`.
pub fn eval_block(plan: &Plan, columns: &[&[f64]], out: &mut [f64]) {
    plan.0.eval_block(columns, 0..out.len(), out);
}

/// A structure-of-arrays point batch.
pub struct Grid(PointBatch);

pub fn grid(columns: Vec<Vec<f64>>) -> Result<Grid, String> {
    PointBatch::try_from_columns(columns).map(Grid).map_err(|e| e.to_string())
}

impl Grid {
    pub fn columns(&self) -> Vec<&[f64]> {
        self.0.column_slices()
    }
}

/// Reusable sweep output.
#[derive(Default)]
pub struct SweepOut(BatchOutput);

impl SweepOut {
    pub fn values(&self) -> &[f64] {
        self.0.values()
    }

    pub fn rejected(&self) -> usize {
        self.0.rejected_count()
    }
}

/// A block sweep of `plan` over `grid`: serial (`sweep_compiled_block`) or
/// under `Parallelism::Auto` (`par_sweep_compiled_block_with`).
pub fn block_sweep(plan: &Plan, grid: &Grid, parallel: bool, out: &mut SweepOut) {
    let kernel = |cols: &[&[f64]], range: std::ops::Range<usize>, slot: &mut [f64]| {
        plan.0.eval_block(cols, range, slot);
    };
    if parallel {
        par_sweep_compiled_block_with(Parallelism::Auto, &grid.0, kernel, &mut out.0);
    } else {
        sweep_compiled_block(&grid.0, kernel, &mut out.0);
    }
}

/// `act_dse::pareto_indices` (all objectives minimized).
pub fn pareto(points: &[Vec<f64>]) -> Vec<usize> {
    act_dse::pareto_indices(points)
}

// ---------------------------------------------------------------------------
// Request documents and reply oracles (act-json, act-core, act-scenario).
// ---------------------------------------------------------------------------

/// Knobs varied across the service's footprint documents.
#[derive(Clone, Copy, Debug)]
pub struct ParamsKnobs {
    pub soc_area_mm2: f64,
    pub lifetime_years: f64,
    pub use_intensity: f64,
    pub fab_yield: f64,
    pub dram_gb: f64,
    pub energy_j: f64,
}

/// A `ModelParams` document: the mobile reference with `knobs` applied,
/// rendered compactly.
pub fn params_doc(knobs: &ParamsKnobs) -> String {
    let mut params = ModelParams::mobile_reference();
    params.soc_area_mm2 = knobs.soc_area_mm2;
    params.lifetime_years = knobs.lifetime_years;
    params.use_intensity_g_per_kwh = knobs.use_intensity;
    params.fab_yield = knobs.fab_yield;
    if let Some(entry) = params.dram.first_mut() {
        entry.1 = knobs.dram_gb;
    }
    params.energy_j = knobs.energy_j;
    params.to_json().render_compact()
}

/// `JsonValue::parse` + `ModelParams::from_json` of a request body.
pub fn parse_params(body: &str) -> Result<(), String> {
    let doc = JsonValue::parse(body).map_err(|e| e.to_string())?;
    ModelParams::from_json(&doc).map(drop).map_err(|e| e.to_string())
}

/// The exact `/v1/footprint` reply body for `body`, computed in process:
/// parse, compile with no free axes, evaluate, render.
pub fn footprint_reply(body: &str) -> Result<String, String> {
    let doc = JsonValue::parse(body).map_err(|e| e.to_string())?;
    let params = ModelParams::from_json(&doc).map_err(|e| e.to_string())?;
    let kernel = CompiledFootprint::try_compile(&params, &[]).map_err(|e| e.to_string())?;
    Ok(format!("{{\"gco2\":{}}}\n", act_json::format_float(kernel.eval(&[]))))
}

/// The committed scenario fixtures (`crates/data/scenarios/*.json`).
pub fn scenario_fixtures() -> [&'static str; 6] {
    act_data::scenarios::ALL
}

/// The exact `/v1/scenario` reply line for a compiled scenario.
pub fn scenario_reply(model: &ScenarioModel) -> String {
    let compiled = &model.0;
    let mut obj = JsonObject::new()
        .with("name", JsonValue::String(compiled.name().to_owned()))
        .with("embodied_g", compiled.embodied_grams().to_json())
        .with("embodied", compiled.embodied().to_json());
    if let Some(device) = compiled.device() {
        obj = obj.with("device", device.to_json());
    }
    let mut line = JsonValue::Object(obj).render_compact();
    line.push('\n');
    line
}

/// A `/v1/sweep` body over the mobile reference: one column per axis.
pub fn sweep_doc(areas: &[f64], lifetimes: &[f64]) -> String {
    let column =
        |values: &[f64]| JsonValue::Array(values.iter().map(ToJson::to_json).collect());
    let axes = JsonValue::Array(vec![
        JsonValue::Object(
            JsonObject::new()
                .with("axis", JsonValue::String("soc_area_mm2".to_owned()))
                .with("values", column(areas)),
        ),
        JsonValue::Object(
            JsonObject::new()
                .with("axis", JsonValue::String("lifetime_years".to_owned()))
                .with("values", column(lifetimes)),
        ),
    ]);
    let obj = JsonObject::new()
        .with("params", ModelParams::mobile_reference().to_json())
        .with("axes", axes);
    JsonValue::Object(obj).render_compact()
}

/// The exact per-point lines a `/v1/sweep` reply streams before its
/// trailer, computed with the scalar `CompiledFootprint::eval` oracle.
pub fn sweep_reply_points(areas: &[f64], lifetimes: &[f64]) -> Result<String, String> {
    let kernel = CompiledFootprint::try_compile(
        &ModelParams::mobile_reference(),
        &[FreeAxis::SocArea, FreeAxis::Lifetime],
    )
    .map_err(|e| e.to_string())?;
    let mut out = String::with_capacity(areas.len() * 40);
    for (i, (a, l)) in areas.iter().zip(lifetimes).enumerate() {
        let v = kernel.eval(&[*a, *l]);
        if !v.is_finite() {
            return Err(format!("sweep point {i} is not finite"));
        }
        out.push_str(&format!("{{\"i\":{i},\"gco2\":{}}}\n", act_json::format_float(v)));
    }
    Ok(out)
}

/// The thread count and calibration the server reported for one route.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ServerDecision {
    pub route: &'static str,
    pub threads: u64,
    pub threshold: Option<u64>,
    pub source: String,
}

/// A sweep reply's trailer line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trailer {
    pub done: bool,
    pub points: u64,
    pub rejected: u64,
    pub decision: ServerDecision,
}

pub fn parse_trailer(line: &str) -> Option<Trailer> {
    let doc = JsonValue::parse(line).ok()?;
    let cal = doc.get("calibration")?;
    Some(Trailer {
        done: doc.get("done")?.as_bool()?,
        points: doc.get("points")?.as_u64()?,
        rejected: doc.get("rejected")?.as_u64()?,
        decision: ServerDecision {
            route: "/v1/sweep",
            threads: doc.get("threads")?.as_u64()?,
            threshold: cal.get("threshold_points").and_then(JsonValue::as_u64),
            source: cal.get("source")?.as_str()?.to_owned(),
        },
    })
}

/// A `/v1/fleet` reply: the summary plus the server's thread decision
/// and calibration.
pub fn parse_fleet_reply(body: &str) -> Option<(McSummary, ServerDecision)> {
    let doc = JsonValue::parse(body.trim_end()).ok()?;
    let stats = doc.get("stats")?;
    let summary = McSummary {
        mean: stats.get("mean")?.as_f64()?,
        p05: stats.get("p05")?.as_f64()?,
        p50: stats.get("p50")?.as_f64()?,
        p95: stats.get("p95")?.as_f64()?,
        samples: usize::try_from(stats.get("samples")?.as_u64()?).ok()?,
        rejected: usize::try_from(doc.get("rejected")?.as_u64()?).ok()?,
    };
    let cal = doc.get("calibration")?;
    let decision = ServerDecision {
        route: "/v1/fleet",
        threads: doc.get("threads")?.as_u64()?,
        threshold: cal.get("threshold_points").and_then(JsonValue::as_u64),
        source: cal.get("source")?.as_str()?.to_owned(),
    };
    Some((summary, decision))
}

/// `act serve`'s readiness line → the listening address.
pub fn parse_ready(line: &str) -> Option<String> {
    JsonValue::parse(line).ok()?.get("listening")?.as_str().map(str::to_owned)
}

/// The `/v1/stats` counters the traced run reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub accepted: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub bad_requests: u64,
}

pub fn parse_stats(body: &str) -> Option<ServerCounters> {
    let doc = JsonValue::parse(body.trim_end()).ok()?;
    Some(ServerCounters {
        accepted: doc.get("accepted")?.as_u64()?,
        shed: doc.get("shed")?.as_u64()?,
        timeouts: doc.get("timeouts")?.as_u64()?,
        bad_requests: doc.get("bad_requests")?.as_u64()?,
    })
}

// ---------------------------------------------------------------------------
// Paper artifacts (act-experiments).
// ---------------------------------------------------------------------------

/// The concrete experiment IDs in paper order.
pub fn experiment_ids() -> Vec<&'static str> {
    act_experiments::concrete_experiment_ids()
}

/// One experiment's JSON rendering.
pub fn render_experiment(id: &str) -> Result<String, String> {
    act_experiments::try_render_experiment(id, act_experiments::OutputFormat::Json)
        .map_err(|e| e.to_string())
}

/// Exactly what `act --json all` prints: the serial `all` rendering plus
/// the newline the CLI appends.
pub fn render_all_stdout() -> Result<String, String> {
    let mut out = render_experiment("all")?;
    out.push('\n');
    Ok(out)
}
