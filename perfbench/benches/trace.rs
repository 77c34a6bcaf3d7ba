//! The traced run (`--trace 1`): times calls into each layer's public
//! functions from the benchmark's own code and reports the per-layer
//! metrics. Nothing inside the library is instrumented.
//!
//! Every traced run, whatever its workload, runs the same probe suite on
//! the seed's inputs, so every per-layer metric is present in every
//! traced result. The suite reuses the workloads' own documents, grid and
//! request pool. It also times the named workload's operation with and
//! without spans and reports the difference as `trace.overhead_pct`.
//!
//! Spans (name, start, end, parent, operation id) are kept in memory and
//! written out at the end: a per-name summary to stderr and every span to
//! `trace-<workload>-<seed>.tsv` in the state directory.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::adapter::{self, Axes, McScratch};
use crate::common::{median, ms, percentile, timed, InputRng, Report};
use crate::engine::EngineRecord;
use crate::service::{self, Kind};
use crate::{fleet, paper, sweep, Ctx};

// ---------------------------------------------------------------------------
// Probe child processes: cold set-up and the cold experiments pass.
// ---------------------------------------------------------------------------

/// `perfbench --probe setup|experiments`, run in a fresh process.
pub fn run_probe_child(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("setup") => {
            // The first calibration call measures the break-even threshold
            // and starts the worker pool: the one-time cost an in-process
            // workload pays before its first operation.
            let ((threshold, source), dt) = timed(adapter::calibration);
            println!("{} {threshold} {source}", dt.as_nanos());
            ExitCode::SUCCESS
        }
        Some("experiments") => {
            // First in-process pass over every artifact, memo cold.
            for id in adapter::experiment_ids() {
                let (out, dt) = timed(|| adapter::render_experiment(id));
                if out.is_err() {
                    eprintln!("perfbench: experiment {id} failed: {out:?}");
                    return ExitCode::from(1);
                }
                println!("{id} {}", ms(dt));
            }
            ExitCode::SUCCESS
        }
        _ => ExitCode::from(2),
    }
}

fn probe_output(kind: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let out = Command::new(exe)
        .args(["--probe", kind])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("probe {kind}: {e}"))?;
    if !out.status.success() {
        return Err(format!("probe {kind} exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("probe {kind}: {e}"))
}

/// Runs the set-up probe in `n` fresh processes; returns the set-up
/// times (s) and the thresholds each calibration measured.
pub fn setup_probes(n: usize) -> Result<(Vec<f64>, Vec<usize>), String> {
    let mut times = Vec::with_capacity(n);
    let mut thresholds = Vec::with_capacity(n);
    for _ in 0..n {
        let line = probe_output("setup")?;
        let mut parts = line.split_whitespace();
        let ns: f64 =
            parts.next().and_then(|p| p.parse().ok()).ok_or("bad setup probe output")?;
        let threshold: usize =
            parts.next().and_then(|p| p.parse().ok()).ok_or("bad setup probe output")?;
        times.push(ns / 1e9);
        thresholds.push(threshold);
    }
    Ok((times, thresholds))
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Starts a new operation id; spans recorded until the next call
    /// share it.
    fn next_op(&mut self) {
        self.op += 1;
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = Instant::now();
        self.spans.push(Span { name, op: self.op, parent, start, end: start });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    /// Per-name count, total and self time (total minus child spans).
    fn summary(&self) -> String {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = String::new();
        for name in names {
            let (mut n, mut total, mut own) = (0, 0.0, 0.0);
            for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
                n += 1;
                total += ms(s.end - s.start);
                own += ms((s.end - s.start).saturating_sub(child_time[i]));
            }
            let _ = writeln!(
                out,
                "perfbench: span {name}: {n} x, total {total:.3} ms, self {own:.3} ms"
            );
        }
        out
    }

    fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("op\tspan\tname\tparent\tstart_us\tend_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}\t{i}\t{}\t{}\t{:.3}\t{:.3}",
                s.op,
                s.name,
                s.parent.map_or("-".to_owned(), |p| p.to_string()),
                (s.start - self.origin).as_secs_f64() * 1e6,
                (s.end - self.origin).as_secs_f64() * 1e6
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Median wall time of `reps` calls of `f`, in ms.
fn med_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, dt) = timed(&mut f);
            std::hint::black_box(out);
            ms(dt)
        })
        .collect();
    median(&times)
}

// ---------------------------------------------------------------------------
// The probe suite.
// ---------------------------------------------------------------------------

pub fn run(ctx: &Ctx, report: &mut Report, engine: &mut EngineRecord) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let (setup, thresholds) = setup_probes(5)?;
    engine.probe_thresholds = thresholds;
    adapter::calibration();
    engine.record(&[fleet::SAMPLES, sweep::POINTS]);
    let (threshold, _) = adapter::calibration();
    report.put("dse.calibration_ms", median(&setup) * 1e3, "ms");
    report.put("dse.threshold_points", threshold as f64, "points");
    report.put("dse.workers", adapter::auto_decision(fleet::SAMPLES).workers as f64, "count");

    let overhead = probe_fleet(ctx, report, &mut tracer)?;
    let overhead = probe_sweep(ctx, report, &mut tracer)?.or(overhead);
    probe_json(ctx, report)?;
    probe_service(ctx, report, engine)?;
    let overhead = probe_paper(ctx, report, &mut tracer)?.or(overhead);
    report.put("trace.overhead_pct", overhead.unwrap_or(f64::NAN), "%");

    eprint!("{}", tracer.summary());
    let path = ctx.state_dir.join(format!("trace-{}-{}.tsv", ctx.workload, ctx.seed));
    if let Err(err) = tracer.write_tsv(&path) {
        report.note(format!("could not write {}: {err}", path.display()));
    }
    Ok(())
}

/// `100 × (traced − untraced) / untraced` medians over `pairs` runs of
/// `op(traced)` each way, alternating which side goes first.
fn overhead_pct(pairs: usize, op: &mut dyn FnMut(bool) -> f64) -> f64 {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        let first = i % 2 == 1;
        let a = op(first);
        let b = op(!first);
        let (u, t) = if first { (b, a) } else { (a, b) };
        untraced.push(u);
        traced.push(t);
    }
    let base = median(&untraced);
    100.0 * (median(&traced) - base) / base
}

/// act-rng, the act-dse reduce and fleet speed-up, and the fleet stage
/// sum. Returns the tracing overhead when the workload is `fleet-mc`.
fn probe_fleet(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Option<f64>, String> {
    let n = fleet::SAMPLES;
    let docs = fleet::prepare(ctx.seed, n, 1)?;
    let (doc, oracle) = &docs[0];
    let threads = adapter::auto_decision(n).workers;
    let mut scratch = McScratch::default();
    let check =
        |result: &Result<adapter::McSummary, String>, report: &mut Report, what: &str| {
            report.checked(matches!(result, Ok(s) if s.same_bits(oracle)), || {
                format!("traced fleet {what}: {result:?} != serial oracle {oracle:?}")
            });
        };

    let mut serial = Vec::new();
    let mut auto = Vec::new();
    for _ in 0..3 {
        let (r, dt) = timed(|| fleet::fleet_op(&doc.text, 1, &mut scratch));
        check(&r, report, "serial run");
        serial.push(ms(dt));
        let (r, dt) = timed(|| fleet::fleet_op(&doc.text, threads, &mut scratch));
        check(&r, report, "auto run");
        auto.push(ms(dt));
    }
    let serial_ms = median(&serial);
    report.put("dse.fleet_par_speedup", serial_ms / median(&auto), "x");

    // Stage: parse + compile.
    let front_ms = med_ms(5, || adapter::scenario_compile(&doc.text).is_ok());
    // Stages: per-sample seeding; the three draws; the sampler's range
    // check and column fill (each by difference with the previous).
    let seed_ms = med_ms(3, || adapter::rng_seed_only(doc.seed, n));
    let draw_total = med_ms(3, || adapter::rng_seed_and_draw(doc.seed, n, &doc.draws));
    let draw_ms = draw_total - seed_ms;
    let mut cols: [Vec<f64>; 4] = std::array::from_fn(|_| vec![0.0; n]);
    let fill_ms = med_ms(3, || {
        adapter::rng_seed_draw_fill(doc.seed, &doc.draws, fleet::POWER_W, &mut cols)
    }) - draw_total;
    report.put("rng.seed_ns_per_sample", seed_ms * 1e6 / n as f64, "ns");
    report.put("rng.draws_ns_per_sample", draw_ms * 1e6 / n as f64, "ns");
    report.put("dse.fill_ns_per_sample", fill_ms * 1e6 / n as f64, "ns");
    // Stage: eval — a direct `eval_block` over those columns of the mobile
    // reference compiled on the fleet kernel's four axes, plus the
    // embodied add.
    let kernel = adapter::compile_reference(Axes::Fleet)?;
    let plan = adapter::plan(&kernel);
    let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
    let mut out = vec![0.0; n];
    let eval_ms = med_ms(3, || {
        adapter::eval_block(&plan, &col_refs, &mut out);
        for v in &mut out {
            *v += 1.0;
        }
        out[n / 2]
    });
    // Stage: reduce, derived — the same serial MC entry point with the
    // sampler and kernel held to a fixed copy of the real draws, minus its
    // seeding and its column fill and copies.
    let real = fleet::fleet_op(&doc.text, 1, &mut scratch);
    check(&real, report, "serial run");
    let draws = scratch.draws().to_vec();
    let mut copy_scratch = McScratch::default();
    let mut fixed = Vec::new();
    for _ in 0..3 {
        let (r, dt) = timed(|| adapter::mc_fixed_copy(&draws, doc.seed, &mut copy_scratch));
        check(&r, report, "fixed-copy run");
        fixed.push(ms(dt));
    }
    let mut sink = vec![0.0; n];
    let copy_ms = med_ms(3, || {
        sink.clear();
        sink.resize(n, 0.0);
        sink.copy_from_slice(&draws);
        let mut again = sink.clone();
        again.copy_from_slice(&draws);
        again[n / 3]
    });
    let reduce_ms = median(&fixed) - seed_ms - copy_ms;
    report.put("dse.reduce_ms", reduce_ms, "ms");
    let stages = front_ms + seed_ms + draw_ms + fill_ms + eval_ms + reduce_ms;
    report.put("dse.fleet_stage_sum_pct", 100.0 * stages / serial_ms, "%");
    report.note(format!(
        "fleet stages (serial, ms): parse+compile {front_ms:.3}, seed {seed_ms:.2}, draws {draw_ms:.2}, \
         fill {fill_ms:.2}, eval {eval_ms:.2}, reduce {reduce_ms:.2} (derived) = {stages:.2} \
         vs serial op {serial_ms:.2}"
    ));

    if ctx.workload != "fleet-mc" {
        return Ok(None);
    }
    let mut op = |traced: bool| {
        let (r, dt) = timed(|| {
            if !traced {
                return fleet::fleet_op(&doc.text, threads, &mut scratch);
            }
            tracer.next_op();
            tracer.span("fleet.op", |t| {
                let model =
                    t.span("scenario.parse_compile", |_| adapter::scenario_compile(&doc.text))?;
                t.span("scenario.fleet_run", |_| {
                    adapter::fleet_run(&model, threads, &mut scratch)
                })
            })
        });
        check(&r, report, "overhead run");
        ms(dt)
    };
    Ok(Some(overhead_pct(4, &mut op)))
}

/// act-core kernels and the act-dse sweep engine, Pareto and rejections.
fn probe_sweep(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Option<f64>, String> {
    let n = sweep::POINTS;
    let compile_ms = med_ms(21, || adapter::compile_reference(Axes::Sweep).is_ok());
    let kernel = adapter::compile_reference(Axes::Sweep)?;
    let plan_ms = med_ms(21, || adapter::plan(&kernel));
    report.put("core.compile_us", compile_ms * 1e3, "us");
    report.put("core.plan_us", plan_ms * 1e3, "us");

    let (case, scalar_time) = sweep::prepare(ctx.seed)?;
    report.put(
        "core.eval_scalar_ns_per_point",
        scalar_time.as_secs_f64() * 1e9 / n as f64,
        "ns",
    );
    let mut out = adapter::SweepOut::default();
    let run_op = |parallel: bool, out: &mut adapter::SweepOut, report: &mut Report| {
        let (front, dt) = timed(|| sweep::sweep_op(&case, parallel, out));
        let verdict = sweep::verify(&case, out, &front);
        report.checked(verdict.is_ok(), || format!("traced sweep: {verdict:?}"));
        ms(dt)
    };
    let mut serial = Vec::new();
    let mut auto = Vec::new();
    for _ in 0..5 {
        serial.push(run_op(false, &mut out, report));
        auto.push(run_op(true, &mut out, report));
    }
    let serial_ms = median(&serial);
    report.put("dse.sweep_par_speedup", serial_ms / median(&auto), "x");

    let cols = case.grid.columns();
    let mut direct = vec![0.0; n];
    let eval_ms = med_ms(5, || {
        adapter::eval_block(&case.plan, &cols, &mut direct);
        direct[n / 2]
    });
    let engine_ms = med_ms(5, || {
        adapter::block_sweep(&case.plan, &case.grid, false, &mut out);
        out.rejected()
    });
    let worst_ms = med_ms(5, || sweep::worst_cases(out.values(), &case.design_area).0.len());
    let (points, _) = sweep::worst_cases(out.values(), &case.design_area);
    let pareto_ms = med_ms(21, || adapter::pareto(&points));
    report.put("core.eval_block_ns_per_point", eval_ms * 1e6 / n as f64, "ns");
    report.put("dse.engine_ns_per_point", (engine_ms - eval_ms) * 1e6 / n as f64, "ns");
    report.put("dse.pareto_ms", pareto_ms, "ms");
    report.put("dse.rejected", out.rejected() as f64, "count");
    let stages = engine_ms + worst_ms + pareto_ms;
    report.put("dse.sweep_stage_sum_pct", 100.0 * stages / serial_ms, "%");
    report.note(format!(
        "sweep stages (serial, ms): eval {eval_ms:.2}, engine {:.2}, worst-case {worst_ms:.2}, \
         pareto {pareto_ms:.3} = {stages:.2} vs serial op {serial_ms:.2}",
        engine_ms - eval_ms
    ));

    if ctx.workload != "dse-sweep" {
        return Ok(None);
    }
    let mut op = |traced: bool| {
        if !traced {
            return run_op(true, &mut out, report);
        }
        let (front, spanned) = timed(|| {
            tracer.next_op();
            tracer.span("sweep.op", |t| {
                t.span("dse.block_sweep", |_| {
                    adapter::block_sweep(&case.plan, &case.grid, true, &mut out)
                });
                let (points, ids) = t.span("sweep.worst_cases", |_| {
                    sweep::worst_cases(out.values(), &case.design_area)
                });
                let front = t.span("dse.pareto", |_| adapter::pareto(&points));
                front.into_iter().map(|i| ids[i]).collect::<Vec<_>>()
            })
        });
        let verdict = sweep::verify(&case, &out, &front);
        report.checked(verdict.is_ok(), || format!("traced sweep: {verdict:?}"));
        ms(spanned)
    };
    Ok(Some(overhead_pct(8, &mut op)))
}

/// act-json and act-scenario on the service's actual documents.
fn probe_json(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pool = service::build_pool(ctx.seed)?;
    let parse: Vec<f64> = pool
        .footprint
        .iter()
        .map(|(body, _)| med_ms(5, || adapter::parse_params(body)) * 1e3)
        .collect();
    report.put("json.parse_us", median(&parse), "us");
    let mut render = Vec::new();
    let mut s_parse = Vec::new();
    let mut s_compile = Vec::new();
    for (doc, _) in &pool.scenario {
        s_parse.push(med_ms(5, || adapter::scenario_parse(doc).is_ok()) * 1e3);
        let parsed = adapter::scenario_parse(doc)?;
        s_compile.push(med_ms(5, || adapter::scenario_compile_parsed(&parsed).is_ok()) * 1e3);
        let model = adapter::scenario_compile_parsed(&parsed)?;
        render.push(med_ms(5, || adapter::scenario_reply(&model)) * 1e3);
    }
    report.put("json.render_us", median(&render), "us");
    report.put("scenario.parse_us", median(&s_parse), "us");
    report.put("scenario.compile_us", median(&s_compile), "us");
    Ok(())
}

/// act-server and the load generator: a short low-rate and high-rate
/// phase against a fresh server.
fn probe_service(
    ctx: &Ctx,
    report: &mut Report,
    engine: &mut EngineRecord,
) -> Result<(), String> {
    let (server, _) = service::Server::start(&ctx.act)?;
    let pool = service::build_pool(ctx.seed)?;
    service::warm_up(server.addr, &pool).count(report, engine);
    let before = server.counters().ok_or("cannot read /v1/stats")?;
    let mut rng = InputRng::new(ctx.seed, 0x7ACE);
    let low = service::run_phase(
        server.addr,
        &pool,
        &service::schedule(&mut rng, &pool, service::FULL_MIX, service::LOW_RPS, 2.0),
    );
    low.count(report, engine);
    let high = service::run_phase(
        server.addr,
        &pool,
        &service::schedule(&mut rng, &pool, service::FULL_MIX, service::HIGH_RPS, 3.0),
    );
    high.count(report, engine);
    let deadline = Instant::now() + Duration::from_secs(6);
    let (max_rps, steps) =
        service::ladder(server.addr, &pool, &mut rng, deadline, report, engine);
    let after = server.counters().ok_or("cannot read /v1/stats")?;

    let light: Vec<&service::Sample> = low.samples.iter().filter(|s| !s.kind.heavy()).collect();
    let connect: Vec<f64> =
        low.samples.iter().map(|s| s.connect_us).filter(|v| v.is_finite()).collect();
    let ttfb: Vec<f64> = light.iter().map(|s| s.ttfb_ms).filter(|v| v.is_finite()).collect();
    report.put("server.connect_us", median(&connect), "us");
    report.put("server.ttfb_ms", median(&ttfb), "ms");
    // In-process replay of the same light requests: parse + compile +
    // eval + render, no socket.
    let replay: Vec<f64> = light
        .iter()
        .map(|s| {
            let body = pool.body(s.kind, s.idx);
            let (_, dt) = timed(|| match s.kind {
                Kind::Footprint => adapter::footprint_reply(body).map(|r| r.len()),
                _ => adapter::scenario_compile(body).map(|m| adapter::scenario_reply(&m).len()),
            });
            ms(dt)
        })
        .collect();
    let light_latency: Vec<f64> = light.iter().map(|s| s.latency_ms).collect();
    report.put("server.overhead_ms", median(&light_latency) - median(&replay), "ms");
    report.put(
        "server.accepted",
        after.accepted.saturating_sub(before.accepted) as f64,
        "count",
    );
    report.put("server.shed", after.shed.saturating_sub(before.shed) as f64, "count");
    report.put(
        "server.timeouts",
        after.timeouts.saturating_sub(before.timeouts) as f64,
        "count",
    );
    report.put(
        "server.bad_requests",
        after.bad_requests.saturating_sub(before.bad_requests) as f64,
        "count",
    );
    report.put("svc.low.p50_ms", median(&light_latency), "ms");
    report.put("svc.low.tail_ms", low.windowed_light_tail(service::WINDOW_SECONDS).0, "ms");
    report.put("svc.high.p50_ms", median(&high.light_latencies()), "ms");
    report.put("svc.high.tail_ms", high.windowed_light_tail(service::WINDOW_SECONDS).0, "ms");
    report.put("svc.heavy.p50_ms", median(&high.heavy_latencies()), "ms");
    report.put("svc.max_rps", max_rps, "1/s");
    report.put("server.peak_rss_mb", server.peak_rss_mb().unwrap_or(f64::NAN), "MB");
    report.note(format!("service ladder: {max_rps:.1} req/s after {steps} steps"));
    let late: Vec<f64> = low.samples.iter().chain(&high.samples).map(|s| s.late_ms).collect();
    report.put("loadgen.late_p99_ms", percentile(&late, 0.99), "ms");
    report.put(
        "loadgen.max_in_flight",
        low.max_in_flight.max(high.max_in_flight) as f64,
        "count",
    );

    Ok(())
}

/// act-experiments on a cold first pass, and `act` process cost.
fn probe_paper(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Option<f64>, String> {
    let text = probe_output("experiments")?;
    let ids = adapter::experiment_ids();
    let mut seen = 0;
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(id), Some(Ok(v))) = (parts.next(), parts.next().map(str::parse::<f64>))
        else {
            return Err(format!("bad experiments probe line {line:?}"));
        };
        if !ids.contains(&id) {
            return Err(format!("unknown experiment {id}"));
        }
        report.put(format!("experiments.{id}_ms"), v, "ms");
        seen += 1;
    }
    report.op(seen == ids.len());
    let list: Vec<f64> = (0..7)
        .map(|_| {
            let (out, dt) = paper::run_act(&ctx.act, &["list"]);
            report.op(out.is_some());
            ms(dt)
        })
        .collect();
    report.put("paper.process_ms", median(&list), "ms");

    if ctx.workload != "paper" {
        return Ok(None);
    }
    let expected = adapter::render_all_stdout()?.into_bytes();
    let mut op = |traced: bool| {
        let (out, dt) = timed(|| {
            if !traced {
                return paper::run_act(&ctx.act, &["--json", "all"]).0;
            }
            tracer.next_op();
            tracer.span("paper.act_all", |_| paper::run_act(&ctx.act, &["--json", "all"]).0)
        });
        report
            .checked(out.as_deref() == Some(expected.as_slice()), || "paper stdout".to_owned());
        ms(dt)
    };
    Ok(Some(overhead_pct(8, &mut op)))
}
