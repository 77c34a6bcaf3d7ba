//! The service probes of the traced run: the release
//! `act serve --workers 2` driven open-loop from this process with two
//! threads and at most two connections in flight.
//!
//! The mix ([`FULL_MIX`]): 85 % `POST /v1/footprint` over a seeded pool of
//! 64 distinct `ModelParams` documents, 10 % `POST /v1/scenario` with the
//! six committed fixtures, 5 % heavy — `POST /v1/fleet` (20,000 samples)
//! and `POST /v1/sweep` (10,000 points) — sent at 100 and 400 req/s, then
//! up the rate ladder. Latency is timed from when each request was due,
//! not when it was sent, so generator stalls count.
//!
//! Oracles: every `gco2` equals an in-process eval of the same document,
//! scenario replies equal the in-process rendering of the fixture, fleet
//! replies carry the bit-identical serial summary and sample count, and
//! sweep replies stream exactly the scalar-oracle points and end in a
//! `done` trailer with the right point count.
//!
//! The rate ladder (`svc.max_rps`, traced run) finds the highest offered
//! rate whose light p99 stays within 5 ms without a growing backlog.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{self, McScratch, McSummary, ParamsKnobs, ServerDecision};
use crate::common::{ms, percentile, windowed_tail, InputRng, Report};
use crate::engine::EngineRecord;
use crate::http;

pub const LOW_RPS: f64 = 100.0;
pub const HIGH_RPS: f64 = 400.0;
/// Light-request p99 limit of the rate ladder.
pub const LIGHT_P99_LIMIT_MS: f64 = 5.0;
pub const HEAVY_FLEET_SAMPLES: usize = 20_000;
pub const HEAVY_SWEEP_POINTS: usize = 10_000;
/// A reply later than this after it was due counts as failed.
const LATE_FAIL_MS: f64 = 1_000.0;
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Requests per rate-ladder step (at least half a second of traffic):
/// enough light requests that the step's p99 is not just its maximum.
const STEP_REQUESTS: f64 = 200.0;
/// Light tails are taken per 1-second window and the median window is
/// reported: ~95 light requests at 100 req/s put each window's tail near
/// p89, ~380 at 400 req/s near p97.
pub const WINDOW_SECONDS: f64 = 1.0;

/// A running `act serve`; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `act serve --workers 2` and waits until `/healthz` answers.
    /// Returns the server and the spawn-to-ready time.
    pub fn start(act: &Path) -> Result<(Self, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(act)
            .args(["serve", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn act serve: {e}"))?;
        let mut line = String::new();
        let read = child.stdout.take().map(|out| BufReader::new(out).read_line(&mut line));
        let addr = adapter::parse_ready(line.trim()).and_then(|a| a.parse::<SocketAddr>().ok());
        let mut server = Self { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => server.addr = addr,
            _ => return Err(format!("act serve printed no readiness line: {line:?}")),
        }
        let health = http::request(server.addr, "GET", "/healthz", b"", IO_TIMEOUT)
            .map_err(|e| format!("/healthz failed: {e}"))?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        Ok((server, start.elapsed()))
    }

    /// Peak resident set of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::common::vm_hwm_mb(&self.child.id().to_string())
    }

    /// The `/v1/stats` counters.
    pub fn counters(&self) -> Option<adapter::ServerCounters> {
        let reply = http::request(self.addr, "GET", "/v1/stats", b"", IO_TIMEOUT).ok()?;
        adapter::parse_stats(&reply.body)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Footprint,
    Scenario,
    Fleet,
    Sweep,
}

impl Kind {
    pub fn heavy(self) -> bool {
        matches!(self, Self::Fleet | Self::Sweep)
    }

    fn path(self) -> &'static str {
        match self {
            Self::Footprint => "/v1/footprint",
            Self::Scenario => "/v1/scenario",
            Self::Fleet => "/v1/fleet",
            Self::Sweep => "/v1/sweep",
        }
    }
}

/// Request bodies and the replies the oracle expects for them.
pub struct Pool {
    /// `(body, exact reply body)`.
    pub footprint: Vec<(String, String)>,
    pub scenario: Vec<(String, String)>,
    pub fleet: Vec<(String, McSummary)>,
    /// `(body, exact point lines)`.
    pub sweep: Vec<(String, String)>,
}

impl Pool {
    pub fn body(&self, kind: Kind, idx: usize) -> &str {
        match kind {
            Kind::Footprint => &self.footprint[idx].0,
            Kind::Scenario => &self.scenario[idx].0,
            Kind::Fleet => &self.fleet[idx].0,
            Kind::Sweep => &self.sweep[idx].0,
        }
    }

    fn len(&self, kind: Kind) -> usize {
        match kind {
            Kind::Footprint => self.footprint.len(),
            Kind::Scenario => self.scenario.len(),
            Kind::Fleet => self.fleet.len(),
            Kind::Sweep => self.sweep.len(),
        }
    }
}

/// Builds the seeded request pool and every expected reply.
pub fn build_pool(seed: u64) -> Result<Pool, String> {
    let mut rng = InputRng::new(seed, 0x5E7E);
    let mut footprint = Vec::with_capacity(64);
    for _ in 0..64 {
        let knobs = ParamsKnobs {
            soc_area_mm2: rng.range(20.0, 400.0),
            lifetime_years: rng.range(1.0, 8.0),
            use_intensity: rng.range(20.0, 800.0),
            fab_yield: rng.range(0.5, 0.99),
            dram_gb: rng.range(2.0, 64.0),
            energy_j: rng.range(1_000.0, 20_000.0),
        };
        let body = adapter::params_doc(&knobs);
        let reply = adapter::footprint_reply(&body)?;
        footprint.push((body, reply));
    }
    let mut scenario = Vec::with_capacity(6);
    for doc in adapter::scenario_fixtures() {
        let model = adapter::scenario_compile(doc)?;
        scenario.push((doc.to_owned(), adapter::scenario_reply(&model)));
    }
    let mut fleet = Vec::with_capacity(2);
    let mut scratch = McScratch::default();
    for _ in 0..2 {
        let doc = crate::fleet::fleet_doc(&mut rng, HEAVY_FLEET_SAMPLES);
        let oracle = crate::fleet::fleet_op(&doc.text, 1, &mut scratch)?;
        fleet.push((doc.text, oracle));
    }
    let mut sweep = Vec::with_capacity(2);
    for _ in 0..2 {
        let areas: Vec<f64> = (0..HEAVY_SWEEP_POINTS).map(|_| rng.range(20.0, 400.0)).collect();
        let lifetimes: Vec<f64> =
            (0..HEAVY_SWEEP_POINTS).map(|_| rng.range(1.0, 8.0)).collect();
        let body = adapter::sweep_doc(&areas, &lifetimes);
        let lines = adapter::sweep_reply_points(&areas, &lifetimes)?;
        sweep.push((body, lines));
    }
    Ok(Pool { footprint, scenario, fleet, sweep })
}

pub struct Planned {
    pub due: Duration,
    pub kind: Kind,
    pub idx: usize,
}

/// The full request mix per block of 40: 34 footprint (85 %), 4 scenario
/// (10 %), 1 fleet and 1 sweep (5 % heavy). Stratifying by block keeps the
/// heavy share the same in every second of every seed.
pub const FULL_MIX: &[(Kind, usize)] =
    &[(Kind::Footprint, 34), (Kind::Scenario, 4), (Kind::Fleet, 1), (Kind::Sweep, 1)];

/// `rate` requests per second for `seconds` with the seeded request `mix`
/// (each block shuffled). Request `i` is due at a seeded uniform
/// time inside its slot `[i, i + 1) / rate`: the offered rate is exact,
/// but arrivals do not phase-lock with periodic server behaviour (the
/// accept loop's poll), which made evenly spaced arrivals swing the
/// latency between runs.
pub fn schedule(
    rng: &mut InputRng,
    pool: &Pool,
    mix: &[(Kind, usize)],
    rate: f64,
    seconds: f64,
) -> Vec<Planned> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let block: usize = mix.iter().map(|m| m.1).sum();
    let mut kinds = Vec::with_capacity(n + block);
    while kinds.len() < n {
        let start = kinds.len();
        for &(kind, count) in mix {
            kinds.extend(std::iter::repeat_n(kind, count));
        }
        for i in (start + 1..kinds.len()).rev() {
            let j = start + rng.index(i - start + 1);
            kinds.swap(i, j);
        }
    }
    kinds.truncate(n);
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let idx = rng.index(pool.len(kind));
            let due = (i as f64 + rng.unit()) / rate;
            Planned { due: Duration::from_secs_f64(due), kind, idx }
        })
        .collect()
}

pub struct Sample {
    pub kind: Kind,
    pub idx: usize,
    /// When it was due, from the phase start.
    pub due_s: f64,
    /// From due time to the last reply byte.
    pub latency_ms: f64,
    /// How late the generator sent it.
    pub late_ms: f64,
    pub connect_us: f64,
    pub ttfb_ms: f64,
    pub ok: bool,
    /// Oracle mismatch, if any.
    pub wrong: Option<String>,
}

pub struct Phase {
    pub samples: Vec<Sample>,
    pub max_in_flight: usize,
    /// Thread decisions seen in heavy replies.
    pub server_decisions: Vec<ServerDecision>,
}

impl Phase {
    pub fn light_latencies(&self) -> Vec<f64> {
        self.samples.iter().filter(|s| !s.kind.heavy()).map(|s| s.latency_ms).collect()
    }

    /// The light-latency tail per `window`-second slice of the phase (by
    /// due time), median over slices: see [`windowed_tail`].
    pub fn windowed_light_tail(&self, window: f64) -> (f64, f64) {
        let light: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter(|s| !s.kind.heavy())
            .map(|s| (s.due_s, s.latency_ms))
            .collect();
        windowed_tail(&light, window)
    }

    pub fn heavy_latencies(&self) -> Vec<f64> {
        self.samples.iter().filter(|s| s.kind.heavy()).map(|s| s.latency_ms).collect()
    }

    /// Light p99 within the limit, no failures, and no growing backlog:
    /// the last quarter of requests was sent on average within the limit.
    fn meets_limit(&self) -> bool {
        let p99 = percentile(&self.light_latencies(), 0.99);
        let quarter = self.samples.len() / 4;
        let last: Vec<f64> =
            self.samples[self.samples.len() - quarter..].iter().map(|s| s.late_ms).collect();
        let late =
            if last.is_empty() { 0.0 } else { last.iter().sum::<f64>() / last.len() as f64 };
        p99 <= LIGHT_P99_LIMIT_MS
            && late <= LIGHT_P99_LIMIT_MS
            && self.samples.iter().all(|s| s.ok)
    }

    /// Adds every request to the report's counts.
    pub fn count(&self, report: &mut Report, engine: &mut EngineRecord) {
        for s in &self.samples {
            match &s.wrong {
                Some(why) => {
                    report.checked(false, || format!("{:?}[{}]: {why}", s.kind, s.idx))
                }
                None => report.op(s.ok),
            }
        }
        engine.server.extend(self.server_decisions.iter().cloned());
    }
}

/// Checks one reply; returns the oracle verdict and any server decision.
fn check(
    pool: &Pool,
    kind: Kind,
    idx: usize,
    reply: &http::Reply,
) -> (Result<(), String>, Option<ServerDecision>) {
    if reply.status != 200 {
        return (Err(format!("status {}", reply.status)), None);
    }
    match kind {
        Kind::Footprint | Kind::Scenario => {
            let expected = if kind == Kind::Footprint {
                &pool.footprint[idx].1
            } else {
                &pool.scenario[idx].1
            };
            if &reply.body == expected {
                (Ok(()), None)
            } else {
                (Err(format!("reply {:?} != in-process {:?}", reply.body, expected)), None)
            }
        }
        Kind::Fleet => match adapter::parse_fleet_reply(&reply.body) {
            Some((summary, decision)) if summary.same_bits(&pool.fleet[idx].1) => {
                (Ok(()), Some(decision))
            }
            parsed => (
                Err(format!("fleet reply {parsed:?} != serial oracle {:?}", pool.fleet[idx].1)),
                None,
            ),
        },
        Kind::Sweep => {
            let expected = &pool.sweep[idx].1;
            let Some(rest) = reply.body.strip_prefix(expected.as_str()) else {
                return (Err("sweep points differ from the scalar oracle".to_owned()), None);
            };
            match adapter::parse_trailer(rest.trim_end()) {
                Some(t)
                    if t.done && t.points == HEAVY_SWEEP_POINTS as u64 && t.rejected == 0 =>
                {
                    (Ok(()), Some(t.decision))
                }
                t => (Err(format!("bad sweep trailer {t:?}")), None),
            }
        }
    }
}

/// Runs `plan` open-loop against `addr` from two threads, one per
/// request class: light requests go out on one connection and heavy ones
/// on the other, so at most two are in flight and a light request never
/// queues behind a heavy one in the client — only in the server, where
/// both classes share the workers and the dse pool.
pub fn run_phase(addr: SocketAddr, pool: &Pool, plan: &[Planned]) -> Phase {
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let results = std::thread::scope(|scope| {
        let workers = [false, true].map(|heavy| {
            let (in_flight, max_in_flight) = (&in_flight, &max_in_flight);
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut seen = Vec::new();
                for (i, p) in plan.iter().enumerate().filter(|(_, p)| p.kind.heavy() == heavy) {
                    let due = start + p.due;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let n = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                    max_in_flight.fetch_max(n, Ordering::Relaxed);
                    let reply = http::request(
                        addr,
                        "POST",
                        p.kind.path(),
                        pool.body(p.kind, p.idx).as_bytes(),
                        IO_TIMEOUT,
                    );
                    let done = Instant::now();
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                    let latency_ms = ms(done.duration_since(due));
                    let mut sample = Sample {
                        kind: p.kind,
                        idx: p.idx,
                        due_s: p.due.as_secs_f64(),
                        latency_ms,
                        late_ms: ms(sent.saturating_duration_since(due)),
                        connect_us: f64::NAN,
                        ttfb_ms: f64::NAN,
                        ok: false,
                        wrong: None,
                    };
                    // An I/O error or timeout leaves the sample failed.
                    if let Ok(reply) = reply {
                        sample.connect_us = reply.connect.as_secs_f64() * 1e6;
                        sample.ttfb_ms = ms(reply.ttfb);
                        let (verdict, decision) = check(pool, p.kind, p.idx, &reply);
                        match verdict {
                            Ok(()) => sample.ok = latency_ms <= LATE_FAIL_MS,
                            Err(why) if reply.status == 200 => sample.wrong = Some(why),
                            Err(_) => {}
                        }
                        if let Some(d) = decision {
                            if !seen.contains(&d) {
                                seen.push(d);
                            }
                        }
                    }
                    local.push((i, sample));
                }
                (local, seen)
            })
        });
        // A generator thread only panics on a bug here; re-raise it.
        workers.map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    });
    let mut samples = Vec::with_capacity(plan.len());
    let mut server_decisions = Vec::new();
    for (local, seen) in results {
        samples.extend(local);
        server_decisions.extend(seen);
    }
    samples.sort_by_key(|(i, _)| *i);
    server_decisions.sort();
    server_decisions.dedup();
    Phase {
        samples: samples.into_iter().map(|(_, s)| s).collect(),
        max_in_flight: max_in_flight.load(Ordering::Relaxed),
        server_decisions,
    }
}

/// One request of each kind, untimed, so first-use costs stay out of
/// the measured phases.
pub fn warm_up(addr: SocketAddr, pool: &Pool) -> Phase {
    let plan: Vec<Planned> = [Kind::Footprint, Kind::Scenario, Kind::Fleet, Kind::Sweep]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| Planned { due: Duration::from_millis(20 * i as u64), kind, idx: 0 })
        .collect();
    run_phase(addr, pool, &plan)
}

/// The rate ladder: the highest offered rate that meets the light-p99
/// limit without a growing backlog, to within 4 %. `start_ok` is the
/// verdict at `start_rate`, already measured; `step(rate)` runs one
/// ladder step and returns its verdict.
fn max_rps(
    start_rate: f64,
    start_ok: bool,
    deadline: Instant,
    step: &mut dyn FnMut(f64) -> bool,
) -> (f64, usize) {
    let (mut lo, mut hi) =
        if start_ok { (start_rate, f64::INFINITY) } else { (0.0, start_rate) };
    let mut steps = 0;
    let mut probe = |rate: f64, lo: &mut f64, hi: &mut f64| {
        steps += 1;
        if step(rate) {
            *lo = rate;
        } else {
            *hi = rate;
        }
    };
    // Coarse: x1.25 up (or /1.25 down) until the verdict flips.
    while hi.is_infinite() && lo < 20_000.0 && Instant::now() < deadline {
        probe(lo * 1.25, &mut lo, &mut hi);
    }
    while lo == 0.0 && hi > 10.0 && Instant::now() < deadline {
        probe(hi / 1.25, &mut lo, &mut hi);
    }
    // Fine: geometric bisection until the bracket is within 4 %.
    while lo > 0.0 && hi.is_finite() && hi / lo > 1.04 && Instant::now() < deadline {
        probe((lo * hi).sqrt(), &mut lo, &mut hi);
    }
    (lo, steps)
}

/// One rate ladder from [`HIGH_RPS`] (see [`max_rps`]), every step
/// counted in `report`. Returns the rate found and the steps taken.
pub fn ladder(
    addr: SocketAddr,
    pool: &Pool,
    rng: &mut InputRng,
    deadline: Instant,
    report: &mut Report,
    engine: &mut EngineRecord,
) -> (f64, usize) {
    let mut step = |r: f64| {
        let plan = schedule(rng, pool, FULL_MIX, r, (STEP_REQUESTS / r).max(0.5));
        let phase = run_phase(addr, pool, &plan);
        phase.count(report, engine);
        phase.meets_limit()
    };
    let start_ok = step(HIGH_RPS);
    let (rate, steps) = max_rps(HIGH_RPS, start_ok, deadline, &mut step);
    (rate, steps + 1)
}
