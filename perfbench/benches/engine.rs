//! The per-run engine-decision record: calibration threshold and source,
//! the workers and decision `Parallelism::Auto` made for each operation
//! size, the machine's thread count, and the calibration the server
//! reported in its sweep trailers.
//!
//! The benchmark never sets `ACT_THREADS` or `ACT_PAR_THRESHOLD`. A run
//! whose decisions differ from the first run of the same workload in the
//! same build directory is flagged (stderr and `"flagged": true` in the
//! record) rather than silently averaged with the others.

use std::collections::BTreeSet;

use crate::adapter::{self, Decision, ServerDecision};
use crate::common::json_str;
use crate::Ctx;

#[derive(Default)]
pub struct EngineRecord {
    /// `(threshold, source)` of this process's calibration.
    pub calibration: Option<(usize, &'static str)>,
    /// Thresholds measured by fresh probe processes.
    pub probe_thresholds: Vec<usize>,
    pub machine: usize,
    pub decisions: Vec<Decision>,
    /// Thread decisions and calibrations from server replies.
    pub server: BTreeSet<ServerDecision>,
    pub flags: Vec<String>,
}

impl EngineRecord {
    /// Records this process's calibration and the Auto decision for each
    /// operation size.
    pub fn record(&mut self, sizes: &[usize]) {
        self.calibration = Some(adapter::calibration());
        self.machine = adapter::auto_decision(1).machine;
        for &points in sizes {
            let d = adapter::auto_decision(points);
            if !self.decisions.contains(&d) {
                self.decisions.push(d);
            }
        }
    }

    /// The part of the record that must repeat across runs: sources,
    /// worker counts and decisions — not the measured threshold itself,
    /// which moves a little between processes.
    fn signature(&self) -> String {
        let mut sig = String::new();
        if let Some((_, source)) = self.calibration {
            sig.push_str(source);
        }
        for d in &self.decisions {
            sig.push_str(&format!(
                ";{}:{}:{}:{}:{}",
                d.points, d.workers, d.source, d.machine, d.decision
            ));
        }
        let server: BTreeSet<_> = self
            .server
            .iter()
            .map(|d| format!("{}:{}:{}", d.route, d.threads, d.source))
            .collect();
        for s in server {
            sig.push(';');
            sig.push_str(&s);
        }
        sig
    }

    pub fn compare_with_previous(&mut self, ctx: &Ctx, traced: bool) {
        if self.server.iter().map(|d| d.route).collect::<BTreeSet<_>>().len()
            < self.server.iter().map(|d| (d.route, d.threads)).collect::<BTreeSet<_>>().len()
        {
            self.flags.push("the server's thread decision varied within this run".to_owned());
        }
        let dir = &ctx.state_dir;
        let mode = if traced { "trace" } else { "run" };
        let path = dir.join(format!("engine-{}-{mode}.txt", ctx.workload));
        let sig = self.signature();
        match std::fs::read_to_string(&path) {
            Ok(previous) if previous != sig => {
                self.flags.push(format!(
                    "engine decisions differ from the first run of this workload ({previous} vs {sig})"
                ));
            }
            Ok(_) => {}
            Err(_) => {
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(&path, &sig);
            }
        }
        for flag in &self.flags {
            eprintln!("perfbench: FLAG: {flag}");
        }
    }

    pub fn to_line(&self) -> String {
        let (threshold, source) = match self.calibration {
            Some((t, s)) if t == usize::MAX => ("null".to_owned(), s),
            Some((t, s)) => (t.to_string(), s),
            None => ("null".to_owned(), "none"),
        };
        let machine = self.machine;
        let decisions: Vec<String> = self
            .decisions
            .iter()
            .map(|d| {
                format!(
                    "{{\"points\": {}, \"workers\": {}, \"threads_source\": {}, \"decision\": {}}}",
                    d.points,
                    d.workers,
                    json_str(d.source),
                    json_str(d.decision)
                )
            })
            .collect();
        let server: Vec<String> = self
            .server
            .iter()
            .map(|d| {
                format!(
                    "{{\"route\": {}, \"threads\": {}, \"threshold_points\": {}, \"source\": {}}}",
                    json_str(d.route),
                    d.threads,
                    d.threshold.map_or("null".to_owned(), |t| t.to_string()),
                    json_str(&d.source)
                )
            })
            .collect();
        let probes: Vec<String> =
            self.probe_thresholds.iter().map(ToString::to_string).collect();
        let flags: Vec<String> = self.flags.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"engine\": {{\"calibration\": {{\"threshold_points\": {threshold}, \"source\": {}}}, \
             \"probe_thresholds\": [{}], \"machine_threads\": {machine}, \"decisions\": [{}], \
             \"server\": [{}], \"flagged\": {}, \"flags\": [{}]}}}}",
            json_str(source),
            probes.join(", "),
            decisions.join(", "),
            server.join(", "),
            !self.flags.is_empty(),
            flags.join(", ")
        )
    }
}
