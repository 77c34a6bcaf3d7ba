//! The reproduction harness: one module per figure/table of the ACT paper.
//!
//! Every module exposes a `run()` function returning a typed result struct
//! whose `Display` implementation prints the same rows/series the paper
//! reports. Tests in each module pin the paper's qualitative claims: who
//! wins under each metric, by roughly what factor, and where crossovers
//! fall. EXPERIMENTS.md records paper-vs-measured for each.
//!
//! # Examples
//!
//! ```
//! let fig12 = act_experiments::fig12::run();
//! assert_eq!(fig12.optimum(act_core::OptimizationMetric::Cdp), 1024);
//! println!("{fig12}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod ext_datacenter;
pub mod ext_devices;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod probe;
pub mod render;
pub mod table12;
pub mod table4;
pub mod tables;

/// Experiment IDs in paper order, as accepted by [`render_experiment`].
pub const EXPERIMENT_IDS: [&str; 21] = [
    "fig1",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table4",
    "table5-11",
    "table12",
    "ablations",
    "datacenter",
    "devices",
    "all",
];

/// A finished experiment result, rendered on demand as text or JSON.
trait Rendered: std::fmt::Display + act_json::ToJson + Send {}

impl<T: std::fmt::Display + act_json::ToJson + Send> Rendered for T {}

/// Runs one concrete experiment. Returns `None` for `"all"` and unknown
/// IDs.
fn run_concrete(id: &str) -> Option<Box<dyn Rendered>> {
    let result: Box<dyn Rendered> = match id {
        "fig1" => Box::new(fig1::run()),
        "fig4" => Box::new(fig4::run()),
        "fig6" => Box::new(fig6::run()),
        "fig7" => Box::new(fig7::run()),
        "fig8" => Box::new(fig8::run()),
        "fig9" => Box::new(fig9::run()),
        "fig10" => Box::new(fig10::run()),
        "fig11" => Box::new(fig11::run()),
        "fig12" => Box::new(fig12::run()),
        "fig13" => Box::new(fig13::run()),
        "fig14" => Box::new(fig14::run()),
        "fig15" => Box::new(fig15::run()),
        "fig16" => Box::new(fig16::run()),
        "fig17" => Box::new(fig17::run()),
        "table4" => Box::new(table4::run()),
        "table5-11" => Box::new(tables::run()),
        "table12" => Box::new(table12::run()),
        "ablations" => Box::new(ablations::run()),
        "datacenter" => Box::new(ext_datacenter::run()),
        "devices" => Box::new(ext_devices::run()),
        _ => return None,
    };
    Some(result)
}

/// Renders one experiment (or `"all"`) to text. Returns `None` for an
/// unknown ID.
#[must_use]
pub fn render_experiment(id: &str) -> Option<String> {
    if id != "all" {
        return run_concrete(id).map(|result| result.to_string());
    }
    let mut out = String::new();
    for id in concrete_experiment_ids() {
        out.push_str(&render_experiment(id)?);
        out.push('\n');
    }
    Some(out)
}

/// Serializes a result to one compact JSON line. Compact (not pretty) so
/// each experiment is a single line on stdout: `act --json a b c` emits
/// newline-delimited JSON that per-line consumers (`jq`, the CLI tests)
/// can parse without a streaming parser.
fn json<T: act_json::ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render_compact()
}

/// One `{"id": ..., "result": ...}` element of the JSON `all` array.
fn all_entry(id: &str, result: act_json::JsonValue) -> act_json::JsonValue {
    act_json::obj! { "id": id, "result": result }
}

/// Serializes one experiment's typed result to compact JSON. For `"all"`,
/// emits a JSON array of `{"id": ..., "result": ...}` objects, one per
/// concrete experiment in paper order, built from each result's
/// `to_json()` value. Returns `None` for unknown IDs.
///
/// # Panics
///
/// Panics only if an experiment itself panics; experiment results
/// contain only plain data, and `ToJson` is total.
#[must_use]
pub fn render_experiment_json(id: &str) -> Option<String> {
    if id != "all" {
        return run_concrete(id).map(|result| json(&*result));
    }
    let entries = concrete_experiment_ids()
        .into_iter()
        .map(|id| Some(all_entry(id, run_concrete(id)?.to_json())))
        .collect::<Option<Vec<_>>>()?;
    Some(json(&entries))
}

/// Output format accepted by [`try_render_experiment`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// The human-readable rendering of [`render_experiment`].
    Text,
    /// The compact one-line JSON rendering of [`render_experiment_json`].
    Json,
}

/// Error returned by [`try_render_experiment`]: either the ID is unknown,
/// or the experiment itself failed (panicked) while running.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// The requested ID is not in [`EXPERIMENT_IDS`].
    UnknownId(String),
    /// The experiment started but failed; `message` carries the panic
    /// payload so callers can report a structured diagnostic.
    Failed {
        /// The experiment that failed.
        id: String,
        /// The captured panic message.
        message: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownId(id) => {
                write!(f, "unknown experiment `{id}` (try `act list`)")
            }
            Self::Failed { id, message } => {
                write!(f, "experiment `{id}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Postfix lookup for elements that exist by construction of the result
/// structs (every `run()` builds its rows from fixed configuration tables).
/// A miss means the experiment itself is broken, so this panics with a
/// message naming the violated invariant instead of a bare `expect`.
pub(crate) trait Present<T> {
    /// Unwraps, naming the construction invariant that guarantees presence.
    fn present(self, invariant: &str) -> T;
}

impl<T> Present<T> for Option<T> {
    fn present(self, invariant: &str) -> T {
        match self {
            Some(value) => value,
            None => panic!("experiment invariant violated: {invariant}"),
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_owned()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "experiment panicked".to_owned()
    }
}

/// Fault-isolating variant of [`render_experiment`] /
/// [`render_experiment_json`]: an unknown ID or a panicking experiment
/// becomes an [`ExperimentError`] instead of aborting the caller, so a
/// batch run can report one failure and keep rendering the rest.
///
/// # Errors
///
/// Returns [`ExperimentError::UnknownId`] when `id` is not in
/// [`EXPERIMENT_IDS`], and [`ExperimentError::Failed`] when the experiment
/// panics while running.
///
/// # Examples
///
/// ```
/// use act_experiments::{try_render_experiment, ExperimentError, OutputFormat};
///
/// let out = try_render_experiment("fig12", OutputFormat::Text).unwrap();
/// assert!(!out.is_empty());
/// let err = try_render_experiment("bogus", OutputFormat::Text).unwrap_err();
/// assert!(matches!(err, ExperimentError::UnknownId(_)));
/// ```
pub fn try_render_experiment(
    id: &str,
    format: OutputFormat,
) -> Result<String, ExperimentError> {
    if !EXPERIMENT_IDS.contains(&id) {
        return Err(ExperimentError::UnknownId(id.to_owned()));
    }
    isolated(id, || match format {
        OutputFormat::Text => render_experiment(id),
        OutputFormat::Json => render_experiment_json(id),
    })?
    .ok_or_else(|| ExperimentError::UnknownId(id.to_owned()))
}

/// The concrete experiment IDs — [`EXPERIMENT_IDS`] without the `"all"`
/// meta-entry — in paper order.
#[must_use]
pub fn concrete_experiment_ids() -> Vec<&'static str> {
    EXPERIMENT_IDS.iter().copied().filter(|id| *id != "all").collect()
}

/// An experiment whose FTL simulations the parallel schedule runs as
/// separate pool units: its probe list, and its result built from their
/// measured values.
struct Split {
    id: &'static str,
    probes: fn() -> Vec<probe::WaProbe>,
    assemble: fn(&[f64]) -> Box<dyn Rendered>,
}

/// Every experiment that runs FTL simulations. Together they are nearly
/// all of `all`'s compute.
static SPLITS: [Split; 2] = [
    Split { id: "fig15", probes: fig15::probes, assemble: |wa| Box::new(fig15::assemble(wa)) },
    Split {
        id: "ablations",
        probes: ablations::probes,
        assemble: |wa| Box::new(ablations::assemble(wa)),
    },
];

/// What one unit of the parallel schedule produced.
enum Done<P> {
    /// One FTL measurement of a [`Split`] experiment.
    Wa(f64),
    /// A whole experiment, rendered.
    Part(P),
}

/// Runs `f` fault-isolated: a panic becomes [`ExperimentError::Failed`]
/// against `id`.
fn isolated<T>(id: &str, f: impl FnOnce() -> T) -> Result<T, ExperimentError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        ExperimentError::Failed { id: id.to_owned(), message: panic_message(payload.as_ref()) }
    })
}

/// Runs the concrete experiments `ids` as one flat pool dispatch and
/// returns each one's rendering (or failure) in `ids` order. `splits` is
/// [`SPLITS`] outside tests.
///
/// The units are every FTL probe of every [`Split`] experiment, heaviest
/// first, then each remaining experiment whole; the pool's shared cursor
/// hands them out in that order, so the light experiments fill the cores
/// while the last probes finish. Each split experiment is then assembled
/// from its measured values. Every unit and every assembly runs under
/// `catch_unwind`.
fn run_schedule<P: Send>(
    ids: &[&'static str],
    splits: &[Split],
    parallelism: act_dse::Parallelism,
    render: fn(&dyn Rendered) -> P,
) -> Vec<Result<P, ExperimentError>> {
    // Per experiment: its split and probe list, or `None` to run it whole.
    let plan: Vec<Option<(&Split, Vec<probe::WaProbe>)>> = ids
        .iter()
        .map(|id| splits.iter().find(|split| split.id == *id).map(|s| (s, (s.probes)())))
        .collect();
    let probes: Vec<(&str, probe::WaProbe)> = plan
        .iter()
        .flatten()
        .flat_map(|(split, probes)| probes.iter().map(|probe| (split.id, *probe)))
        .collect();
    let whole: Vec<&str> =
        ids.iter().zip(&plan).filter(|(_, split)| split.is_none()).map(|(id, _)| *id).collect();
    let mut done = act_dse::par_map_range(parallelism, probes.len() + whole.len(), |unit| {
        if let Some(&(id, probe)) = probes.get(unit) {
            return isolated(id, || Done::Wa(probe.measure()));
        }
        let id = whole[unit - probes.len()];
        isolated(id, || run_concrete(id).map(|result| Done::Part(render(&*result))))?
            .ok_or_else(|| ExperimentError::UnknownId(id.to_owned()))
    });
    let mut whole_done = done.split_off(probes.len()).into_iter();
    let mut probe_done = done.into_iter();
    ids.iter()
        .zip(plan)
        .map(|(&id, split)| {
            let Some((split, probes)) = split else {
                return match whole_done.next() {
                    Some(Ok(Done::Part(part))) => Ok(part),
                    Some(Err(err)) => Err(err),
                    _ => Err(ExperimentError::UnknownId(id.to_owned())),
                };
            };
            let mut wa = Vec::with_capacity(probes.len());
            for unit in probe_done.by_ref().take(probes.len()) {
                if let Done::Wa(value) = unit? {
                    wa.push(value);
                }
            }
            // `assemble` checks it got one value per probe.
            isolated(id, || render(&*(split.assemble)(&wa)))
        })
        .collect()
}

/// Wraps a concrete experiment's failure as an `"all"` failure, preserving
/// the serial contract (a failure inside `all` is reported against `all`)
/// while keeping the failing sub-experiment named in the message.
fn lift_all_error(err: &ExperimentError) -> ExperimentError {
    ExperimentError::Failed { id: "all".to_owned(), message: err.to_string() }
}

/// Parallel variant of [`try_render_experiment`].
///
/// Experiments evaluate as one flat schedule of independent pool units:
/// each FTL simulation of `fig15` and `ablations` is its own unit, and
/// every other experiment is one unit. `"all"` schedules every concrete
/// experiment at once and assembles the output in paper order; a concrete
/// ID schedules just itself (so `fig15` also spreads its simulations over
/// the pool). The output is byte-identical to [`try_render_experiment`]
/// whenever every experiment succeeds. [`Parallelism::Serial`] runs the
/// same units in order on the calling thread (no threads are spawned).
///
/// [`Parallelism::Serial`]: act_dse::Parallelism::Serial
///
/// # Errors
///
/// Returns [`ExperimentError::UnknownId`] for IDs outside
/// [`EXPERIMENT_IDS`], and [`ExperimentError::Failed`] when a concrete
/// experiment (or one of its FTL simulations) panics. A failing
/// sub-experiment of `"all"` surfaces as [`ExperimentError::Failed`] with
/// `id == "all"` (matching the serial contract, where the panic unwinds out
/// of the whole `all` rendering) and a message naming the concrete
/// experiment that failed.
///
/// # Examples
///
/// ```
/// use act_dse::Parallelism;
/// use act_experiments::{par_try_render_experiment, try_render_experiment, OutputFormat};
///
/// let parallel =
///     par_try_render_experiment("fig12", OutputFormat::Text, Parallelism::Auto).unwrap();
/// assert_eq!(parallel, try_render_experiment("fig12", OutputFormat::Text).unwrap());
/// ```
pub fn par_try_render_experiment(
    id: &str,
    format: OutputFormat,
    parallelism: act_dse::Parallelism,
) -> Result<String, ExperimentError> {
    let Some(&id) = EXPERIMENT_IDS.iter().find(|known| **known == id) else {
        return Err(ExperimentError::UnknownId(id.to_owned()));
    };
    let all = id == "all";
    let ids = if all { concrete_experiment_ids() } else { vec![id] };
    let lift = |err: ExperimentError| if all { lift_all_error(&err) } else { err };
    match format {
        OutputFormat::Text => {
            let mut out = String::new();
            for part in run_schedule(&ids, &SPLITS, parallelism, |result| result.to_string()) {
                out.push_str(&part.map_err(lift)?);
                if all {
                    out.push('\n');
                }
            }
            Ok(out)
        }
        OutputFormat::Json => {
            let parts = run_schedule(&ids, &SPLITS, parallelism, |result| result.to_json());
            let mut entries = Vec::with_capacity(ids.len());
            for (id, part) in ids.iter().zip(parts) {
                let value = part.map_err(lift)?;
                if !all {
                    return Ok(value.render_compact());
                }
                entries.push(all_entry(id, value));
            }
            Ok(json(&entries))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_renders_nonempty_text() {
        for id in EXPERIMENT_IDS {
            let text = render_experiment(id).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(text.len() > 80, "{id} rendered only {} bytes", text.len());
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(render_experiment("fig99").is_none());
    }

    #[test]
    fn every_concrete_experiment_serializes_to_json() {
        for id in EXPERIMENT_IDS.iter().filter(|id| **id != "all") {
            let json =
                render_experiment_json(id).unwrap_or_else(|| panic!("{id} should serialize"));
            let parsed =
                act_json::JsonValue::parse(&json).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(parsed.is_object() || parsed.is_array() || parsed.is_null(), "{id}");
        }
    }

    #[test]
    fn all_serializes_to_a_json_array_of_every_experiment() {
        let json = render_experiment_json("all").expect("`all` should serialize");
        let parsed = act_json::JsonValue::parse(&json).unwrap();
        let entries = parsed.as_array().expect("`all` should be a JSON array");
        assert_eq!(entries.len(), EXPERIMENT_IDS.len() - 1);
        for (entry, id) in entries.iter().zip(EXPERIMENT_IDS) {
            assert_eq!(entry["id"], id, "entries should follow paper order");
            assert!(!entry["result"].is_null(), "{id} result should be present");
        }
    }

    #[test]
    fn try_render_distinguishes_unknown_ids() {
        let err = try_render_experiment("fig99", OutputFormat::Json).unwrap_err();
        assert_eq!(err, ExperimentError::UnknownId("fig99".to_owned()));
        assert!(err.to_string().contains("fig99"));
        let text = try_render_experiment("fig12", OutputFormat::Text).unwrap();
        assert_eq!(text, render_experiment("fig12").unwrap());
        let json = try_render_experiment("fig12", OutputFormat::Json).unwrap();
        assert_eq!(json, render_experiment_json("fig12").unwrap());
    }

    #[test]
    fn parallel_all_matches_serial_all_byte_for_byte() {
        use act_dse::Parallelism;
        for format in [OutputFormat::Text, OutputFormat::Json] {
            let serial = try_render_experiment("all", format).unwrap();
            let seq = par_try_render_experiment("all", format, Parallelism::Serial).unwrap();
            let par =
                par_try_render_experiment("all", format, Parallelism::threads(4)).unwrap();
            assert_eq!(serial, seq, "{format:?}");
            assert_eq!(serial, par, "{format:?}");
        }
    }

    #[test]
    fn split_experiments_match_serial_at_every_thread_count() {
        use act_dse::Parallelism;
        for id in ["fig15", "ablations"] {
            for format in [OutputFormat::Text, OutputFormat::Json] {
                let serial = try_render_experiment(id, format).unwrap();
                for parallelism in
                    [Parallelism::Serial, Parallelism::threads(2), Parallelism::threads(5)]
                {
                    let par = par_try_render_experiment(id, format, parallelism).unwrap();
                    assert_eq!(serial, par, "{id} {format:?} {parallelism:?}");
                }
            }
        }
    }

    #[test]
    fn a_failing_split_assembly_is_a_typed_error_naming_its_experiment() {
        use act_dse::Parallelism;
        // fig15's assembly fed ablations' two probes: the count check panics.
        let broken = [Split {
            id: "fig15",
            probes: ablations::probes,
            assemble: |wa| Box::new(fig15::assemble(wa)),
        }];
        for parallelism in [Parallelism::Serial, Parallelism::threads(3)] {
            let parts =
                run_schedule(&["fig12", "fig15", "table4"], &broken, parallelism, |r| {
                    r.to_string()
                });
            assert_eq!(parts[0], Ok(render_experiment("fig12").unwrap()));
            assert_eq!(parts[2], Ok(render_experiment("table4").unwrap()));
            let err = parts[1].clone().unwrap_err();
            assert!(
                matches!(&err, ExperimentError::Failed { id, message }
                    if id == "fig15" && message.contains("one FTL measurement per grid point")),
                "{err:?}"
            );
            let lifted = lift_all_error(&err);
            assert!(matches!(&lifted, ExperimentError::Failed { id, message }
                if id == "all" && message.contains("`fig15` failed")));
        }
    }

    #[test]
    fn isolated_turns_panics_into_failures_against_the_id() {
        assert_eq!(isolated("fig1", || 7), Ok(7));
        let err = isolated("fig15", || -> u8 { panic!("probe exploded") }).unwrap_err();
        assert_eq!(
            err,
            ExperimentError::Failed {
                id: "fig15".to_owned(),
                message: "probe exploded".to_owned()
            }
        );
    }

    #[test]
    fn json_all_is_built_from_each_results_value() {
        let all = act_json::JsonValue::parse(&render_experiment_json("all").unwrap()).unwrap();
        let entries = all.as_array().unwrap();
        for (entry, id) in entries.iter().zip(concrete_experiment_ids()) {
            let single =
                act_json::JsonValue::parse(&render_experiment_json(id).unwrap()).unwrap();
            assert_eq!(entry["result"], single, "{id}");
        }
    }

    #[test]
    fn parallel_concrete_ids_delegate_to_serial() {
        use act_dse::Parallelism;
        let serial = try_render_experiment("table4", OutputFormat::Json).unwrap();
        let par =
            par_try_render_experiment("table4", OutputFormat::Json, Parallelism::Auto).unwrap();
        assert_eq!(serial, par);
        let err = par_try_render_experiment("fig99", OutputFormat::Text, Parallelism::Auto)
            .unwrap_err();
        assert_eq!(err, ExperimentError::UnknownId("fig99".to_owned()));
    }

    #[test]
    fn concrete_ids_exclude_the_all_meta_entry() {
        let ids = concrete_experiment_ids();
        assert_eq!(ids.len(), EXPERIMENT_IDS.len() - 1);
        assert!(!ids.contains(&"all"));
        assert_eq!(ids[0], "fig1");
    }

    #[test]
    fn panic_messages_are_extracted_from_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("boom: {}", 42)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "boom: 42");
        let caught = std::panic::catch_unwind(|| panic!("static payload")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "static payload");
    }
}
