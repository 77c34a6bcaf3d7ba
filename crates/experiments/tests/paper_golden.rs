//! Byte-level golden pin for the whole paper artifact.
//!
//! `fixtures/all.json` is the exact stdout of `act --json all`. Floats
//! render at shortest round-trip precision, so these bytes pin every bit
//! of every experiment's result, not just its rounded text table. Both
//! the serial renderer and the pooled flat schedule must reproduce it.
//!
//! Regenerating (only valid after an *intentional* semantic change):
//! `act --json all > crates/experiments/tests/fixtures/all.json`, in the
//! same commit that justifies the change.

use act_dse::Parallelism;
use act_experiments::{par_try_render_experiment, try_render_experiment, OutputFormat};

/// The CLI prints the JSON array followed by one newline.
const GOLDEN: &str = include_str!("fixtures/all.json");

/// Asserts `out` equals the fixture, reporting the first differing byte
/// instead of dumping two 25 KB strings.
fn assert_golden(out: &str, renderer: &str) {
    let golden = GOLDEN.strip_suffix('\n').expect("fixture ends with the CLI's newline");
    if out == golden {
        return;
    }
    let at = out.bytes().zip(golden.bytes()).take_while(|(a, b)| a == b).count();
    let context = |s: &str| {
        String::from_utf8_lossy(&s.as_bytes()[at.saturating_sub(40)..])
            .chars()
            .take(80)
            .collect::<String>()
    };
    panic!(
        "{renderer} `all` JSON drifted from fixtures/all.json at byte {at} (len {} vs {}):\n  got:      {}\n  expected: {}",
        out.len(),
        golden.len(),
        context(out),
        context(golden),
    );
}

#[test]
fn serial_json_all_is_byte_identical_to_the_golden() {
    let out = try_render_experiment("all", OutputFormat::Json).expect("all renders");
    assert_golden(&out, "serial");
}

#[test]
fn pooled_json_all_is_byte_identical_to_the_golden() {
    let out = par_try_render_experiment("all", OutputFormat::Json, Parallelism::threads(2))
        .expect("all renders");
    assert_golden(&out, "pooled");
}
