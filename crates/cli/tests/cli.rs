//! End-to-end tests of the `act` binary: the parallel engine must be
//! output-identical to `--serial`, honour `ACT_THREADS`, and the
//! `bench-sweep` probe must emit well-formed JSON.

use std::process::{Command, Output};

fn act(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_act")).args(args).output().expect("spawn act")
}

fn act_with_env(args: &[&str], key: &str, value: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_act"))
        .args(args)
        .env(key, value)
        .output()
        .expect("spawn act")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

#[test]
fn parallel_and_serial_runs_are_byte_identical() {
    // A multi-id request exercises the outer parallel fan-out; fig12/fig13
    // are cheap enough to keep the test fast.
    let parallel = act(&["fig12", "fig13", "table4"]);
    let serial = act(&["--serial", "fig12", "fig13", "table4"]);
    assert!(parallel.status.success());
    assert!(serial.status.success());
    assert_eq!(parallel.stdout, serial.stdout);
}

#[test]
fn parallel_and_serial_json_runs_are_byte_identical() {
    let parallel = act(&["--json", "fig12", "table4"]);
    let serial = act(&["--json", "--serial", "fig12", "table4"]);
    assert!(parallel.status.success());
    assert!(serial.status.success());
    assert_eq!(parallel.stdout, serial.stdout);
    // And the payload is still valid JSON per line.
    for line in stdout(&parallel).lines() {
        let _ = act_json::JsonValue::parse(line).expect("json line");
    }
}

#[test]
fn act_threads_env_override_is_honoured() {
    let one = act_with_env(&["fig12", "fig13"], "ACT_THREADS", "1");
    let two = act_with_env(&["fig12", "fig13"], "ACT_THREADS", "2");
    assert!(one.status.success());
    assert!(two.status.success());
    assert_eq!(one.stdout, two.stdout);
}

#[test]
fn help_documents_the_parallel_controls() {
    let out = act(&["--help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("--serial"), "help must document --serial:\n{text}");
    assert!(text.contains("ACT_THREADS"), "help must document ACT_THREADS:\n{text}");
    assert!(text.contains("bench-sweep"), "help must document bench-sweep:\n{text}");
}

#[test]
fn list_keeps_stdout_bare_and_notes_parallelism_on_stderr() {
    let out = act(&["list"]);
    assert!(out.status.success());
    let ids = stdout(&out);
    assert!(ids.lines().any(|l| l == "fig12"));
    assert!(ids.lines().all(|l| !l.contains(' ')), "stdout must stay machine-readable:\n{ids}");
    assert!(stderr(&out).contains("parallel"), "list should mention the parallel engine");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    // A removed flag is rejected like any other unknown flag.
    for flag in ["--frobnicate", "--naive"] {
        let out = act(&[flag, "fig12"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(stderr(&out).contains("unknown flag"), "{flag}");
    }
}

#[test]
fn failures_are_isolated_and_exit_nonzero() {
    let out = act(&["fig12", "no-such-figure", "table4"]);
    assert_eq!(out.status.code(), Some(1));
    // Both healthy experiments still rendered, in request order.
    let text = stdout(&out);
    let fig12_at = text.find("Figure 12").expect("fig12 rendered");
    let table4_at = text.find("Table 4").expect("table4 rendered");
    assert!(fig12_at < table4_at);
    assert!(stderr(&out).contains("no-such-figure"));
}

#[test]
fn bench_sweep_emits_a_throughput_record() {
    let out = act(&["bench-sweep", "500"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let record = act_json::JsonValue::parse(stdout(&out).trim()).expect("json");
    assert_eq!(record["points"], 500);
    for key in ["serial_ms", "parallel_ms", "speedup", "evals_per_sec", "checksum"] {
        assert!(record[key].is_number(), "missing {key}: {record}");
    }
    assert!(record["threads"].is_number());
}

#[test]
fn bench_sweep_reports_resolved_parallelism() {
    // An explicit ACT_THREADS override must surface as source "env" with
    // exactly that worker count.
    let out = act_with_env(&["bench-sweep", "100"], "ACT_THREADS", "2");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let record = act_json::JsonValue::parse(stdout(&out).trim()).expect("json");
    assert_eq!(record["threads"], 2);
    assert_eq!(record["threads_source"], "env");
    let machine = record["machine_threads"].as_u64().expect("machine_threads");
    assert!(machine >= 1, "machine_threads must be positive: {record}");

    // `--serial` pins the policy, and the record says so.
    let out = act(&["bench-sweep", "100", "--serial"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let record = act_json::JsonValue::parse(stdout(&out).trim()).expect("json");
    assert_eq!(record["threads"], 1);
    assert_eq!(record["threads_source"], "policy");
}

#[test]
fn bench_sweep_rejects_bad_point_counts() {
    for bad in ["1", "0", "-3", "many"] {
        let out = act(&["bench-sweep", bad]);
        assert_eq!(out.status.code(), Some(2), "count `{bad}` must be a usage error");
    }
    let out = act(&["bench-sweep", "10", "20"]);
    assert_eq!(out.status.code(), Some(2));
}
