//! The `repro` binary's failure paths: each must exit non-zero, so a CI
//! step never mistakes a failed run (or a stale committed CSV) for output.
//! Every case is cheap: `fig4` simulates nothing and the `trace` and
//! `ext_chaos` cases are rejected before simulating.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A results directory that cannot be created: it sits under a file, one
/// per test so that no two tests share it.
fn unwritable_dir(test: &str) -> PathBuf {
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("repro_cli_{test}"));
    std::fs::write(&file, b"").expect("create placeholder file");
    file.join("results")
}

/// Run `repro args…` with its CSVs sent to `results`, expecting failure;
/// returns its stderr.
fn repro_fails(results: &Path, args: &[&str]) -> String {
    let Output { status, stderr, .. } = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("PROPHET_RESULTS_DIR", results)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&stderr).into_owned();
    assert!(
        !status.success(),
        "repro {args:?} exited {status}: {stderr}"
    );
    stderr
}

#[test]
fn unwritable_results_dir_fails_the_run() {
    let stderr = repro_fails(&unwritable_dir("fig4"), &["fig4"]);
    assert!(stderr.contains("could not write CSV"), "{stderr}");
}

#[test]
fn unknown_experiment_fails() {
    let stderr = repro_fails(&unwritable_dir("unknown"), &["no_such_experiment"]);
    assert!(stderr.contains("unknown experiment"), "{stderr}");
}

#[test]
fn negative_trace_bandwidth_fails() {
    let args = ["trace", "fifo", "-1"];
    let stderr = repro_fails(&unwritable_dir("negative_gbps"), &args);
    assert!(stderr.contains("bad gbps"), "{stderr}");
}

#[test]
fn trailing_trace_argument_fails() {
    let args = ["trace", "fifo", "1", "64", "0", "extra"];
    let stderr = repro_fails(&unwritable_dir("trailing_arg"), &args);
    assert!(stderr.contains("unexpected argument"), "{stderr}");
}

#[test]
fn unknown_chaos_profile_fails() {
    let args = ["ext_chaos", "42", "1", "bogus"];
    let stderr = repro_fails(&unwritable_dir("bogus_profile"), &args);
    assert!(stderr.contains("unknown profile `bogus`"), "{stderr}");
    assert!(
        stderr.contains("transient|churn|corruption|mixed"),
        "{stderr}"
    );
}

#[test]
fn retired_sweep_id_fails() {
    let stderr = repro_fails(&unwritable_dir("ext_elastic"), &["ext_elastic", "42", "1"]);
    assert!(
        stderr.contains("unknown experiment `ext_elastic`"),
        "{stderr}"
    );
}
