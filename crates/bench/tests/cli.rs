//! Argument validation of the `repro` binary: an unknown experiment name
//! or flag is a usage error (exit code 2) raised before any experiment
//! runs, even when `all` is also given.

use std::process::Command;

fn assert_rejected(args: &[&str], bad: &str) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
    assert!(stderr.contains(&format!("`{bad}`")), "{args:?}: stderr {stderr}");
}

#[test]
fn removed_experiment_is_rejected() {
    assert_rejected(&["bench-solver"], "bench-solver");
}

#[test]
fn unknown_name_is_rejected_next_to_all() {
    assert_rejected(&["all", "bogus"], "bogus");
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&["--quik", "table1"], "--quik");
}
