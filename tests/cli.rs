//! End-to-end tests of the `macgame` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_macgame")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn ne_subcommand_reports_the_efficient_window() {
    let (stdout, _, ok) = run(&["ne", "--n", "5"]);
    assert!(ok);
    assert!(stdout.contains("W_c* = 79"), "stdout: {stdout}");
    assert!(stdout.contains("NE interval"));
}

#[test]
fn rtscts_flag_changes_the_answer() {
    let (basic, _, _) = run(&["ne", "--n", "5"]);
    let (rtscts, _, ok) = run(&["ne", "--n", "5", "--rtscts"]);
    assert!(ok);
    assert_ne!(basic, rtscts);
    assert!(rtscts.contains("RTS/CTS"));
}

#[test]
fn sweep_emits_csv() {
    let (stdout, _, ok) = run(&["sweep", "--n", "3", "--w-max", "64"]);
    assert!(ok);
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("w,u_per_node,u_over_c"));
    let first = lines.next().expect("data rows");
    assert!(first.starts_with("1,"), "first row: {first}");
}

#[test]
fn search_subcommand_finds_the_optimum() {
    let (stdout, _, ok) = run(&["search", "--n", "5", "--start", "60"]);
    assert!(ok);
    assert!(stdout.contains("found W_m = 79"), "stdout: {stdout}");
}

#[test]
fn bad_usage_exits_nonzero_with_usage() {
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    let (_, stderr, ok) = run(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    let (_, stderr, ok) = run(&["simulate", "--n", "3"]);
    assert!(!ok);
    assert!(stderr.contains("--w"));
}
