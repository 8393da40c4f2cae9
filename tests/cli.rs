//! The `simctl fig` front door end to end: malformed keys exit 2 before
//! anything runs, and the figure bytes do not depend on `jobs`.

use std::process::{Command, Output};

fn simctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simctl"))
        .args(args)
        .output()
        .expect("simctl runs")
}

fn assert_rejected(args: &[&str]) {
    let out = simctl(args);
    assert_eq!(out.status.code(), Some(2), "simctl {args:?} must exit 2");
    assert!(out.stdout.is_empty(), "simctl {args:?} printed rows");
}

#[test]
fn malformed_numa_grid_is_rejected_not_replaced_by_the_default() {
    assert_rejected(&["fig", "numa", "grid=2y88"]);
    assert_rejected(&["fig", "numa", "grid=0x44"]);
}

#[test]
fn zero_ops_is_rejected() {
    assert_rejected(&["fig", "fig1", "ops=0"]);
}

#[test]
fn a_zero_thread_count_is_rejected() {
    assert_rejected(&["fig", "fig1", "threads=1,0"]);
}

#[test]
fn an_unknown_figure_or_key_is_rejected() {
    assert_rejected(&["fig", "fig4"]);
    assert_rejected(&["fig", "fig1", "opz=3"]);
    assert_rejected(&["fig", "fig1", "ops=abc"]);
}

#[test]
fn all_figures_are_byte_identical_across_job_counts() {
    let run = |jobs: &str| {
        let out = simctl(&["fig", "all", "ops=20", "threads=1,2", jobs]);
        assert!(out.status.success(), "simctl fig all {jobs} failed");
        out.stdout
    };
    let serial = run("jobs=1");
    assert!(serial.starts_with(b"# Figure 1"));
    assert_eq!(serial, run("jobs=2"));
}
