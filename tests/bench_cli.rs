#![allow(clippy::unwrap_used)] // test code
//! `cay bench` rejects bad arguments with a message and exit status 2
//! before any section runs. Each case runs in an empty scratch
//! directory, which must still be empty afterwards: no bench ran and no
//! BENCH file was written.

use std::process::Output;

fn cay_bench(case: &str, args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("cay-bench-cli-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cay"))
        .arg("bench")
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(written.is_empty(), "bench wrote {written:?}");
    out
}

/// Exit status 2, a message naming the problem, and no panic.
fn assert_usage_error(out: &Output, expect_in_stderr: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains(expect_in_stderr), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no bench output on failure");
}

#[test]
fn retired_sections_name_their_replacement() {
    assert_usage_error(&cay_bench("hotpath", &["--only", "hotpath"]), "dplane");
    assert_usage_error(&cay_bench("svc", &["--only", "svc"]), "ledger");
}

#[test]
fn unknown_or_missing_section_exits_2() {
    assert_usage_error(&cay_bench("bogus", &["--only", "bogus"]), "pool or dplane");
    assert_usage_error(&cay_bench("missing", &["--only"]), "pool or dplane");
}

#[test]
fn third_output_path_exits_2() {
    let out = cay_bench("paths", &["10", "p.json", "d.json", "h.json"]);
    assert_usage_error(&out, "h.json");
}

#[test]
fn non_numeric_trial_count_exits_2() {
    assert_usage_error(&cay_bench("trials", &["lots"]), "lots");
    assert_usage_error(&cay_bench("zero", &["0", "--only", "pool"]), "trial count");
}
