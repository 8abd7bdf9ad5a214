#![allow(clippy::unwrap_used)] // test code
//! `cay dplane` rejects bad input with a message and exit status 2 —
//! never a panic (exit 101) — the same way `cay serve` treats its bad
//! inputs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cay_dplane(arg: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cay"))
        .args(["dplane", arg])
        .output()
        .unwrap()
}

/// Exit status 2, a message naming the problem, and no panic.
fn assert_usage_error(out: &Output, expect_in_stderr: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains(expect_in_stderr), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no metrics on failure");
}

fn scratch_file(name: &str, contents: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cay-dplane-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn unreadable_or_non_pcap_input_exits_2() {
    let missing = std::env::temp_dir().join(format!(
        "cay-dplane-cli-{}-missing.pcap",
        std::process::id()
    ));
    let missing = missing.to_str().unwrap();
    assert_usage_error(&cay_dplane(missing), missing);

    let junk = scratch_file("junk.pcap", b"this is not a pcap capture\n");
    let out = cay_dplane(junk.to_str().unwrap());
    std::fs::remove_file(&junk).unwrap();
    assert_usage_error(&out, "not a µs-pcap stream");
}

#[test]
fn removed_threads_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_cay"))
        .args(["dplane", "--threads", "8"])
        .output()
        .unwrap();
    assert_usage_error(&out, "unknown option --threads");
    assert_usage_error(&cay_dplane("--anything"), "unknown option --anything");
    // A bare number is a path like any other: no such capture, exit 2.
    assert_usage_error(&cay_dplane("8"), "dplane: 8:");
}
