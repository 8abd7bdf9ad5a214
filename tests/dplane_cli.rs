#![allow(clippy::unwrap_used)] // test code
//! `cay dplane` rejects bad input with a message and exit status 2 —
//! never a panic (exit 101) — the same way `cay serve` treats its bad
//! inputs, and classifies a flow by its client the way `cay serve`
//! does. `cay pcap`, which writes the captures it replays, is checked
//! here too.

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
    // Removed options are unknown like any other: the threaded plane's
    // worker count, and the switch that skipped the proof gate (the
    // gate is always on).
    for option in ["threads", "unchecked", "anything"] {
        let flag = format!("--{option}");
        assert_usage_error(&cay_dplane(&flag), &format!("unknown option {flag}"));
    }
    // A bare number is a path like any other: no such capture, exit 2.
    assert_usage_error(&cay_dplane("8"), "dplane: 8:");
}

/// Remove the censor's, client's and server's captures `cay pcap` wrote.
fn remove_captures(path: &str) {
    for file in [
        path.to_string(),
        format!("{path}.client"),
        format!("{path}.server"),
    ] {
        std::fs::remove_file(file).unwrap();
    }
}

/// `cay pcap <file> [id]` writes the censor's vantage to `<file>` and
/// the client's and server's beside it; an id outside 0–11 or an extra
/// argument is a usage error that writes nothing.
#[test]
fn pcap_writes_three_vantages_and_refuses_unknown_ids() {
    let path = std::env::temp_dir().join(format!("cay-dplane-cli-{}-s2.pcap", std::process::id()));
    let path = path.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cay"))
        .args(["pcap", path, "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "cay pcap failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for file in [
        path.to_string(),
        format!("{path}.client"),
        format!("{path}.server"),
    ] {
        let capture = std::fs::read(&file).unwrap();
        assert_eq!(&capture[..4], &0xa1b2_c3d4u32.to_le_bytes(), "{file}");
        assert!(stdout.contains(&format!("{file}: ")), "{stdout}");
    }
    assert!(stdout.contains("outcome: "), "{stdout}");
    remove_captures(path);

    for args in [&[path, "12"][..], &[path, "one"], &[path, "1", "extra"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_cay"))
            .arg("pcap")
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: cay pcap"), "{stderr}");
        assert!(
            !std::path::Path::new(path).exists(),
            "{args:?} wrote {path}"
        );
    }
}

/// A flow whose first captured packet comes from the server (the
/// client's SYN fell before the capture started) still classifies by
/// its client: the `Classifier` contract says a flow re-classifies the
/// same way whichever packet opens it.
#[test]
fn server_first_capture_still_gets_the_clients_strategy() {
    let path = std::env::temp_dir().join(format!(
        "cay-dplane-cli-{}-exchange.pcap",
        std::process::id()
    ));
    let path = path.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cay"))
        .args(["pcap", path])
        .output()
        .unwrap();
    assert!(out.status.success(), "cay pcap failed: {out:?}");
    let capture = std::fs::read(path).unwrap();
    remove_captures(path);

    // µs-pcap: a 24-byte global header, then records of a 16-byte
    // header (captured length at offset 8) plus the frame. Drop the
    // first record, the client's SYN.
    let first = 24;
    let len = u32::from_le_bytes(capture[first + 8..first + 12].try_into().unwrap());
    let rest = first + 16 + usize::try_from(len).unwrap();
    let mut stripped = capture[..first].to_vec();
    stripped.extend_from_slice(&capture[rest..]);
    let stripped = scratch_file("server-first.pcap", &stripped);
    let out = cay_dplane(stripped.to_str().unwrap());
    std::fs::remove_file(&stripped).unwrap();

    assert!(out.status.success(), "{out:?}");
    let json = String::from_utf8(out.stdout).unwrap();
    let leaves = strata::json::leaves(&json).unwrap();
    assert!(
        leaves.contains(&("totals.pass_through".to_string(), "0")),
        "{json}"
    );
    assert!(
        leaves
            .iter()
            .any(|(path, _)| path.starts_with("totals.applies.")),
        "{json}"
    );
}

/// The synthetic workload's metrics document is pinned byte for byte:
/// `cay dplane` output is a public interface.
#[test]
fn synthetic_workload_metrics_match_the_committed_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_cay"))
        .arg("dplane")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let json = String::from_utf8(out.stdout).unwrap();
    assert_eq!(json, include_str!("golden/dplane_synthetic.json"));
}
