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

/// A bench file with every number (and `null`, which stands in for a
/// number the host cannot measure) replaced by `#`, digits inside
/// strings included: what is left is the key layout CI's gate reads.
fn skeleton(json: &str) -> String {
    let json = json.replace("null", "#");
    let mut out = String::new();
    for c in json.chars() {
        if c.is_ascii_digit() {
            if !out.ends_with('#') {
                out.push('#');
            }
        } else if !(c == '.' && out.ends_with('#')) {
            out.push(c);
        }
    }
    out
}

/// Both bench files keep their key layout. The pool's `runs` array has
/// one entry per jobs level (1, 2, 8, plus the host default when it is
/// none of those), so its length is not pinned.
#[test]
fn bench_files_keep_their_key_layout() {
    let dir = std::env::temp_dir().join(format!("cay-bench-cli-{}-layout", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cay"))
        .args(["bench", "4"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let pool = std::fs::read_to_string(dir.join("BENCH_pool.json"));
    let dplane = std::fs::read_to_string(dir.join("BENCH_dplane.json"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.status.success(), "{out:?}");

    let run = "{\"label\":\"bench/jobs=#\",\"trials\":#,\"wall_ms\":#,\"trials_per_sec\":#,\
               \"workers\":#,\"allocs_per_trial\":#,\"speedup\":#}";
    let pool = skeleton(&pool.unwrap());
    let runs = pool.matches("{\"label\"").count();
    assert!(runs >= 3, "{pool}");
    assert_eq!(
        pool,
        format!(
            "{{\"bench\":\"pool\",\"trials_per_run\":#,\"effective_cores\":#,\
             \"estimates_identical\":true,\"scaling_factor\":#,\"speedup\":#,\"runs\":[{}]}}\n",
            vec![run; runs].join(",")
        )
    );
    assert_eq!(
        skeleton(&dplane.unwrap()),
        "{\"bench\":\"dplane\",\"strategy\":\"Sim. Open, Injected RST\",\"count_allocs\":false,\
         \"applications\":#,\"interp_pps\":#,\"interp_allocs_per_packet\":#,\"compiled_pps\":#,\
         \"compiled_allocs_per_packet\":#,\"compiled_speedup\":#,\"effective_cores\":#,\
         \"flow_bytes_per_flow\":#,\"plane\":{\"packets\":#,\"emitted\":#,\"pps\":#,\"allocs_per_packet\":#}}\n"
    );
}
