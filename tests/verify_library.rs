#![allow(clippy::unwrap_used)] // test code
//! Whole-library snapshot for `cay verify`: every built-in strategy
//! (the paper's 11 plus the §5 variant species) lints without a false
//! refutation, compiles through the proof gate, and renders into all
//! three report formats without structural breakage. The per-censor
//! verdict matrix is additionally pinned against a committed golden
//! snapshot so any model-checker drift shows up as a reviewable diff.
//!
//! The paper deployed each of these strategies against real censors
//! with real success rates — a strategy that works in the world and
//! fails our static analysis is, by definition, an analysis bug.

use strata::censor_model::{check_all, Verdict};
use strata::{ReportEntry, Severity};

fn library_entries() -> Vec<ReportEntry> {
    geneva::library::server_side()
        .iter()
        .chain(geneva::library::variants().iter())
        .map(|named| {
            dplane::verify(&format!("library/{}", named.name), named.text)
                .unwrap()
                .0
        })
        .collect()
}

#[test]
fn zero_false_refutations_and_all_programs_verify() {
    let entries = library_entries();
    assert!(
        entries.len() >= 13,
        "library shrank? {} entries",
        entries.len()
    );
    for e in &entries {
        assert!(
            !e.statically_futile,
            "{}: falsely proven futile\n{:?}",
            e.label, e.diagnostics
        );
        assert!(
            !e.diagnostics.iter().any(|d| d.severity == Severity::Error),
            "{}: error-severity finding on a working strategy\n{:?}",
            e.label,
            e.diagnostics
        );
        let program = e.program.as_ref().expect("every entry compiled");
        assert!(
            program.verified,
            "{}: proof gate refused a working strategy: {:?}",
            e.label, program.error
        );
        assert!(
            program.amplification().is_none(),
            "{}: library strategy meets the amplification threshold ({})",
            e.label,
            program.max_emit
        );
        assert!(
            !e.failing(),
            "{}: report marks a working strategy failing",
            e.label
        );
    }
}

#[test]
fn all_three_report_formats_render_the_library() {
    let entries = library_entries();

    let text = strata::report::render_text(&entries);
    assert!(
        text.contains(&format!("{} strategies, 0 failing", entries.len())),
        "{text}"
    );

    let json = strata::report::render_json(&entries);
    assert!(json.contains("\"failing\":0"), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());

    let sarif = strata::report::render_sarif(&entries);
    assert!(sarif.contains("\"version\":\"2.1.0\""));
    assert!(sarif.contains("\"name\":\"cay-verify\""));
    // A run with no error-level results: every result present must be
    // a warning (compat advisories) or a note (per-censor verdicts),
    // never an error.
    assert!(!sarif.contains("\"level\":\"error\""), "{sarif}");
    assert!(sarif.contains("\"ruleId\":\"censor-verdict\""), "{sarif}");
}

/// The committed golden matrix: `cay verify --library --censor all`
/// must keep producing exactly this table. Regenerate by pasting the
/// assertion's `-- actual --` output (or the CLI's) after a deliberate
/// model change; the diff is the review artifact.
#[test]
fn verdict_matrix_matches_the_committed_snapshot() {
    let entries = library_entries();
    let matrix = strata::render_verdict_matrix(&entries);
    let golden = include_str!("golden/verify_censor_matrix.txt");
    assert_eq!(
        matrix, golden,
        "\n-- actual --\n{matrix}\n-- committed --\n{golden}"
    );
}

/// `cay verify --library --censor all --format json|sarif` output is a
/// public interface (CI uploads the SARIF for code-scanning): the
/// library renders exactly the committed documents.
#[test]
fn json_and_sarif_match_the_committed_goldens() {
    let entries = library_entries();
    let json = strata::report::render_json(&entries);
    let golden = include_str!("golden/verify_library.json");
    assert_eq!(json, golden, "\n-- actual --\n{json}");
    let sarif = strata::report::render_sarif(&entries);
    let golden = include_str!("golden/verify_library.sarif");
    assert_eq!(sarif, golden, "\n-- actual --\n{sarif}");
}

/// Acceptance bar for the model checker itself: across the whole
/// library, a `ProvablyInert` verdict means the strategy evades zero
/// trials against that censor, and `ProvablyDesynced` means it evades
/// every trial (the censor provably wrote the flow off, so no
/// censorship event can fire). The GFW never receives a claim — its
/// per-flow behavior is stochastic — so every claim here is against a
/// deterministic censor and must hold exactly.
#[test]
fn verdicts_never_contradict_simulation() {
    use appproto::AppProtocol;
    use censor::Country;
    use harness::{run_trial, TrialConfig};
    use strata::CensorId;

    let trials = 6u64;
    let mut claims = 0u32;
    for named in geneva::library::server_side()
        .iter()
        .chain(geneva::library::variants().iter())
    {
        let strategy = named.strategy();
        for (id, verdict) in check_all(&strata::summarize(&strategy)) {
            if verdict == Verdict::Unknown {
                continue;
            }
            claims += 1;
            let country = match id {
                CensorId::Gfw => Country::China,
                CensorId::Airtel => Country::India,
                CensorId::Iran => Country::Iran,
                CensorId::Kazakhstan => Country::Kazakhstan,
            };
            assert_ne!(id, CensorId::Gfw, "no deterministic claim vs the GFW");
            let successes = (0..trials)
                .filter(|&seed| {
                    let cfg = TrialConfig::new(country, AppProtocol::Http, strategy.clone(), seed);
                    run_trial(&cfg).evaded()
                })
                .count() as u64;
            match verdict {
                Verdict::ProvablyInert => assert_eq!(
                    successes, 0,
                    "{} proven inert vs {id} but evaded {successes}/{trials}",
                    named.name
                ),
                Verdict::ProvablyDesynced => assert_eq!(
                    successes, trials,
                    "{} proven desynced vs {id} but evaded only {successes}/{trials}",
                    named.name
                ),
                Verdict::Unknown => unreachable!(),
            }
        }
    }
    assert!(claims > 0, "the checker proved nothing about the library");
}
