#![allow(clippy::unwrap_used)] // test code
//! Soundness differential for the static evolve prefilter.
//!
//! The prefilter assigns floor fitness — zero successes, no simulation
//! — to any genome whose lints carry an error-severity futility proof.
//! That is only sound if the proofs are *never wrong*: a strategy with
//! any simulated success, against any modeled censor, must never be
//! refuted. This test drives the exact gate the fitness cache uses
//! over the whole built-in library plus ≥500 randomly generated
//! genomes, and simulates every refuted genome against every censor
//! model to confirm the proved outcome.

use appproto::AppProtocol;
use censor::Country;
use evolve::Genome;
use harness::{derive_trial_seed, run_trial, TrialConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use strata::{canonicalize_strategy, lint_strategy, Severity};

/// The gate `evolve::FitnessCache` applies (HTTP rides TCP, so the
/// TCP-liveness proofs are active — the same lints the GA runs).
fn statically_refuted(strategy: &geneva::Strategy) -> bool {
    let canonical = canonicalize_strategy(strategy);
    lint_strategy(&canonical)
        .iter()
        .any(|d| d.severity == Severity::Error && d.proves_futile)
}

fn simulated_successes(strategy: &geneva::Strategy, country: Country, trials: u32) -> u32 {
    let mut cfg = TrialConfig::new(country, AppProtocol::Http, strategy.clone(), 0);
    let tag = harness::cell_tag("soundness");
    let mut successes = 0;
    for i in 0..trials {
        cfg.seed = derive_trial_seed(0x5011D, tag, i);
        if run_trial(&cfg).evaded() {
            successes += 1;
        }
    }
    successes
}

#[test]
fn no_library_strategy_is_refuted() {
    for named in geneva::library::server_side()
        .iter()
        .chain(geneva::library::variants().iter())
    {
        assert!(
            !statically_refuted(&named.strategy()),
            "false refutation of working library strategy {}",
            named.name
        );
    }
}

/// The differential proper: refuted ⇒ zero simulated successes against
/// every modeled censor. (The converse need not hold — the prefilter
/// is allowed to miss futile genomes, it must only never refute a
/// viable one.)
#[test]
fn refuted_genomes_never_evade_any_censor() {
    let mut rng = StdRng::seed_from_u64(0xAB50_1DEA);
    let countries = [
        Country::China,
        Country::India,
        Country::Iran,
        Country::Kazakhstan,
    ];
    let mut refuted = 0u32;
    for _ in 0..520 {
        let genome = Genome::random(&mut rng);
        if !statically_refuted(&genome.strategy) {
            continue;
        }
        refuted += 1;
        for country in countries {
            let successes = simulated_successes(&genome.strategy, country, 6);
            assert_eq!(
                successes, 0,
                "UNSOUND: prefilter refuted `{}` but it evaded {country:?} \
                 {successes}/6 times",
                genome.strategy
            );
        }
    }
    // The gate must have actually fired on a meaningful slice of the
    // population, or this test proves nothing.
    assert!(
        refuted >= 20,
        "only {refuted} of 520 random genomes were refuted — generator drift?"
    );
}

/// The same differential for the *per-censor* model checker: a
/// [`Verdict::ProvablyInert`] claim against censor X means the genome's
/// flow is byte-identical to baseline as far as X can observe, and the
/// deterministic X censors baseline HTTP every time — so zero simulated
/// successes against X, for every claimed genome in the population.
/// (The GFW never receives a claim; the checker hard-codes `Unknown`
/// for it, which the loop re-asserts.)
#[test]
fn per_censor_inert_claims_never_evade() {
    use strata::censor_model::{check_all, CensorId, Verdict};

    let mut rng = StdRng::seed_from_u64(0xAB50_1DEA);
    let mut inert_claims = 0u32;
    for _ in 0..520 {
        let genome = Genome::random(&mut rng);
        let summary = strata::summarize(&genome.strategy);
        for (id, verdict) in check_all(&summary) {
            if verdict != Verdict::ProvablyInert {
                continue;
            }
            assert_ne!(
                id,
                CensorId::Gfw,
                "no deterministic claim vs the stochastic GFW: `{}`",
                genome.strategy
            );
            inert_claims += 1;
            let country = match id {
                CensorId::Gfw => Country::China,
                CensorId::Airtel => Country::India,
                CensorId::Iran => Country::Iran,
                CensorId::Kazakhstan => Country::Kazakhstan,
            };
            let successes = simulated_successes(&genome.strategy, country, 6);
            assert_eq!(
                successes, 0,
                "UNSOUND: `{}` proven inert vs {id} but evaded {successes}/6 times",
                genome.strategy
            );
        }
    }
    assert!(
        inert_claims >= 20,
        "only {inert_claims} inert claims over 520 random genomes — \
         the checker proved almost nothing, or the generator drifted"
    );
}
