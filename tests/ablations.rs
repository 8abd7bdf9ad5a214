#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
//! The DESIGN.md §6 ablations as assertions: each checks a *claim*
//! about the model, not a timing.

use appproto::AppProtocol;
use censor::Country;
use geneva::library;
use harness::{success_rate, CensorVariant, TrialConfig};

#[test]
fn old_resync_model_cannot_explain_the_papers_strategies() {
    // Under prior work's single-rule model (only a corrupt-ack SYN+ACK
    // triggers the resync state), the RST- and payload-based
    // strategies (1, 6, 7) collapse toward the baseline for HTTP —
    // i.e., the paper's revised model is NECESSARY for Table 2.
    for id in [1u32, 6, 7] {
        let mut cfg = TrialConfig::new(
            Country::China,
            AppProtocol::Http,
            library::by_id(id).unwrap(),
            0,
        );
        let revised = success_rate(&cfg, 80, 0xAB1A).rate();
        cfg.censor_variant = CensorVariant::GfwOldResyncModel;
        let old = success_rate(&cfg, 80, 0xAB1A).rate();
        assert!(
            revised > 0.35,
            "S{id} under the revised model should be ~50%, got {revised}"
        );
        assert!(
            old < revised - 0.2,
            "S{id}: old model {old} should collapse vs revised {revised}"
        );
    }
}

#[test]
fn old_model_predicts_no_server_side_evasion_at_all() {
    // Under Wang et al.'s model the corrupt-ack resync lands on the
    // next server SYN+ACK or client data packet — which always carries
    // the CORRECT numbers when the server is the evader. The old model
    // therefore predicts every server-side strategy fails… which is
    // exactly the §3 worldview the paper had to overturn.
    for id in [1u32, 4, 6, 7] {
        let mut cfg = TrialConfig::new(
            Country::China,
            AppProtocol::Http,
            library::by_id(id).unwrap(),
            0,
        );
        cfg.censor_variant = CensorVariant::GfwOldResyncModel;
        let old = success_rate(&cfg, 80, 0x0D1).rate();
        assert!(
            old < 0.25,
            "S{id} should fail under the old model, got {old}"
        );
    }
}

#[test]
fn insertion_fix_ablation() {
    use endpoint::OsProfile;
    use harness::run_trial;
    // Strategy 9 plain vs fixed, Windows client, no censor.
    let plain = library::STRATEGY_9.strategy();
    let fixed = library::client_compat_fix(9).unwrap().strategy();
    let works = |strategy: geneva::Strategy| {
        (0..5)
            .filter(|seed| {
                let cfg = harness::TrialConfig::private_network(
                    AppProtocol::Http,
                    strategy.clone(),
                    OsProfile::windows(),
                    *seed,
                );
                run_trial(&cfg).evaded()
            })
            .count()
    };
    assert_eq!(works(plain), 0, "plain S9 breaks Windows every time");
    assert_eq!(works(fixed), 5, "fixed S9 works every time");
}
