#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
//! The downstream-user walkthrough: exercise the whole public API the
//! way the README advertises it — parse, explain, simulate, measure,
//! render, capture, deploy.

use appproto::AppProtocol;
use censor::Country;
use geneva::{explain, library, parse_strategy};
use harness::{deploy, render_waterfall, run_trial, success_rate, TrialConfig};
use netsim::pcap::{parse_pcap, to_pcap, CaptureAt};

#[test]
fn the_readme_walkthrough_works_end_to_end() {
    // 1. Parse a strategy from DSL text.
    let strategy = parse_strategy(library::STRATEGY_1.text).unwrap();

    // 2. Explain it.
    let prose = explain(&strategy);
    assert!(prose.contains("SYN+ACK"), "{prose}");

    // 3. Run one trial and render its waterfall.
    let cfg = TrialConfig::new(Country::China, AppProtocol::Http, strategy.clone(), 3);
    let result = run_trial(&cfg);
    let waterfall = render_waterfall("walkthrough", &result.trace);
    assert!(waterfall.contains("SYN"), "{waterfall}");

    // 4. Measure a success rate.
    let rate = success_rate(&cfg, 60, 42);
    assert!(rate.rate() > 0.3, "{rate}");

    // 5. Capture to pcap and parse it back.
    let capture = to_pcap(&result.trace, CaptureAt::Middlebox);
    let (linktype, records) = parse_pcap(&capture).unwrap();
    assert_eq!(linktype, 101);
    assert!(!records.is_empty());
    for (_, bytes) in &records {
        packet::Packet::parse(bytes).expect("every captured record is a packet");
    }

    // 6. Deployment selection from a client address.
    let table = deploy::demo_geo_table();
    let country = table.locate([10, 7, 1, 2]).unwrap();
    let pick = deploy::top_pick(country, AppProtocol::Http).unwrap();
    assert!(pick.id >= 1);

    // 7. And the facade crate re-exports it all.
    let _ = come_as_you_are::geneva::library::STRATEGY_8;
    let _ = come_as_you_are::censor::Country::China;
}

#[test]
fn every_strategy_explains_parses_and_survives_a_trial() {
    for named in library::server_side() {
        let strategy = parse_strategy(named.text).unwrap();
        assert!(!explain(&strategy).is_empty());
        // One trial each against the censor it targets; must terminate
        // with a classified outcome (no hangs, no panics).
        let country = if named.id >= 9 {
            Country::Kazakhstan
        } else {
            Country::China
        };
        let cfg = TrialConfig::new(country, AppProtocol::Http, strategy, 11);
        let _ = run_trial(&cfg).outcome;
    }
}
