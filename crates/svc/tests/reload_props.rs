#![allow(clippy::unwrap_used)] // test code
//! Property tests for hot reload semantics (`POST /config`):
//!
//! 1. a **rejected** reload (absint or amplification refusal) is
//!    invisible — the live
//!    rollout table, the program cache, the metrics JSON, and every
//!    future emission are byte-identical to a service that never saw
//!    the request;
//! 2. an **accepted** reload changes emissions only for flows opened
//!    after it — live flows keep the program they classified to.
//!
//! Both run against [`svc::Core`] — the exact production pump, minus
//! sockets — so the properties hold for `cay serve` by construction.

use dplane::{DplaneConfig, Program, SeedMode, VecIo};
use harness::deploy::{demo_geo_entries, RolloutTable};
use packet::{Packet, TcpFlags};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use svc::{apply_config, Core, CoreConfig};

const SERVER: [u8; 4] = [93, 184, 216, 34];

fn core_cfg() -> CoreConfig {
    let geo = demo_geo_entries();
    CoreConfig {
        dplane: DplaneConfig {
            seed: SeedMode::PerFlow(0x0D1A),
            ..DplaneConfig::default()
        },
        server_addr: SERVER,
        protocol: appproto::AppProtocol::Http,
        rollout: RolloutTable::from_geo(&geo, appproto::AppProtocol::Http),
        geo,
    }
}

fn tcp_pkt(src: [u8; 4], sport: u16, dst: [u8; 4], dport: u16, flags: TcpFlags) -> Packet {
    let mut p = Packet::tcp(src, sport, dst, dport, flags, 1, 0, vec![]);
    p.finalize();
    p
}

/// SYN + SYN/ACK for one client — opens the flow and fires the
/// `[TCP:flags:SA]` trigger every deployed strategy uses.
fn open_flow(client: [u8; 4], port: u16) -> Vec<(u64, Packet)> {
    vec![
        (10, tcp_pkt(client, port, SERVER, 80, TcpFlags::SYN)),
        (20, tcp_pkt(SERVER, 80, client, port, TcpFlags::SYN_ACK)),
    ]
}

fn emitted_bytes(io: &VecIo) -> Vec<Vec<u8>> {
    io.output.iter().map(|(_, p)| p.serialize_raw()).collect()
}

/// A chain of `depth` nested duplicates, emitting `depth + 2` packets
/// per trigger. From depth 6 the program verifies but meets the
/// amplification threshold (8); from depth 127 the packet stack grows
/// past the verifier's 128-slot bound and the abstract interpreter
/// refuses it.
fn stack_bomb(depth: usize) -> String {
    let mut tree = "duplicate".to_string();
    for _ in 0..depth {
        tree = format!("duplicate({tree},)");
    }
    format!("[TCP:flags:SA]-{tree}-| \\/")
}

/// A verifiable strategy distinct from every geo top pick: cap the
/// receive window to 1 (single emission, no duplicates).
const WINDOW_CAP: &str = "[TCP:flags:SA]-tamper{TCP:window:replace:1}-| \\/";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Refused reloads are invisible at every observable layer.
    #[test]
    fn rejected_reload_is_byte_invisible(
        clients in prop::collection::vec(2u8..250, 1..5),
        bomb_depth in 127usize..140,
        amplifier_depth in 6usize..127,
        amplifier in any::<bool>(),
        percent in 1u8..=100,
    ) {
        // Twin cores: `suspect` suffers the rejected reload between
        // two workload halves, `control` never sees it.
        let mut suspect = Core::new(core_cfg());
        let mut control = Core::new(core_cfg());
        let workload = |ports_base: u16| -> Vec<(u64, Packet)> {
            clients.iter().enumerate().flat_map(|(i, &c)| {
                open_flow([10, 7, 0, c], ports_base + u16::try_from(i).unwrap())
            }).collect()
        };

        let mut io_s = VecIo::new(workload(41_000));
        let mut io_c = VecIo::new(workload(41_000));
        suspect.pump(&mut io_s);
        control.pump(&mut io_c);

        let before_json = suspect.offline_report().to_json();
        let table_before =
            std::sync::Arc::clone(&suspect.shared.rollout.read().unwrap());
        let (depth, gate) = if amplifier {
            (amplifier_depth, "meets the amplification threshold")
        } else {
            (bomb_depth, "absint refused")
        };
        let config = format!("10.7.0.0/16 {percent} {}", stack_bomb(depth));
        let outcome = apply_config(&suspect.shared, &config);
        prop_assert!(!outcome.applied, "the stack bomb must be refused");
        prop_assert_eq!(outcome.status, 422);
        prop_assert!(outcome.body.contains("\"applied\":false"), "{}", outcome.body);
        prop_assert!(outcome.body.contains(gate), "{}", outcome.body);

        // Invisible: same table object, same metrics bytes, counter
        // bumped only on the svc side.
        prop_assert!(std::sync::Arc::ptr_eq(
            &table_before,
            &suspect.shared.rollout.read().unwrap()
        ));
        prop_assert_eq!(&suspect.offline_report().to_json(), &before_json);
        prop_assert_eq!(suspect.shared.reload_rejects.load(Ordering::Relaxed), 1);
        prop_assert_eq!(suspect.shared.reloads.load(Ordering::Relaxed), 0);

        // And the future is unchanged: a second workload half (new
        // ports → new flows) emits identical bytes on both twins.
        let mut io_s2 = VecIo::new(workload(42_000));
        let mut io_c2 = VecIo::new(workload(42_000));
        suspect.pump(&mut io_s2);
        control.pump(&mut io_c2);
        prop_assert_eq!(emitted_bytes(&io_s2), emitted_bytes(&io_c2));
        prop_assert_eq!(
            suspect.offline_report().to_json(),
            control.offline_report().to_json()
        );
    }

    /// Accepted reloads swap strategies for *new* flows only.
    #[test]
    fn accepted_reload_changes_only_new_flows(
        c1 in 2u8..120,
        c2 in 130u8..250,
    ) {
        let client1 = [10, 7, 0, c1];
        let client2 = [10, 7, 0, c2];
        let mut core = Core::new(core_cfg());
        let mut twin = Core::new(core_cfg()); // never reloaded

        // Open flow 1 on both before the reload.
        let mut io_a = VecIo::new(open_flow(client1, 40_001));
        let mut io_b = VecIo::new(open_flow(client1, 40_001));
        core.pump(&mut io_a);
        twin.pump(&mut io_b);
        prop_assert_eq!(emitted_bytes(&io_a), emitted_bytes(&io_b));

        let config = format!("10.7.0.0/16 100 {WINDOW_CAP}");
        let outcome = apply_config(&core.shared, &config);
        prop_assert!(outcome.applied, "{}", outcome.body);
        prop_assert_eq!(outcome.status, 200);

        // The live flow keeps its pre-reload program: a retransmitted
        // SYN/ACK (same 4-tuple) rewrites identically on both cores.
        let retrans = vec![(60, tcp_pkt(SERVER, 80, client1, 40_001, TcpFlags::SYN_ACK))];
        let mut io_a2 = VecIo::new(retrans.clone());
        let mut io_b2 = VecIo::new(retrans);
        core.pump(&mut io_a2);
        twin.pump(&mut io_b2);
        prop_assert_eq!(emitted_bytes(&io_a2), emitted_bytes(&io_b2));

        // A flow opened after the reload gets the new strategy — the
        // reference is a core *started* with the posted table.
        let mut ref_cfg = core_cfg();
        ref_cfg.rollout = RolloutTable::parse(&config).unwrap();
        let mut reference = Core::new(ref_cfg);
        let mut io_new = VecIo::new(open_flow(client2, 40_002));
        let mut io_ref = VecIo::new(open_flow(client2, 40_002));
        let before = core.offline_report();
        core.pump(&mut io_new);
        reference.pump(&mut io_ref);
        prop_assert_eq!(emitted_bytes(&io_new), emitted_bytes(&io_ref));

        // The reload handed its verified program to the data thread's
        // cache: the new flow hits it instead of compiling, and the
        // metrics list it.
        let after = core.offline_report();
        prop_assert_eq!(after.cache_hits, before.cache_hits + 1);
        prop_assert_eq!(after.cache_misses, before.cache_misses);
        let window_cap = Program::compile(&geneva::parse_strategy(WINDOW_CAP).unwrap()).unwrap();
        prop_assert!(after.strategies.contains_key(&window_cap.key));

        // ...and it differs from the old behavior (the twin's).
        let mut io_old = VecIo::new(open_flow(client2, 40_002));
        twin.pump(&mut io_old);
        prop_assert_ne!(emitted_bytes(&io_new), emitted_bytes(&io_old));
    }
}

/// Two accepted reloads that land between two pumps: the next new
/// flow gets the second table's program from the cache, and the
/// first table, which no pump saw, never reaches the plane.
#[test]
fn the_later_of_two_reloads_between_pumps_goes_live() {
    const WINDOW_TWO: &str = "[TCP:flags:SA]-tamper{TCP:window:replace:2}-| \\/";
    let mut core = Core::new(core_cfg());
    core.pump(&mut VecIo::new(open_flow([10, 7, 0, 3], 40_001)));
    let first = format!("10.7.0.0/16 100 {WINDOW_CAP}");
    let second = format!("10.7.0.0/16 100 {WINDOW_TWO}");
    for config in [&first, &second] {
        let outcome = apply_config(&core.shared, config);
        assert!(outcome.applied, "{}", outcome.body);
    }

    let mut ref_cfg = core_cfg();
    ref_cfg.rollout = RolloutTable::parse(&second).unwrap();
    let mut reference = Core::new(ref_cfg);
    let mut io_new = VecIo::new(open_flow([10, 7, 0, 4], 40_002));
    let mut io_ref = VecIo::new(open_flow([10, 7, 0, 4], 40_002));
    let before = core.offline_report();
    core.pump(&mut io_new);
    reference.pump(&mut io_ref);
    assert_eq!(emitted_bytes(&io_new), emitted_bytes(&io_ref));

    let after = core.offline_report();
    assert_eq!(after.cache_hits, before.cache_hits + 1);
    assert_eq!(after.cache_misses, before.cache_misses);
    let key = |dsl: &str| {
        Program::compile(&geneva::parse_strategy(dsl).unwrap())
            .unwrap()
            .key
    };
    assert!(after.strategies.contains_key(&key(WINDOW_TWO)));
    assert!(!after.strategies.contains_key(&key(WINDOW_CAP)));
}

/// The censor-model gate: shipping a provably inert strategy to the
/// prefix it was aimed at is refused (deterministic censors only — the
/// GFW's stochastic model never yields an inert proof).
#[test]
fn provably_inert_reload_is_refused_for_governed_prefix() {
    let core = Core::new(core_cfg());
    // `duplicate(,)` is the identity twice: provably inert against
    // Airtel, which governs the demo table's 10.91.0.0/16 (India).
    let config = "10.91.0.0/16 100 [TCP:flags:SA]-duplicate(,)-| \\/";
    let outcome = apply_config(&core.shared, config);
    assert!(!outcome.applied, "{}", outcome.body);
    assert_eq!(outcome.status, 422);
    // Refusal names the gate that fired (futility lint or the
    // censor-model inertness proof — both catch do-nothing rollouts).
    assert!(
        outcome.body.contains("inert") || outcome.body.contains("futile"),
        "{}",
        outcome.body
    );
    // The same strategy aimed at a prefix no censor governs is let
    // through only if it survives the futility lint; aimed where no
    // geo entry exists, the censor gate cannot fire.
    assert_eq!(core.shared.reload_rejects.load(Ordering::Relaxed), 1);
}

/// A balanced `duplicate` tree `depth` levels deep: 2^depth emissions
/// per trigger packet, which the verifier proves.
fn duplicate_tree(depth: u32) -> String {
    match depth {
        1 => "duplicate".to_string(),
        _ => {
            let half = duplicate_tree(depth - 1);
            format!("duplicate({half},{half})")
        }
    }
}

/// The tables `cay serve` starts with by default pass the reload
/// gates: for each of the five protocols, the demo geography's
/// `from_geo` table is admitted.
#[test]
fn every_from_geo_startup_table_is_admitted() {
    let entries = demo_geo_entries();
    let geo = harness::deploy::GeoTable::new(entries.iter().copied());
    for protocol in appproto::AppProtocol::all() {
        let table = RolloutTable::from_geo(&entries, protocol);
        let outcome = svc::vet_table(&table, &geo, protocol);
        assert_eq!(outcome.status, 200, "{protocol:?}: {}", outcome.body);
    }
}

/// The amplification gate sits exactly at the threshold: 7 emissions
/// per trigger are admitted, 8 are refused.
#[test]
fn amplification_gate_refuses_at_the_threshold() {
    let geo = harness::deploy::GeoTable::new(demo_geo_entries());
    let http = appproto::AppProtocol::Http;
    for (depth, status) in [(5, 200), (6, 422)] {
        let config = format!("10.7.0.0/16 100 {}", stack_bomb(depth));
        let outcome = svc::vet_config(&config, &geo, http);
        assert_eq!(outcome.status, status, "depth {depth}: {}", outcome.body);
    }
}

/// The `POST /config` verdict bodies are a public interface: an
/// applied table, a futility refusal, a censor-inertness refusal, an
/// amplification refusal and a parse error each render exactly the
/// committed document.
#[test]
fn reload_verdict_bodies_match_the_committed_goldens() {
    let geo = harness::deploy::GeoTable::new(demo_geo_entries());
    let http = appproto::AppProtocol::Http;
    // Inert against Airtel, Iran and Kazakhstan but not the GFW, so
    // aimed at China only the amplification gate refuses it.
    let amplifier = format!(
        "10.7.0.0/16 100 [TCP:flags:SA]-{}-| \\/\n",
        duplicate_tree(8)
    );
    let cases = [
        (
            "applied",
            200,
            "# A/B for China, one arm for Kazakhstan\n\
             10.7.0.0/16 60 [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \\/\n\
             10.7.0.0/16 40 [TCP:flags:SA]-tamper{TCP:window:replace:10}(tamper{TCP:options-wscale:replace:},)-| \\/\n\
             10.77.0.0/16 100 [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/\n",
            include_str!("golden/reload_applied.json"),
        ),
        (
            "futile",
            422,
            "10.7.0.0/16 100 [TCP:flags:SA]-tamper{TCP:load:replace:a\"b}(drop,)-| \\/\n",
            include_str!("golden/reload_futile.json"),
        ),
        (
            "inert",
            422,
            "10.91.0.0/16 100 [TCP:flags:SA]-duplicate(,)-| \\/\n",
            include_str!("golden/reload_inert.json"),
        ),
        (
            "amplifier",
            422,
            &amplifier,
            include_str!("golden/reload_amplifier.json"),
        ),
        (
            "parse error",
            400,
            "10.7.0.0/16 100 [TCP:flags:SA]-duplicate(\n",
            include_str!("golden/reload_parse_error.json"),
        ),
    ];
    for (name, status, config, golden) in cases {
        let outcome = svc::vet_config(config, &geo, http);
        assert_eq!(outcome.status, status, "{name}: {}", outcome.body);
        assert_eq!(outcome.body, golden, "{name}");
    }
}
