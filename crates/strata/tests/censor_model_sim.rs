#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
//! Abstraction-soundness differential: random concrete packet traces
//! are replayed through both the real `censor` `Middlebox` models and
//! the `strata::censor_model` abstract automata, asserting simulation
//! — whenever the abstract state makes a must-claim (the flow is
//! provably ignored / provably still monitored), the concrete censor
//! agrees. Any contradiction proptest-minimizes into a counterexample
//! trace.
//!
//! The probe at the end of every trace is the observable: Kazakhstan's
//! per-flow `ignored` bit is private, but an ignored flow *forwards*
//! a forbidden client request without a censorship event, and a
//! monitored flow drops it and injects a block page.

use censor::{AirtelCensor, IranCensor, KazakhstanCensor};
use netsim::{Direction, Middlebox, Verdict};
use packet::{Packet, TcpFlags};
use proptest::prelude::*;
use strata::censor_model::{automaton, AbsDirection, AbsPacket, AbsState, CensorId, Tri};

const CLIENT: ([u8; 4], u16) = ([10, 0, 0, 1], 40000);
const SERVER: ([u8; 4], u16) = ([20, 0, 0, 9], 80);
const FORBIDDEN_REQUEST: &[u8] = b"GET http://youtube.com/ HTTP/1.1\r\nHost: youtube.com\r\n\r\n";

/// One trace step: a packet crossing the censor in either direction.
#[derive(Debug, Clone)]
struct Step {
    to_client: bool,
    flags: u8,
    payload: Vec<u8>,
}

fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(any::<u8>(), 1..24),
        Just(b"GET / HTTP1.1\r\n".to_vec()),
        Just(b"GET /watch HTTP/1.0\r\n".to_vec()),
        Just(FORBIDDEN_REQUEST.to_vec()),
        Just(b"hello world".to_vec()),
        Just(b"GET".to_vec()),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (any::<bool>(), any::<u8>(), payload_strategy()).prop_map(|(to_client, flags, payload)| Step {
        to_client,
        flags,
        payload,
    })
}

fn build(step: &Step, seq: u32) -> (Packet, Direction) {
    let (from, to, dir) = if step.to_client {
        (SERVER, CLIENT, Direction::ToClient)
    } else {
        (CLIENT, SERVER, Direction::ToServer)
    };
    let mut pkt = Packet::tcp(
        from.0,
        from.1,
        to.0,
        to.1,
        TcpFlags(step.flags),
        seq,
        77,
        step.payload.clone(),
    );
    pkt.finalize();
    (pkt, dir)
}

/// Degrade exact packet facts to `Maybe`/unknown according to a mask:
/// the automaton must stay sound no matter how little it knows.
fn blur(pkt: &AbsPacket, mask: u8) -> AbsPacket {
    let mut out = *pkt;
    if mask & 1 != 0 {
        out.flags = None;
    }
    if mask & 2 != 0 {
        out.payload = Tri::Maybe;
    }
    if mask & 4 != 0 {
        out.wellformed_get = Tri::Maybe;
    }
    if mask & 8 != 0 {
        out.forbidden = Tri::Maybe;
    }
    out
}

/// Run a trace through the concrete KZ censor and the abstract
/// automaton side by side, then probe with a forbidden client request
/// and compare claims against the observable outcome.
fn kz_differential(trace: &[Step], blur_mask: u8) {
    let kz = automaton(CensorId::Kazakhstan);
    let mut concrete = KazakhstanCensor::new();
    let mut state = kz.initial();
    let mut now = 0u64;
    for (i, step) in trace.iter().enumerate() {
        // Mid-trace client payloads stay benign so the probe at the
        // end is the only possible censorship event.
        if !step.to_client && step.payload == FORBIDDEN_REQUEST {
            continue;
        }
        let (pkt, dir) = build(step, 1000 + i as u32);
        let abs_dir = if step.to_client {
            AbsDirection::ToClient
        } else {
            AbsDirection::ToServer
        };
        let abs = blur(&AbsPacket::of_packet(&pkt, abs_dir), blur_mask);
        concrete.process(&pkt, dir, now);
        kz.step(&mut state, &abs);
        now += 1000;
    }
    let AbsState::Kz(flow) = state else {
        panic!("KZ automaton must track a KzAbstractFlow");
    };

    let probe = Step {
        to_client: false,
        flags: TcpFlags::PSH_ACK.0,
        payload: FORBIDDEN_REQUEST.to_vec(),
    };
    let (pkt, dir) = build(&probe, 9000);
    let verdict: Verdict = concrete.process(&pkt, dir, now);
    let concretely_ignored = verdict.forward.is_some();

    if flow.must_ignored() {
        assert!(
            concretely_ignored,
            "abstract flow provably ignored, concrete censor still censored: {flow:?}"
        );
        assert_eq!(
            concrete.censor_events, 0,
            "provably-ignored flow produced censorship events"
        );
    }
    if !flow.may_ignored() {
        assert!(
            !concretely_ignored,
            "abstract flow provably monitored, concrete censor ignored it: {flow:?}"
        );
        assert_eq!(concrete.censor_events, 1);
        assert_eq!(verdict.inject_to_client.len(), 1, "block page expected");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Exact packet facts: the abstract KZ monitor simulates the
    /// concrete one on arbitrary handshake traces.
    #[test]
    fn kz_abstract_flow_simulates_concrete(trace in proptest::collection::vec(step_strategy(), 0..12)) {
        kz_differential(&trace, 0);
    }

    /// Blurred facts: knowing less may only widen the abstract state,
    /// never break simulation.
    #[test]
    fn kz_abstract_flow_stays_sound_under_blurring(
        trace in proptest::collection::vec(step_strategy(), 0..12),
        mask in 0u8..16,
    ) {
        kz_differential(&trace, mask);
    }

    /// The stateless censors' automata claim `tracks_streams: false`
    /// and to-server-only observation: no amount of server→client
    /// garbage (or benign client traffic) may change how they treat a
    /// subsequent forbidden request.
    #[test]
    fn stateless_censors_ignore_prior_traffic(trace in proptest::collection::vec(step_strategy(), 0..10)) {
        let mut iran = IranCensor::new();
        let mut airtel = AirtelCensor::new();
        let mut now = 0u64;
        for (i, step) in trace.iter().enumerate() {
            if !step.to_client && step.payload == FORBIDDEN_REQUEST {
                continue;
            }
            let (pkt, dir) = build(step, 2000 + i as u32);
            iran.process(&pkt, dir, now);
            airtel.process(&pkt, dir, now);
            now += 1000;
        }
        let probe = Step { to_client: false, flags: TcpFlags::PSH_ACK.0, payload: FORBIDDEN_REQUEST.to_vec() };
        let (pkt, dir) = build(&probe, 9000);

        // Iran: on-path blackhole — the request is dropped, nothing
        // is injected (automaton: injects nothing).
        let v = iran.process(&pkt, dir, now);
        prop_assert!(v.forward.is_none());
        prop_assert!(v.inject_to_client.is_empty() && v.inject_to_server.is_empty());
        prop_assert_eq!(iran.censor_events, 1);

        // Airtel: stateless injector — the request is forwarded, the
        // client gets a block page and a RST (automaton:
        // injects_block_page + injects_rst_to_client).
        let v = airtel.process(&pkt, dir, now);
        prop_assert!(v.forward.is_some());
        prop_assert_eq!(v.inject_to_client.len(), 2);
        prop_assert!(v.inject_to_server.is_empty());
        prop_assert_eq!(airtel.censor_events, 1);
    }
}

/// The declarative injection facts match one concrete censorship
/// event per censor.
#[test]
fn automaton_injection_facts_match_concrete_censors() {
    let probe = Step {
        to_client: false,
        flags: TcpFlags::PSH_ACK.0,
        payload: FORBIDDEN_REQUEST.to_vec(),
    };
    let (pkt, dir) = build(&probe, 1);

    let a = automaton(CensorId::Airtel);
    let v = AirtelCensor::new().process(&pkt, dir, 0);
    let injected_rst = v.inject_to_client.iter().any(|p| {
        p.tcp_header()
            .is_some_and(|t| t.flags.contains(TcpFlags::RST))
    });
    assert_eq!(a.injects_rst_to_client, injected_rst);
    assert!(a.injects_block_page);
    assert!(!a.injects_rst_to_server && v.inject_to_server.is_empty());

    let i = automaton(CensorId::Iran);
    let v = IranCensor::new().process(&pkt, dir, 0);
    assert!(!i.injects_rst_to_client && !i.injects_block_page);
    assert!(v.inject_to_client.is_empty() && v.inject_to_server.is_empty());

    let k = automaton(CensorId::Kazakhstan);
    let v = KazakhstanCensor::new().process(&pkt, dir, 0);
    assert!(k.injects_block_page && !k.injects_rst_to_client);
    assert_eq!(v.inject_to_client.len(), 1);
    let page = v.inject_to_client[0].tcp_header().unwrap();
    assert!(!page.flags.contains(TcpFlags::RST));
}

/// GFW teardown RSTs fly both ways on a censorship event.
#[test]
fn gfw_automaton_matches_multibox_injection() {
    let g = automaton(CensorId::Gfw);
    assert!(g.stochastic, "no deterministic claim may survive the GFW");
    assert!(g.injects_rst_to_client && g.injects_rst_to_server);
    assert_eq!(g.resyncs_on_server_rst, Some(false));
}
