#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
//! Differential suite: the compiled program must agree with the
//! `geneva::Engine` interpreter, packet-for-packet, on
//!
//! 1. every strategy the paper names (the full library: the 11
//!    server-side strategies, the §5 variant species, the client-side
//!    strategies, and the client-side→server-side analogs), and
//! 2. hundreds of generated strategies (arbitrary triggers, tamper
//!    chains, duplicates, fragments), mirroring the `geneva` crate's
//!    own property generators — each checked both as a bare program
//!    and pumped through the assembled `Dplane` (classifier, program
//!    cache, flow table) over a multi-flow, two-direction workload.
//!
//! Engine corruption is seeded per (packet, field) site, so the
//! comparison is exact — not statistical.

use dplane::{Dplane, DplaneConfig, FixedClassifier, FlowConfig, Program, SeedMode, VecIo};
use geneva::ast::{Action, StrategyPart, TamperMode, Trigger};
use geneva::{library, Engine, Strategy as GenevaStrategy};
use packet::field::{FieldRef, FieldValue};
use packet::{FlowKey, Packet, TcpFlags};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const SERVER: [u8; 4] = [93, 184, 216, 34];

/// The packet shapes the paper's strategies trigger on (and a few they
/// must not).
fn shapes() -> Vec<Packet> {
    let mut syn_ack = Packet::tcp(
        [93, 184, 216, 34],
        80,
        [10, 7, 0, 2],
        40000,
        TcpFlags::SYN_ACK,
        9000,
        1001,
        vec![],
    );
    syn_ack.tcp_header_mut().unwrap().options = vec![
        packet::TcpOption::Mss(1460),
        packet::TcpOption::WindowScale(7),
    ];
    syn_ack.finalize();

    let mut data = Packet::tcp(
        [93, 184, 216, 34],
        80,
        [10, 7, 0, 2],
        40000,
        TcpFlags::PSH_ACK,
        9001,
        1001,
        b"HTTP/1.1 200 OK\r\n\r\nforbidden fruit".to_vec(),
    );
    data.finalize();

    let mut syn = Packet::tcp(
        [10, 7, 0, 2],
        40000,
        [93, 184, 216, 34],
        80,
        TcpFlags::SYN,
        100,
        0,
        vec![],
    );
    syn.finalize();

    let mut fin = Packet::tcp(
        [93, 184, 216, 34],
        80,
        [10, 7, 0, 2],
        40000,
        TcpFlags::RST_ACK,
        9050,
        1002,
        vec![],
    );
    fin.finalize();

    let mut udp = Packet::udp(
        [10, 7, 0, 2],
        5353,
        [93, 184, 216, 34],
        53,
        b"\x12\x34\x01\x00".to_vec(),
    );
    udp.finalize();

    vec![syn_ack, data, syn, fin, udp]
}

/// A multi-flow, two-direction workload: per flow a client SYN
/// (inbound), a server SYN+ACK carrying MSS and window-scale options
/// and a server data segment (outbound), and a client RST+ACK close
/// (inbound), plus one UDP flow. Every packet has its own timestamp,
/// so emissions can be traced back to the input that caused them.
fn flow_workload(flows: u8) -> Vec<(u64, Packet)> {
    let mut packets = Vec::new();
    let mut t = 0u64;
    for n in 1..=flows {
        let client = [10, 7, n % 3, n];
        let port = 40000 + u16::from(n);
        let mut syn = Packet::tcp(client, port, SERVER, 80, TcpFlags::SYN, 100, 0, vec![]);
        syn.finalize();
        let mut syn_ack = Packet::tcp(
            SERVER,
            80,
            client,
            port,
            TcpFlags::SYN_ACK,
            9000,
            101,
            vec![],
        );
        syn_ack.tcp_header_mut().unwrap().options = vec![
            packet::TcpOption::Mss(1460),
            packet::TcpOption::WindowScale(7),
        ];
        syn_ack.finalize();
        let mut data = Packet::tcp(
            SERVER,
            80,
            client,
            port,
            TcpFlags::PSH_ACK,
            9001,
            101,
            b"HTTP/1.1 200 OK\r\n\r\nforbidden fruit".to_vec(),
        );
        data.finalize();
        let mut fin = Packet::tcp(
            client,
            port,
            SERVER,
            80,
            TcpFlags::RST_ACK,
            150,
            9002,
            vec![],
        );
        fin.finalize();
        for pkt in [syn, syn_ack, data, fin] {
            packets.push((t, pkt));
            t += 50;
        }
    }
    let mut udp = Packet::udp(
        [10, 7, 0, 200],
        5353,
        SERVER,
        53,
        b"\x12\x34\x01\x00".to_vec(),
    );
    udp.finalize();
    packets.push((t, udp));
    packets
}

/// Interpreter vs. compiled, both directions, one (strategy, seed).
fn assert_equivalent(strategy: &GenevaStrategy, seed: u64, label: &str) {
    let mut engine = Engine::new(strategy.clone(), seed);
    let program = Program::compile(strategy).expect("library programs verify");
    for (i, pkt) in shapes().iter().enumerate() {
        let want_out = engine.apply_outbound(pkt);
        let got_out = program.run_outbound(pkt, seed);
        assert_eq!(
            want_out, got_out,
            "{label} seed {seed} shape {i}: outbound diverged"
        );
        let want_in = engine.apply_inbound(pkt);
        let got_in = program.run_inbound(pkt, seed);
        assert_eq!(
            want_in, got_in,
            "{label} seed {seed} shape {i}: inbound diverged"
        );
        // Wire bytes too: raw-faithful vs finalized must match exactly.
        for (w, g) in want_out.iter().zip(&got_out) {
            assert_eq!(w.serialize_raw(), g.serialize_raw(), "{label} bytes");
        }
    }
}

#[test]
fn full_library_is_equivalent() {
    let mut checked = 0;
    for named in library::server_side() {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            assert_equivalent(&named.strategy(), seed, named.name);
            checked += 1;
        }
    }
    for named in library::variants().iter().chain(&library::client_side()) {
        for seed in [0u64, 7] {
            assert_equivalent(&named.strategy(), seed, named.name);
            checked += 1;
        }
    }
    for (name, _pos, strategy) in library::server_side_analogs() {
        for seed in [0u64, 7] {
            assert_equivalent(&strategy, seed, &name);
            checked += 1;
        }
    }
    assert!(checked > 60, "library sweep too small: {checked}");
}

// ---- generated strategies, mirroring geneva/tests/prop.rs ----------

const FIELDS: &[&str] = &[
    "TCP:flags",
    "TCP:seq",
    "TCP:ack",
    "TCP:window",
    "TCP:chksum",
    "TCP:load",
    "TCP:urgptr",
    "TCP:options-wscale",
    "TCP:options-mss",
    "IP:ttl",
    "IP:tos",
];

fn arb_value(field: &'static str) -> BoxedStrategy<FieldValue> {
    match field {
        "TCP:flags" => prop_oneof![
            Just(FieldValue::Empty),
            prop::sample::select(vec!["S", "SA", "R", "RA", "F", "A", "PA"])
                .prop_map(|s| FieldValue::Str(s.to_string())),
        ]
        .boxed(),
        "TCP:load" => prop_oneof![
            Just(FieldValue::Empty),
            Just(FieldValue::Str("GET / HTTP1.".to_string())),
            prop::collection::vec(any::<u8>(), 1..6).prop_map(FieldValue::Bytes),
        ]
        .boxed(),
        "TCP:options-wscale" | "TCP:options-mss" => prop_oneof![
            Just(FieldValue::Empty),
            (1u64..1400).prop_map(FieldValue::Num),
        ]
        .boxed(),
        _ => (0u64..65536).prop_map(FieldValue::Num).boxed(),
    }
}

fn arb_tamper(next: BoxedStrategy<Action>) -> BoxedStrategy<Action> {
    prop::sample::select(FIELDS.to_vec())
        .prop_flat_map(move |field| {
            let next = next.clone();
            prop_oneof![
                Just(TamperMode::Corrupt),
                arb_value(field).prop_map(TamperMode::Replace),
            ]
            .prop_flat_map(move |mode| {
                let field = field;
                let mode = mode.clone();
                next.clone().prop_map(move |n| Action::Tamper {
                    field: FieldRef::parse(field).expect("valid"),
                    mode: mode.clone(),
                    next: Box::new(n),
                })
            })
        })
        .boxed()
}

fn arb_action() -> impl Strategy<Value = Action> {
    let leaf = prop_oneof![4 => Just(Action::Send), 1 => Just(Action::Drop)].boxed();
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            arb_tamper(inner.clone()),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Action::Duplicate(Box::new(a), Box::new(b))),
            (1usize..20, any::<bool>(), inner.clone(), inner).prop_map(
                |(offset, in_order, a, b)| Action::Fragment {
                    proto: packet::Proto::Tcp,
                    offset,
                    in_order,
                    first: Box::new(a),
                    second: Box::new(b),
                }
            ),
        ]
        .boxed()
    })
}

/// Arbitrary triggers, including values that must compile to the
/// `Never` matcher (non-canonical flag spellings, zero-padded numbers)
/// and empty-value triggers on option fields.
fn arb_trigger() -> impl Strategy<Value = Trigger> {
    let field = prop::sample::select(vec![
        "TCP:flags",
        "TCP:window",
        "TCP:seq",
        "TCP:urgptr",
        "TCP:options-wscale",
        "IP:ttl",
    ]);
    let value = prop::sample::select(vec![
        "SA", "S", "PA", "A", "AS", "R", "9000", "080", "", "10", "64", "7",
    ]);
    (field, value).prop_map(|(f, v)| Trigger {
        field: FieldRef::parse(f).expect("valid"),
        value: v.to_string(),
    })
}

fn arb_strategy() -> impl Strategy<Value = GenevaStrategy> {
    // 1–2 outbound parts and 0–1 inbound parts: exercises first-match-
    // wins ordering and the inbound program.
    (
        prop::collection::vec((arb_trigger(), arb_action()), 1..3),
        prop::collection::vec((arb_trigger(), arb_action()), 0..2),
    )
        .prop_map(|(out, inb)| GenevaStrategy {
            outbound: out
                .into_iter()
                .map(|(trigger, action)| StrategyPart { trigger, action })
                .collect(),
            inbound: inb
                .into_iter()
                .map(|(trigger, action)| StrategyPart { trigger, action })
                .collect(),
        })
}

proptest! {
    // The issue's floor is 256 generated strategies; run a few more.
    #![proptest_config(ProptestConfig::with_cases(320))]

    #[test]
    fn generated_strategies_are_equivalent(strategy in arb_strategy(), seed in any::<u64>()) {
        let mut engine = Engine::new(strategy.clone(), seed);
        // Checked compile doubles as a soundness property: programs the
        // compiler builds always discharge their own proof obligations.
        let program = Program::compile(&strategy).expect("compiled programs verify");
        for pkt in shapes() {
            prop_assert_eq!(engine.apply_outbound(&pkt), program.run_outbound(&pkt, seed));
            prop_assert_eq!(engine.apply_inbound(&pkt), program.run_inbound(&pkt, seed));
        }

        // The assembled plane over many flows and both directions: its
        // output must be what one interpreter per flow emits for that
        // flow's packets, input by input, in input order.
        let packets = flow_workload(30);
        let mut engines: HashMap<FlowKey, Engine> = HashMap::new();
        let mut want = Vec::new();
        for (t, pkt) in &packets {
            let engine = engines
                .entry(pkt.flow_key())
                .or_insert_with(|| Engine::new(strategy.clone(), seed));
            let emitted = if pkt.ip.src == SERVER {
                engine.apply_outbound(pkt)
            } else {
                engine.apply_inbound(pkt)
            };
            want.extend(emitted.into_iter().map(|p| (*t, p)));
        }
        let cfg = DplaneConfig {
            flow: FlowConfig::default(),
            seed: SeedMode::Fixed(seed),
        };
        let mut dp = Dplane::new(cfg, FixedClassifier(Some(Arc::new(strategy))));
        let mut io = VecIo::new(packets.clone());
        prop_assert_eq!(dp.pump(&mut io, SERVER), packets.len() as u64);
        prop_assert_eq!(io.output.len(), want.len());
        for ((got_t, got), (want_t, want)) in io.output.iter().zip(&want) {
            prop_assert_eq!(got_t, want_t);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got.serialize_raw(), want.serialize_raw());
        }
        let m = dp.metrics();
        prop_assert_eq!(m.verify_rejects, 0);
        prop_assert_eq!(m.cache_misses, 1);
    }
}
