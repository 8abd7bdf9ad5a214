//! Threaded-vs-single-thread equivalence over generated strategies:
//! for arbitrary (strategy, seed base, worker count, batch size), the
//! run-to-completion threaded plane must emit **byte-identical packets
//! in identical order** to the single-threaded `Dplane::pump`, with
//! identical aggregate metrics — the generated-strategy analog of the
//! hand-picked workloads in `threaded.rs`'s unit tests, mirroring the
//! generators of the interpreter differential suite.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code

use dplane::{
    pump_threaded, Dplane, DplaneConfig, FixedClassifier, FlowConfig, SeedMode, ThreadedConfig,
    VecIo,
};
use geneva::ast::{Action, StrategyPart, TamperMode, Trigger};
use geneva::Strategy as GenevaStrategy;
use packet::field::{FieldRef, FieldValue};
use packet::{Packet, TcpFlags};
use proptest::prelude::*;
use std::sync::Arc;

const SERVER: [u8; 4] = [93, 184, 216, 34];

/// A multi-flow bidirectional workload: per flow a client SYN
/// (inbound), server SYN+ACK and data (outbound), and a client FIN
/// (inbound), plus one UDP flow — every packet shape the compiled
/// triggers can fire on, spread over enough flows to occupy every
/// worker.
fn workload(flows: u8) -> Vec<(u64, Packet)> {
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

// ---- compact strategy generators (mirroring tests/differential.rs) --

const FIELDS: &[&str] = &[
    "TCP:flags",
    "TCP:seq",
    "TCP:ack",
    "TCP:window",
    "TCP:chksum",
    "TCP:load",
    "IP:ttl",
];

fn arb_value(field: &'static str) -> BoxedStrategy<FieldValue> {
    match field {
        "TCP:flags" => prop::sample::select(vec!["S", "SA", "R", "RA", "PA"])
            .prop_map(|s| FieldValue::Str(s.to_string()))
            .boxed(),
        "TCP:load" => prop_oneof![
            Just(FieldValue::Empty),
            prop::collection::vec(any::<u8>(), 1..6).prop_map(FieldValue::Bytes),
        ]
        .boxed(),
        _ => (0u64..65536).prop_map(FieldValue::Num).boxed(),
    }
}

fn arb_action() -> impl Strategy<Value = Action> {
    let leaf = prop_oneof![4 => Just(Action::Send), 1 => Just(Action::Drop)].boxed();
    leaf.prop_recursive(2, 12, 3, |inner| {
        let tamper_next = inner.clone();
        prop_oneof![
            prop::sample::select(FIELDS.to_vec()).prop_flat_map(move |field| {
                let next = tamper_next.clone();
                prop_oneof![
                    Just(TamperMode::Corrupt),
                    arb_value(field).prop_map(TamperMode::Replace),
                ]
                .prop_flat_map(move |mode| {
                    let mode = mode.clone();
                    next.clone().prop_map(move |n| Action::Tamper {
                        field: FieldRef::parse(field).expect("valid"),
                        mode: mode.clone(),
                        next: Box::new(n),
                    })
                })
            }),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Action::Duplicate(Box::new(a), Box::new(b))),
        ]
        .boxed()
    })
}

fn arb_trigger() -> impl Strategy<Value = Trigger> {
    let field = prop::sample::select(vec!["TCP:flags", "TCP:window", "IP:ttl"]);
    let value = prop::sample::select(vec!["SA", "S", "PA", "R", "9000", "64", ""]);
    (field, value).prop_map(|(f, v)| Trigger {
        field: FieldRef::parse(f).expect("valid"),
        value: v.to_string(),
    })
}

fn arb_strategy() -> impl Strategy<Value = GenevaStrategy> {
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn threaded_equals_single_for_generated_strategies(
        strategy in arb_strategy(),
        seed_base in any::<u64>(),
        workers in 1usize..9,
        batch in 1usize..80,
    ) {
        let strategy = Arc::new(strategy);
        let packets = workload(30);
        let dcfg = DplaneConfig {
            flow: FlowConfig::default(),
            seed: SeedMode::PerFlow(seed_base),
            unchecked: false,
        };

        let mut single_io = VecIo::new(packets.clone());
        let mut dp = Dplane::new(dcfg, FixedClassifier(Some(Arc::clone(&strategy))));
        let single_n = dp.pump(&mut single_io, SERVER);
        let single = dp.metrics();

        let mut io = VecIo::new(packets);
        let (n, threaded) = pump_threaded(
            &mut io,
            SERVER,
            dcfg,
            ThreadedConfig { workers, batch, ring_slots: 3 },
            |_| FixedClassifier(Some(Arc::clone(&strategy))),
        );

        prop_assert_eq!(n, single_n);
        prop_assert_eq!(io.output.len(), single_io.output.len());
        for ((tw, pw), (ts, ps)) in io.output.iter().zip(&single_io.output) {
            prop_assert_eq!(tw, ts);
            prop_assert_eq!(pw.serialize_raw(), ps.serialize_raw());
        }
        // One shard entry per worker, folding to the single table's
        // totals; the shared cache ⇒ identical compile counters.
        prop_assert_eq!(threaded.shards.len(), workers);
        prop_assert_eq!(threaded.totals(), single.totals());
        prop_assert_eq!(threaded.flows_live, single.flows_live);
        prop_assert_eq!(threaded.cache_hits, single.cache_hits);
        prop_assert_eq!(threaded.cache_misses, single.cache_misses);
        prop_assert_eq!(threaded.verify_rejects, single.verify_rejects);
        prop_assert_eq!(&threaded.strategies, &single.strategies);
    }
}
