#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
//! Property tests for the flow table's determinism contract:
//!
//! 1. the live flow count never exceeds the configured capacity;
//! 2. an evicted flow that returns re-classifies to exactly the state
//!    it lost — same program, same seed, same rewritten packets;
//! 3. an idle flow that returns is recreated with the same state.

use dplane::{Classifier, Dplane, DplaneConfig, FlowConfig, SeedMode};
use geneva::library;
use packet::{Packet, TcpFlags};
use proptest::prelude::*;
use std::sync::Arc;

const SERVER: [u8; 4] = [93, 184, 216, 34];

/// A deterministic classifier that is a pure function of the client
/// address: clients 0/4/8/… pass through, everyone else gets a library
/// strategy picked by address byte.
struct ByAddr;

impl Classifier for ByAddr {
    fn classify(&mut self, first_pkt: &Packet) -> Option<Arc<geneva::Strategy>> {
        let client = if first_pkt.ip.src == SERVER {
            first_pkt.ip.dst
        } else {
            first_pkt.ip.src
        };
        let idx = usize::from(client[3]);
        if idx % 4 == 0 {
            return None;
        }
        let named = library::server_side()[idx % 11];
        Some(Arc::new(named.strategy()))
    }
}

/// One workload event: which client, which direction, how much
/// simulated time passes first.
#[derive(Debug, Clone, Copy)]
struct Event {
    client: u8,
    outbound: bool,
    dt: u64,
}

fn packet_for(e: Event) -> Packet {
    let client = [10, 7, 0, e.client];
    let port = 40_000 + u16::from(e.client);
    let mut pkt = if e.outbound {
        Packet::tcp(
            SERVER,
            80,
            client,
            port,
            TcpFlags::SYN_ACK,
            9000,
            101,
            vec![],
        )
    } else {
        Packet::tcp(client, port, SERVER, 80, TcpFlags::SYN, 100, 0, vec![])
    };
    pkt.finalize();
    pkt
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0u8..24, any::<bool>(), 0u64..5_000), 1..120).prop_map(|v| {
        v.into_iter()
            .map(|(client, outbound, dt)| Event {
                client,
                outbound,
                dt,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_flows_never_exceed_capacity(events in arb_events(), capacity in 1usize..8) {
        let cfg = DplaneConfig {
            flow: FlowConfig { capacity, idle_timeout: 50_000 },
            seed: SeedMode::PerFlow(0xF10),
        };
        let mut dp = Dplane::new(cfg, ByAddr);
        let mut now = 0u64;
        let mut out = Vec::new();
        for &e in &events {
            now += e.dt;
            out.clear();
            dp.process_outbound(&packet_for(e), now, &mut out);
            prop_assert!(dp.flows_live() <= capacity,
                "{} live flows with capacity {capacity}", dp.flows_live());
        }
        // With more clients than capacity the LRU must actually fire.
        let distinct = events.iter().map(|e| e.client).collect::<std::collections::HashSet<_>>();
        if distinct.len() > capacity {
            prop_assert!(dp.metrics().totals().evicted_lru > 0);
        }
    }

    #[test]
    fn evicted_flows_reclassify_identically(events in arb_events()) {
        // Tiny capacity: most flows get evicted and return. A flow's
        // rewrite of a given packet is a pure function of its key, so
        // processing the same packet first and last must agree even
        // though the flow state was destroyed and rebuilt in between.
        let capacity = 2;
        let probe = packet_for(Event { client: 1, outbound: true, dt: 0 });
        let cfg = DplaneConfig {
            flow: FlowConfig { capacity, idle_timeout: u64::MAX },
            seed: SeedMode::PerFlow(0xF10),
        };
        let mut dp = Dplane::new(cfg, ByAddr);
        let mut first = Vec::new();
        dp.process_outbound(&probe, 1, &mut first);
        let mut now = 1u64;
        let mut out = Vec::new();
        for &e in &events {
            now += e.dt + 1;
            out.clear();
            dp.process_outbound(&packet_for(e), now, &mut out);
        }
        let mut again = Vec::new();
        dp.process_outbound(&probe, now + 1, &mut again);
        let first_bytes: Vec<_> = first.iter().map(Packet::serialize_raw).collect();
        let again_bytes: Vec<_> = again.iter().map(Packet::serialize_raw).collect();
        prop_assert_eq!(first_bytes, again_bytes,
            "rewrites changed after eviction + return");
    }
}

/// Idle expiry is part of the same purity contract: a flow that times
/// out and returns is recreated, visible in the metrics, with the same
/// state.
#[test]
fn idle_flows_expire_and_rebuild() {
    let cfg = DplaneConfig {
        flow: FlowConfig {
            capacity: 64,
            idle_timeout: 1_000,
        },
        seed: SeedMode::PerFlow(0xF10),
    };
    let mut dp = Dplane::new(cfg, ByAddr);
    let probe = packet_for(Event {
        client: 1,
        outbound: true,
        dt: 0,
    });
    let mut first = Vec::new();
    dp.process_outbound(&probe, 1, &mut first);
    // Long after the idle timeout: the entry is stale, expired on
    // touch, and rebuilt.
    let mut again = Vec::new();
    dp.process_outbound(&probe, 10_000, &mut again);
    let totals = dp.metrics().totals();
    assert!(totals.evicted_idle >= 1, "idle expiry never fired");
    assert_eq!(totals.flows_created, 2, "flow must be recreated");
    let a: Vec<_> = first.iter().map(Packet::serialize_raw).collect();
    let b: Vec<_> = again.iter().map(Packet::serialize_raw).collect();
    assert_eq!(a, b, "rebuilt flow rewrote differently");
}
