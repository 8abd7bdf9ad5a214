#![allow(clippy::unwrap_used)] // test code
//! Golden-bytes pcap capture of a dplane-rewritten flow.
//!
//! The netsim crate pins the raw libpcap framing; this test pins the
//! *contents* for a flow rewritten by the compiled data plane: one
//! SYN-ACK and one data segment from the server, rewritten by Strategy
//! 8 (TCP Window Reduction: the SYN-ACK's window drops to 10 and its
//! wscale option is stripped) with a fixed seed, framed at the
//! server's vantage. Any drift in the compiler, the flow table's seed
//! derivation, packet serialization, or the pcap writer shows up here
//! as a byte diff.

use dplane::{Dplane, DplaneConfig, FixedClassifier, FlowConfig, SeedMode};
use netsim::pcap::{parse_pcap, to_pcap, CaptureAt};
use netsim::{Side, Trace, TraceEvent};
use packet::{Packet, TcpFlags};
use std::sync::Arc;

const SERVER: [u8; 4] = [93, 184, 216, 34];
const CLIENT: [u8; 4] = [10, 7, 0, 2];

fn flow_packets() -> Vec<(u64, Packet)> {
    let mut syn = Packet::tcp(CLIENT, 40000, SERVER, 80, TcpFlags::SYN, 100, 0, vec![]);
    syn.finalize();
    let mut syn_ack = Packet::tcp(
        SERVER,
        80,
        CLIENT,
        40000,
        TcpFlags::SYN_ACK,
        9000,
        101,
        vec![],
    );
    syn_ack.finalize();
    let mut data = Packet::tcp(
        SERVER,
        80,
        CLIENT,
        40000,
        TcpFlags::PSH_ACK,
        9001,
        101,
        b"HTTP/1.1 200 OK\r\n\r\nok".to_vec(),
    );
    data.finalize();
    vec![(10, syn), (20, syn_ack), (30, data)]
}

fn rewritten_capture() -> Vec<u8> {
    let strategy = geneva::library::STRATEGY_8.strategy();
    let cfg = DplaneConfig {
        flow: FlowConfig::default(),
        seed: SeedMode::Fixed(0x5EED),
    };
    let mut dp = Dplane::new(cfg, FixedClassifier(Some(Arc::new(strategy))));
    let mut trace = Trace::default();
    let mut out = Vec::new();
    for (t, pkt) in flow_packets() {
        out.clear();
        if pkt.ip.src == SERVER {
            dp.process_outbound(&pkt, t, &mut out);
            for rewritten in &out {
                trace.push(TraceEvent::Sent {
                    t,
                    side: Side::Server,
                    pkt: rewritten.clone(),
                });
            }
        } else {
            // Client packets reach the server through the inbound
            // ruleset; Strategy 8 has no inbound parts, so they pass.
            dp.process_inbound(&pkt, t, &mut out);
        }
    }
    to_pcap(&trace, CaptureAt::Server)
}

#[test]
fn dplane_rewritten_flow_golden_bytes() {
    let capture = rewritten_capture();
    // Determinism first: two runs, one byte stream.
    assert_eq!(capture, rewritten_capture());
    let hex: String = capture.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN_HEX, "dplane-rewritten capture drifted");
    // And the capture must still parse as valid pcap with every record
    // a parseable IPv4 packet.
    let (linktype, records) = parse_pcap(&capture).unwrap();
    assert_eq!(linktype, 101);
    assert!(!records.is_empty());
    for (_, bytes) in &records {
        Packet::parse(bytes).unwrap();
    }
}

/// Generated once from `rewritten_capture()` and pinned; regenerate
/// deliberately (print the `hex` above) if the strategy library or
/// packet model changes on purpose.
const GOLDEN_HEX: &str = "d4c3b2a1020004000000000000000000ffff0000650000000000000014000000280000002800000045000028000040004006faec5db8d8220a07000200509c4000002328000000655012000aafc70000000000001e0000003d0000003d0000004500003d000040004006fad75db8d8220a07000200509c4000002329000000655018faf07f820000485454502f312e3120323030204f4b0d0a0d0a6f6b";
