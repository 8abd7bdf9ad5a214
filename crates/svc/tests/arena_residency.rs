#![allow(clippy::unwrap_used)] // test code
//! The bridge's receive arena is reserved at bind but resident only
//! where datagrams land. This is the binary's only test, so no other
//! test's allocations run while it measures.
//!
//! Resident anonymous memory comes from `RssAnon` in
//! `/proc/self/status`. The kernel keeps that count in per-CPU
//! counters that it folds together lazily, so the bounds leave wide
//! margins: the arena, if it were resident, would add about 4 MiB.

use dplane::PacketIo;
use packet::{Packet, TcpFlags};
use std::net::{SocketAddr, UdpSocket};
use svc::{BackendChoice, Bridge, BridgeConfig};

/// `RssAnon` of this process, in KiB.
fn rss_anon_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("RssAnon:"))
        .unwrap_or_else(|| panic!("no RssAnon in {status}"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn the_receive_arena_is_resident_only_where_datagrams_land() {
    let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
    // Everything the measurement needs besides the bridge is made
    // before the first reading.
    let client = UdpSocket::bind(loopback).unwrap();
    let mut frame = Packet::tcp(
        [10, 7, 0, 2],
        40000,
        [93, 184, 216, 34],
        80,
        TcpFlags::SYN,
        1,
        0,
        vec![],
    );
    frame.finalize();
    let bytes = frame.serialize_raw();
    assert_eq!(bytes.len(), 40);

    let before = rss_anon_kib();
    let mut bridge = Bridge::bind(&BridgeConfig {
        udp: loopback,
        tcp: None,
        upstream: loopback,
        backend: BackendChoice::Epoll,
    })
    .unwrap();
    let bound = rss_anon_kib();
    assert!(
        bound.saturating_sub(before) < 512,
        "bind made {} KiB resident ({before} → {bound} KiB)",
        bound - before
    );

    // One full batch of 40-byte frames, already queued in the kernel
    // when the bridge reads (loopback sends complete synchronously).
    let to = bridge.udp_addr().unwrap();
    for _ in 0..svc::bridge::RECV_BATCH {
        client.send_to(&bytes, to).unwrap();
    }
    let mut queued = 0;
    for _ in 0..100 {
        queued += bridge.wait(100);
        if queued >= svc::bridge::RECV_BATCH {
            break;
        }
    }
    assert_eq!(queued, svc::bridge::RECV_BATCH);
    assert_eq!(bridge.stats.recv_batches, 1, "{:?}", bridge.stats);
    while let Some((_, pkt)) = bridge.recv() {
        assert_eq!(pkt.serialize_raw(), bytes);
    }
    let after = rss_anon_kib();
    assert!(
        after.saturating_sub(before) < 1024,
        "bind and one batch made {} KiB resident ({before} → {after} KiB)",
        after - before
    );
}
