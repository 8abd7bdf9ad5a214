//! Drive a live `cay serve` end to end — the smoke probe.
//!
//! Two modes:
//!
//! * `cargo run --example serve_probe` — self-hosted: starts the
//!   service in-process on ephemeral loopback ports, then probes it.
//! * `cargo run --example serve_probe <udp-addr> <control-addr>` —
//!   external: probes an already-running `cay serve` (the CI smoke job
//!   starts the real binary and points this at it). In this mode the
//!   probe also plays the *origin server*: start the service with
//!   `--upstream` pointing at the port printed by the probe… or simply
//!   let the probe learn it — the probe answers whatever the bridge
//!   forwards to it only in self-hosted mode; externally it drives the
//!   client side and an echo origin on `<udp-addr>`'s upstream.
//!
//! Exit code 0 means: frames round-tripped through the UDP bridge, the
//! control plane answered `/ready`, `/status`, `/metrics` (both
//! formats), a hot reload applied, a bad reload was refused without
//! side effects, and shutdown drained cleanly.

use come_as_you_are::dplane::{DplaneConfig, SeedMode};
use come_as_you_are::harness::deploy::{demo_geo_entries, RolloutTable};
use come_as_you_are::packet::{Packet, TcpFlags};
use come_as_you_are::svc;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::process::exit;
use std::time::Duration;

const SERVER: [u8; 4] = [93, 184, 216, 34];

fn check(cond: bool, what: &str) {
    if cond {
        eprintln!("ok   {what}");
    } else {
        eprintln!("FAIL {what}");
        exit(1);
    }
}

fn http(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect control plane");
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: p\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: p\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn frame(src: [u8; 4], sport: u16, dst: [u8; 4], dport: u16, flags: TcpFlags) -> Packet {
    let mut p = Packet::tcp(src, sport, dst, dport, flags, 1, 0, vec![]);
    p.finalize();
    p
}

fn drain(sock: &UdpSocket, settle: Duration) -> usize {
    let mut buf = [0u8; 65536];
    let mut n = 0;
    sock.set_read_timeout(Some(settle)).expect("set timeout");
    while sock.recv_from(&mut buf).is_ok() {
        n += 1;
    }
    n
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");

    // The origin echo: receives forwarded client frames, answers with
    // a server-sourced SYN/ACK. In external mode `cay serve` must have
    // been started with `--upstream` at this probe's UDP_UPSTREAM.
    let origin = UdpSocket::bind(
        std::env::var("UDP_UPSTREAM")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(loopback),
    )
    .expect("bind origin");

    // Self-hosted unless addresses were supplied.
    let service;
    let (udp_addr, control_addr) = match (args.first(), args.get(1)) {
        (Some(u), Some(c)) => {
            service = None;
            (
                u.parse().expect("bad udp addr"),
                c.parse().expect("bad control addr"),
            )
        }
        _ => {
            let geo = demo_geo_entries();
            let s = svc::Service::start(svc::ServeConfig {
                bridge: svc::BridgeConfig {
                    udp: loopback,
                    tcp: None,
                    upstream: origin.local_addr().expect("origin addr"),
                    backend: svc::BackendChoice::Epoll,
                },
                control: loopback,
                core: svc::CoreConfig {
                    dplane: DplaneConfig {
                        seed: SeedMode::PerFlow(0x0D1A),
                        ..DplaneConfig::default()
                    },
                    server_addr: SERVER,
                    protocol: come_as_you_are::appproto::AppProtocol::Http,
                    rollout: RolloutTable::from_geo(
                        &geo,
                        come_as_you_are::appproto::AppProtocol::Http,
                    ),
                    geo,
                },
            })
            .expect("start service");
            let addrs = (s.udp_addr, s.control_addr);
            service = Some(s);
            addrs
        }
    };
    eprintln!("probing udp={udp_addr} control={control_addr}");

    // 1. Readiness.
    let (status, body) = get(control_addr, "/ready");
    check(status == 200 && body.contains("\"ready\":true"), "/ready");

    // 2. Drive a China-prefix client flow through the UDP bridge.
    let client_sock = UdpSocket::bind(loopback).expect("bind client");
    let client = [10, 7, 0, 2];
    client_sock
        .send_to(
            &frame(client, 40001, SERVER, 80, TcpFlags::SYN).serialize_raw(),
            udp_addr,
        )
        .expect("send SYN");
    let fwd = drain(&origin, Duration::from_millis(400));
    check(fwd >= 1, "SYN forwarded to the origin");
    origin
        .send_to(
            &frame(SERVER, 80, client, 40001, TcpFlags::SYN_ACK).serialize_raw(),
            udp_addr,
        )
        .expect("send SYN/ACK");
    let back = drain(&client_sock, Duration::from_millis(400));
    check(
        back >= 2,
        "rewritten SYN/ACK reached the client (strategy emitted extras)",
    );

    // 3. Counters moved.
    let (status, body) = get(control_addr, "/status");
    check(
        status == 200 && body.contains("\"service\":\"cay-serve\""),
        "/status",
    );
    let (status, body) = get(control_addr, "/metrics");
    check(
        status == 200 && body.contains("\"uptime_ms\":") && !body.contains("\"packets\":0,"),
        "/metrics shows traffic",
    );
    let (status, body) = get(control_addr, "/metrics?format=prometheus");
    check(
        status == 200 && body.contains("cay_packets_total"),
        "/metrics prometheus exposition",
    );

    // 4. Hot reload: refused (proof gate), then applied.
    let mut bomb = "duplicate".to_string();
    for _ in 0..130 {
        bomb = format!("duplicate({bomb},)");
    }
    let (status, body) = post(
        control_addr,
        "/config",
        &format!("10.7.0.0/16 50 [TCP:flags:SA]-{bomb}-| \\/"),
    );
    check(
        status == 422 && body.contains("\"applied\":false"),
        "unverifiable reload refused",
    );
    let (status, body) = post(
        control_addr,
        "/config",
        "10.7.0.0/16 60 [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},)-| \\/\n\
         10.7.0.0/16 40 [TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},)-| \\/\n",
    );
    check(
        status == 200 && body.contains("\"applied\":true"),
        "A/B reload applied",
    );

    // 5. Graceful shutdown.
    let (status, body) = post(control_addr, "/shutdown", "");
    check(
        status == 200 && body.contains("\"draining\":true"),
        "/shutdown acknowledged",
    );
    if let Some(s) = service {
        let report = s.join();
        check(
            report.totals().packets >= 2 && report.uptime_ms.is_some(),
            "drained with a final service-path snapshot",
        );
    }
    eprintln!("serve_probe: all checks passed");
}
