#![allow(clippy::unwrap_used)] // test code
//! End-to-end service tests on loopback sockets.
//!
//! The load-bearing assertion is **live/offline equivalence**: the
//! frames observed at the echo origin and at the client of a running
//! [`svc::Service`] are byte-identical to what the same [`svc::Core`]
//! produces offline over a [`dplane::VecIo`], and the `/metrics`
//! counters match the offline [`dplane::MetricsReport`] byte-for-byte
//! once the service-only fields are stripped. The socket front end is
//! a transport, not a semantics.

use dplane::{DplaneConfig, SeedMode, VecIo};
use harness::deploy::{demo_geo_entries, RolloutTable};
use packet::{Packet, TcpFlags};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::PoisonError;
use std::time::{Duration, Instant};
use svc::{BackendChoice, BridgeConfig, Core, CoreConfig, ServeConfig, Service};

const SERVER: [u8; 4] = [93, 184, 216, 34];

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// The unsigned integer leaf at `path` of a JSON body.
fn json_u64(body: &str, path: &str) -> u64 {
    let leaves = strata::json::leaves(body).unwrap_or_else(|| panic!("not JSON: {body}"));
    let (_, raw) = leaves
        .iter()
        .find(|(p, _)| p == path)
        .unwrap_or_else(|| panic!("no {path} in {body}"));
    raw.parse().unwrap()
}

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

fn start_service() -> (Service, UdpSocket) {
    let origin = UdpSocket::bind(loopback()).unwrap();
    origin
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let service = Service::start(ServeConfig {
        bridge: BridgeConfig {
            udp: loopback(),
            tcp: None,
            upstream: origin.local_addr().unwrap(),
            backend: BackendChoice::Epoll,
        },
        control: loopback(),
        core: core_cfg(),
    })
    .unwrap();
    (service, origin)
}

/// One HTTP request against the control plane; returns (status, body).
fn http(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
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
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: cay\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: cay\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[allow(clippy::too_many_arguments)]
fn tcp_pkt(
    src: [u8; 4],
    sport: u16,
    dst: [u8; 4],
    dport: u16,
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    payload: Vec<u8>,
) -> Packet {
    let mut p = Packet::tcp(src, sport, dst, dport, flags, seq, ack, payload);
    p.finalize();
    p
}

/// The canonical four-packet exchange: SYN in, SYN/ACK out (the
/// strategy trigger), request in, response out.
fn exchange(client: [u8; 4], port: u16) -> [Packet; 4] {
    [
        tcp_pkt(client, port, SERVER, 80, TcpFlags::SYN, 1, 0, vec![]),
        tcp_pkt(SERVER, 80, client, port, TcpFlags::SYN_ACK, 100, 2, vec![]),
        tcp_pkt(
            client,
            port,
            SERVER,
            80,
            TcpFlags::PSH_ACK,
            2,
            101,
            b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n".to_vec(),
        ),
        tcp_pkt(
            SERVER,
            80,
            client,
            port,
            TcpFlags::PSH_ACK,
            101,
            40,
            b"HTTP/1.1 200 OK\r\n\r\nhi".to_vec(),
        ),
    ]
}

/// Collect datagrams off a socket until it stays quiet for `settle`.
fn drain_socket(sock: &UdpSocket, settle: Duration) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut buf = [0u8; 65536];
    sock.set_read_timeout(Some(settle)).unwrap();
    while let Ok((n, _)) = sock.recv_from(&mut buf) {
        frames.push(buf[..n].to_vec());
    }
    frames
}

#[test]
fn live_loopback_is_byte_identical_to_offline_vecio() {
    let (service, origin) = start_service();
    let client_sock = UdpSocket::bind(loopback()).unwrap();
    let client = [10, 7, 0, 2]; // China prefix: strategy applies
    let pkts = exchange(client, 40001);
    let bridge = service.udp_addr;

    // Drive the exchange stepwise so packet order is deterministic:
    // wait out each packet's emissions before sending the next.
    let mut at_origin: Vec<Vec<u8>> = Vec::new();
    let mut at_client: Vec<Vec<u8>> = Vec::new();
    for pkt in &pkts {
        let from_server = pkt.ip.src == SERVER;
        let sock = if from_server { &origin } else { &client_sock };
        sock.send_to(&pkt.serialize_raw(), bridge).unwrap();
        // The strategy may emit to either side; settle both sockets.
        at_origin.extend(drain_socket(&origin, Duration::from_millis(200)));
        at_client.extend(drain_socket(&client_sock, Duration::from_millis(200)));
    }

    // Offline oracle: the identical Core over a VecIo.
    let mut core = Core::new(core_cfg());
    let mut io = VecIo::new(
        pkts.iter()
            .cloned()
            .enumerate()
            .map(|(i, p)| (i as u64 * 10, p)),
    );
    assert_eq!(core.pump(&mut io), 4);
    let offline_to_server: Vec<Vec<u8>> = io
        .output
        .iter()
        .filter(|(_, p)| p.ip.dst == SERVER)
        .map(|(_, p)| p.serialize_raw())
        .collect();
    let offline_to_client: Vec<Vec<u8>> = io
        .output
        .iter()
        .filter(|(_, p)| p.ip.dst == client)
        .map(|(_, p)| p.serialize_raw())
        .collect();
    assert!(
        !offline_to_client.is_empty(),
        "the China strategy must rewrite the outbound side"
    );
    assert_eq!(at_origin, offline_to_server, "frames at the origin");
    assert_eq!(at_client, offline_to_client, "frames at the client");

    // /metrics equals the offline report byte-for-byte once the
    // service-only (presence-based) fields are stripped.
    let offline_json = core.offline_report().to_json();
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut live_stripped = String::new();
    while Instant::now() < deadline {
        let (status, body) = get(service.control_addr, "/metrics");
        assert_eq!(status, 200);
        let json = body.trim_end();
        live_stripped = match json.find(",\"uptime_ms\":") {
            Some(cut) => format!("{}}}", &json[..cut]),
            None => json.to_string(),
        };
        if live_stripped == offline_json {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        live_stripped, offline_json,
        "live /metrics vs offline report"
    );

    // /status names the socket backend.
    let (_, body) = get(service.control_addr, "/status");
    assert!(body.contains("\"backend\":\"epoll\""), "{body}");

    // Graceful shutdown: drain, flush, exit — both threads join.
    let (status, body) = post(service.control_addr, "/shutdown", "");
    assert_eq!((status, body.trim_end()), (200, "{\"draining\":true}"));
    let report = service.join();
    assert_eq!(report.totals().packets, 4);
    assert!(report.uptime_ms.is_some(), "final snapshot is service-path");
}

#[test]
fn control_plane_serves_operator_endpoints() {
    let (service, _origin) = start_service();
    let ctl = service.control_addr;

    let (status, body) = get(ctl, "/ready");
    assert_eq!((status, body.trim_end()), (200, "{\"ready\":true}"));

    let (status, body) = get(ctl, "/status");
    assert_eq!(status, 200);
    assert!(body.contains("\"service\":\"cay-serve\""), "{body}");
    assert!(body.contains("\"rollout_rules\":4"), "{body}");
    assert!(body.contains("\"reload_rejects\":0"), "{body}");

    let (status, body) = get(ctl, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("\"uptime_ms\":"), "{body}");
    assert!(body.contains("\"ingest_pps\":"), "{body}");

    let (status, body) = get(ctl, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE cay_packets_total counter"), "{body}");
    assert!(body.contains("cay_uptime_ms "), "{body}");

    let (status, _) = get(ctl, "/nope");
    assert_eq!(status, 404);

    // A config that does not parse: 400, counted, nothing applied.
    let (status, body) = post(ctl, "/config", "10.7.0.0/16 999 \\/");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"applied\":false"), "{body}");
    let (_, body) = get(ctl, "/status");
    assert!(body.contains("\"reload_rejects\":1"), "{body}");
    assert!(body.contains("\"reloads\":0"), "{body}");

    // A config that parses and verifies: applied, rule count changes.
    let good = "10.7.0.0/16 60 [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},)-| \\/\n\
                10.7.0.0/16 40 [TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},)-| \\/\n";
    let (status, body) = post(ctl, "/config", good);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"applied\":true"), "{body}");
    assert!(body.contains("\"verified\":true"), "{body}");
    let (_, body) = get(ctl, "/status");
    assert!(body.contains("\"reloads\":1"), "{body}");
    assert!(body.contains("\"rollout_rules\":1"), "{body}");

    // Shutdown flips readiness while the control plane still answers.
    let (status, _) = post(ctl, "/shutdown", "");
    assert_eq!(status, 200);
    let (status, body) = get(ctl, "/ready");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"draining\":true"), "{body}");
    let report = service.join();
    assert_eq!(report.totals().packets, 0, "no traffic was driven");
}

#[test]
fn tcp_front_end_round_trips_frames() {
    let origin = UdpSocket::bind(loopback()).unwrap();
    origin
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let service = Service::start(ServeConfig {
        bridge: BridgeConfig {
            udp: loopback(),
            tcp: Some(loopback()),
            upstream: origin.local_addr().unwrap(),
            backend: BackendChoice::Epoll,
        },
        control: loopback(),
        core: core_cfg(),
    })
    .unwrap();
    let taddr = service.tcp_addr.unwrap();
    let mut stream = TcpStream::connect(taddr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    // An India-prefix client over the TCP front end.
    let client = [10, 91, 0, 7];
    let pkts = exchange(client, 40100);
    let send = |stream: &mut TcpStream, pkt: &Packet| {
        let bytes = pkt.serialize_raw();
        let mut msg = (u32::try_from(bytes.len()).unwrap()).to_be_bytes().to_vec();
        msg.extend_from_slice(&bytes);
        stream.write_all(&msg).unwrap();
    };
    send(&mut stream, &pkts[0]); // SYN via TCP stream
    let fwd = drain_socket(&origin, Duration::from_millis(300));
    assert_eq!(fwd.len(), 1, "SYN forwarded upstream");
    // The origin answers over UDP; the reply routes back down the
    // learned TCP connection.
    origin
        .send_to(&pkts[1].serialize_raw(), service.udp_addr)
        .unwrap();
    let mut hdr = [0u8; 4];
    stream.read_exact(&mut hdr).unwrap();
    let len = u32::from_be_bytes(hdr) as usize;
    let mut frame = vec![0u8; len];
    stream.read_exact(&mut frame).unwrap();
    let got = Packet::parse(&frame).unwrap();
    assert_eq!(got.ip.dst, client);
    service.shutdown();
    let report = service.join();
    assert!(report.totals().packets >= 2);
}

/// A TCP peer that reads nothing while the origin floods frames at it
/// must not lose, reorder, or corrupt a single frame: the egress queue
/// absorbs what the socket buffer refuses behind an armed EPOLLOUT, and
/// the counters record that backpressure happened.
#[test]
fn tcp_backpressure_preserves_order_without_loss() {
    let origin = UdpSocket::bind(loopback()).unwrap();
    origin
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let service = Service::start(ServeConfig {
        bridge: BridgeConfig {
            udp: loopback(),
            tcp: Some(loopback()),
            upstream: origin.local_addr().unwrap(),
            backend: BackendChoice::Epoll,
        },
        control: loopback(),
        core: core_cfg(),
    })
    .unwrap();
    let taddr = service.tcp_addr.unwrap();
    let mut stream = TcpStream::connect(taddr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // A client outside every geo prefix: no strategy applies, so
    // the plane passes frames through byte-identically and the
    // received stream can be compared against the sent bytes.
    let client = [172, 16, 0, 8];
    let syn = tcp_pkt(client, 41000, SERVER, 80, TcpFlags::SYN, 1, 0, vec![]);
    let bytes = syn.serialize_raw();
    let mut msg = (u32::try_from(bytes.len()).unwrap()).to_be_bytes().to_vec();
    msg.extend_from_slice(&bytes);
    stream.write_all(&msg).unwrap();
    let fwd = drain_socket(&origin, Duration::from_millis(300));
    assert_eq!(fwd.len(), 1, "route-teaching SYN forwarded");

    // Flood: far more data toward the unread TCP connection than
    // the kernel socket buffers can hold, so the bridge must queue.
    const FRAMES: usize = 1024;
    const PAYLOAD: usize = 16 * 1024;
    // Frames sent but not yet counted in by the bridge, at most: a few
    // 16 KiB datagrams fit the UDP receive buffer with room to spare.
    const IN_FLIGHT: u64 = 4;
    let mut entered = json_u64(&get(service.control_addr, "/status").1, "bridge.frames_in");
    let mut expected: Vec<Vec<u8>> = Vec::with_capacity(FRAMES);
    for i in 0..FRAMES {
        let mut payload = vec![u8::try_from(i % 251).unwrap(); PAYLOAD];
        payload[..4].copy_from_slice(&(u32::try_from(i).unwrap()).to_be_bytes());
        let pkt = tcp_pkt(
            SERVER,
            80,
            client,
            41000,
            TcpFlags::PSH_ACK,
            100 + u32::try_from(i).unwrap(),
            2,
            payload,
        );
        let raw = pkt.serialize_raw();
        origin.send_to(&raw, service.udp_addr).unwrap();
        expected.push(raw);
        // Pace the UDP ingress against the bridge's own `frames_in`, so
        // its receive buffer (not under test here) never overflows,
        // however long the data thread is descheduled; the TCP egress
        // side still backs up because nothing is reading.
        let sent = u64::try_from(i).unwrap() + 2; // the SYN plus frames 0..=i
        let deadline = Instant::now() + Duration::from_secs(10);
        while sent - entered > IN_FLIGHT {
            assert!(Instant::now() < deadline, "ingress stalled at frame {i}");
            std::thread::sleep(Duration::from_micros(200));
            entered = json_u64(&get(service.control_addr, "/status").1, "bridge.frames_in");
        }
    }

    // Now read everything back: every frame, in order, bit-equal.
    for want in &expected {
        let mut hdr = [0u8; 4];
        stream.read_exact(&mut hdr).unwrap();
        let len = u32::from_be_bytes(hdr) as usize;
        let mut frame = vec![0u8; len];
        stream.read_exact(&mut frame).unwrap();
        assert_eq!(&frame, want, "frame loss/reorder/corruption");
    }

    // The counters saw the backpressure and nothing was dropped.
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut body = get(service.control_addr, "/status").1;
    while json_u64(&body, "bridge.egress_backpressure_events") == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        body = get(service.control_addr, "/status").1;
    }
    assert!(
        json_u64(&body, "bridge.egress_backpressure_events") > 0,
        "a full socket buffer must be observable: {body}"
    );
    assert_eq!(json_u64(&body, "bridge.unroutable"), 0, "{body}");
    assert!(body.contains("\"backend\":\"epoll\""), "{body}");
    service.shutdown();
    let report = service.join();
    assert_eq!(report.totals().packets, u64::try_from(FRAMES).unwrap() + 1);
}

/// A client that trickles its request one byte at a time cannot hold
/// the serial control plane: the whole-request deadline cuts it off,
/// so a readiness probe queued behind it still answers promptly.
#[test]
fn slow_client_cannot_stall_the_control_plane() {
    let (service, _origin) = start_service();
    let ctl = service.control_addr;
    let (connected, is_connected) = std::sync::mpsc::channel();
    let trickler = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(ctl).unwrap();
        let start = Instant::now();
        // A header that never ends, one byte every 100 ms for 3 s.
        let bytes = b"GET /ready HTTP/1.1\r\nX-Trickle: "
            .iter()
            .chain(std::iter::repeat(&b'a'));
        for (i, byte) in bytes.enumerate() {
            if start.elapsed() > Duration::from_secs(3) || stream.write_all(&[*byte]).is_err() {
                break;
            }
            if i == 0 {
                connected.send(()).unwrap();
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    // The trickler is first in the accept queue before the probe starts.
    is_connected.recv().unwrap();
    let t0 = Instant::now();
    let (status, body) = get(ctl, "/ready");
    let waited = t0.elapsed();
    assert_eq!((status, body.trim_end()), (200, "{\"ready\":true}"));
    assert!(
        waited < Duration::from_millis(1500),
        "/ready waited {waited:?} behind a slow client"
    );
    trickler.join().unwrap();
    service.shutdown();
    service.join();
}

/// A panic while holding the snapshot lock poisons it; publishing must
/// recover the lock instead of taking the data thread down with it.
#[test]
fn core_still_publishes_after_the_snapshot_lock_is_poisoned() {
    let mut core = Core::new(core_cfg());
    let shared = core.shared.clone();
    let poisoner = std::thread::spawn(move || {
        let _guard = shared.snapshot.lock().unwrap();
        panic!("poison the snapshot lock");
    });
    assert!(poisoner.join().is_err());
    assert!(core.shared.snapshot.is_poisoned());
    let mut io = VecIo::new(
        exchange([10, 7, 0, 2], 40200)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u64 * 10, p)),
    );
    assert_eq!(core.pump(&mut io), 4);
    let published = core
        .shared
        .snapshot
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .totals()
        .packets;
    assert_eq!(published, 4);
}

/// One wakeup costs one wait: a frame that arrives alone is read by
/// the data loop's blocking `epoll_wait` plus one `recvmmsg`, and its
/// emission leaves in one `sendmmsg` — 3 syscalls, with a margin for
/// the idle loop's 250 ms timeouts.
#[test]
fn a_lone_frame_costs_three_syscalls() {
    let (service, origin) = start_service();
    let ctl = service.control_addr;
    let client = UdpSocket::bind(loopback()).unwrap();
    // Outside every rollout prefix: each frame passes through to the
    // origin as exactly one emission.
    let frame = |seq| {
        tcp_pkt(
            [192, 0, 2, 1],
            40300,
            SERVER,
            80,
            TcpFlags::ACK,
            seq,
            1,
            vec![],
        )
        .serialize_raw()
    };
    let mut buf = [0u8; 65536];
    // The bridge counters /status shows once `frames_out` reaches `n`.
    let syscalls_at = |n: u64| {
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            let (_, body) = get(ctl, "/status");
            if json_u64(&body, "bridge.frames_out") >= n {
                return json_u64(&body, "bridge.syscalls");
            }
            assert!(Instant::now() < deadline, "frames_out never reached {n}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    client.send_to(&frame(0), service.udp_addr).unwrap();
    origin.recv_from(&mut buf).unwrap();
    let before = syscalls_at(1);
    const FRAMES: u32 = 200;
    for seq in 1..=FRAMES {
        let sent = frame(seq);
        client.send_to(&sent, service.udp_addr).unwrap();
        let (n, _) = origin.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], &sent[..]);
    }
    let after = syscalls_at(1 + u64::from(FRAMES));
    let per_frame = (after - before) as f64 / f64::from(FRAMES);
    assert!(per_frame <= 3.2, "{per_frame} syscalls per lone frame");
    service.shutdown();
    service.join();
}
