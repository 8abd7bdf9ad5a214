//! The operator control plane: a hand-rolled HTTP/1.1 listener.
//!
//! The workspace has no HTTP dependency (and takes none), so this is
//! the minimal correct subset an operator plane needs: one request per
//! connection (`Connection: close`), `Content-Length` bodies, no
//! chunked encoding, no keep-alive. Endpoints:
//!
//! | route             | meaning                                        |
//! |-------------------|------------------------------------------------|
//! | `GET /ready`      | readiness probe; 503 once draining             |
//! | `GET /status`     | service-level counters (bridge, reloads, rate) |
//! | `GET /metrics`    | the data plane's [`dplane::MetricsReport`] JSON; `?format=prometheus` for text exposition |
//! | `POST /config`    | hot strategy reload through the proof gate     |
//! | `POST /shutdown`  | graceful drain (the SIGTERM stand-in)          |
//!
//! The listener is serial (one request at a time): an operator plane
//! sees curl-scale load, and serial handling keeps every response a
//! consistent point-in-time snapshot. A whole-request deadline bounds
//! how long one client can hold it.

use crate::{control, sys, unpoisoned, SvcShared};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use strata::json::Json;

/// Cap on a request (line + headers + body) — config bodies are DSL
/// text, kilobytes at most.
const MAX_REQUEST: usize = 1 << 20;

/// Time a client gets from accept to a complete request. It bounds the
/// whole request, not each read: a per-read timeout lets a client that
/// sends one byte at a time hold the serial listener indefinitely.
const REQUEST_DEADLINE: Duration = Duration::from_secs(1);

/// A parsed request: method, path, query, body.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET` / `POST` (anything else earns a 405).
    pub method: String,
    /// Path component of the target, without the query.
    pub path: String,
    /// Query string after `?`, or empty.
    pub query: String,
    /// Request body (per `Content-Length`).
    pub body: Vec<u8>,
}

/// Parse one HTTP/1.1 request from raw bytes. Returns `None` on
/// malformed input (the caller answers 400).
pub fn parse_request(raw: &[u8]) -> Option<Request> {
    let head_end = find_header_end(raw)?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next()?.split_whitespace();
    let method = request_line.next()?.to_string();
    let target = request_line.next()?;
    let _version = request_line.next()?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let body_start = head_end + 4;
    let body = raw
        .get(body_start..body_start.checked_add(content_length)?)?
        .to_vec();
    Some(Request {
        method,
        path,
        query,
        body,
    })
}

fn find_header_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Read a full request off a stream: at most [`MAX_REQUEST`] bytes,
/// within [`REQUEST_DEADLINE`] of the call. `None` when the client
/// closes, errs, or runs out of time first.
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        // Complete yet? (Headers seen and the advertised body present.)
        if let Some(req) = parse_request(&raw) {
            return Some(req);
        }
        if raw.len() > MAX_REQUEST {
            return None;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        stream.set_read_timeout(Some(left)).ok()?;
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Make `listener` nonblocking and register it and
/// `shared.control_waker` with a fresh epoll instance: the set
/// [`serve`] blocks on.
pub fn listen(listener: &TcpListener, shared: &SvcShared) -> io::Result<sys::Epoll> {
    listener.set_nonblocking(true)?;
    let ep = sys::Epoll::new(sys::SyscallCounter::new())?;
    ep.add(listener.as_raw_fd(), 0, sys::EV_READ)?;
    ep.add(shared.control_waker.fd()?, 1, sys::EV_READ)?;
    Ok(ep)
}

/// Serve the control plane on the epoll set from [`listen`] until
/// `shared.control_stop` is set.
///
/// The loop blocks on {listener, stop-waker} with no timeout — an idle
/// control plane makes **zero timed wakeups**; [`crate::Service::join`]
/// fires `shared.control_waker` after setting the stop flag.
pub fn serve(listener: &TcpListener, mut ep: sys::Epoll, shared: &SvcShared) {
    let mut events = Vec::with_capacity(4);
    loop {
        if shared.control_stop.load(Ordering::Relaxed) {
            return;
        }
        events.clear();
        // Block until a connection or a waker kick — no timeout, so an
        // idle control plane never wakes.
        let _ = ep.wait(&mut events, -1);
        for ev in &events {
            if ev.token == 1 {
                shared.control_waker.drain();
            }
        }
        while let Ok((mut stream, _)) = listener.accept() {
            let _ = stream.set_nonblocking(false);
            handle(&mut stream, shared);
        }
    }
}

fn handle(stream: &mut TcpStream, shared: &SvcShared) {
    let Some(req) = read_request(stream) else {
        respond(
            stream,
            400,
            "application/json",
            "{\"error\":\"malformed request\"}\n",
        );
        return;
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/ready") => {
            let draining =
                shared.draining.load(Ordering::Relaxed) || shared.shutdown.load(Ordering::Relaxed);
            if draining {
                respond(
                    stream,
                    503,
                    "application/json",
                    "{\"ready\":false,\"draining\":true}\n",
                );
            } else {
                respond(stream, 200, "application/json", "{\"ready\":true}\n");
            }
        }
        ("GET", "/status") => {
            let body = status_json(shared);
            respond(stream, 200, "application/json", &body);
        }
        ("GET", "/metrics") => {
            let report = unpoisoned(shared.snapshot.lock()).clone();
            if req.query.split('&').any(|kv| kv == "format=prometheus") {
                let body = prometheus(shared, &report);
                respond(stream, 200, "text/plain; version=0.0.4", &body);
            } else {
                let mut body = report.to_json();
                body.push('\n');
                respond(stream, 200, "application/json", &body);
            }
        }
        ("POST", "/config") => match std::str::from_utf8(&req.body) {
            Ok(text) => {
                let outcome = control::apply_config(shared, text);
                respond(stream, outcome.status, "application/json", &outcome.body);
            }
            Err(_) => respond(
                stream,
                400,
                "application/json",
                "{\"error\":\"config body is not utf-8\"}\n",
            ),
        },
        ("POST", "/shutdown") => {
            shared.begin_shutdown();
            respond(stream, 200, "application/json", "{\"draining\":true}\n");
        }
        ("GET" | "POST", _) => {
            respond(
                stream,
                404,
                "application/json",
                "{\"error\":\"not found\"}\n",
            );
        }
        _ => respond(
            stream,
            405,
            "application/json",
            "{\"error\":\"method not allowed\"}\n",
        ),
    }
}

/// Service-level counters: what's around the data plane (the plane's
/// own counters live under `/metrics`). Additive, presence-based —
/// same compatibility rule as [`dplane::MetricsReport::to_json`].
fn status_json(shared: &SvcShared) -> String {
    let snapshot = unpoisoned(shared.snapshot.lock()).clone();
    let bridge = *unpoisoned(shared.bridge_stats.lock());
    let pps_milli = snapshot.ingest_pps_milli.unwrap_or(0);
    Json::object(|j| {
        j.str("service", "cay-serve")
            .num("uptime_ms", snapshot.uptime_ms.unwrap_or(0))
            .num("draining", shared.draining.load(Ordering::Relaxed))
            .num("packets", shared.packets.load(Ordering::Relaxed))
            .num(
                "ingest_pps",
                format_args!("{}.{:03}", pps_milli / 1000, pps_milli % 1000),
            )
            .num("flows_live", snapshot.flows_live)
            .num("rollout_rules", shared.rollout_rules())
            .num("reloads", shared.reloads.load(Ordering::Relaxed))
            .num(
                "reload_rejects",
                shared.reload_rejects.load(Ordering::Relaxed),
            )
            .obj("bridge", |j| {
                j.str("backend", "epoll")
                    .num("frames_in", bridge.frames_in)
                    .num("frames_out", bridge.frames_out)
                    .num("parse_errors", bridge.parse_errors)
                    .num("unroutable", bridge.unroutable)
                    .num("tcp_accepted", bridge.tcp_accepted)
                    .num("syscalls", bridge.syscalls)
                    .num("recv_batches", bridge.recv_batches)
                    .arr("frames_per_batch", |j| {
                        for n in bridge.frames_per_batch {
                            j.item_num(n);
                        }
                    })
                    .num(
                        "egress_backpressure_events",
                        bridge.egress_backpressure_events,
                    )
                    .num("gso_sends", bridge.gso_sends)
                    .num("gso_frames", bridge.gso_frames)
                    .num("gso_fallbacks", bridge.gso_fallbacks);
            });
    }) + "\n"
}

/// Prometheus text exposition (v0.0.4) of the same counters `/metrics`
/// serves as JSON, plus the service-level ones.
pub fn prometheus(shared: &SvcShared, report: &dplane::MetricsReport) -> String {
    let totals = &report.table;
    let mut out = String::with_capacity(1024);
    let mut counter = |name: &str, help: &str, value: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    };
    counter(
        "cay_packets_total",
        "Packets processed by the data plane.",
        totals.packets,
    );
    counter(
        "cay_flows_created_total",
        "Flow-table entries created.",
        totals.flows_created,
    );
    counter(
        "cay_pass_through_total",
        "Packets forwarded without a strategy.",
        totals.pass_through,
    );
    counter(
        "cay_evicted_lru_total",
        "Flows evicted by the capacity LRU.",
        totals.evicted_lru,
    );
    counter(
        "cay_evicted_idle_total",
        "Flows evicted by the idle timeout.",
        totals.evicted_idle,
    );
    counter(
        "cay_program_cache_hits_total",
        "New flows that reused a compiled program.",
        report.cache_hits,
    );
    counter(
        "cay_program_cache_misses_total",
        "New flows that compiled a program.",
        report.cache_misses,
    );
    counter(
        "cay_verify_rejects_total",
        "Strategies refused by the proof gate.",
        report.verify_rejects,
    );
    counter(
        "cay_reloads_total",
        "Accepted config reloads.",
        shared.reloads.load(Ordering::Relaxed),
    );
    counter(
        "cay_reload_rejects_total",
        "Refused config reloads.",
        shared.reload_rejects.load(Ordering::Relaxed),
    );
    let bridge = *unpoisoned(shared.bridge_stats.lock());
    counter(
        "cay_bridge_syscalls_total",
        "Syscalls made by the socket bridge.",
        bridge.syscalls,
    );
    counter(
        "cay_bridge_gso_sends_total",
        "Segmented (UDP_SEGMENT) egress messages the kernel took.",
        bridge.gso_sends,
    );
    counter(
        "cay_bridge_gso_frames_total",
        "Egress datagrams sent inside segmented messages.",
        bridge.gso_frames,
    );
    counter(
        "cay_bridge_gso_fallbacks_total",
        "Times the kernel refused segmentation and egress fell back to one message per datagram.",
        bridge.gso_fallbacks,
    );
    counter(
        "cay_bridge_recv_batches_total",
        "Ingress batches that delivered at least one frame.",
        bridge.recv_batches,
    );
    counter(
        "cay_bridge_egress_backpressure_events_total",
        "Egress attempts deferred by a full socket buffer.",
        bridge.egress_backpressure_events,
    );
    out.push_str(
        "# HELP cay_bridge_frames_per_batch Ingress frames-per-batch histogram.\n\
         # TYPE cay_bridge_frames_per_batch histogram\n",
    );
    let mut cumulative = 0u64;
    for (edge, n) in crate::bridge::FPB_BUCKET_EDGES
        .iter()
        .zip(bridge.frames_per_batch.iter())
    {
        cumulative += n;
        out.push_str(&format!(
            "cay_bridge_frames_per_batch_bucket{{le=\"{edge}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "cay_bridge_frames_per_batch_bucket{{le=\"+Inf\"}} {cumulative}\n\
         cay_bridge_frames_per_batch_count {cumulative}\n"
    ));
    out.push_str(
        "# HELP cay_bridge_backend The socket backend in use.\n\
         # TYPE cay_bridge_backend gauge\n\
         cay_bridge_backend{backend=\"epoll\"} 1\n",
    );
    out.push_str(&format!(
        "# HELP cay_flows_live Live flow-table entries.\n# TYPE cay_flows_live gauge\ncay_flows_live {}\n",
        report.flows_live
    ));
    if let Some(uptime) = report.uptime_ms {
        out.push_str(&format!(
            "# HELP cay_uptime_ms Milliseconds since service start.\n# TYPE cay_uptime_ms gauge\ncay_uptime_ms {uptime}\n"
        ));
    }
    if let Some(milli) = report.ingest_pps_milli {
        out.push_str(&format!(
            "# HELP cay_ingest_pps Lifetime-average ingest rate.\n# TYPE cay_ingest_pps gauge\ncay_ingest_pps {}.{:03}\n",
            milli / 1000,
            milli % 1000
        ));
    }
    out.push_str(
        "# HELP cay_strategy_applies_total Strategy applications by compiled-program key.\n\
         # TYPE cay_strategy_applies_total counter\n",
    );
    for (key, n) in &totals.applies {
        out.push_str(&format!(
            "cay_strategy_applies_total{{program=\"{key}\"}} {n}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;

    #[test]
    fn parses_a_get_with_query() {
        let raw = b"GET /metrics?format=prometheus HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = parse_request(raw).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, "format=prometheus");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let raw = b"POST /config HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse_request(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/config");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn incomplete_body_is_not_a_request_yet() {
        let raw = b"POST /config HTTP/1.1\r\nContent-Length: 10\r\n\r\nhel";
        assert!(parse_request(raw).is_none(), "must wait for the full body");
    }

    /// Replace the number after each of `keys` with `0`: uptime and the
    /// ingest rate derive from wall-clock time; everything else is
    /// fixed by the packets pumped.
    fn mask(body: &str, keys: &[&str]) -> String {
        let mut body = body.to_string();
        for key in keys {
            let at = body.find(key).unwrap() + key.len();
            let len = body[at..]
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap();
            body.replace_range(at..at + len, "0");
        }
        body
    }

    /// `/status`, `/metrics` and `/metrics?format=prometheus` of a core
    /// that has pumped a few flows render exactly the committed bytes
    /// (clock-derived numbers masked).
    #[test]
    fn core_documents_match_the_golden() {
        use packet::{Packet, TcpFlags};
        let http = appproto::AppProtocol::Http;
        let server = [93, 184, 216, 34];
        let geo = harness::deploy::demo_geo_entries();
        let mut core = crate::Core::new(crate::CoreConfig {
            dplane: dplane::DplaneConfig::default(),
            server_addr: server,
            protocol: http,
            rollout: harness::deploy::RolloutTable::from_geo(&geo, http),
            geo,
        });
        // China, Kazakhstan, and a client no geo entry covers.
        let mut packets = Vec::new();
        for client in [[10, 7, 1, 2], [10, 77, 1, 2], [172, 16, 1, 2]] {
            for mut p in [
                Packet::tcp(client, 40_000, server, 80, TcpFlags::SYN, 1, 0, vec![]),
                Packet::tcp(server, 80, client, 40_000, TcpFlags::SYN_ACK, 1, 0, vec![]),
            ] {
                p.finalize();
                packets.push((10, p));
            }
        }
        core.pump(&mut dplane::VecIo::new(packets));
        let shared = &core.shared;
        let report = unpoisoned(shared.snapshot.lock()).clone();
        let documents = format!(
            "{}{}\n{}",
            mask(&status_json(shared), &["\"uptime_ms\":", "\"ingest_pps\":"]),
            mask(&report.to_json(), &["\"uptime_ms\":", "\"ingest_pps\":"]),
            mask(
                &prometheus(shared, &report),
                &["\ncay_uptime_ms ", "\ncay_ingest_pps "]
            )
        );
        assert_eq!(
            documents,
            include_str!("../tests/golden/core_documents.txt")
        );
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse_request(b"\r\n\r\n").is_none());
        assert!(parse_request(b"nonsense").is_none());
        // A body length that overflows `usize` arithmetic.
        assert!(parse_request(
            b"POST /config HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n"
        )
        .is_none());
    }
}
