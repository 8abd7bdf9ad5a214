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
use std::collections::HashSet;
use std::fmt::Write as _;
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
            if shared.draining.load(Ordering::Relaxed) {
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
            let report = unpoisoned(shared.snapshot.lock()).clone();
            let body = status_json(shared, &report);
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
fn status_json(shared: &SvcShared, snapshot: &dplane::MetricsReport) -> String {
    let bridge = *unpoisoned(shared.bridge_stats.lock());
    let pps_milli = snapshot.ingest_pps_milli.unwrap_or(0);
    Json::object(|j| {
        j.str("service", "cay-serve")
            .num("uptime_ms", snapshot.uptime_ms.unwrap_or(0))
            .num("draining", shared.draining.load(Ordering::Relaxed))
            .num("packets", snapshot.table.packets)
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

/// The leaves exported as gauges; every other numeric leaf is a counter.
const GAUGES: &[&str] = &[
    "draining",
    "flows_live",
    "ingest_pps",
    "rollout_rules",
    "uptime_ms",
];

/// Prometheus text exposition (v0.0.4), derived from the `/status` and
/// `/metrics` documents of one snapshot, so a counter added to either
/// is exported with no edit here. Each numeric or boolean (0/1) leaf,
/// `/status` first, is a sample named `cay_` + its path joined by `_`,
/// with `_total` unless it is one of the [`GAUGES`]; `totals.` adds no
/// segment. Strings, `shards.*` (a copy of `totals`) and names already
/// taken are skipped. `applies.<key>` is the
/// `cay_applies_total{program="<key>"}` family and
/// `bridge.frames_per_batch` a cumulative histogram over
/// [`crate::bridge::FPB_BUCKET_EDGES`]. `# HELP` names the document and
/// the path.
pub fn prometheus(shared: &SvcShared, report: &dplane::MetricsReport) -> String {
    use crate::bridge::FPB_BUCKET_EDGES as EDGES;
    let (status, metrics) = (status_json(shared, report), report.to_json());
    let mut out = String::with_capacity(4096);
    let mut taken = HashSet::new();
    // One path buffer for both walks and one name buffer for every
    // sample: a skipped leaf costs no allocation, and an exported one
    // only its first sighting of a name.
    let (mut path, mut name) = (String::new(), String::new());
    let mut cumulative = 0;
    for (doc, text) in [("/status", &status), ("/metrics", &metrics)] {
        // Both documents come from `Json`, so they always parse.
        let _ = strata::json::walk_leaves(text, &mut path, |full, raw| {
            let value = match raw {
                "false" => "0",
                "true" => "1",
                _ => raw,
            };
            let path = full.strip_prefix("totals.").unwrap_or(full);
            let numeric = value.starts_with(|c: char| c.is_ascii_digit() || c == '-');
            if path.starts_with("shards.") || !numeric {
                return;
            }
            // A family's last path segment labels its samples.
            name.clear();
            let (kind, label) = match path.rsplit_once('.') {
                Some(("applies", key)) => {
                    name.push_str("cay_applies_total");
                    ("counter", Some(key))
                }
                Some(("bridge.frames_per_batch", i)) => {
                    name.push_str("cay_bridge_frames_per_batch");
                    ("histogram", Some(i))
                }
                _ => {
                    name.push_str("cay_");
                    name.extend(path.chars().map(|c| if c == '.' { '_' } else { c }));
                    if GAUGES.contains(&path) {
                        ("gauge", None)
                    } else {
                        name.push_str("_total");
                        ("counter", None)
                    }
                }
            };
            let new = !taken.contains(name.as_str());
            if new {
                taken.insert(name.clone());
                let help = label.map_or(full, |l| &full[..full.len() - l.len() - 1]);
                let _ = writeln!(out, "# HELP {name} {doc} {help}\n# TYPE {name} {kind}");
            }
            match (kind, label) {
                (_, None) if new => {
                    let _ = writeln!(out, "{name} {value}");
                }
                ("counter", Some(key)) => {
                    let _ = writeln!(out, "{name}{{program=\"{key}\"}} {value}");
                }
                ("histogram", Some(i)) => {
                    let edge = i.parse().ok().and_then(|i: usize| EDGES.get(i));
                    let (Some(edge), Ok(n)) = (edge, value.parse::<u64>()) else {
                        return;
                    };
                    cumulative += n;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{edge}\"}} {cumulative}");
                    if Some(edge) == EDGES.last() {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                        let _ = writeln!(out, "{name}_count {cumulative}");
                    }
                }
                _ => {}
            }
        });
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

    /// A core that has pumped a few flows: China, Kazakhstan, and a
    /// client no geo entry covers.
    fn pumped_core() -> crate::Core {
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
        core
    }

    /// `/status`, `/metrics` and `/metrics?format=prometheus` of a core
    /// that has pumped a few flows render exactly the committed bytes
    /// (clock-derived numbers masked).
    #[test]
    fn core_documents_match_the_golden() {
        let core = pumped_core();
        let shared = &core.shared;
        let report = unpoisoned(shared.snapshot.lock()).clone();
        let documents = format!(
            "{}{}\n{}",
            mask(
                &status_json(shared, &report),
                &["\"uptime_ms\":", "\"ingest_pps\":"]
            ),
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

    /// Every numeric leaf of `/status` and `/metrics` outside `shards`
    /// has exactly one sample carrying its value, and nothing else is
    /// sampled. The exposition is read line by line here, apart from
    /// the renderer; a leaf both documents carry is one sample.
    #[test]
    fn every_numeric_leaf_has_exactly_one_sample() {
        let core = pumped_core();
        let shared = &core.shared;
        shared.draining.store(true, Ordering::Relaxed);
        {
            // Distinct values, so a sample carrying the wrong leaf shows.
            let mut bridge = unpoisoned(shared.bridge_stats.lock());
            bridge.frames_in = 11;
            bridge.frames_out = 12;
            bridge.syscalls = 13;
            bridge.gso_fallbacks = 1;
            bridge.frames_per_batch = [5, 0, 3, 0, 0, 2, 1];
        }
        let report = unpoisoned(shared.snapshot.lock()).clone();
        let exposition = prometheus(shared, &report);
        let mut samples: Vec<(String, String)> = exposition
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (series, value) = line.rsplit_once(' ').unwrap();
                (series.to_string(), value.to_string())
            })
            .collect();

        let mut want: Vec<(String, String)> = Vec::new();
        let mut cumulative = 0u64;
        for doc in [status_json(shared, &report), report.to_json()] {
            for (path, raw) in strata::json::leaves(&doc).unwrap() {
                let path = path.strip_prefix("totals.").unwrap_or(&path);
                if path.starts_with("shards.") || raw.starts_with('"') || raw == "null" {
                    continue;
                }
                let mut value = match raw {
                    "true" => "1".to_string(),
                    "false" => "0".to_string(),
                    v => v.to_string(),
                };
                let series = if let Some(key) = path.strip_prefix("applies.") {
                    format!("cay_applies_total{{program=\"{key}\"}}")
                } else if let Some(i) = path.strip_prefix("bridge.frames_per_batch.") {
                    cumulative += value.parse::<u64>().unwrap();
                    value = cumulative.to_string();
                    let edge = crate::bridge::FPB_BUCKET_EDGES[i.parse::<usize>().unwrap()];
                    format!("cay_bridge_frames_per_batch_bucket{{le=\"{edge}\"}}")
                } else {
                    let stem = format!("cay_{}", path.replace('.', "_"));
                    let names = [stem.clone(), stem + "_total"];
                    let hits: Vec<_> = samples.iter().filter(|(s, _)| names.contains(s)).collect();
                    assert_eq!(hits.len(), 1, "{path}: {hits:?}\n{exposition}");
                    hits[0].0.clone()
                };
                match want.iter().find(|(s, _)| *s == series) {
                    Some((_, v)) => assert_eq!(*v, value, "{series} carries two values"),
                    None => want.push((series, value)),
                }
            }
        }
        assert_eq!(cumulative, 11, "the histogram leaves were walked");
        for series in [
            "cay_bridge_frames_per_batch_bucket{le=\"+Inf\"}",
            "cay_bridge_frames_per_batch_count",
        ] {
            want.push((series.to_string(), cumulative.to_string()));
        }
        samples.sort();
        want.sort();
        assert_eq!(samples, want, "{exposition}");
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
