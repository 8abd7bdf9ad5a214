//! Drives `cay serve`'s control plane and times each round trip.
//!
//! `ops` runs [`schedule`] on its own thread for the whole measured run:
//! `GET /ready` every 10 ms, `GET /metrics` every 100 ms (JSON and
//! Prometheus in turn), and `POST /config` every second, alternating two
//! tables that verify, with every fourth a table the proof gate refuses.
//! The other workloads send the same mix back to back on the idle server
//! at the end of every round ([`Driver::burst`]), so every workload
//! reports the same round trips and `ops` shows what load adds.
//! Their accepted reloads re-apply table A: the same vetting and swap,
//! without changing which strategy a new flow gets (their oracle knows
//! table A only).

use crate::server::{get, post};
use crate::stats::{chunked, median};
use crate::workload::Tables;
use appproto::AppProtocol;
use dplane::MetricsReport;
use harness::deploy::GeoTable;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use svc::SvcShared;

/// Round trips in ms, and anything the control plane got wrong.
#[derive(Debug, Default)]
pub struct ControlTimes {
    pub ready_ms: Vec<f64>,
    pub scrape_ms: Vec<f64>,
    /// Accepted reloads only.
    pub reload_ms: Vec<f64>,
    pub refused: u64,
    pub errors: Vec<String>,
}

impl ControlTimes {
    /// `GET /ready` round trip: p90 of each 100 in a row (a second of
    /// the `ops` schedule, a round's burst elsewhere), best quartile.
    pub fn ready_p90_ms(&self) -> f64 {
        chunked(&self.ready_ms, 100, 90.0)
    }

    /// Applied reload round trip: median of each 5 in a row, best quartile.
    pub fn reload_p50_ms(&self) -> f64 {
        chunked(&self.reload_ms, 5, 50.0)
    }

    /// Scrape round trip: median of each 10 in a row, best quartile.
    pub fn scrape_p50_ms(&self) -> f64 {
        chunked(&self.scrape_ms, 10, 50.0)
    }

    pub fn note(&self) -> String {
        format!(
            "control round trips: {} ready (p90 {:.4} ms), {} scrapes (p50 {:.4} ms), \
             {} reloads applied (p50 {:.4} ms), {} refused",
            self.ready_ms.len(),
            self.ready_p90_ms(),
            self.scrape_ms.len(),
            self.scrape_p50_ms(),
            self.reload_ms.len(),
            self.reload_p50_ms(),
            self.refused
        )
    }
}

pub struct Driver<'a> {
    addr: SocketAddr,
    tables: &'a Tables,
    /// Accepted reloads alternate between tables B and A (else: A).
    alternate: bool,
    scrapes: u64,
    reloads: u64,
    pub out: ControlTimes,
}

impl<'a> Driver<'a> {
    pub fn new(addr: SocketAddr, tables: &'a Tables, alternate: bool) -> Driver<'a> {
        Driver {
            addr,
            tables,
            alternate,
            scrapes: 0,
            reloads: 0,
            out: ControlTimes::default(),
        }
    }

    /// One round's share of the mix: 100 `/ready`, 10 scrapes, 2 reloads
    /// (3 in 4 applied).
    pub fn burst(&mut self) {
        for i in 0..100 {
            self.ready();
            if i % 10 == 0 {
                self.scrape();
            }
            if i % 50 == 0 {
                self.reload();
            }
        }
    }

    fn ready(&mut self) {
        let t0 = Instant::now();
        match get(self.addr, "/ready") {
            Ok((200, _)) => self.out.ready_ms.push(ms(t0)),
            other => self.out.errors.push(format!("/ready: {other:?}")),
        }
    }

    fn scrape(&mut self) {
        let path = if self.scrapes.is_multiple_of(2) {
            "/metrics"
        } else {
            "/metrics?format=prometheus"
        };
        self.scrapes += 1;
        let t0 = Instant::now();
        match get(self.addr, path) {
            Ok((200, body)) if !body.is_empty() => self.out.scrape_ms.push(ms(t0)),
            other => self.out.errors.push(format!("{path}: {other:?}")),
        }
    }

    /// Every fourth reload is refused (422); the others must be applied
    /// (200).
    fn reload(&mut self) {
        let k = self.reloads;
        self.reloads += 1;
        let (body, want) = if k % 4 == 3 {
            (&self.tables.refused_text, 422)
        } else if self.alternate && (k - k / 4).is_multiple_of(2) {
            (&self.tables.b_text, 200)
        } else {
            (&self.tables.a_text, 200)
        };
        let t0 = Instant::now();
        match post(self.addr, "/config", body) {
            Ok((code, _)) if code == want && want == 200 => self.out.reload_ms.push(ms(t0)),
            Ok((code, _)) if code == want => self.out.refused += 1,
            other => self
                .out
                .errors
                .push(format!("POST /config (want {want}): {other:?}")),
        }
    }
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The `ops` schedule, until `stop` is set.
pub fn schedule(addr: SocketAddr, tables: &Tables, stop: &AtomicBool) -> ControlTimes {
    let mut d = Driver::new(addr, tables, true);
    let start = Instant::now();
    let (mut ready, mut scrape, mut reload) = (0u64, 0u64, 1u64);
    while !stop.load(Ordering::Relaxed) {
        // Next event in ms from the start: /ready every 10, /metrics
        // every 100, /config every 1000.
        let next = (ready * 10).min(scrape * 100).min(reload * 1000);
        let due = start + Duration::from_millis(next);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait.min(Duration::from_millis(10)));
            continue;
        }
        if next == reload * 1000 {
            d.reload();
            reload += 1;
        } else if next == scrape * 100 {
            d.scrape();
            scrape += 1;
        } else {
            d.ready();
            ready += 1;
        }
    }
    d.out
}

/// What the control plane's work costs in-process, without HTTP.
pub struct Costs {
    /// `svc::vet_config` of table A.
    pub vet_ms: f64,
    /// `svc::apply_config`, alternating tables B and A.
    pub apply_ms: f64,
    /// `MetricsReport::to_json` of the live snapshot (`GET /metrics`).
    pub json_us: f64,
    /// `svc::http::prometheus` of the same snapshot.
    pub prometheus_us: f64,
}

/// Median cost of each control-plane call over a few repetitions.
pub fn costs(tables: &Tables, shared: &SvcShared, report: &MetricsReport) -> Result<Costs, String> {
    let geo = GeoTable::new(tables.geo.clone());
    let (mut vet, mut apply, mut json, mut prom) = (vec![], vec![], vec![], vec![]);
    for k in 0..6 {
        let t0 = Instant::now();
        let outcome = svc::vet_config(&tables.a_text, &geo, AppProtocol::Http);
        vet.push(ms(t0));
        if !outcome.applied {
            return Err(format!("table A fails vetting: {}", outcome.body));
        }
        let text = if k % 2 == 0 {
            &tables.b_text
        } else {
            &tables.a_text
        };
        let t0 = Instant::now();
        let outcome = svc::apply_config(shared, text);
        apply.push(ms(t0));
        if !outcome.applied {
            return Err(format!("reload refused: {}", outcome.body));
        }
    }
    for _ in 0..50 {
        let t0 = Instant::now();
        black_box(report.to_json());
        json.push(ms(t0) * 1e3);
        let t0 = Instant::now();
        black_box(svc::http::prometheus(shared, report));
        prom.push(ms(t0) * 1e3);
    }
    Ok(Costs {
        vet_ms: median(&vet),
        apply_ms: median(&apply),
        json_us: median(&json),
        prometheus_us: median(&prom),
    })
}
