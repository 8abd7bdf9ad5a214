//! Flow-table counters and their JSON export.
//!
//! Counters are plain integers bumped on the packet path — no atomics,
//! because a [`crate::FlowTable`] is driven from one thread and
//! determinism is the contract. A plane reports its one flow table as
//! the single entry of the report's `shards` array, next to the
//! `totals` row folded from it.

use std::collections::BTreeMap;
use strata::report::esc;
use strata::CanonKey;

/// Counters for one flow table (a shard of the report).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Packets routed through this table's flows (both directions).
    pub packets: u64,
    /// Flow entries created.
    pub flows_created: u64,
    /// Flow entries evicted by the capacity LRU.
    pub evicted_lru: u64,
    /// Flow entries evicted by the idle timeout.
    pub evicted_idle: u64,
    /// Packets that passed through untouched (flow has no strategy).
    pub pass_through: u64,
    /// Strategy applications, keyed by compiled-program identity.
    pub applies: BTreeMap<CanonKey, u64>,
}

impl ShardMetrics {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.packets += other.packets;
        self.flows_created += other.flows_created;
        self.evicted_lru += other.evicted_lru;
        self.evicted_idle += other.evicted_idle;
        self.pass_through += other.pass_through;
        for (key, n) in &other.applies {
            *self.applies.entry(*key).or_insert(0) += n;
        }
    }
}

/// A point-in-time export of a data plane's counters.
///
/// ## JSON compatibility rule (additive, presence-based)
///
/// [`MetricsReport::to_json`] is a public interface consumed by
/// monitoring (`cay dplane`, `cay serve`, the `/metrics` endpoint).
/// Fields are **never renamed or removed**; new facts are added as new
/// keys, and facts that do not apply to a run are **omitted**, not
/// rendered as `null`/`0` — consumers test key presence, not value
/// sentinels. `uptime_ms`/`ingest_pps` exist only on the service path
/// (a live process has a monotonic clock; an offline replay does not),
/// so offline reports render without them and stay byte-comparable
/// across versions. The stable field set is pinned by
/// `json_field_set_is_stable` below.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// One entry per flow table; a [`crate::Dplane`] has one.
    pub shards: Vec<ShardMetrics>,
    /// Live flow count at export time.
    pub flows_live: usize,
    /// Program-cache hits (a new flow reused a compiled program).
    pub cache_hits: u64,
    /// Program-cache misses (a new flow compiled a program).
    pub cache_misses: u64,
    /// Strategies refused by the compile-time proof gate (the flow
    /// passed through unmodified).
    pub verify_rejects: u64,
    /// Canonical DSL text per program key — labels for `applies`.
    pub strategies: BTreeMap<CanonKey, String>,
    /// Milliseconds since the serving process started, derived from a
    /// monotonic clock. `Some` only on the service path (`cay serve`);
    /// offline runs have no uptime and omit the JSON key.
    pub uptime_ms: Option<u64>,
    /// Ingest rate in milli-packets-per-second (integer so the report
    /// stays `Eq`; rendered as a decimal `ingest_pps`). `Some` only on
    /// the service path, like [`MetricsReport::uptime_ms`].
    pub ingest_pps_milli: Option<u64>,
}

impl MetricsReport {
    /// Fold all shards into one totals row.
    pub fn totals(&self) -> ShardMetrics {
        let mut total = ShardMetrics::default();
        for shard in &self.shards {
            total.merge(shard);
        }
        total
    }

    /// Hand-rolled JSON (the workspace has no serde); keys are stable
    /// and maps are ordered, so equal reports render equal bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"shards\":[");
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            shard_json(&mut out, i, shard);
        }
        out.push_str("],\"totals\":");
        shard_json(&mut out, usize::MAX, &self.totals());
        out.push_str(&format!(
            ",\"flows_live\":{},\"program_cache\":{{\"hits\":{},\"misses\":{},\"verify_rejects\":{}}}",
            self.flows_live, self.cache_hits, self.cache_misses, self.verify_rejects
        ));
        out.push_str(",\"strategies\":{");
        for (i, (key, text)) in self.strategies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{key}\":\"{}\"", esc(text)));
        }
        out.push('}');
        // Service-path facts are presence-based: omitted entirely when
        // absent (see the compatibility rule on the type).
        if let Some(uptime) = self.uptime_ms {
            out.push_str(&format!(",\"uptime_ms\":{uptime}"));
        }
        if let Some(milli) = self.ingest_pps_milli {
            out.push_str(&format!(
                ",\"ingest_pps\":{}.{:03}",
                milli / 1000,
                milli % 1000
            ));
        }
        out.push('}');
        out
    }
}

fn shard_json(out: &mut String, index: usize, m: &ShardMetrics) {
    out.push('{');
    if index != usize::MAX {
        out.push_str(&format!("\"shard\":{index},"));
    }
    out.push_str(&format!(
        "\"packets\":{},\"flows_created\":{},\"evicted_lru\":{},\"evicted_idle\":{},\"pass_through\":{},\"applies\":{{",
        m.packets, m.flows_created, m.evicted_lru, m.evicted_idle, m.pass_through
    ));
    for (i, (key, n)) in m.applies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{key}\":{n}"));
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_fold_all_shards() {
        let mut a = ShardMetrics {
            packets: 3,
            ..ShardMetrics::default()
        };
        a.applies.insert(CanonKey(1), 2);
        let mut b = ShardMetrics {
            packets: 4,
            ..ShardMetrics::default()
        };
        b.applies.insert(CanonKey(1), 1);
        b.applies.insert(CanonKey(2), 5);
        let report = MetricsReport {
            shards: vec![a, b],
            ..MetricsReport::default()
        };
        let totals = report.totals();
        assert_eq!(totals.packets, 7);
        assert_eq!(totals.applies[&CanonKey(1)], 3);
        assert_eq!(totals.applies[&CanonKey(2)], 5);
    }

    #[test]
    fn json_escapes_dsl_backslashes() {
        assert_eq!(esc("a\\/b \"q\""), "a\\\\/b \\\"q\\\"");
        let report = MetricsReport {
            shards: vec![ShardMetrics::default()],
            flows_live: 1,
            cache_hits: 2,
            cache_misses: 3,
            verify_rejects: 1,
            strategies: [(CanonKey(0xAB), "x \\/ y".to_string())].into(),
            ..MetricsReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"00000000000000ab\":\"x \\\\/ y\""));
        assert!(json.contains("\"program_cache\":{\"hits\":2,\"misses\":3,\"verify_rejects\":1}"));
    }

    /// Extract the top-level keys of a flat-ish JSON object the way a
    /// presence-testing consumer would (depth-1 keys only).
    fn top_level_keys(json: &str) -> Vec<String> {
        let mut keys = Vec::new();
        let mut depth = 0usize;
        let mut in_str = false;
        let mut escaped = false;
        let mut current = String::new();
        let mut collecting = false;
        let mut expect_key = false;
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                    if collecting {
                        keys.push(current.clone());
                        collecting = false;
                    }
                } else if collecting {
                    current.push(c);
                }
                continue;
            }
            match c {
                '{' | '[' => {
                    depth += 1;
                    expect_key = depth == 1 && c == '{';
                }
                '}' | ']' => depth = depth.saturating_sub(1),
                ',' if depth == 1 => expect_key = true,
                '"' => {
                    in_str = true;
                    if depth == 1 && expect_key {
                        current.clear();
                        collecting = true;
                        expect_key = false;
                    }
                }
                _ => {}
            }
        }
        keys
    }

    /// The additive-JSON compatibility contract: offline reports render
    /// exactly the historical field set; the service-path fields appear
    /// only when populated, and nothing is ever renamed or removed.
    #[test]
    fn json_field_set_is_stable() {
        let offline = MetricsReport {
            shards: vec![ShardMetrics::default()],
            ..MetricsReport::default()
        };
        assert_eq!(
            top_level_keys(&offline.to_json()),
            [
                "shards",
                "totals",
                "flows_live",
                "program_cache",
                "strategies"
            ],
            "offline field set must never change"
        );
        let service = MetricsReport {
            shards: vec![ShardMetrics::default()],
            uptime_ms: Some(1234),
            ingest_pps_milli: Some(2500),
            ..MetricsReport::default()
        };
        assert_eq!(
            top_level_keys(&service.to_json()),
            [
                "shards",
                "totals",
                "flows_live",
                "program_cache",
                "strategies",
                "uptime_ms",
                "ingest_pps"
            ],
            "service fields are additive and presence-based"
        );
        assert!(service.to_json().contains("\"ingest_pps\":2.500"));
        assert!(!offline.to_json().contains("uptime_ms"));
        assert!(!offline.to_json().contains("ingest_pps"));
    }
}
