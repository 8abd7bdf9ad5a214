//! Flow-table counters and their JSON export.
//!
//! Counters are plain integers bumped on the packet path — no atomics,
//! because a [`crate::FlowTable`] is driven from one thread and
//! determinism is the contract. A plane reports its one flow table as
//! the single entry of the report's `shards` array, next to a `totals`
//! row with the same counters.

use std::collections::BTreeMap;
use strata::json::Json;
use strata::CanonKey;

/// Counters for one flow table.
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
    /// The plane's flow-table counters.
    pub table: ShardMetrics,
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
    /// The plane's counters, the report's `totals` row.
    pub fn totals(&self) -> ShardMetrics {
        self.table.clone()
    }

    /// The report as one JSON object, written through
    /// [`strata::json::Json`]; keys are stable and maps are ordered,
    /// so equal reports render equal bytes. The flow table renders
    /// twice: as shard 0 of `shards` and as `totals`.
    pub fn to_json(&self) -> String {
        Json::object(|j| {
            j.arr("shards", |j| {
                j.item_obj(|j| {
                    j.num("shard", 0);
                    table_members(j, &self.table);
                });
            })
            .obj("totals", |j| table_members(j, &self.table))
            .num("flows_live", self.flows_live)
            .obj("program_cache", |j| {
                j.num("hits", self.cache_hits)
                    .num("misses", self.cache_misses)
                    .num("verify_rejects", self.verify_rejects);
            })
            .obj("strategies", |j| {
                for (key, text) in &self.strategies {
                    j.str(&key.to_string(), text);
                }
            });
            // Service-path facts are presence-based: omitted entirely
            // when absent (see the compatibility rule on the type).
            if let Some(uptime) = self.uptime_ms {
                j.num("uptime_ms", uptime);
            }
            if let Some(milli) = self.ingest_pps_milli {
                j.num(
                    "ingest_pps",
                    format_args!("{}.{:03}", milli / 1000, milli % 1000),
                );
            }
        })
    }
}

fn table_members(j: &mut Json, m: &ShardMetrics) {
    j.num("packets", m.packets)
        .num("flows_created", m.flows_created)
        .num("evicted_lru", m.evicted_lru)
        .num("evicted_idle", m.evicted_idle)
        .num("pass_through", m.pass_through)
        .obj("applies", |j| {
            for (key, n) in &m.applies {
                j.num(&key.to_string(), n);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_dsl_backslashes() {
        let report = MetricsReport {
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
