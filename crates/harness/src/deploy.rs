//! §8 deployment considerations: which strategy should a server apply
//! to which client?
//!
//! "In deployment, the server must determine which strategy to use on
//! a per-client basis … based only on the client's SYN packet.
//! Coarse-grained, country-level IP geolocation may suffice for
//! nation-states that exhibit mostly consistent censorship behavior
//! throughout their borders (like China)."
//!
//! This module is the library-shaped version of that paragraph: a tiny
//! prefix-based geolocation table (documentation-prefix ranges stand in
//! for a GeoIP database) and a per-(country, protocol) strategy ranking
//! derived from the paper's Table 2.

use appproto::AppProtocol;
use censor::Country;
use geneva::library::{self, NamedStrategy};
use geneva::Strategy;
use std::fmt;
use std::sync::Arc;
use strata::CensorId;

/// A (prefix, mask-length, country) entry — a toy GeoIP row.
#[derive(Debug, Clone, Copy)]
pub struct GeoEntry {
    /// Network address.
    pub prefix: [u8; 4],
    /// Prefix length in bits.
    pub len: u8,
    /// Mapped country.
    pub country: Country,
}

/// The built-in demonstration rows (documentation ranges; a real
/// deployment would load MaxMind or similar — or `--geo <file>`).
pub fn demo_geo_entries() -> Vec<GeoEntry> {
    vec![
        GeoEntry {
            prefix: [10, 7, 0, 0],
            len: 16,
            country: Country::China,
        },
        GeoEntry {
            prefix: [10, 91, 0, 0],
            len: 16,
            country: Country::India,
        },
        GeoEntry {
            prefix: [10, 98, 0, 0],
            len: 16,
            country: Country::Iran,
        },
        GeoEntry {
            prefix: [10, 77, 0, 0],
            len: 16,
            country: Country::Kazakhstan,
        },
    ]
}

/// [`demo_geo_entries`] built into a lookup table.
pub fn demo_geo_table() -> GeoTable {
    GeoTable::new(demo_geo_entries())
}

fn mask_of(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len.min(32)))
    }
}

/// A generic sorted-table longest-prefix-match index: the LPM
/// machinery shared by [`GeoTable`] (prefix → country) and
/// [`RolloutTable`] (prefix → A/B rule group).
///
/// Entries are normalized (network masked to its prefix length) and
/// grouped by prefix length, longest first; each group is sorted by
/// network address. A lookup binary-searches one group per distinct
/// length and returns on the first (i.e. longest) hit — `O(L log n)`
/// for `L` distinct prefix lengths, instead of a linear scan over
/// every row per packet. On the data-plane fast path this runs once
/// per flow (first SYN), over tables that in a real deployment hold
/// hundreds of thousands of rows.
#[derive(Debug, Clone)]
pub struct Lpm<T: Copy> {
    /// `(masked network, prefix length, value)`, sorted by length
    /// descending then network ascending; deduplicated on
    /// `(network, length)` with later rows overriding earlier ones.
    entries: Vec<(u32, u8, T)>,
    /// Contiguous `entries` run per distinct prefix length:
    /// `(len, start, end)`, longest length first.
    runs: Vec<(u8, usize, usize)>,
}

impl<T: Copy> Default for Lpm<T> {
    fn default() -> Lpm<T> {
        Lpm {
            entries: Vec::new(),
            runs: Vec::new(),
        }
    }
}

impl<T: Copy> Lpm<T> {
    /// Build the lookup structure from arbitrary-order
    /// `(prefix, len, value)` rows.
    pub fn new(rows: impl IntoIterator<Item = ([u8; 4], u8, T)>) -> Lpm<T> {
        let mut entries: Vec<(u32, u8, T)> = rows
            .into_iter()
            .map(|(prefix, len, value)| {
                let len = len.min(32);
                (u32::from_be_bytes(prefix) & mask_of(len), len, value)
            })
            .collect();
        // Stable sort + keep-last dedup: rows later in the input
        // override earlier duplicates of the same (network, length) —
        // the tie-break rule for identical prefixes.
        entries.sort_by_key(|&(net, len, _)| (std::cmp::Reverse(len), net));
        let mut deduped: Vec<(u32, u8, T)> = Vec::with_capacity(entries.len());
        for entry in entries {
            match deduped.last_mut() {
                Some(last) if last.0 == entry.0 && last.1 == entry.1 => *last = entry,
                _ => deduped.push(entry),
            }
        }
        let mut runs = Vec::new();
        let mut start = 0;
        while start < deduped.len() {
            let len = deduped[start].1;
            let end = start + deduped[start..].iter().take_while(|e| e.1 == len).count();
            runs.push((len, start, end));
            start = end;
        }
        Lpm {
            entries: deduped,
            runs,
        }
    }

    /// Number of (deduplicated) rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Longest-prefix-match `addr`: the value of the most specific
    /// covering prefix, or `None` when nothing covers it.
    pub fn locate(&self, addr: [u8; 4]) -> Option<T> {
        let ip = u32::from_be_bytes(addr);
        for &(len, start, end) in &self.runs {
            let masked = ip & mask_of(len);
            if let Ok(i) = self.entries[start..end].binary_search_by_key(&masked, |e| e.0) {
                return Some(self.entries[start + i].2);
            }
        }
        None
    }
}

/// A geolocation table: [`Lpm`] over countries.
#[derive(Debug, Clone, Default)]
pub struct GeoTable {
    lpm: Lpm<Country>,
}

impl GeoTable {
    /// Build the lookup structure from arbitrary-order rows.
    pub fn new(rows: impl IntoIterator<Item = GeoEntry>) -> GeoTable {
        GeoTable {
            lpm: Lpm::new(rows.into_iter().map(|e| (e.prefix, e.len, e.country))),
        }
    }

    /// Number of (deduplicated) rows.
    pub fn len(&self) -> usize {
        self.lpm.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.lpm.is_empty()
    }

    /// Longest-prefix-match `addr`: the country of the most specific
    /// covering prefix, or `None` when nothing covers it.
    pub fn locate(&self, addr: [u8; 4]) -> Option<Country> {
        self.lpm.locate(addr)
    }
}

/// The censor model that governs a geo-located country's clients:
/// the automaton the product model checker proves verdicts against.
pub fn censor_id(country: Country) -> CensorId {
    match country {
        Country::China => CensorId::Gfw,
        Country::India => CensorId::Airtel,
        Country::Iran => CensorId::Iran,
        Country::Kazakhstan => CensorId::Kazakhstan,
    }
}

/// The paper's Table-2-derived ranking: the best strategies for a
/// (country, protocol) pair, most effective first. Empty when the
/// country doesn't censor the protocol (deploy nothing).
pub fn recommend(country: Country, protocol: AppProtocol) -> Vec<NamedStrategy> {
    use AppProtocol as P;
    let ids: &[u32] = match (country, protocol) {
        // China, Table 2 column order by success rate:
        (Country::China, P::DnsTcp) => &[1, 7, 6, 2],
        (Country::China, P::Ftp) => &[5, 7, 3, 6, 1],
        (Country::China, P::Http) => &[1, 2, 7, 6],
        (Country::China, P::Https) => &[2, 6],
        (Country::China, P::Smtp) => &[8, 1, 7],
        (Country::India, P::Http) => &[8],
        (Country::Iran, P::Http) | (Country::Iran, P::Https) => &[8],
        (Country::Kazakhstan, P::Http) => &[8, 9, 10, 11],
        _ => &[],
    };
    ids.iter()
        .map(|id| {
            library::server_side()
                .into_iter()
                .find(|s| s.id == *id)
                .expect("ranked ids exist")
        })
        .collect()
}

/// The top-ranked, client-OS-safe pick for a (country, protocol):
/// strategies 5/9/10 are swapped for their §7 checksum-fixed variants,
/// since the server cannot know the client OS from a SYN.
pub fn top_pick(country: Country, protocol: AppProtocol) -> Option<NamedStrategy> {
    let named = recommend(country, protocol).into_iter().next()?;
    Some(library::client_compat_fix(named.id).unwrap_or(named))
}

// ---------------------------------------------------------------------------
// Text-file tables and per-prefix A/B rollout
// ---------------------------------------------------------------------------

/// A parse failure in a deploy table file, pinned to the offending
/// line and column (both 1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableParseError {
    /// 1-based line number within the file.
    pub line: usize,
    /// 1-based column (byte offset within the line, +1).
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl TableParseError {
    fn new(line: usize, col0: usize, msg: impl Into<String>) -> TableParseError {
        TableParseError {
            line,
            col: col0 + 1,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for TableParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for TableParseError {}

/// Whitespace-split tokens of a line with their 0-based byte offsets.
fn token_offsets(line: &str) -> impl Iterator<Item = (usize, &str)> {
    line.split_whitespace().map(move |tok| {
        let off = tok.as_ptr() as usize - line.as_ptr() as usize;
        (off, tok)
    })
}

/// Parse `a.b.c.d/len` into a (prefix, len) pair.
fn parse_prefix(tok: &str, line: usize, col0: usize) -> Result<([u8; 4], u8), TableParseError> {
    let err = |msg: String| TableParseError::new(line, col0, msg);
    let (net, len) = tok
        .split_once('/')
        .ok_or_else(|| err(format!("expected '<a.b.c.d>/<len>', got {tok:?}")))?;
    let mut prefix = [0u8; 4];
    let mut octets = net.split('.');
    for slot in &mut prefix {
        *slot = octets
            .next()
            .and_then(|o| o.parse().ok())
            .ok_or_else(|| err(format!("bad IPv4 network {net:?}")))?;
    }
    if octets.next().is_some() {
        return Err(err(format!("bad IPv4 network {net:?}")));
    }
    let len: u8 = len
        .parse()
        .ok()
        .filter(|l| *l <= 32)
        .ok_or_else(|| err(format!("prefix length {len:?} not in 0..=32")))?;
    Ok((prefix, len))
}

/// Parse a geolocation file: one `<a.b.c.d>/<len> <country>` row per
/// line, `#` comments, blank lines ignored. Duplicate (network, len)
/// rows follow the table-wide tie-break: the later row wins.
///
/// ```text
/// # clients behind the GFW
/// 10.7.0.0/16  china
/// 10.7.9.0/24  iran    # a more specific carve-out
/// ```
pub fn parse_geo_file(text: &str) -> Result<Vec<GeoEntry>, TableParseError> {
    let mut rows = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = &raw[..raw.find('#').unwrap_or(raw.len())];
        let mut toks = token_offsets(line);
        let Some((col0, prefix_tok)) = toks.next() else {
            continue;
        };
        let (prefix, len) = parse_prefix(prefix_tok, line_no, col0)?;
        let Some((ccol, country_tok)) = toks.next() else {
            return Err(TableParseError::new(
                line_no,
                line.len(),
                "expected '<a.b.c.d>/<len> <country>'",
            ));
        };
        let country = Country::parse(country_tok).ok_or_else(|| {
            TableParseError::new(
                line_no,
                ccol,
                format!(
                    "unknown country {country_tok:?} (expected one of: {})",
                    Country::all()
                        .map(|c| c.name().to_ascii_lowercase())
                        .join(", ")
                ),
            )
        })?;
        if let Some((ecol, extra)) = toks.next() {
            return Err(TableParseError::new(
                line_no,
                ecol,
                format!("unexpected trailing token {extra:?}"),
            ));
        }
        rows.push(GeoEntry {
            prefix,
            len,
            country,
        });
    }
    Ok(rows)
}

/// Deterministic A/B bucket (0..100) for a client address: FNV-1a over
/// the four octets, finished with a splitmix64 avalanche. Pure in the
/// address — a client keeps its arm across reloads, restarts, and
/// machines, so a percentage rollout never flaps anyone back and
/// forth.
pub fn ab_bucket(addr: [u8; 4]) -> u8 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in addr {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    u8::try_from(netsim::splitmix64(hash) % 100).unwrap_or(0)
}

/// One arm of a percentage rollout: `percent`% of a prefix's clients
/// get `strategy`.
#[derive(Debug, Clone)]
pub struct RolloutArm {
    /// Share of the prefix's clients (1..=100) on this arm.
    pub percent: u8,
    /// The strategy DSL as written (report/metrics label).
    pub text: String,
    /// The parsed strategy.
    pub strategy: Arc<Strategy>,
}

/// All arms for one prefix. Clients whose bucket falls past the last
/// arm's cumulative percentage pass through with no evasion (the
/// control arm).
#[derive(Debug, Clone)]
pub struct RolloutRule {
    /// Network address (normalized: host bits zeroed).
    pub prefix: [u8; 4],
    /// Prefix length in bits.
    pub len: u8,
    /// Arms in file order; cumulative percent ≤ 100.
    pub arms: Vec<RolloutArm>,
}

/// Per-client-prefix A/B rollout: longest-prefix match to a rule, then
/// a deterministic percentage split ([`ab_bucket`]) across that rule's
/// arms. This is `harness::deploy`'s LPM grown into the §8 deployment
/// story's missing piece — gradual, per-vantage rollout of candidate
/// strategies with a pass-through control group.
#[derive(Debug, Clone, Default)]
pub struct RolloutTable {
    rules: Vec<RolloutRule>,
    lpm: Lpm<usize>,
}

impl RolloutTable {
    /// Build from rules, merging arms of duplicate (network, len)
    /// pairs in order of appearance.
    pub fn from_rules(rules: impl IntoIterator<Item = RolloutRule>) -> RolloutTable {
        let mut merged: Vec<RolloutRule> = Vec::new();
        for mut rule in rules {
            rule.prefix =
                (u32::from_be_bytes(rule.prefix) & mask_of(rule.len.min(32))).to_be_bytes();
            rule.len = rule.len.min(32);
            match merged
                .iter_mut()
                .find(|r| r.prefix == rule.prefix && r.len == rule.len)
            {
                Some(existing) => existing.arms.extend(rule.arms),
                None => merged.push(rule),
            }
        }
        let lpm = Lpm::new(merged.iter().enumerate().map(|(i, r)| (r.prefix, r.len, i)));
        RolloutTable { rules: merged, lpm }
    }

    /// Parse a rollout file: one `<a.b.c.d>/<len> <percent> <dsl>` row
    /// per line (the DSL runs to end of line), `#`-prefixed comment
    /// lines and blank lines ignored. Arms of the same prefix
    /// accumulate across lines; their percentages must sum to ≤ 100 —
    /// the remainder is the pass-through control arm.
    ///
    /// ```text
    /// # 60/40 A/B between strategy 1 and the window cap, for China
    /// 10.7.0.0/16 60 [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},)-| \/
    /// 10.7.0.0/16 40 [TCP:flags:SA]-tamper{TCP:window:replace:1}-| \/
    /// ```
    pub fn parse(text: &str) -> Result<RolloutTable, TableParseError> {
        let mut rules: Vec<RolloutRule> = Vec::new();
        let mut sums: Vec<([u8; 4], u8, u32)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            if raw.trim().is_empty() || raw.trim_start().starts_with('#') {
                continue;
            }
            let mut toks = token_offsets(raw);
            let Some((pcol, prefix_tok)) = toks.next() else {
                continue;
            };
            let (prefix, len) = parse_prefix(prefix_tok, line_no, pcol)?;
            let prefix = (u32::from_be_bytes(prefix) & mask_of(len)).to_be_bytes();
            let Some((ccol, pct_tok)) = toks.next() else {
                return Err(TableParseError::new(
                    line_no,
                    raw.len(),
                    "expected '<a.b.c.d>/<len> <percent> <strategy-dsl>'",
                ));
            };
            let percent: u8 = pct_tok
                .parse()
                .ok()
                .filter(|p| (1..=100).contains(p))
                .ok_or_else(|| {
                    TableParseError::new(
                        line_no,
                        ccol,
                        format!("arm percentage {pct_tok:?} not in 1..=100"),
                    )
                })?;
            let Some((dcol, _)) = toks.next() else {
                return Err(TableParseError::new(
                    line_no,
                    raw.len(),
                    "expected a strategy DSL after the percentage",
                ));
            };
            let dsl = raw[dcol..].trim_end();
            let strategy = geneva::parse_strategy(dsl).map_err(|e| {
                TableParseError::new(
                    line_no,
                    dcol + e.span.start,
                    format!("strategy does not parse: {e}"),
                )
            })?;
            let sum = match sums.iter_mut().find(|(p, l, _)| *p == prefix && *l == len) {
                Some((_, _, sum)) => {
                    *sum += u32::from(percent);
                    *sum
                }
                None => {
                    sums.push((prefix, len, u32::from(percent)));
                    u32::from(percent)
                }
            };
            if sum > 100 {
                return Err(TableParseError::new(
                    line_no,
                    ccol,
                    format!(
                        "arms for {}.{}.{}.{}/{len} sum to {sum}% (max 100)",
                        prefix[0], prefix[1], prefix[2], prefix[3]
                    ),
                ));
            }
            rules.push(RolloutRule {
                prefix,
                len,
                arms: vec![RolloutArm {
                    percent,
                    text: dsl.to_string(),
                    strategy: Arc::new(strategy),
                }],
            });
        }
        Ok(RolloutTable::from_rules(rules))
    }

    /// The degenerate rollout a plain geo table induces: every located
    /// client (100%) gets the top-ranked client-OS-safe strategy for
    /// its country, exactly like [`top_pick`] of the client's located
    /// country.
    pub fn from_geo(entries: &[GeoEntry], protocol: AppProtocol) -> RolloutTable {
        RolloutTable::from_rules(entries.iter().map(|e| {
            RolloutRule {
                prefix: e.prefix,
                len: e.len,
                arms: top_pick(e.country, protocol)
                    .map(|named| {
                        vec![RolloutArm {
                            percent: 100,
                            text: named.text.trim().to_string(),
                            strategy: Arc::new(named.strategy()),
                        }]
                    })
                    .unwrap_or_default(),
            }
        }))
    }

    /// The merged rules, in first-appearance order.
    pub fn rules(&self) -> &[RolloutRule] {
        &self.rules
    }

    /// Number of distinct prefixes.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are loaded (every client passes through).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The strategy for a client address: longest-prefix match to a
    /// rule, then the deterministic bucket walk over its arms. `None`
    /// means pass through (unlisted client, or the control arm).
    pub fn pick(&self, addr: [u8; 4]) -> Option<Arc<Strategy>> {
        let rule = &self.rules[self.lpm.locate(addr)?];
        let bucket = u32::from(ab_bucket(addr));
        let mut cum = 0u32;
        for arm in &rule.arms {
            cum += u32::from(arm.percent);
            if bucket < cum {
                return Some(Arc::clone(&arm.strategy));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;

    #[test]
    fn longest_prefix_match_works() {
        let table = GeoTable::new(
            [
                GeoEntry {
                    prefix: [10, 7, 0, 0],
                    len: 16,
                    country: Country::China,
                },
                GeoEntry {
                    prefix: [10, 7, 9, 0],
                    len: 24,
                    country: Country::Iran, // more specific override
                },
            ]
            .into_iter()
            .chain([
                GeoEntry {
                    prefix: [10, 91, 0, 0],
                    len: 16,
                    country: Country::India,
                },
                GeoEntry {
                    prefix: [10, 77, 0, 0],
                    len: 16,
                    country: Country::Kazakhstan,
                },
            ]),
        );
        assert_eq!(table.locate([10, 7, 1, 1]), Some(Country::China));
        assert_eq!(table.locate([10, 7, 9, 5]), Some(Country::Iran));
        assert_eq!(table.locate([8, 8, 8, 8]), None);
    }

    #[test]
    fn nested_prefixes_resolve_most_specific_first() {
        // A /8 of one country containing a /16 of another, containing
        // a /24 of a third — the LPM ladder must stop at the longest
        // covering prefix, whatever order the rows arrive in.
        let rows = vec![
            GeoEntry {
                prefix: [10, 50, 60, 0],
                len: 24,
                country: Country::Kazakhstan,
            },
            GeoEntry {
                prefix: [10, 0, 0, 0],
                len: 8,
                country: Country::China,
            },
            GeoEntry {
                prefix: [10, 50, 0, 0],
                len: 16,
                country: Country::Iran,
            },
        ];
        for permutation in 0..3 {
            let mut rotated = rows.clone();
            rotated.rotate_left(permutation);
            let table = GeoTable::new(rotated);
            assert_eq!(table.locate([10, 1, 2, 3]), Some(Country::China));
            assert_eq!(table.locate([10, 50, 1, 1]), Some(Country::Iran));
            assert_eq!(table.locate([10, 50, 60, 9]), Some(Country::Kazakhstan));
            assert_eq!(table.locate([11, 0, 0, 1]), None);
        }
    }

    #[test]
    fn geo_table_locate_handles_edges() {
        let rows = vec![
            GeoEntry {
                prefix: [0, 0, 0, 0],
                len: 0, // default route: covers everything
                country: Country::India,
            },
            GeoEntry {
                prefix: [10, 7, 0, 0],
                len: 16,
                country: Country::China,
            },
            // Unmasked host bits must be normalized away.
            GeoEntry {
                prefix: [10, 8, 3, 7],
                len: 16,
                country: Country::Iran,
            },
        ];
        let table = GeoTable::new(rows);
        assert_eq!(table.locate([10, 7, 1, 1]), Some(Country::China));
        assert_eq!(table.locate([10, 7, 255, 255]), Some(Country::China));
        assert_eq!(table.locate([10, 8, 200, 200]), Some(Country::Iran));
        assert_eq!(table.locate([1, 2, 3, 4]), Some(Country::India));
        assert_eq!(table.locate([10, 8, 0, 1]), Some(Country::Iran));
        assert_eq!(table.locate([99, 99, 99, 99]), Some(Country::India));
        // Duplicate (network, length): the later row wins.
        let dup = GeoTable::new(vec![
            GeoEntry {
                prefix: [10, 7, 0, 0],
                len: 16,
                country: Country::China,
            },
            GeoEntry {
                prefix: [10, 7, 0, 0],
                len: 16,
                country: Country::Iran,
            },
        ]);
        assert_eq!(dup.len(), 1);
        assert_eq!(dup.locate([10, 7, 0, 1]), Some(Country::Iran));
    }

    #[test]
    fn recommendations_follow_table2() {
        let ftp = recommend(Country::China, AppProtocol::Ftp);
        assert_eq!(ftp[0].id, 5, "Strategy 5 leads for FTP (97%)");
        let smtp = recommend(Country::China, AppProtocol::Smtp);
        assert_eq!(smtp[0].id, 8, "window reduction leads for SMTP (100%)");
        assert!(recommend(Country::India, AppProtocol::Ftp).is_empty());
        assert_eq!(recommend(Country::Kazakhstan, AppProtocol::Http).len(), 4);
    }

    #[test]
    fn picks_are_client_os_safe() {
        let table = demo_geo_table();
        // China FTP's top pick is Strategy 5 — which breaks Windows —
        // so the deployment helper returns the checksum-fixed variant.
        let country = table.locate([10, 7, 3, 3]).unwrap();
        let pick = top_pick(country, AppProtocol::Ftp).unwrap();
        assert_eq!(pick.id, 5);
        assert!(pick.name.contains("chksum-fixed"), "{}", pick.name);
        // Unknown client: deploy nothing.
        assert!(table.locate([9, 9, 9, 9]).is_none());
    }

    #[test]
    fn geo_file_round_trips_and_ties_break_to_the_later_row() {
        let text = "\
# demo table
10.7.0.0/16  china
10.7.9.0/24  iran    # carve-out
10.7.9.0/24  india
0.0.0.0/0    kazakhstan
";
        let rows = parse_geo_file(text).unwrap();
        assert_eq!(rows.len(), 4);
        let table = GeoTable::new(rows);
        // Longest prefix wins; among identical (network, len) rows the
        // later one wins — the /24 appears twice, india is last.
        assert_eq!(table.locate([10, 7, 1, 1]), Some(Country::China));
        assert_eq!(table.locate([10, 7, 9, 9]), Some(Country::India));
        assert_eq!(table.locate([8, 8, 8, 8]), Some(Country::Kazakhstan));
        assert_eq!(table.len(), 3, "duplicate (network, len) deduplicates");
    }

    #[test]
    fn geo_file_errors_carry_line_and_column_spans() {
        // Unknown country: line 2, column of the country token.
        let err = parse_geo_file("10.7.0.0/16 china\n10.8.0.0/16 wonderland\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 13), "{err}");
        assert!(err.msg.contains("wonderland"), "{err}");
        // Prefix length out of range: column of the prefix token.
        let err = parse_geo_file("  10.7.0.0/33 china\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 3), "{err}");
        // Missing country.
        let err = parse_geo_file("10.7.0.0/16\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("expected"), "{err}");
        // Trailing junk.
        let err = parse_geo_file("10.7.0.0/16 china extra\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 19), "{err}");
        assert!(err.to_string().starts_with("line 1:19"), "{err}");
    }

    #[test]
    fn rollout_split_is_deterministic_and_respects_percentages() {
        let text = "\
# 60/40 split plus an uncovered control remainder on another prefix
10.7.0.0/16 60 [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},)-| \\/
10.7.0.0/16 40 [TCP:flags:SA]-tamper{TCP:window:replace:1}-| \\/
10.91.0.0/16 25 [TCP:flags:SA]-tamper{TCP:window:replace:1}-| \\/
";
        let table = RolloutTable::parse(text).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.rules()[0].arms.len(), 2);
        // Full coverage: every China client gets one of the two arms,
        // per its deterministic bucket.
        let mut arm_counts = [0usize; 2];
        for host in 0..=255u8 {
            let addr = [10, 7, 3, host];
            let picked = table.pick(addr).expect("100% coverage");
            let bucket = ab_bucket(addr);
            let expect = &table.rules()[0].arms[usize::from(bucket >= 60)];
            assert_eq!(picked, expect.strategy, "bucket {bucket}");
            arm_counts[usize::from(bucket >= 60)] += 1;
        }
        assert!(arm_counts[0] > arm_counts[1], "60% arm should dominate");
        assert!(arm_counts[1] > 0, "40% arm should be populated");
        // Partial coverage: ~25% of India clients get the arm, the
        // rest are the pass-through control group.
        let covered = (0..=255u8)
            .filter(|h| table.pick([10, 91, 1, *h]).is_some())
            .count();
        assert!((32..96).contains(&covered), "covered {covered} of 256");
        // Unlisted prefix: always pass-through.
        assert!(table.pick([172, 16, 0, 1]).is_none());
        // The split is a pure function of the address.
        assert_eq!(
            table.pick([10, 7, 3, 7]),
            RolloutTable::parse(text).unwrap().pick([10, 7, 3, 7])
        );
    }

    #[test]
    fn rollout_parse_errors_are_spanned() {
        // Oversubscribed prefix: pinned to the line that overflowed.
        let err = RolloutTable::parse("10.7.0.0/16 60 \\/\n10.7.0.0/16 50 \\/\n").unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.msg.contains("110%"), "{err}");
        // Bad percentage.
        let err = RolloutTable::parse("10.7.0.0/16 0 \\/\n").unwrap_err();
        assert!(err.msg.contains("percentage"), "{err}");
        // Strategy DSL error: column lands inside the DSL.
        let err = RolloutTable::parse("10.7.0.0/16 50 [TCP:flags:SA]-oops-| \\/\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col >= 16, "span should index into the DSL: {err}");
    }

    #[test]
    fn geo_derived_rollout_matches_top_pick() {
        let entries = demo_geo_entries();
        let rollout = RolloutTable::from_geo(&entries, AppProtocol::Http);
        let table = GeoTable::new(entries);
        for addr in [
            [10, 7, 1, 1],
            [10, 91, 2, 2],
            [10, 98, 3, 3],
            [10, 77, 4, 4],
            [9, 9, 9, 9],
        ] {
            let via_rollout = rollout.pick(addr);
            let via_pick = table
                .locate(addr)
                .and_then(|country| top_pick(country, AppProtocol::Http));
            assert_eq!(
                via_rollout.map(|s| s.to_string()),
                via_pick.map(|n| n.strategy().to_string()),
                "{addr:?}"
            );
        }
    }

    #[test]
    fn recommended_strategies_actually_evade_in_simulation() {
        // Close the loop: the top recommendation for every censored
        // (country, protocol) pair beats that censor more often than
        // no evasion does.
        use crate::rates::success_rate;
        use crate::trial::TrialConfig;
        for country in Country::all() {
            for proto in country.censored_protocols() {
                let Some(top) = recommend(country, *proto).into_iter().next() else {
                    continue;
                };
                let evading = TrialConfig::new(country, *proto, top.strategy(), 0);
                let baseline = TrialConfig::new(country, *proto, geneva::Strategy::identity(), 0);
                let with = success_rate(&evading, 60, 9).rate();
                let without = success_rate(&baseline, 60, 9).rate();
                assert!(
                    with > without + 0.2,
                    "{country}/{proto}: {with} !> {without} (strategy {})",
                    top.id
                );
            }
        }
    }
}
