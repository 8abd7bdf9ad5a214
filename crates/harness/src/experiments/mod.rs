//! One driver per paper table / figure / section result.
//!
//! Every driver returns a structured result with a `render()` method
//! producing the text the paper's table or figure would show; the
//! `cay` subcommands (and `examples/lossy_network.rs`) call these
//! directly, and the integration tests assert on the *shape* of the
//! results (who wins, by roughly what factor, where crossovers fall).

pub mod dns_race;
pub mod followups;
pub mod multibox;
pub mod network_compat;
pub mod overhead;
pub mod residual;
pub mod robustness;
pub mod section3;
pub mod section7;
pub mod table1;
pub mod table2;
pub mod ttl_probe;

pub use dns_race::{dns_race, DnsRaceReport};
pub use followups::{followups, FollowupReport};
pub use multibox::{multibox, MultiboxReport};
pub use network_compat::{network_compat, NetworkCompatReport};
pub use overhead::{overhead, OverheadReport};
pub use residual::{residual, ResidualReport};
pub use robustness::{robustness, RobustnessReport};
pub use section3::{section3, Section3Report};
pub use section7::{client_compat, ClientCompatReport};
pub use table1::table1;
pub use table2::{table2, table2_via, Table2};
pub use ttl_probe::{ttl_probe, TtlProbeReport};

use crate::trial::{run_trial, TrialConfig};
use crate::waterfall::render_waterfall;
use appproto::AppProtocol;
use censor::Country;
use geneva::library;

/// Figure 1: one traced run per China strategy (1–8), rendered as
/// packet waterfalls. Strategies 3/4/5 are shown over FTP (where they
/// matter); the rest over HTTP, as in the paper's figure.
pub fn figure1(seed: u64) -> String {
    let mut out = String::new();
    for named in library::server_side().iter().take(8) {
        let proto = match named.id {
            3..=5 => AppProtocol::Ftp,
            _ => AppProtocol::Http,
        };
        // Find a seed where the strategy succeeds so the waterfall
        // shows the working mechanism (the paper's figures depict
        // successful runs).
        let mut chosen = None;
        for s in 0..40 {
            let cfg = TrialConfig::new(Country::China, proto, named.strategy(), seed + s);
            let result = run_trial(&cfg);
            if result.evaded() {
                chosen = Some(result);
                break;
            }
            if chosen.is_none() {
                chosen = Some(result);
            }
        }
        let result = chosen.expect("at least one run");
        out.push_str(&render_waterfall(
            &format!("Strategy {}: {} ({proto}, China)", named.id, named.name),
            &result.trace,
        ));
        out.push('\n');
    }
    out
}

/// Figure 2: waterfalls for the Kazakhstan strategies (9–11), plus
/// Strategy 8 which also works there.
pub fn figure2(seed: u64) -> String {
    let mut out = String::new();
    for named in [
        library::STRATEGY_9,
        library::STRATEGY_10,
        library::STRATEGY_11,
        library::STRATEGY_8,
    ] {
        let cfg = TrialConfig::new(
            Country::Kazakhstan,
            AppProtocol::Http,
            named.strategy(),
            seed,
        );
        let result = run_trial(&cfg);
        out.push_str(&render_waterfall(
            &format!(
                "Strategy {}: {} (HTTP, Kazakhstan) — {}",
                named.id,
                named.name,
                if result.evaded() {
                    "evaded"
                } else {
                    "censored"
                }
            ),
            &result.trace,
        ));
        out.push('\n');
    }
    out
}
