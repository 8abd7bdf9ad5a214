//! # harness — the paper's experiments, end to end
//!
//! Glues the workspace together into runnable experiments:
//!
//! * [`trial`] — one client⇄censor⇄server exchange: pick a country, a
//!   protocol, a server-side strategy (and optionally a client-side
//!   one, an OS profile, instrumentation knobs), run the simulation,
//!   classify the outcome;
//! * [`rates`] — seeded success-rate estimation over many trials;
//! * [`pool`] — the deterministic parallel trial executor every rate
//!   and experiment fans out on (results are bit-identical for any
//!   worker count);
//! * [`seed`] — centralized splitmix64 per-trial seed derivation, so
//!   nearby experiment cells never see correlated seed sequences;
//! * [`waterfall`] — render a trace as a Figure-1/2-style packet
//!   waterfall;
//! * [`experiments`] — one driver per table/figure/section result:
//!   Table 1, Table 2, Figures 1–3, the §3 generalization experiment,
//!   the §5 follow-ups, the §6 TTL probe, and the §7 client
//!   compatibility matrix;
//! * [`deploy`] — §8's per-client strategy selection.
//!
//! ```
//! use harness::{run_trial, TrialConfig};
//! use censor::Country;
//! use appproto::AppProtocol;
//!
//! // One censored exchange: unmodified client in China asks our
//! // server for a forbidden keyword over HTTP. No strategy: censored.
//! let cfg = TrialConfig::new(
//!     Country::China,
//!     AppProtocol::Http,
//!     geneva::Strategy::identity(),
//!     7,
//! );
//! let result = run_trial(&cfg);
//! assert!(!result.evaded());
//!
//! // Behind the paper's Strategy 8 the SMTP censor never wins:
//! let cfg = TrialConfig::new(
//!     Country::China,
//!     AppProtocol::Smtp,
//!     geneva::library::STRATEGY_8.strategy(),
//!     7,
//! );
//! assert!(run_trial(&cfg).evaded());
//! ```

pub mod deploy;
pub mod experiments;
pub mod pool;
pub mod rates;
pub mod seed;
pub mod trial;
pub mod waterfall;

pub use pool::{Pool, Throughput};
pub use rates::{success_rate, success_rate_in, success_rate_tagged, RateEstimate};
pub use seed::{cell_tag, derive_trial_seed};
pub use trial::{
    run_trial, run_trial_scratch, CensorVariant, TrialConfig, TrialResult, TrialScratch,
    TrialVerdict,
};
pub use waterfall::render_waterfall;
