//! # netsim — deterministic discrete-event network simulator
//!
//! The measurement substrate for the whole reproduction. The paper ran
//! its experiments over real Internet paths crossing real censors; we
//! run them over a simulated path
//!
//! ```text
//!   client ──(hops, latency)── middlebox ──(hops, latency)── server
//! ```
//!
//! with the properties every §5 mechanism actually depends on:
//!
//! * **deterministic ordering** — events are processed in (time, FIFO)
//!   order, so an experiment with a fixed RNG seed replays exactly;
//! * **TTL semantics** — each hop decrements TTL; packets whose TTL
//!   expires before the middlebox or the far endpoint silently die
//!   (this is what TTL-limited probes and insertion packets exploit);
//! * **on-path vs in-path** — a [`Middlebox`] verdict may forward,
//!   drop (in-path only, e.g. Iran/Kazakhstan), and inject packets
//!   toward either end (on-path RST injection, block pages);
//! * **full trace capture** — every send, delivery, forward, drop,
//!   injection, and TTL death is recorded for waterfall rendering and
//!   assertions.
//!
//! Each simulation is single-threaded on purpose: determinism is a
//! core requirement (seeded success-rate experiments, GA fitness), and
//! the workloads are tiny (tens of packets per connection).
//! Parallelism lives one layer up — `harness::pool` runs many
//! independent seeded simulations across worker threads, which is why
//! [`Endpoint`] and [`Middlebox`] carry `Send` supertraits.

pub mod event;
pub mod fault;
pub mod pcap;
pub mod sim;
pub mod trace;

pub use event::{Event, EventQueue};
pub use fault::FaultInjector;
pub use sim::{Endpoint, Io, Middlebox, PathConfig, SimBuffers, Simulation, StopReason, Verdict};

/// The splitmix64 finalizer (Steele, Lea & Flood; also xorshift's
/// recommended seeder). Bijective on `u64`, full avalanche. The one
/// copy behind the workspace's derived seeds and hash buckets: trial
/// seeds, initial sequence numbers, per-flow corrupt seeds and A/B
/// rollout buckets.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
pub use trace::{Trace, TraceEvent, TracePoint};

/// Which way a packet is traveling through the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the client side toward the server side.
    ToServer,
    /// From the server side toward the client side.
    ToClient,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::ToServer => Direction::ToClient,
            Direction::ToClient => Direction::ToServer,
        }
    }
}

/// Which endpoint of the simulated path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The in-country, unmodified client.
    Client,
    /// The out-of-country server (where evasion strategies run).
    Server,
}

impl Side {
    /// The side a packet traveling in `dir` is headed to.
    pub fn destination_of(dir: Direction) -> Side {
        match dir {
            Direction::ToServer => Side::Server,
            Direction::ToClient => Side::Client,
        }
    }

    /// The direction of traffic originated by this side.
    pub fn outbound_direction(self) -> Direction {
        match self {
            Side::Client => Direction::ToServer,
            Side::Server => Direction::ToClient,
        }
    }
}
