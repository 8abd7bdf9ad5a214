//! # come-as-you-are
//!
//! Facade crate for the reproduction of *"Come as You Are: Helping
//! Unmodified Clients Bypass Censorship with Server-side Evasion"*
//! (Bock et al., SIGCOMM 2020).
//!
//! Re-exports every workspace crate so examples, integration tests, and
//! downstream users can depend on a single package:
//!
//! * [`packet`] — IPv4/TCP/UDP packet model.
//! * [`netsim`] — deterministic discrete-event network simulator.
//! * [`endpoint`] — endpoint TCP state machines + client OS profiles.
//! * [`appproto`] — HTTP/HTTPS/DNS-over-TCP/FTP/SMTP implementations.
//! * [`geneva`] — the Geneva DSL and packet-manipulation engine.
//! * [`censor`] — behavioral models of the GFW, Airtel, Iran, Kazakhstan.
//! * [`evolve`] — the genetic algorithm discovering strategies.
//! * [`strata`] — static analysis over Geneva strategies.
//! * [`dplane`] — the compiled server-side evasion data plane.
//! * [`svc`] — live-traffic socket front end + operator control plane.
//! * [`harness`] — experiment drivers reproducing every table & figure.

pub use appproto;
pub use censor;
pub use dplane;
pub use endpoint;
pub use evolve;
pub use geneva;
pub use harness;
pub use netsim;
pub use packet;
pub use strata;
pub use svc;
