//! # geneva — the strategy DSL and packet-manipulation engine
//!
//! This crate is the paper's primary contribution surface: Geneva's
//! genetic building blocks (`duplicate`, `fragment`, `tamper`, `drop`,
//! `send`), the domain-specific language that composes them, and the
//! engine that applies a composed strategy to a packet stream —
//! extended, as in the paper, to run **server-side**.
//!
//! ## The DSL (paper appendix)
//!
//! A strategy is a set of `trigger ⇒ action-tree` pairs for outbound
//! and inbound packets:
//!
//! ```text
//! [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \/
//! ```
//!
//! reads: *on outbound SYN+ACK packets, make two copies; turn the
//! first into a RST and the second into a SYN, and send both* — the
//! paper's Strategy 1 ("Simultaneous Open, Injected RST").
//!
//! * [`ast`] — the strategy tree types;
//! * [`parser`] — text → AST (round-trips with `Display`);
//! * [`engine`] — AST × packet → packets, with faithful
//!   checksum-recompute semantics (`corrupt`ing a checksum leaves it
//!   broken; tampering any other field re-finalizes the packet);
//! * [`library`] — all 11 server-side strategies from §5, their §7
//!   client-compatibility fixes, and the client-side strategies whose
//!   server-side analogs §3 shows failing;
//! * [`wrapper`] — [`wrapper::StrategicEndpoint`], which wraps any
//!   `netsim` endpoint and rewrites its traffic through a strategy
//!   (any [`wrapper::Rewrite`]; the [`Engine`] by default), i.e.
//!   "deploying Geneva at the server".
//!
//! ```
//! use geneva::{parse_strategy, Engine};
//! use packet::{Packet, TcpFlags};
//!
//! // Strategy 1 from the paper, straight from its DSL text.
//! let strategy = parse_strategy(
//!     "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})-| \\/ ",
//! ).unwrap();
//!
//! // Apply it to a server's SYN+ACK: out come a RST and a SYN.
//! let mut engine = Engine::new(strategy, 42);
//! let mut syn_ack = Packet::tcp([5,6,7,8], 80, [1,2,3,4], 40000,
//!                               TcpFlags::SYN_ACK, 9000, 1001, vec![]);
//! syn_ack.finalize();
//! let wire = engine.apply_outbound(&syn_ack);
//! assert_eq!(wire.len(), 2);
//! assert_eq!(wire[0].flags(), TcpFlags::RST);
//! assert_eq!(wire[1].flags(), TcpFlags::SYN);
//! ```

pub mod ast;
pub mod engine;
pub mod explain;
pub mod library;
pub mod parser;
pub mod wrapper;

pub use ast::{Action, Span, Strategy, StrategyPart, TamperMode, Trigger};
pub use engine::Engine;
pub use explain::explain;
pub use parser::{parse_strategy, parse_strategy_spanned, PartSpans, StrategySpans};
pub use wrapper::{Rewrite, StrategicEndpoint};

/// Errors from parsing strategy text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte range in the input the error points at (zero-width at EOF).
    pub span: Span,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// Byte offset where parsing failed.
    pub fn at(&self) -> usize {
        self.span.start
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parse error at byte {}: {}",
            self.span.start, self.message
        )
    }
}

impl std::error::Error for ParseError {}
