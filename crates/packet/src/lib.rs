//! # packet — IPv4/TCP/UDP packet model for Geneva-style manipulation
//!
//! This crate provides the wire-format substrate for the rest of the
//! workspace: parsing, building, and serializing IPv4 packets carrying TCP
//! or UDP segments, with correct (and deliberately corruptible) checksums.
//!
//! The design goals mirror what the Geneva engine (see the `geneva` crate)
//! needs from a packet model:
//!
//! * Every header field is individually readable and writable, including
//!   fields that are normally derived (checksums, lengths, data offset) —
//!   Geneva's `tamper` action must be able to set them to arbitrary or
//!   random values.
//! * Serialization can either recompute derived fields or preserve
//!   whatever (possibly invalid) values are stored, because "insertion
//!   packets" with bad checksums are a first-class evasion primitive
//!   (Bock et al., SIGCOMM 2020, §7).
//! * Field access is also available by *name* through
//!   [`field::FieldRef`], matching Geneva's `PROTO:field` syntax
//!   (e.g. `TCP:flags`, `IP:ttl`).
//!
//! The model is deliberately simulator-grade rather than kernel-grade: it
//! covers exactly the surface the paper's strategies manipulate (IPv4,
//! TCP incl. options, UDP) and validates the invariants censors and
//! endpoints check (checksums, lengths, flag combinations).
//!
//! ```
//! use packet::{Packet, TcpFlags, FieldRef, FieldValue};
//!
//! let mut pkt = Packet::tcp([10,0,0,1], 40000, [93,184,216,34], 80,
//!                           TcpFlags::PSH_ACK, 1001, 9001,
//!                           b"GET / HTTP/1.1\r\n\r\n".to_vec());
//! pkt.finalize();
//! assert!(pkt.checksums_ok());
//!
//! // Geneva-style named field access:
//! let window = FieldRef::parse("TCP:window").unwrap();
//! window.set(&mut pkt, &FieldValue::Num(10)).unwrap();
//! assert_eq!(pkt.tcp_header().unwrap().window, 10);
//!
//! // Round-trips through wire bytes:
//! let parsed = Packet::parse(&pkt.serialize()).unwrap();
//! assert_eq!(parsed.payload, pkt.payload);
//! ```

#![forbid(unsafe_code)]

pub mod appfield;
pub mod bytes;
pub mod checksum;
pub mod field;
pub mod flags;
pub mod ipv4;
pub mod packet;
pub mod tcp;
pub mod udp;

pub use bytes::PayloadBuf;
pub use field::{FieldRef, FieldValue, Proto};
pub use flags::TcpFlags;
pub use ipv4::Ipv4Header;
pub use packet::{FlowKey, Packet, Transport};
pub use tcp::{TcpHeader, TcpOption};
pub use udp::UdpHeader;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while parsing or serializing packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The byte buffer was shorter than the fixed header demands.
    Truncated {
        /// Which layer was being parsed.
        layer: &'static str,
        /// How many bytes were needed.
        needed: usize,
        /// How many bytes were available.
        got: usize,
    },
    /// A length or offset field describes a layout the buffer can't hold.
    BadLength {
        /// Which layer was being parsed.
        layer: &'static str,
        /// Human-readable description of the inconsistency.
        what: &'static str,
    },
    /// The IP `version` nibble was not 4.
    BadVersion(u8),
    /// An unknown field name was used in named field access.
    UnknownField(String),
    /// A field value was out of range for the target field.
    ValueOutOfRange {
        /// Field that rejected the value.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated { layer, needed, got } => {
                write!(f, "{layer}: truncated (needed {needed} bytes, got {got})")
            }
            Error::BadLength { layer, what } => write!(f, "{layer}: bad length ({what})"),
            Error::BadVersion(v) => write!(f, "bad IP version {v}"),
            Error::UnknownField(name) => write!(f, "unknown field {name}"),
            Error::ValueOutOfRange { field, value } => {
                write!(f, "value {value} out of range for field {field}")
            }
        }
    }
}

impl std::error::Error for Error {}
