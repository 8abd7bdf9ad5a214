//! The abstract packet alphabet the censor automata read.
//!
//! An [`AbsPacket`] is one emitted packet as the *censor* can see it:
//! direction, TCP flags, payload visibility (non-empty? a well-formed
//! GET? forbidden?), checksum validity, whether the packet's TTL
//! provably survives to the middlebox, and whether its seq/ack still
//! agree with the tracked stream. Facts the static summary cannot pin
//! down are three-valued ([`Tri::Maybe`]), so the automata can keep
//! separate must/may state and every proof stays an
//! over-approximation of the concrete censor.
//!
//! Two constructors bridge the two worlds the soundness proptest
//! compares: [`AbsPacket::of_effect`] abstracts a static
//! [`PathEffect`] (what the checker consumes), and
//! [`AbsPacket::of_packet`] abstracts a concrete wire packet (what the
//! differential test feeds both the real `Middlebox` and the
//! automaton).

use geneva::Trigger;
use packet::field::FieldValue;
use packet::{Packet, Proto, TcpFlags};

use crate::absint::{FieldEffect, PathEffect};
use crate::lints::{DEFAULT_TTL, HOPS_TO_MIDDLEBOX};

/// Three-valued fact: definitely false, unknown, definitely true.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tri {
    No,
    Maybe,
    Yes,
}

impl Tri {
    /// Exact fact from a concrete boolean.
    pub fn of(b: bool) -> Tri {
        if b {
            Tri::Yes
        } else {
            Tri::No
        }
    }
    /// Provably true.
    pub fn must(self) -> bool {
        self == Tri::Yes
    }
    /// Possibly true (not provably false).
    pub fn may(self) -> bool {
        self != Tri::No
    }
    /// Least upper bound: `Yes` absorbs, disagreement blurs to
    /// `Maybe`.
    pub fn join(self, other: Tri) -> Tri {
        self.max(other)
    }
}

/// Which way the packet crosses the censor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsDirection {
    ToClient,
    ToServer,
}

/// Keyword markers the modeled censors' default blacklists match on
/// (`crates/censor`: KZ/Airtel/Iran ship `youtube.com`, the GFW's HTTP
/// box ships `ultrasurf`). A payload that contains none of these
/// substrings is provably not forbidden to the default-configured
/// models; a payload that does contain one *may* be (the concrete
/// check also requires HTTP request structure).
pub const FORBIDDEN_MARKERS: &[&str] = &["youtube.com", "ultrasurf"];

/// Replica of the Kazakh censor's well-formed-GET predicate
/// (`GET <path> HTTP1.` / `GET <path> HTTP/1.` prefix). Kept
/// byte-for-byte in sync with `censor::kazakhstan`; the soundness
/// proptest feeds both sides the same payloads, so drift fails tests.
pub fn wellformed_get_prefix(payload: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(payload) else {
        return false;
    };
    let Some(rest) = text.strip_prefix("GET ") else {
        return false;
    };
    let Some((path, rest)) = rest.split_once(' ') else {
        return false;
    };
    !path.is_empty() && (rest.starts_with("HTTP1.") || rest.starts_with("HTTP/1."))
}

fn contains_marker(bytes: &[u8]) -> bool {
    FORBIDDEN_MARKERS
        .iter()
        .any(|m| bytes.windows(m.len()).any(|w| w == m.as_bytes()))
}

/// One packet, as abstracted for the censor automata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsPacket {
    pub dir: AbsDirection,
    /// Emitted TCP flags when statically known, `None` otherwise.
    pub flags: Option<TcpFlags>,
    /// Payload is non-empty.
    pub payload: Tri,
    /// Payload satisfies [`wellformed_get_prefix`].
    pub wellformed_get: Tri,
    /// Payload trips the censor's (default) blacklist.
    pub forbidden: Tri,
    /// Transport checksum is valid on the wire.
    pub checksum_ok: Tri,
    /// TTL survives from the emitting server to the middlebox.
    pub reaches: Tri,
    /// seq/ack still agree with the stream the censor tracks.
    pub seq_tracked: Tri,
}

impl AbsPacket {
    /// Abstract one static emission path. `trigger` is the part's
    /// trigger: untouched fields inherit facts from the matched
    /// packet, and a SYN-bearing flags trigger additionally proves the
    /// matched packet payload-free (the modeled endpoint stacks never
    /// put data on SYN or SYN+ACK segments).
    pub fn of_effect(effect: &PathEffect, trigger: &Trigger, dir: AbsDirection) -> AbsPacket {
        if effect.via_fragment {
            // A fragment path's field facts describe a superset of
            // dynamic behaviours (the split may or may not happen and
            // shifts the second piece's seq): keep only the direction.
            return AbsPacket {
                dir,
                flags: None,
                payload: Tri::Maybe,
                wellformed_get: Tri::Maybe,
                forbidden: Tri::Maybe,
                checksum_ok: Tri::Maybe,
                reaches: Tri::Maybe,
                seq_tracked: Tri::Maybe,
            };
        }
        let trigger_flags = (trigger.field.proto == Proto::Tcp && trigger.field.name == "flags")
            .then(|| TcpFlags::from_geneva(&trigger.value))
            .flatten();
        let flags = match effect.effect("TCP:flags") {
            None => effect.emitted_flags(trigger),
            // The engine writes an empty flags value as no flags at
            // all (`packet::field`): `tamper{TCP:flags:replace:}` is
            // the paper's null-flags strategy, not an unknown.
            Some(FieldEffect::Written(FieldValue::Empty)) => Some(TcpFlags::NONE),
            Some(FieldEffect::Written(FieldValue::Str(s))) => TcpFlags::from_geneva(s),
            // Numeric writes truncate to the 8 usable flag bits, like
            // the engine does.
            #[allow(clippy::cast_possible_truncation)]
            Some(FieldEffect::Written(FieldValue::Num(n))) => Some(TcpFlags(*n as u8)),
            Some(_) => None,
        };
        let (payload, wellformed_get, forbidden) = match effect.effect("TCP:load") {
            // Untouched: the trigger packet's own payload. SYN-bearing
            // triggers match handshake segments, which the modeled
            // stacks keep payload-free; anything else is unknown.
            None => {
                if trigger_flags.is_some_and(|f| f.contains(TcpFlags::SYN)) {
                    (Tri::No, Tri::No, Tri::No)
                } else {
                    (Tri::Maybe, Tri::Maybe, Tri::Maybe)
                }
            }
            Some(FieldEffect::Written(FieldValue::Empty)) => (Tri::No, Tri::No, Tri::No),
            Some(FieldEffect::Written(FieldValue::Str(s))) => abstract_payload(s.as_bytes()),
            Some(FieldEffect::Written(FieldValue::Bytes(b))) => abstract_payload(b),
            // Decimal digits: non-empty, never a GET, never a keyword.
            Some(FieldEffect::Written(FieldValue::Num(_))) => (Tri::Yes, Tri::No, Tri::No),
            // Corruption yields random bytes and *keeps payloads
            // non-empty* (an empty payload is corrupted into 8–12
            // random bytes — `geneva::engine::corrupt_value`). Random
            // bytes forming a well-formed GET or a ≥8-byte blacklist
            // keyword is below the model's resolution (< 2^-60 per
            // trial); the automata treat both as provably-not.
            Some(FieldEffect::Corrupted) => (Tri::Yes, Tri::No, Tri::No),
        };
        let checksum_ok = Tri::of(!effect.checksum_broken());
        let reaches = match effect.ttl(DEFAULT_TTL) {
            Some(t) if t >= u64::from(HOPS_TO_MIDDLEBOX) => Tri::Yes,
            Some(_) => Tri::No,
            None => Tri::Maybe,
        };
        let seq_tracked =
            if effect.effect("TCP:seq").is_none() && effect.effect("TCP:ack").is_none() {
                Tri::Yes
            } else {
                Tri::Maybe
            };
        AbsPacket {
            dir,
            flags,
            payload,
            wellformed_get,
            forbidden,
            checksum_ok,
            reaches,
            seq_tracked,
        }
    }

    /// Abstract a concrete wire packet with exact facts (the
    /// differential-test side). `forbidden` stays `Maybe` when a
    /// blacklist marker is present because the concrete predicate also
    /// demands request structure; absence of every marker is exact.
    pub fn of_packet(pkt: &Packet, dir: AbsDirection) -> AbsPacket {
        let flags = pkt.tcp_header().map(|tcp| tcp.flags);
        let payload = Tri::of(!pkt.payload.is_empty());
        let wellformed_get = Tri::of(wellformed_get_prefix(&pkt.payload));
        let forbidden = if contains_marker(&pkt.payload) {
            Tri::Maybe
        } else {
            Tri::No
        };
        AbsPacket {
            dir,
            flags,
            payload,
            wellformed_get,
            forbidden,
            checksum_ok: Tri::Maybe,
            reaches: Tri::Yes,
            seq_tracked: Tri::Maybe,
        }
    }
}

/// (non-empty?, well-formed GET?, forbidden?) of a statically known
/// payload.
fn abstract_payload(bytes: &[u8]) -> (Tri, Tri, Tri) {
    let forbidden = if contains_marker(bytes) {
        Tri::Maybe
    } else {
        Tri::No
    };
    (
        Tri::of(!bytes.is_empty()),
        Tri::of(wellformed_get_prefix(bytes)),
        forbidden,
    )
}
