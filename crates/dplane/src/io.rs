//! The `PacketIo` boundary: where the data plane meets packets.
//!
//! Two backends ship with the crate:
//!
//! * **In-sim** — a [`crate::Dplane`] is a `geneva::Rewrite`, so
//!   `geneva::StrategicEndpoint` puts it on `netsim`'s `Endpoint` trait
//!   and any paper experiment can route the server's traffic through
//!   the compiled data plane (asserted bit-identical to the interpreter
//!   path by `harness` tests).
//! * **Pcap replay** — [`PcapReplay`] feeds a `netsim::pcap` capture
//!   through [`PacketIo`] for offline throughput benchmarking
//!   (`cay bench` → `BENCH_dplane.json`, `cay dplane <file.pcap>`).
//!
//! [`VecIo`] is the trivial in-memory backend for tests and synthetic
//! benchmarks.

use packet::Packet;
use std::collections::VecDeque;

/// A source/sink of timestamped packets. `recv` pulls the next packet
/// to process (time in simulated/captured microseconds); `emit` takes
/// every packet the data plane produced for it.
pub trait PacketIo {
    /// Next packet to process, or `None` when drained.
    fn recv(&mut self) -> Option<(u64, Packet)>;
    /// Accept one packet the data plane emitted at time `now`.
    fn emit(&mut self, now: u64, pkt: Packet);
    /// End-of-pump hook: a batching backend (the live socket bridge)
    /// pushes its queued emissions to the kernel here, in one
    /// `sendmmsg` where it can. In-memory backends need nothing — the
    /// default is a no-op, so emission ordering and bytes are
    /// unchanged for every existing `PacketIo`.
    fn flush(&mut self) {}
}

/// In-memory backend: feed a queue, collect the output.
#[derive(Default)]
pub struct VecIo {
    /// Packets waiting to be processed.
    pub input: VecDeque<(u64, Packet)>,
    /// Packets the data plane emitted.
    pub output: Vec<(u64, Packet)>,
}

impl VecIo {
    /// Build from any (time, packet) sequence.
    pub fn new(packets: impl IntoIterator<Item = (u64, Packet)>) -> VecIo {
        VecIo {
            input: packets.into_iter().collect(),
            output: Vec::new(),
        }
    }
}

impl PacketIo for VecIo {
    fn recv(&mut self) -> Option<(u64, Packet)> {
        self.input.pop_front()
    }

    fn emit(&mut self, now: u64, pkt: Packet) {
        self.output.push((now, pkt));
    }
}

/// Offline replay of a libpcap capture (as written by
/// `netsim::pcap::to_pcap`). Unparseable records are skipped and
/// counted; emissions are counted and discarded — throughput
/// benchmarks measure the data plane, not a sink.
pub struct PcapReplay {
    records: std::vec::IntoIter<(u64, Packet)>,
    /// Packets the data plane emitted during the replay.
    pub emitted: u64,
    /// Capture records that did not parse as IPv4 packets.
    pub skipped: usize,
}

impl PcapReplay {
    /// Parse a pcap byte stream. Returns `None` when the header is not
    /// a little-endian microsecond pcap.
    pub fn from_bytes(data: &[u8]) -> Option<PcapReplay> {
        let (_linktype, raw) = netsim::pcap::parse_pcap(data)?;
        let mut records = Vec::with_capacity(raw.len());
        let mut skipped = 0;
        for (t, bytes) in raw {
            match Packet::parse(&bytes) {
                Ok(pkt) => records.push((t, pkt)),
                Err(_) => skipped += 1,
            }
        }
        Some(PcapReplay {
            records: records.into_iter(),
            emitted: 0,
            skipped,
        })
    }

    /// Replay the same parsed packets again (fresh iterator, counters
    /// reset) — benchmarks loop over one parse.
    pub fn from_packets(packets: Vec<(u64, Packet)>) -> PcapReplay {
        PcapReplay {
            records: packets.into_iter(),
            emitted: 0,
            skipped: 0,
        }
    }
}

impl PacketIo for PcapReplay {
    fn recv(&mut self) -> Option<(u64, Packet)> {
        self.records.next()
    }

    fn emit(&mut self, _now: u64, _pkt: Packet) {
        self.emitted += 1;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code
    use super::*;
    use packet::TcpFlags;

    #[test]
    fn pcap_replay_round_trips_a_capture() {
        let mut trace = netsim::Trace::default();
        let mut syn = Packet::tcp(
            [10, 0, 0, 1],
            1,
            [2, 2, 2, 2],
            80,
            TcpFlags::SYN,
            5,
            0,
            vec![],
        );
        syn.finalize();
        trace.push(netsim::TraceEvent::Sent {
            t: 1_000,
            side: netsim::Side::Client,
            pkt: syn.clone(),
        });
        let bytes = netsim::pcap::to_pcap(&trace, netsim::pcap::CaptureAt::Client);
        let mut replay = PcapReplay::from_bytes(&bytes).unwrap();
        let (t, pkt) = replay.recv().unwrap();
        assert_eq!(t, 1_000);
        assert_eq!(pkt.flags(), TcpFlags::SYN);
        assert!(replay.recv().is_none());
        assert_eq!(replay.skipped, 0);
    }
}
