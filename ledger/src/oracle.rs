//! The offline oracle: what `cay serve` must emit for every frame.
//!
//! Before a run the whole trace goes through an in-process [`svc::Core`]
//! over a [`dplane::VecIo`], configured exactly as `cay serve` is (same
//! rollout, `SeedMode::PerFlow(0x0D1A)`). Emissions are a pure function
//! of the frame and its flow's (program, seed), and the flow state is a
//! pure function of the flow key, so the mapping holds no matter how
//! often the cycle repeats, how the server interleaves the two sockets,
//! or when the flow table evicts. The result maps each emission's hash
//! to the one frame that produced it.

use crate::workload::{Trace, SERVER};
use appproto::AppProtocol;
use dplane::{DplaneConfig, PacketIo, SeedMode, VecIo};
use harness::deploy::{GeoEntry, RolloutTable};
use packet::Packet;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use svc::{Core, CoreConfig};

/// The core configuration `cay serve` runs with, for a given rollout.
pub fn core_config(geo: &[GeoEntry], rollout: RolloutTable) -> CoreConfig {
    CoreConfig {
        dplane: DplaneConfig {
            seed: SeedMode::PerFlow(0x0D1A),
            ..DplaneConfig::default()
        },
        server_addr: SERVER,
        protocol: AppProtocol::Http,
        geo: geo.to_vec(),
        rollout,
    }
}

/// A 64-bit hash of a frame's bytes (eight bytes per multiply-fold).
/// The oracle refuses to build if two frames' emissions collide.
pub fn frame_hash(bytes: &[u8]) -> u64 {
    fn fold(a: u64, b: u64) -> u64 {
        let p = u128::from(a) * u128::from(b);
        (p as u64) ^ ((p >> 64) as u64)
    }
    let mut h = 0x243F_6A88_85A3_08D3u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = fold(h ^ w, 0x9E37_79B9_7F4A_7C15);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = fold(h ^ u64::from_le_bytes(tail), 0x9E37_79B9_7F4A_7C15);
    fold(h ^ bytes.len() as u64, 0xD6E8_FEB8_6659_FD93)
}

/// Keys are already hashes; hashing them again is wasted work.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Which frame an emission belongs to, and under which of the tables
/// (bit `a` set: table `a` produces it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub frame: u32,
    pub tables: u8,
}

/// Expected emissions per frame, under one or two rollout tables.
pub struct Oracle {
    map: HashMap<u64, Slot, BuildHasherDefault<IdHasher>>,
    expect: Vec<[u16; 2]>,
    tables: usize,
}

/// [`VecIo`] that remembers which input produced each emission: the
/// plane handles one packet at a time, so everything emitted between two
/// `recv`s belongs to the first.
struct Tagged {
    io: VecIo,
    next: usize,
    tags: Vec<usize>,
}

impl PacketIo for Tagged {
    fn recv(&mut self) -> Option<(u64, Packet)> {
        let pkt = self.io.recv()?;
        self.next += 1;
        Some(pkt)
    }
    fn emit(&mut self, now: u64, pkt: Packet) {
        self.tags.push(self.next - 1);
        self.io.emit(now, pkt);
    }
}

/// Frames per `Core::pump` call while building (bounds memory).
const CHUNK: usize = 8192;

impl Oracle {
    /// Run `trace` through a fresh core per table. With two tables (the
    /// `ops` reloads) a frame's emissions are accepted under either.
    pub fn build(
        trace: &Trace,
        geo: &[GeoEntry],
        tables: &[&RolloutTable],
    ) -> Result<Oracle, String> {
        assert!((1..=2).contains(&tables.len()), "one or two tables");
        let mut oracle = Oracle {
            map: HashMap::default(),
            expect: vec![[0; 2]; trace.len()],
            tables: tables.len(),
        };
        for (a, table) in tables.iter().enumerate() {
            let mut core = Core::new(core_config(geo, (*table).clone()));
            let mut buf = Vec::new();
            for start in (0..trace.len()).step_by(CHUNK) {
                let end = (start + CHUNK).min(trace.len());
                let mut io = Tagged {
                    io: VecIo::new((start..end).map(|i| {
                        let pkt = Packet::parse(trace.frame(i)).expect("generated frames parse");
                        (i as u64, pkt)
                    })),
                    next: start,
                    tags: Vec::new(),
                };
                core.pump(&mut io);
                for ((_, pkt), &frame) in io.io.output.iter().zip(&io.tags) {
                    buf.clear();
                    pkt.serialize_raw_into(&mut buf);
                    oracle.add(frame, a, frame_hash(&buf))?;
                }
            }
        }
        Ok(oracle)
    }

    fn add(&mut self, frame: usize, table: usize, hash: u64) -> Result<(), String> {
        let frame32 = u32::try_from(frame).map_err(|_| "trace too long".to_string())?;
        let slot = self.map.entry(hash).or_insert(Slot {
            frame: frame32,
            tables: 0,
        });
        if slot.frame != frame32 {
            return Err(format!(
                "frames {} and {frame} have an emission with the same hash",
                slot.frame
            ));
        }
        slot.tables |= 1 << table;
        self.expect[frame][table] += 1;
        Ok(())
    }

    pub fn lookup(&self, hash: u64) -> Option<Slot> {
        self.map.get(&hash).copied()
    }

    /// Emissions frame `frame` produces under each table.
    pub fn expect(&self, frame: usize) -> [u16; 2] {
        self.expect[frame]
    }

    /// How many tables the oracle accepts emissions under.
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// Fault injection for `selftest`: re-key one of `frame`'s emissions
    /// so the genuine one no longer matches.
    pub fn corrupt(&mut self, frame: usize) -> bool {
        let hit = self
            .map
            .iter()
            .find(|(_, s)| s.frame as usize == frame)
            .map(|(&h, &s)| (h, s));
        match hit {
            Some((hash, slot)) => {
                self.map.remove(&hash);
                self.map.insert(!hash, slot);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Tables, Workload};

    #[test]
    fn hash_separates_single_bit_changes() {
        let a = vec![7u8; 40];
        let mut b = a.clone();
        b[39] ^= 1;
        assert_ne!(frame_hash(&a), frame_hash(&b));
        assert_ne!(frame_hash(&a), frame_hash(&a[..39]));
    }

    #[test]
    fn strategies_rewrite_syn_acks_and_pass_the_rest() {
        let t = Trace::generate(Workload::Churn, 1);
        let tables = Tables::new();
        let o = Oracle::build(&t, &tables.geo, &[&tables.a]).expect("oracle builds");
        // SYN, GET, response, FIN pass unchanged: one emission each.
        for f in t.cycle().filter(|f| (f - t.setup) % 5 != 1) {
            assert_eq!(o.expect(f)[0], 1, "frame {f}");
        }
        // Some SYN+ACKs are rewritten into several emissions.
        assert!(t.cycle().any(|f| o.expect(f)[0] > 1));
    }
}
