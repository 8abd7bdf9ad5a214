//! Checks every frame that comes back against the oracle and times it.
//!
//! A frame is in flight from the time it was *due* until all of its
//! oracle emissions have arrived (delivered) or 500 ms have passed
//! (lost). Its latency runs from the due time to its first emission, so
//! a stall anywhere — server, kernel, or the generator itself — shows
//! in the latency of every frame that was due during it.

use crate::oracle::Oracle;
use std::collections::VecDeque;

/// A frame not delivered this long after it was due is lost.
pub const LOSS_TIMEOUT_NS: u64 = 500_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    InFlight,
    Done,
    Lost,
}

/// Per-phase counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
}

pub struct Checker {
    oracle: Oracle,
    state: Vec<State>,
    due: Vec<u64>,
    first: Vec<u64>,
    left: Vec<[u16; 2]>,
    /// In-flight frames in send order (entries go stale once their
    /// frame completes; they are skipped then).
    fifo: VecDeque<(u32, u64)>,
    inflight: usize,
    pub counts: Counts,
    /// Emissions that match no frame in flight: a wrong rewrite, an
    /// extra copy, or a frame nobody sent.
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// Latencies (ns) of frames delivered while `Some`.
    pub latencies: Option<Vec<u32>>,
}

impl Checker {
    pub fn new(oracle: Oracle, frames: usize) -> Checker {
        Checker {
            oracle,
            state: vec![State::Idle; frames],
            due: vec![0; frames],
            first: vec![0; frames],
            left: vec![[0; 2]; frames],
            fifo: VecDeque::new(),
            inflight: 0,
            counts: Counts::default(),
            mismatches: 0,
            first_mismatch: None,
            latencies: None,
        }
    }

    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Return this phase's counts and start new ones.
    pub fn take_counts(&mut self) -> Counts {
        std::mem::take(&mut self.counts)
    }

    /// Frame `frame` was due at `due` and is (being) sent.
    pub fn sent(&mut self, frame: usize, due: u64) {
        self.counts.sent += 1;
        if self.state[frame] == State::InFlight {
            // Its previous instance is a whole cycle old: long lost.
            self.state[frame] = State::Lost;
            self.counts.lost += 1;
            self.inflight -= 1;
        }
        let expect = self.oracle.expect(frame);
        if expect[..self.oracle.tables()].contains(&0) {
            // The strategy drops this frame: nothing may come back, and
            // anything that does matches no frame in flight.
            self.state[frame] = State::Done;
            self.counts.delivered += 1;
            return;
        }
        self.state[frame] = State::InFlight;
        self.due[frame] = due;
        self.first[frame] = 0;
        self.left[frame] = expect;
        self.fifo.push_back((frame as u32, due));
        self.inflight += 1;
    }

    /// An emission with hash `hash` arrived at `now`.
    pub fn arrived(&mut self, hash: u64, now: u64, bytes: &[u8]) {
        let Some(slot) = self.oracle.lookup(hash) else {
            self.mismatch(
                format!("{}-byte frame matches no oracle emission", bytes.len()),
                bytes,
            );
            return;
        };
        let f = slot.frame as usize;
        match self.state[f] {
            State::InFlight => {}
            // Late, not wrong: its frame already counts as lost.
            State::Lost => return,
            State::Done | State::Idle => {
                self.mismatch(
                    format!("emission of frame {f}, which is not in flight"),
                    bytes,
                );
                return;
            }
        }
        let mut counted = false;
        let mut complete = false;
        for t in 0..self.oracle.tables() {
            if slot.tables & (1 << t) != 0 && self.left[f][t] > 0 {
                self.left[f][t] -= 1;
                counted = true;
                complete |= self.left[f][t] == 0;
            }
        }
        if !counted {
            self.mismatch(format!("one emission too many for frame {f}"), bytes);
            return;
        }
        if self.first[f] == 0 {
            self.first[f] = now.max(1);
        }
        if complete {
            self.state[f] = State::Done;
            self.inflight -= 1;
            self.counts.delivered += 1;
            if let Some(lat) = &mut self.latencies {
                let ns = self.first[f].saturating_sub(self.due[f]);
                lat.push(u32::try_from(ns).unwrap_or(u32::MAX));
            }
        }
    }

    /// Declare frames due more than [`LOSS_TIMEOUT_NS`] before `now` lost.
    pub fn expire(&mut self, now: u64) {
        while let Some(&(f, due)) = self.fifo.front() {
            let f = f as usize;
            if self.state[f] != State::InFlight || self.due[f] != due {
                self.fifo.pop_front();
            } else if now > due + LOSS_TIMEOUT_NS {
                self.state[f] = State::Lost;
                self.counts.lost += 1;
                self.inflight -= 1;
                self.fifo.pop_front();
            } else {
                break;
            }
        }
    }

    fn mismatch(&mut self, what: String, bytes: &[u8]) {
        self.mismatches += 1;
        if self.first_mismatch.is_none() {
            let head: String = bytes.iter().take(40).map(|b| format!("{b:02x}")).collect();
            self.first_mismatch = Some(format!("{what}: {head}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::frame_hash;
    use crate::workload::{Tables, Trace, Workload};

    /// A checker over `steady`'s trace plus the emission bytes of each
    /// cycle frame (steady frames pass through unchanged).
    fn steady() -> (Checker, Trace) {
        let t = Trace::generate(Workload::Steady, 5);
        let tables = Tables::new();
        let o = Oracle::build(&t, &tables.geo, &[&tables.a]).expect("oracle builds");
        (Checker::new(o, t.len()), t)
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let (mut c, t) = steady();
        c.latencies = Some(Vec::new());
        let period = 10_000; // 100k frames/s
        let frames: Vec<usize> = t.cycle().take(200).collect();
        // The receiver stalls: nothing comes back between 0.1 ms and
        // 1.1 ms. Frames due during the stall must carry the rest of the
        // stall in their latency, not just their own service time.
        for (k, &f) in frames.iter().enumerate() {
            let due = 1 + k as u64 * period;
            c.sent(f, due);
            let back = if (100_000..1_100_000).contains(&due) {
                1_100_000
            } else {
                due + 20_000
            };
            c.arrived(frame_hash(t.frame(f)), back.max(due + 20_000), t.frame(f));
        }
        let lat = c.latencies.take().expect("recording");
        assert_eq!(lat.len(), 200);
        assert_eq!(c.mismatches, 0);
        assert_eq!(lat[0], 20_000, "unstalled frame: 20 µs");
        assert!(
            lat[10] >= 999_000,
            "first stalled frame waits out the stall"
        );
        assert!(lat[60] >= 499_000, "mid-stall frame waits the rest of it");
        assert!(lat[109] >= 20_000 && lat[109] <= 30_000);
    }

    #[test]
    fn loss_and_mismatch_are_reported() {
        let (mut c, t) = steady();
        let f = t.setup;
        c.sent(f, 1);
        c.expire(LOSS_TIMEOUT_NS);
        assert_eq!(c.counts.lost, 0, "not yet");
        c.expire(LOSS_TIMEOUT_NS + 2);
        assert_eq!(c.counts.lost, 1);
        assert_eq!(c.inflight(), 0);
        c.arrived(frame_hash(t.frame(f)), LOSS_TIMEOUT_NS + 3, t.frame(f));
        assert_eq!(c.mismatches, 0, "late, not wrong");
        c.arrived(frame_hash(b"not a frame"), 1, b"not a frame");
        assert_eq!(c.mismatches, 1);
        let g = t.setup + 1;
        c.sent(g, 1);
        c.arrived(frame_hash(t.frame(g)), 2, t.frame(g));
        c.arrived(frame_hash(t.frame(g)), 3, t.frame(g));
        assert_eq!(c.mismatches, 2, "a second copy of a one-emission frame");
    }
}
