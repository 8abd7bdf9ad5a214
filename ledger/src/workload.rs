//! The four workloads: the frames each run sends and the tables `cay
//! serve` runs with.
//!
//! Every frame is generated from the workload seed and serialized once,
//! before the run, into one contiguous arena. A trace is a warm-up
//! prefix (sent once per server set-up) followed by a cycle that the
//! measured phases send round and round. Every frame in a trace has
//! distinct bytes, so each emission can be traced back to the one frame
//! that produced it (see `oracle`).

use appproto::AppProtocol;
use geneva::library::{self, NamedStrategy};
use harness::deploy::{demo_geo_entries, recommend, top_pick, GeoEntry, RolloutTable};
use packet::{Packet, TcpFlags};
use std::collections::HashSet;
use std::ops::Range;

/// The protected server's address; `cay serve` hard-codes the same one.
pub const SERVER: [u8; 4] = [93, 184, 216, 34];
const SERVER_PORT: u16 = 80;

/// Flows admitted during `steady`'s (and `ops`') set-up.
const STEADY_FLOWS: usize = 4096;
/// Frames in `steady`'s cycle.
const STEADY_CYCLE: usize = 1 << 18;
/// Warm flows in `bulk`.
const BULK_FLOWS: usize = 256;
/// (segment, segment, ACK) triples in `bulk`'s cycle.
const BULK_TRIPLES: usize = 10_923;
const BULK_PAYLOAD: usize = 1460;
/// Warm-up flows in `churn` (enough to compile every arm's program).
const CHURN_WARM_FLOWS: usize = 512;
/// Flows in `churn`'s cycle: more than the flow table's 65,536 slots,
/// so every flow is new when it comes round again.
const CHURN_FLOWS: usize = 81_920;
const CHURN_RESPONSE: usize = 512;
const GET: &[u8] = b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n";
/// Random bytes that payloads are cut from.
const POOL: usize = 1 << 16;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 40-byte frames on 4,096 established flows: per-packet fixed costs.
    Steady,
    /// 1,500-byte server segments on 256 flows: per-byte costs.
    Bulk,
    /// Every flow new, five frames each: per-flow costs and LRU eviction.
    Churn,
    /// `steady`'s traffic while the control plane is driven hard.
    Ops,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Bulk,
        Workload::Churn,
        Workload::Ops,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Bulk => "bulk",
            Workload::Churn => "churn",
            Workload::Ops => "ops",
        }
    }

    /// Offered load of the fixed-rate phase. The ceiling is not the
    /// server's CPU (saturation runs near 250k frames/s) but the default
    /// 212 KB socket receive buffer, which must absorb the ~10 ms stalls
    /// a shared host imposes without dropping a frame: about 200 small
    /// frames, or 80 of `bulk`'s 1,500-byte ones (see README).
    pub fn rate_pps(self) -> u64 {
        match self {
            Workload::Steady | Workload::Churn | Workload::Ops => 4_000,
            Workload::Bulk => 2_000,
        }
    }

    /// Frames in flight during the closed loop. Keeps in-flight bytes
    /// under half of the default socket receive buffer.
    pub fn window(self) -> usize {
        match self {
            Workload::Bulk => 64,
            _ => 128,
        }
    }
}

/// splitmix64: small, seedable, and the same everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn byte_in(&mut self, lo: u8, hi: u8) -> u8 {
        lo + u8::try_from(self.below(u64::from(hi - lo) + 1)).expect("range fits a byte")
    }
}

/// Serialized frames: a warm-up prefix and a measured cycle.
pub struct Trace {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    by_client: Vec<bool>,
    /// Frames `0..setup` are the warm-up.
    pub setup: usize,
}

/// A TCP connection as the generator sees it: the client's endpoint
/// and both sides' next sequence numbers.
struct Flow {
    client: [u8; 4],
    port: u16,
    c_seq: u32,
    s_seq: u32,
}

impl Trace {
    pub fn generate(workload: Workload, seed: u64) -> Trace {
        let mut rng = Rng::new(seed ^ 0x1ED6_E500_0000_0000);
        let pool: Vec<u8> = (0..POOL).map(|_| rng.next_u64() as u8).collect();
        // Clients come from the four demo-geo /16s plus one /16 no rule
        // covers (it passes through), picked by the seed.
        let mut nets: Vec<[u8; 2]> = demo_geo_entries()
            .iter()
            .map(|e| [e.prefix[0], e.prefix[1]])
            .collect();
        nets.push([10, rng.byte_in(100, 199)]);
        let mut t = Trace {
            bytes: Vec::new(),
            ends: Vec::new(),
            by_client: Vec::new(),
            setup: 0,
        };
        let mut seen = HashSet::new();
        match workload {
            Workload::Steady | Workload::Ops => {
                let mut flows = new_flows(&mut rng, &nets, STEADY_FLOWS, &mut seen);
                for f in &mut flows {
                    t.handshake(f);
                }
                t.setup = t.len();
                for _ in 0..STEADY_CYCLE {
                    let f = &mut flows[rng.below(STEADY_FLOWS as u64) as usize];
                    // Empty frames carry no data, so a per-flow counter
                    // in the ACK field keeps every frame's bytes distinct.
                    if rng.next_u64() & 1 == 0 {
                        f.c_seq = f.c_seq.wrapping_add(1);
                        t.push(server(f, TcpFlags::PSH_ACK, f.s_seq, f.c_seq, &[]));
                    } else {
                        f.s_seq = f.s_seq.wrapping_add(1);
                        t.push(client(f, TcpFlags::ACK, f.c_seq, f.s_seq, &[]));
                    }
                }
            }
            Workload::Bulk => {
                let mut flows = new_flows(&mut rng, &nets, BULK_FLOWS, &mut seen);
                for f in &mut flows {
                    t.handshake(f);
                }
                t.setup = t.len();
                for _ in 0..BULK_TRIPLES {
                    let f = &mut flows[rng.below(BULK_FLOWS as u64) as usize];
                    for _ in 0..2 {
                        let at = f.s_seq as usize % (POOL - BULK_PAYLOAD);
                        let seg = &pool[at..at + BULK_PAYLOAD];
                        t.push(server(f, TcpFlags::PSH_ACK, f.s_seq, f.c_seq, seg));
                        f.s_seq = f.s_seq.wrapping_add(BULK_PAYLOAD as u32);
                    }
                    t.push(client(f, TcpFlags::ACK, f.c_seq, f.s_seq, &[]));
                }
            }
            Workload::Churn => {
                let warm = new_flows(&mut rng, &nets, CHURN_WARM_FLOWS, &mut seen);
                let cycle = new_flows(&mut rng, &nets, CHURN_FLOWS, &mut seen);
                for f in &warm {
                    t.exchange(f, &pool);
                }
                t.setup = t.len();
                for f in &cycle {
                    t.exchange(f, &pool);
                }
            }
        }
        t
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// True when frame `i` is sent from the client socket (its inner
    /// source is a client), false for the origin socket.
    pub fn sent_by_client(&self, i: usize) -> bool {
        self.by_client[i]
    }

    /// The frames the measured phases send round and round.
    pub fn cycle(&self) -> Range<usize> {
        self.setup..self.len()
    }

    /// FNV-1a over every frame, in order.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    fn push(&mut self, pkt: Packet) {
        pkt.serialize_raw_into(&mut self.bytes);
        self.ends.push(self.bytes.len());
        self.by_client.push(pkt.ip.src != SERVER);
    }

    /// SYN, SYN+ACK (what the strategies rewrite), ACK.
    fn handshake(&mut self, f: &mut Flow) {
        self.push(client(f, TcpFlags::SYN, f.c_seq, 0, &[]));
        self.push(server(f, TcpFlags::SYN_ACK, f.s_seq, f.c_seq + 1, &[]));
        f.c_seq += 1;
        f.s_seq += 1;
        self.push(client(f, TcpFlags::ACK, f.c_seq, f.s_seq, &[]));
    }

    /// A whole short connection: SYN, SYN+ACK, GET, response, FIN.
    fn exchange(&mut self, f: &Flow, pool: &[u8]) {
        let (c, s) = (f.c_seq, f.s_seq);
        let get = GET.len() as u32;
        let at = s as usize % (POOL - CHURN_RESPONSE);
        self.push(client(f, TcpFlags::SYN, c, 0, &[]));
        self.push(server(f, TcpFlags::SYN_ACK, s, c + 1, &[]));
        self.push(client(f, TcpFlags::PSH_ACK, c + 1, s + 1, GET));
        let response = &pool[at..at + CHURN_RESPONSE];
        self.push(server(f, TcpFlags::PSH_ACK, s + 1, c + 1 + get, response));
        let fin = TcpFlags(TcpFlags::FIN.0 | TcpFlags::ACK.0);
        self.push(client(
            f,
            fin,
            c + 1 + get,
            s + 1 + CHURN_RESPONSE as u32,
            &[],
        ));
    }
}

/// `n` flows with distinct (client, port) endpoints spread evenly over
/// `nets`; sequence numbers start low enough that no flow wraps.
fn new_flows(
    rng: &mut Rng,
    nets: &[[u8; 2]],
    n: usize,
    seen: &mut HashSet<([u8; 4], u16)>,
) -> Vec<Flow> {
    let mut flows = Vec::with_capacity(n);
    while flows.len() < n {
        let net = nets[flows.len() % nets.len()];
        let client = [net[0], net[1], rng.byte_in(1, 254), rng.byte_in(1, 254)];
        let port = 1024 + rng.below(60_000) as u16;
        if seen.insert((client, port)) {
            flows.push(Flow {
                client,
                port,
                c_seq: rng.below(1 << 31) as u32,
                s_seq: rng.below(1 << 31) as u32,
            });
        }
    }
    flows
}

fn tcp(
    src: ([u8; 4], u16),
    dst: ([u8; 4], u16),
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    payload: &[u8],
) -> Packet {
    let mut p = Packet::tcp(
        src.0,
        src.1,
        dst.0,
        dst.1,
        flags,
        seq,
        ack,
        payload.to_vec(),
    );
    p.ip.identification = (seq ^ ack) as u16;
    p.finalize();
    p
}

fn client(f: &Flow, flags: TcpFlags, seq: u32, ack: u32, payload: &[u8]) -> Packet {
    tcp(
        (f.client, f.port),
        (SERVER, SERVER_PORT),
        flags,
        seq,
        ack,
        payload,
    )
}

fn server(f: &Flow, flags: TcpFlags, seq: u32, ack: u32, payload: &[u8]) -> Packet {
    tcp(
        (SERVER, SERVER_PORT),
        (f.client, f.port),
        flags,
        seq,
        ack,
        payload,
    )
}

/// The deployment every run serves: the demo geography and an A/B
/// rollout per prefix, plus the variants `ops` reloads.
pub struct Tables {
    pub geo: Vec<GeoEntry>,
    pub geo_text: String,
    /// The table `cay serve` starts with.
    pub a_text: String,
    pub a: RolloutTable,
    /// Table A with the two arms' shares swapped; also verifies.
    pub b_text: String,
    pub b: RolloutTable,
    /// Table A with a statically futile arm: the proof gate refuses it.
    pub refused_text: String,
}

/// The futile arm: dropping the SYN+ACK severs every handshake.
const FUTILE: &str = "[TCP:flags:SA]-drop-| \\/";

impl Tables {
    pub fn new() -> Tables {
        let geo = demo_geo_entries();
        let mut geo_text = String::new();
        let (mut a_text, mut b_text, mut refused_text) =
            (String::new(), String::new(), String::new());
        for (i, e) in geo.iter().enumerate() {
            let prefix = format!(
                "{}.{}.{}.{}/{}",
                e.prefix[0], e.prefix[1], e.prefix[2], e.prefix[3], e.len
            );
            geo_text.push_str(&format!(
                "{prefix} {}\n",
                e.country.name().to_ascii_lowercase()
            ));
            let (first, second) = arms(e);
            let (first, second) = (first.text.trim(), second.text.trim());
            // 60% top pick, 30% second pick, 10% pass-through control.
            a_text.push_str(&format!("{prefix} 60 {first}\n{prefix} 30 {second}\n"));
            b_text.push_str(&format!("{prefix} 30 {first}\n{prefix} 60 {second}\n"));
            let first = if i == 0 { FUTILE } else { first };
            refused_text.push_str(&format!("{prefix} 60 {first}\n{prefix} 30 {second}\n"));
        }
        let parse = |text: &str| RolloutTable::parse(text).expect("generated rollout parses");
        Tables {
            a: parse(&a_text),
            b: parse(&b_text),
            geo,
            geo_text,
            a_text,
            b_text,
            refused_text,
        }
    }
}

/// A country's top two client-OS-safe picks. Where the paper ranks a
/// single strategy, the second arm is Strategy 1, the one that works
/// against the most censors.
fn arms(entry: &GeoEntry) -> (NamedStrategy, NamedStrategy) {
    let top = top_pick(entry.country, AppProtocol::Http).unwrap_or(library::STRATEGY_1);
    let second = recommend(entry.country, AppProtocol::Http)
        .get(1)
        .map(|n| library::client_compat_fix(n.id).unwrap_or(*n))
        .unwrap_or(library::STRATEGY_1);
    (top, second)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        for w in Workload::ALL {
            let a = Trace::generate(w, 7).digest();
            assert_eq!(a, Trace::generate(w, 7).digest(), "{}", w.name());
            assert_ne!(a, Trace::generate(w, 8).digest(), "{}", w.name());
        }
    }

    #[test]
    fn every_frame_is_distinct_and_parses() {
        let t = Trace::generate(Workload::Churn, 3);
        let mut seen = HashSet::new();
        for i in 0..t.len() {
            assert!(seen.insert(t.frame(i)), "frame {i} repeats");
            let pkt = Packet::parse(t.frame(i)).expect("frame parses");
            assert_eq!(pkt.serialize_raw(), t.frame(i));
        }
    }

    #[test]
    fn tables_parse_and_differ() {
        let t = Tables::new();
        assert_eq!(t.a.len(), 4);
        assert_eq!(t.b.len(), 4);
        assert_ne!(t.a_text, t.b_text);
        assert!(t.refused_text.contains(FUTILE));
    }
}
