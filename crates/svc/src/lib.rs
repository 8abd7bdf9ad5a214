//! # svc — live-traffic front end and operator control plane
//!
//! Everything below `crates/svc` runs *offline*: simulated censors,
//! replayed pcaps, in-memory packet queues. This crate is the paper's
//! §8 deployment story made runnable: a process (`cay serve`) that
//! moves **live frames** through the compiled data plane and gives an
//! operator a control surface to watch and steer it.
//!
//! Three pieces:
//!
//! * [`bridge::Bridge`] — a socket-backed [`dplane::PacketIo`]:
//!   frame-in-datagram UDP (one raw IPv4 frame per datagram) plus
//!   length-prefixed TCP streams, on an epoll + `recvmmsg`/`sendmmsg`
//!   event loop (Linux-only). Works unprivileged, so the whole service
//!   is testable on loopback.
//! * [`http`] — a hand-rolled HTTP/1.1 control plane: `GET /ready`,
//!   `GET /status`, `GET /metrics` (JSON or Prometheus text), `POST
//!   /config` (hot strategy reload through the proof gate, see
//!   [`control`]), `POST /shutdown` (graceful drain).
//! * [`Core`] + [`Service`] — the service loop. [`Core`] is
//!   socket-free (any [`dplane::PacketIo`] works), so the reload
//!   proptests and the offline-equivalence tests drive the *exact*
//!   production path without opening sockets; [`Service`] wires a
//!   [`bridge::Bridge`] and the control listener onto threads.
//!
//! Strategy selection is a [`harness::deploy::RolloutTable`]: longest-
//! prefix match on the client address, then a deterministic percentage
//! split (`ab_bucket`) across that prefix's arms — true A/B rollout,
//! swappable at runtime via `POST /config` without dropping a flow.
//!
//! Graceful shutdown: `std` cannot observe SIGTERM without a libc
//! binding (which the no-new-dependencies rule forbids), so `POST
//! /shutdown` is the SIGTERM stand-in — same semantics an init system
//! would get: stop admitting work, drain in-flight frames, publish a
//! final metrics snapshot, join every thread, exit 0.

pub mod bridge;
pub mod control;
pub mod http;
pub mod sys;

pub use bridge::{BackendChoice, Bridge, BridgeConfig, BridgeStats};
pub use control::{apply_config, vet_config, ReloadOutcome};

use dplane::{Classifier, Dplane, DplaneConfig, MetricsReport, PacketIo, Program};
use geneva::Strategy;
use harness::deploy::{GeoEntry, GeoTable, RolloutTable};
use packet::Packet;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Take a lock guard even if a previous holder panicked. Every writer
/// of [`SvcShared`]'s locks replaces the whole value in one assignment
/// or moves whole programs in or out of the reload queue, so a
/// poisoned lock still holds a complete value.
pub(crate) fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the data thread, the control plane, and the
/// embedding process.
pub struct SvcShared {
    /// Process start, for `uptime_ms`.
    pub started: Instant,
    /// Set (by `POST /shutdown` or [`Service::shutdown`]) to begin a
    /// graceful drain.
    pub shutdown: AtomicBool,
    /// The data thread is draining; `/ready` turns false.
    pub draining: AtomicBool,
    /// Stops the control listener (set by [`Service::join`] after the
    /// data thread exits, so `/status` keeps answering during drain).
    pub control_stop: AtomicBool,
    /// The live rollout table; swapped whole by an accepted reload.
    /// The data thread reads it once per pump.
    pub rollout: RwLock<Arc<RolloutTable>>,
    /// Verified programs of accepted reloads, queued for the data
    /// thread, which installs them in its plane's program cache
    /// (counter-neutrally) at the top of its next pump.
    pub reloaded: Mutex<Vec<Arc<Program>>>,
    /// Latest published metrics snapshot (what `/metrics` serves).
    pub snapshot: Mutex<MetricsReport>,
    /// Latest bridge counters (what `/status` serves).
    pub bridge_stats: Mutex<BridgeStats>,
    /// Accepted `POST /config` reloads.
    pub reloads: AtomicU64,
    /// Refused `POST /config` reloads (parse or proof-gate).
    pub reload_rejects: AtomicU64,
    /// The application protocol this deployment serves (gates which
    /// censors' verdicts can refuse a reload).
    pub protocol: appproto::AppProtocol,
    /// Client-prefix → country, for reload vetting.
    pub geo: GeoTable,
    /// Kicks the data thread out of a blocked idle wait. Fired on
    /// shutdown and on accepted reloads so neither waits out the idle
    /// timeout.
    pub data_waker: sys::Waker,
    /// Kicks the control listener out of its blocked accept wait so
    /// [`Service::join`] does not hang on an idle control plane.
    pub control_waker: sys::Waker,
}

impl SvcShared {
    /// Begin a graceful drain (what `POST /shutdown` and
    /// [`Service::shutdown`] do): set the flag, then wake the data
    /// thread so an idle service reacts immediately instead of at the
    /// end of its idle-wait timeout.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.data_waker.wake();
    }
}

impl SvcShared {
    /// Rule count of the live rollout table.
    pub fn rollout_rules(&self) -> usize {
        unpoisoned(self.rollout.read()).len()
    }
}

/// Per-flow strategy selection: longest-prefix match + deterministic
/// A/B split over the *client* address (the non-server side of the
/// flow, so either direction's first packet classifies identically).
pub struct RolloutClassifier {
    table: Arc<RolloutTable>,
    server_addr: [u8; 4],
}

impl RolloutClassifier {
    /// Classify against `table`, with `server_addr` the protected
    /// server (every other address is a client).
    pub fn new(table: Arc<RolloutTable>, server_addr: [u8; 4]) -> RolloutClassifier {
        RolloutClassifier { table, server_addr }
    }
}

impl Classifier for RolloutClassifier {
    fn classify(&mut self, first_pkt: &Packet) -> Option<Arc<Strategy>> {
        let client = if first_pkt.ip.src == self.server_addr {
            first_pkt.ip.dst
        } else {
            first_pkt.ip.src
        };
        self.table.pick(client)
    }
}

/// Everything [`Core`] needs besides sockets.
pub struct CoreConfig {
    /// Data-plane sizing/seed/proof-gate configuration.
    pub dplane: DplaneConfig,
    /// The protected server's address (direction split, §8).
    pub server_addr: [u8; 4],
    /// Protocol this deployment serves.
    pub protocol: appproto::AppProtocol,
    /// Client-prefix geography.
    pub geo: Vec<GeoEntry>,
    /// Initial rollout table.
    pub rollout: RolloutTable,
}

/// The socket-free service core: a [`Dplane`] behind a
/// [`RolloutClassifier`], publishing service-path metrics snapshots.
/// [`Service`] drives it from a [`Bridge`]; tests drive it from a
/// [`dplane::VecIo`] — same code path either way, which is what makes
/// the live/offline byte-identity assertions meaningful.
pub struct Core {
    /// Shared state (hand clones to the control plane / tests).
    pub shared: Arc<SvcShared>,
    dp: Dplane<RolloutClassifier>,
    server_addr: [u8; 4],
}

impl Core {
    /// Build a core and publish its (empty) first snapshot.
    pub fn new(cfg: CoreConfig) -> Core {
        let table = Arc::new(cfg.rollout);
        let shared = Arc::new(SvcShared {
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            control_stop: AtomicBool::new(false),
            rollout: RwLock::new(Arc::clone(&table)),
            reloaded: Mutex::new(Vec::new()),
            snapshot: Mutex::new(MetricsReport::default()),
            bridge_stats: Mutex::new(BridgeStats::default()),
            reloads: AtomicU64::new(0),
            reload_rejects: AtomicU64::new(0),
            protocol: cfg.protocol,
            geo: GeoTable::new(cfg.geo),
            data_waker: sys::Waker::new(),
            control_waker: sys::Waker::new(),
        });
        let classifier = RolloutClassifier::new(table, cfg.server_addr);
        let dp = Dplane::new(cfg.dplane, classifier);
        let mut core = Core {
            shared,
            dp,
            server_addr: cfg.server_addr,
        };
        core.publish();
        core
    }

    /// Take up any accepted reload, then drain `io` through the
    /// plane; publishes a fresh snapshot when anything was processed.
    /// Returns the packet count.
    ///
    /// A reload takes effect here, at a pump boundary. The table is
    /// read *before* the queued programs are drained: `apply_config`
    /// queues programs before it swaps the table, so whatever table
    /// this pump sees has its programs installed.
    pub fn pump<I: PacketIo>(&mut self, io: &mut I) -> u64 {
        let table = Arc::clone(&*unpoisoned(self.shared.rollout.read()));
        for program in unpoisoned(self.shared.reloaded.lock()).drain(..) {
            self.dp.programs().insert(program);
        }
        self.dp.classifier_mut().table = table;
        let n = self.dp.pump(io, self.server_addr);
        if n > 0 {
            self.publish();
        }
        n
    }

    /// The plane's counters *without* the service-path fields — the
    /// exact report an offline [`dplane::Dplane`] run over the same
    /// packets produces (the live/offline equivalence oracle).
    pub fn offline_report(&self) -> MetricsReport {
        self.dp.metrics()
    }

    /// Publish a snapshot with the service-path fields filled in
    /// (uptime from the monotonic clock; ingest rate as the lifetime
    /// average, in milli-pps so the report stays `Eq`).
    pub fn publish(&mut self) {
        let mut report = self.dp.metrics();
        let uptime_ms =
            u64::try_from(self.shared.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        report.uptime_ms = Some(uptime_ms);
        report.ingest_pps_milli = Some(
            report
                .table
                .packets
                .saturating_mul(1_000_000)
                .checked_div(uptime_ms)
                .unwrap_or(0),
        );
        *unpoisoned(self.shared.snapshot.lock()) = report;
    }
}

/// How long the drain loop waits for the sockets to go quiet before
/// declaring the flows flushed.
const DRAIN_QUIET: Duration = Duration::from_millis(200);

/// Socket + control-plane configuration for [`Service::start`].
pub struct ServeConfig {
    /// Front-end socket binds and upstream.
    pub bridge: BridgeConfig,
    /// Control-plane HTTP bind address.
    pub control: SocketAddr,
    /// The data-plane core configuration.
    pub core: CoreConfig,
}

/// A running service: a data thread pumping a [`Bridge`] through a
/// [`Core`], and a control thread serving the operator HTTP plane.
pub struct Service {
    /// Shared state (the embedding process can watch or trigger
    /// shutdown directly).
    pub shared: Arc<SvcShared>,
    /// Bound UDP front-end address (resolves port 0).
    pub udp_addr: SocketAddr,
    /// Bound TCP front-end address, when configured.
    pub tcp_addr: Option<SocketAddr>,
    /// Bound control-plane address (resolves port 0).
    pub control_addr: SocketAddr,
    data: JoinHandle<MetricsReport>,
    control: JoinHandle<()>,
}

impl Service {
    /// Bind every socket, register them and both wakers with their
    /// epoll sets, and start the data + control threads. Any failure,
    /// an eventfd that could not be created included, is an error here
    /// rather than a degraded service.
    pub fn start(cfg: ServeConfig) -> io::Result<Service> {
        let mut bridge = Bridge::bind(&cfg.bridge)?;
        let udp_addr = bridge.udp_addr()?;
        let tcp_addr = bridge.tcp_addr();
        let listener = TcpListener::bind(cfg.control)?;
        let control_addr = listener.local_addr()?;
        let core = Core::new(cfg.core);
        let shared = core.shared.clone();
        bridge.attach_waker(shared.data_waker.clone())?;
        let control_ep = http::listen(&listener, &shared)?;
        let data = std::thread::Builder::new()
            .name("cay-data".into())
            .spawn(move || data_loop(core, bridge))?;
        let control_shared = shared.clone();
        let control = std::thread::Builder::new()
            .name("cay-control".into())
            .spawn(move || http::serve(&listener, control_ep, &control_shared))?;
        Ok(Service {
            shared,
            udp_addr,
            tcp_addr,
            control_addr,
            data,
            control,
        })
    }

    /// Trigger a graceful drain (same as `POST /shutdown`).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the drain to finish and both threads to exit; returns
    /// the final published metrics snapshot.
    pub fn join(self) -> MetricsReport {
        let report = self.data.join().unwrap_or_default();
        self.shared.control_stop.store(true, Ordering::Relaxed);
        self.shared.control_waker.wake();
        let _ = self.control.join();
        report
    }
}

/// The data thread: poll sockets → pump the plane → publish, then an
/// idle wait (blocked in `epoll_wait` until traffic or a waker kick,
/// bounded by the publish cadence), and a quiet-period drain on
/// shutdown.
fn data_loop(mut core: Core, mut bridge: Bridge) -> MetricsReport {
    let shared = core.shared.clone();
    let mut last_publish = Instant::now();
    loop {
        bridge.poll();
        let n = core.pump(&mut bridge);
        if n > 0 || last_publish.elapsed() > Duration::from_millis(250) {
            if n == 0 {
                core.publish();
            }
            *unpoisoned(shared.bridge_stats.lock()) = bridge.stats;
            last_publish = Instant::now();
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        if n == 0 {
            bridge.wait(250);
        }
    }
    // Drain: flows already admitted get their in-flight frames
    // processed; we stop once the sockets stay quiet for DRAIN_QUIET.
    shared.draining.store(true, Ordering::Relaxed);
    let mut quiet_since = Instant::now();
    loop {
        bridge.poll();
        if core.pump(&mut bridge) > 0 {
            quiet_since = Instant::now();
        }
        if quiet_since.elapsed() >= DRAIN_QUIET {
            break;
        }
        bridge.wait(2);
    }
    // Flush the final snapshot — the metrics an operator scrapes after
    // shutdown are complete.
    core.publish();
    *unpoisoned(shared.bridge_stats.lock()) = bridge.stats;
    let report = unpoisoned(shared.snapshot.lock()).clone();
    report
}
