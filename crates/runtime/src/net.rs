//! DTB-over-TCP ingestion front-end for the multi-stream service.
//!
//! The ROADMAP north-star is a detector service absorbing heavy traffic
//! from millions of users; this module is the traffic entrance. A
//! [`DpdServer`] listens on a TCP socket and speaks the existing DTB
//! container format as its wire protocol — the same magic, CRC framing,
//! stream declarations and event/sample blocks `docs/FORMAT.md` specifies
//! for files (§11 adds the TCP mapping). Every accepted connection gets:
//!
//! * **incremental frame reassembly** — frames split across arbitrary
//!   `read()` boundaries are reassembled by [`dpd_trace::dtb::DtbDecoder`],
//!   the same decode implementation file replay uses;
//! * **a bounded buffer** — a frame declaring a body beyond
//!   [`NetConfig::max_frame`] is rejected before it is buffered, so a
//!   hostile length varint cannot balloon per-connection memory;
//! * **backpressure** — decoded blocks are applied to the shared
//!   [`MultiStreamDpd`] before more input is read. In sharded mode a
//!   full shard queue parks the connection thread inside `ingest`, so it
//!   stops reading and TCP flow control pushes back on the client: under
//!   overload ack latency rises, not memory. Cumulative acknowledgements
//!   let well-behaved clients pace themselves;
//! * **shedding** — clients that stall mid-frame past
//!   [`NetConfig::stall_ms`], or stop draining acknowledgements past
//!   [`NetConfig::write_ms`], are disconnected without affecting other
//!   connections;
//! * **typed rejection** — malformed input closes the connection with the
//!   offending [`DtbError`] counted in [`NetStats::protocol_errors`]; the
//!   valid prefix stays applied, nothing is fabricated.
//!
//! The server holds no published output. After every `ingest` and every
//! checkpoint it drains the service under the lock it already holds:
//! each event goes to the [`NetConfig::events`] file, or is dropped, and
//! standing-query deltas are dropped. Nothing is lost by dropping: the
//! counts stay in `dpd_shard_events_total` and the query enter/exit
//! series.
//!
//! Shutdown drains cleanly: connection workers observe the stop flag at
//! their next poll tick, the accept loop is unblocked, and the service is
//! finished (final sweeps + close events). With [`NetConfig::durable`]
//! set, the server checkpoints through the PR 6 pile path — periodically,
//! at every clean client close, and on exit — and acknowledges only
//! checkpointed samples, so a client that resends from its last
//! acknowledgement after a server crash reproduces the uninterrupted run
//! bit-identically.
//!
//! Threading: one accept loop plus one worker thread per connection, each
//! on a small (256 KiB) stack — a thousand mostly-idle connections on the
//! one-CPU reference host cost virtual address space, not time. All
//! detector state lives behind one `std::sync::Mutex`, taken through the
//! crate's poison-recovering `lock` helper; per-connection decode
//! (varints, CRC) happens outside it, only the final `ingest` of each
//! decoded batch happens inside.

use crate::service::{CheckpointError, MultiStreamDpd, ServiceObs, ServiceSnapshot};
use crate::sync::lock;
use dpd_core::pipeline::{BuildError, DpdBuilder};
use dpd_core::shard::{MultiStreamEvent, StreamId};
use dpd_obs::{Counter, Gauge, Histogram, Registry};
use dpd_trace::dtb::{self, Block, DtbDecoder, DtbError};
use dpd_trace::pile::EpochMarker;
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Handshake magic: the first four bytes the server sends on every
/// accepted connection (`docs/FORMAT.md` §11.1).
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"DPS1";

/// Wire-protocol version carried in the handshake's fifth byte.
pub const PROTOCOL_VERSION: u8 = 1;

/// Per-connection worker stack size. Workers hold a read buffer pointer,
/// a decoder and some counters — 256 KiB is generous, and small stacks
/// are what make a thousand connection threads cheap.
const CONN_STACK: usize = 256 * 1024;

/// Per-`read()` buffer size of a connection worker.
const READ_BUF: usize = 16 * 1024;

/// Errors starting or stopping a [`DpdServer`].
///
/// `#[non_exhaustive]` like the other workspace error enums; every
/// variant renders a lowercase, period-free message.
#[non_exhaustive]
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (bind, local address query), or the events
    /// file could not be created or written.
    Io(std::io::Error),
    /// The detector configuration was rejected.
    Build(BuildError),
    /// A durable checkpoint or resume failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "server socket error: {e}"),
            NetError::Build(e) => write!(f, "server configuration rejected: {e}"),
            NetError::Checkpoint(e) => write!(f, "server checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Build(e) => Some(e),
            NetError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<BuildError> for NetError {
    fn from(e: BuildError) -> Self {
        NetError::Build(e)
    }
}

impl From<CheckpointError> for NetError {
    fn from(e: CheckpointError) -> Self {
        NetError::Checkpoint(e)
    }
}

/// Durability policy of a server (the PR 6 checkpoint path over TCP).
#[derive(Debug, Clone)]
pub struct DurableNet {
    /// Checkpoint file path (written atomically; resumed from on start).
    pub path: PathBuf,
    /// Take a checkpoint every this many ingested samples (`0`: only at
    /// clean client closes and on shutdown).
    pub every_samples: u64,
    /// Resume from `path` when it exists instead of starting fresh.
    pub resume: bool,
}

/// Tuning knobs of a [`DpdServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Connections beyond this many simultaneously open are shed at
    /// accept time (counted in [`NetStats::shed_capacity`]).
    pub max_conns: usize,
    /// Per-frame body budget handed to each connection's [`DtbDecoder`].
    pub max_frame: usize,
    /// Worker poll tick in milliseconds: how often an idle connection
    /// checks the stop flag and its acknowledgement backlog.
    pub poll_ms: u64,
    /// Shed a connection stalled mid-frame for this many milliseconds.
    pub stall_ms: u64,
    /// Shed a connection that blocks acknowledgement writes for this many
    /// milliseconds (a slow or absent reader).
    pub write_ms: u64,
    /// Stop accepting after this many connections (`0`: accept forever).
    /// The server keeps serving already-accepted connections; combined
    /// with [`DpdServer::drained`] this gives tests and smoke scripts a
    /// self-terminating server.
    pub accept_limit: u64,
    /// Checkpoint/resume policy; `None` runs purely in memory.
    pub durable: Option<DurableNet>,
    /// Write every published detector event to this file, one `{e:?}`
    /// line each, in publication order (per stream, the service's order),
    /// the shutdown close wave included. The file is created (truncated)
    /// at start. `None` drops each event once it is published; the
    /// registry still counts it.
    pub events: Option<PathBuf>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 4096,
            max_frame: dtb::DEFAULT_MAX_FRAME,
            poll_ms: 10,
            stall_ms: 5_000,
            write_ms: 2_000,
            accept_limit: 0,
            durable: None,
            events: None,
        }
    }
}

/// Point-in-time counter snapshot of a running server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted (including ones later shed).
    pub accepted: u64,
    /// Connections currently open.
    pub open: u64,
    /// Connections shed at accept time (capacity limit).
    pub shed_capacity: u64,
    /// Connections shed for stalling mid-frame.
    pub shed_stalled: u64,
    /// Connections shed for not draining acknowledgements.
    pub shed_slow: u64,
    /// Connections that disconnected abruptly (reset, or EOF mid-frame —
    /// the latter also counts as a protocol error).
    pub disconnected: u64,
    /// Connections closed over a malformed frame (typed [`DtbError`]).
    pub protocol_errors: u64,
    /// Connections that completed cleanly at a frame boundary.
    pub clean_closes: u64,
    /// DTB frames decoded across all connections.
    pub frames: u64,
    /// Event samples ingested into the detector service.
    pub samples: u64,
    /// Sampled-kind (`f64`) values decoded and discarded (the service
    /// ingests event streams; sampled blocks are validated and counted).
    pub samples_skipped: u64,
    /// Payload bytes read off sockets.
    pub bytes: u64,
    /// Durable checkpoints taken.
    pub checkpoints: u64,
}

/// Server counters as registry handles (`dpd_net_*` series — the
/// metric-name contract is in `docs/OBSERVABILITY.md`). [`NetStats`]
/// snapshots are read back from these same cells, so a live `/metrics`
/// scrape and the drain-time report can never disagree.
struct NetMetrics {
    accepted: Counter,
    open: Gauge,
    shed_capacity: Counter,
    shed_stalled: Counter,
    shed_slow: Counter,
    disconnected: Counter,
    protocol_errors: Counter,
    clean_closes: Counter,
    frames: Counter,
    samples: Counter,
    samples_skipped: Counter,
    bytes: Counter,
    checkpoints: Counter,
    /// Events per decoded DTB events frame (log2 buckets) — the wire
    /// batching profile, deterministic for a deterministic corpus.
    frame_samples: Histogram,
}

impl NetMetrics {
    fn register(reg: &Registry) -> Self {
        NetMetrics {
            accepted: reg.counter(
                "dpd_net_connections_accepted_total",
                "connections accepted (including ones later shed)",
            ),
            open: reg.gauge("dpd_net_connections_open", "connections currently open"),
            shed_capacity: reg.counter(
                "dpd_net_shed_capacity_total",
                "connections shed at accept time (capacity limit)",
            ),
            shed_stalled: reg.counter(
                "dpd_net_shed_stalled_total",
                "connections shed for stalling mid-frame",
            ),
            shed_slow: reg.counter(
                "dpd_net_shed_slow_total",
                "connections shed for not draining acknowledgements",
            ),
            disconnected: reg.counter(
                "dpd_net_disconnected_total",
                "connections that disconnected abruptly",
            ),
            protocol_errors: reg.counter(
                "dpd_net_protocol_errors_total",
                "connections closed over a malformed frame",
            ),
            clean_closes: reg.counter(
                "dpd_net_clean_closes_total",
                "connections that completed cleanly at a frame boundary",
            ),
            frames: reg.counter(
                "dpd_net_frames_total",
                "DTB frames decoded across all connections",
            ),
            samples: reg.counter(
                "dpd_net_samples_total",
                "event samples ingested into the detector service",
            ),
            samples_skipped: reg.counter(
                "dpd_net_samples_skipped_total",
                "sampled-kind values decoded and discarded",
            ),
            bytes: reg.counter("dpd_net_bytes_total", "payload bytes read off sockets"),
            checkpoints: reg.counter("dpd_net_checkpoints_total", "durable checkpoints taken"),
            frame_samples: reg.histogram(
                "dpd_net_frame_samples",
                "event samples per decoded DTB events frame (log2 buckets)",
            ),
        }
    }

    fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.get(),
            open: self.open.get(),
            shed_capacity: self.shed_capacity.get(),
            shed_stalled: self.shed_stalled.get(),
            shed_slow: self.shed_slow.get(),
            disconnected: self.disconnected.get(),
            protocol_errors: self.protocol_errors.get(),
            clean_closes: self.clean_closes.get(),
            frames: self.frames.get(),
            samples: self.samples.get(),
            samples_skipped: self.samples_skipped.get(),
            bytes: self.bytes.get(),
            checkpoints: self.checkpoints.get(),
        }
    }
}

/// Why a connection worker exited (internal; surfaced as counters).
enum CloseReason {
    Clean,
    Protocol(#[allow(dead_code)] DtbError),
    Stalled,
    SlowReader,
    Disconnected,
    ServerShutdown,
}

/// Per-connection shared state: the acknowledgement cut points.
#[derive(Default)]
struct ConnState {
    /// Samples decoded and applied from this connection (updated inside
    /// the service lock, so checkpoints capture a consistent cut).
    decoded: AtomicU64,
    /// Samples covered by the last durable checkpoint; what durable-mode
    /// acknowledgements report.
    durable: AtomicU64,
}

/// The service plus everything that must be updated under its lock.
struct Core {
    /// `None` only after shutdown took the service out.
    svc: Option<MultiStreamDpd>,
    /// The [`NetConfig::events`] file, when one is set.
    log: Option<EventLog>,
    /// Samples ingested since the last durable checkpoint attempt.
    since_ckpt: u64,
    /// The last checkpoint attempt failed, so `shutdown` retries it even
    /// when no sample arrived since.
    ckpt_failed: bool,
    /// Monotonic checkpoint ordinal (continues a resumed lineage).
    ordinal: u64,
    /// First checkpoint failure, surfaced at shutdown.
    ckpt_error: Option<CheckpointError>,
}

impl Core {
    /// Drain everything the service has published: each event to the
    /// events file, or nowhere, and every query delta nowhere.
    fn hand_off(&mut self) {
        let Some(svc) = self.svc.as_mut() else { return };
        match &mut self.log {
            Some(log) => svc.drain_each(|e| log.write(e)),
            None => svc.drain_each(|_| {}),
        }
    }
}

/// The [`NetConfig::events`] file.
struct EventLog {
    out: BufWriter<File>,
    /// The first write failure: writing stops there, and `shutdown`
    /// returns it.
    error: Option<std::io::Error>,
}

impl EventLog {
    fn write(&mut self, e: &MultiStreamEvent) {
        if self.error.is_none() {
            if let Err(err) = writeln!(self.out, "{e:?}") {
                self.error = Some(err);
            }
        }
    }
}

struct Shared {
    cfg: NetConfig,
    core: Mutex<Core>,
    conns: Mutex<Vec<Arc<ConnState>>>,
    stop: AtomicBool,
    ctr: NetMetrics,
    registry: Registry,
}

impl Shared {
    fn stats(&self) -> NetStats {
        self.ctr.stats()
    }

    /// Take a checkpoint now, under the already-held core lock, publish
    /// the durable acknowledgement cut to every connection, and hand off
    /// what the service published. A failed attempt is retried at the
    /// next cadence point, not on every batch, and at shutdown.
    fn checkpoint_locked(&self, core: &mut Core) {
        let Some(d) = &self.cfg.durable else { return };
        let Some(svc) = core.svc.as_mut() else { return };
        core.ordinal += 1;
        core.since_ckpt = 0;
        let marker = EpochMarker {
            wave: core.ordinal,
            samples: svc.samples_ingested(),
            ordinal: core.ordinal,
        };
        let result = svc.checkpoint(&d.path, marker);
        core.ckpt_failed = result.is_err();
        match result {
            Ok(events) => {
                if let Some(log) = &mut core.log {
                    events.iter().for_each(|e| log.write(e));
                }
                self.ctr.checkpoints.inc();
                for conn in lock(&self.conns).iter() {
                    conn.durable
                        .store(conn.decoded.load(Ordering::Acquire), Ordering::Release);
                }
            }
            Err(e) => {
                // Keep serving; durable acknowledgements simply stop
                // advancing. The first failure is reported at shutdown.
                if core.ckpt_error.is_none() {
                    core.ckpt_error = Some(e);
                }
            }
        }
        core.hand_off();
    }
}

/// What a connection acknowledges: checkpoint-covered samples in durable
/// mode, applied samples otherwise.
fn ack_target(shared: &Shared, state: &ConnState) -> u64 {
    if shared.cfg.durable.is_some() {
        state.durable.load(Ordering::Acquire)
    } else {
        state.decoded.load(Ordering::Acquire)
    }
}

/// Decode every complete frame buffered in `dec` and apply the batch to
/// the service under one lock acquisition. Returns whether any frame was
/// consumed (progress, for the stall clock). A malformed frame ends the
/// batch: the blocks decoded before it are still applied (the valid
/// prefix, FORMAT.md §11.2), then its error is returned.
fn drain_decoder(
    dec: &mut DtbDecoder,
    shared: &Shared,
    state: &ConnState,
) -> Result<bool, DtbError> {
    let mut batch: Vec<(StreamId, Vec<i64>)> = Vec::new();
    let mut frames = 0u64;
    let mut skipped = 0u64;
    let failure = loop {
        match dec.next_block() {
            Ok(Some(Block::Events { stream, values })) => {
                frames += 1;
                shared.ctr.frame_samples.record(values.len() as u64);
                batch.push((StreamId(stream), values.to_vec()));
            }
            Ok(Some(Block::Samples { values, .. })) => {
                frames += 1;
                skipped += values.len() as u64;
            }
            Ok(Some(Block::Decl { .. })) => frames += 1,
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    if frames == 0 {
        return failure.map_or(Ok(false), Err);
    }
    shared.ctr.frames.add(frames);
    if skipped > 0 {
        shared.ctr.samples_skipped.add(skipped);
    }
    let new_samples: u64 = batch.iter().map(|(_, v)| v.len() as u64).sum();
    if new_samples > 0 {
        let records: Vec<(StreamId, &[i64])> =
            batch.iter().map(|(s, v)| (*s, v.as_slice())).collect();
        let mut core = lock(&shared.core);
        if let Some(svc) = core.svc.as_mut() {
            svc.ingest(&records);
        }
        core.hand_off();
        state.decoded.fetch_add(new_samples, Ordering::Release);
        shared.ctr.samples.add(new_samples);
        core.since_ckpt += new_samples;
        let cadence = shared
            .cfg
            .durable
            .as_ref()
            .map(|d| d.every_samples)
            .unwrap_or(0);
        if cadence > 0 && core.since_ckpt >= cadence {
            shared.checkpoint_locked(&mut core);
        }
    }
    failure.map_or(Ok(true), Err)
}

/// Serve one connection to completion. Runs on the connection's worker
/// thread; all error handling funnels into the returned [`CloseReason`].
fn serve_conn(sock: &mut TcpStream, shared: &Shared, state: &ConnState) -> CloseReason {
    let cfg = &shared.cfg;
    let _ = sock.set_nodelay(true);
    if sock
        .set_read_timeout(Some(Duration::from_millis(cfg.poll_ms.max(1))))
        .is_err()
        || sock
            .set_write_timeout(Some(Duration::from_millis(cfg.write_ms.max(1))))
            .is_err()
    {
        return CloseReason::Disconnected;
    }
    let hello = [
        HANDSHAKE_MAGIC[0],
        HANDSHAKE_MAGIC[1],
        HANDSHAKE_MAGIC[2],
        HANDSHAKE_MAGIC[3],
        PROTOCOL_VERSION,
        0,
    ];
    if sock.write_all(&hello).is_err() {
        return CloseReason::Disconnected;
    }
    let mut dec = DtbDecoder::with_max_frame(cfg.max_frame);
    let mut acked = 0u64;
    let mut last_progress = Instant::now();
    let mut buf = vec![0u8; READ_BUF];
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return CloseReason::ServerShutdown;
        }
        let target = ack_target(shared, state);
        if target > acked {
            if sock.write_all(&target.to_le_bytes()).is_err() {
                return CloseReason::SlowReader;
            }
            acked = target;
        }
        match sock.read(&mut buf) {
            Ok(0) => {
                return match dec.finish() {
                    Ok(()) => {
                        // Clean close. In durable mode a close is a
                        // durability point: checkpoint so the final
                        // acknowledgement covers everything sent.
                        if shared.cfg.durable.is_some() {
                            let mut core = lock(&shared.core);
                            shared.checkpoint_locked(&mut core);
                        }
                        let target = ack_target(shared, state);
                        if target > acked {
                            let _ = sock.write_all(&target.to_le_bytes());
                        }
                        CloseReason::Clean
                    }
                    Err(e) => CloseReason::Protocol(e),
                };
            }
            Ok(n) => {
                shared.ctr.bytes.add(n as u64);
                dec.feed(&buf[..n]);
                match drain_decoder(&mut dec, shared, state) {
                    Ok(true) => last_progress = Instant::now(),
                    Ok(false) => {}
                    Err(e) => return CloseReason::Protocol(e),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if dec.buffered() > 0
                    && last_progress.elapsed() >= Duration::from_millis(cfg.stall_ms)
                {
                    return CloseReason::Stalled;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return CloseReason::Disconnected,
        }
    }
}

/// Deregisters a connection even if its worker panics mid-decode.
struct ConnGuard {
    shared: Arc<Shared>,
    state: Arc<ConnState>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut conns = lock(&self.shared.conns);
        conns.retain(|c| !Arc::ptr_eq(c, &self.state));
        drop(conns);
        self.shared.ctr.open.sub(1);
    }
}

fn conn_worker(mut sock: TcpStream, shared: Arc<Shared>, state: Arc<ConnState>) {
    let guard = ConnGuard {
        shared: shared.clone(),
        state,
    };
    let reason = serve_conn(&mut sock, &shared, &guard.state);
    let ctr = &shared.ctr;
    match reason {
        CloseReason::Clean => ctr.clean_closes.inc(),
        CloseReason::Protocol(_) => ctr.protocol_errors.inc(),
        CloseReason::Stalled => ctr.shed_stalled.inc(),
        CloseReason::SlowReader => ctr.shed_slow.inc(),
        CloseReason::Disconnected => ctr.disconnected.inc(),
        CloseReason::ServerShutdown => {}
    };
    let _ = sock.shutdown(Shutdown::Both);
    drop(guard);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut accepted = 0u64;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let limit = shared.cfg.accept_limit;
        if limit > 0 && accepted >= limit {
            return;
        }
        let (sock, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::Acquire) {
            // The shutdown self-connection lands here; don't serve it.
            return;
        }
        accepted += 1;
        shared.ctr.accepted.inc();
        if shared.ctr.open.get() >= shared.cfg.max_conns as u64 {
            shared.ctr.shed_capacity.inc();
            let _ = sock.shutdown(Shutdown::Both);
            continue;
        }
        shared.ctr.open.add(1);
        let state = Arc::new(ConnState::default());
        lock(&shared.conns).push(state.clone());
        let sh = shared.clone();
        let st = state.clone();
        let spawned = thread::Builder::new()
            .name("dpd-net-conn".into())
            .stack_size(CONN_STACK)
            .spawn(move || conn_worker(sock, sh, st));
        if spawned.is_err() {
            // Out of threads: shed exactly like a capacity overflow.
            let mut conns = lock(&shared.conns);
            conns.retain(|c| !Arc::ptr_eq(c, &state));
            drop(conns);
            shared.ctr.open.sub(1);
            shared.ctr.shed_capacity.inc();
        }
    }
}

/// Everything a finished server hands back.
#[derive(Debug)]
pub struct ServeReport {
    /// The shutdown close wave: the events [`MultiStreamDpd::finish`]
    /// publishes (final sweep, one close per live stream), so the number
    /// of live streams bounds it. Every earlier event went to
    /// [`NetConfig::events`], or nowhere, as it was published; with an
    /// events file set, these are written there too.
    pub events: Vec<MultiStreamEvent>,
    /// Final detector-service snapshot.
    pub snapshot: ServiceSnapshot,
    /// Final network counters.
    pub stats: NetStats,
    /// The epoch marker the server resumed from, when it did.
    pub resumed_from: Option<EpochMarker>,
}

/// A running DTB-over-TCP ingestion server (see the module docs).
#[derive(Debug)]
pub struct DpdServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    resumed_from: Option<EpochMarker>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl DpdServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving a detector service built from `builder` — or resumed from
    /// the checkpoint in `cfg.durable` when configured and present.
    pub fn start(builder: &DpdBuilder, cfg: NetConfig, addr: &str) -> Result<Self, NetError> {
        DpdServer::start_observed(builder, cfg, addr, ServiceObs::default())
    }

    /// [`DpdServer::start`] with explicit observability wiring: both the
    /// detector service's per-shard rollups and the server's `dpd_net_*`
    /// counters register into `obs.registry` (the page a `--metrics`
    /// endpoint serves), and ingest-loop timings feed `obs.self_tracer`
    /// when present.
    pub fn start_observed(
        builder: &DpdBuilder,
        cfg: NetConfig,
        addr: &str,
        obs: ServiceObs,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let log = match &cfg.events {
            Some(path) => Some(EventLog {
                out: BufWriter::new(File::create(path)?),
                error: None,
            }),
            None => None,
        };
        let registry = obs.registry.clone();
        let (svc, resumed_from) = match &cfg.durable {
            Some(d) if d.resume && d.path.exists() => {
                let (svc, marker) = MultiStreamDpd::resume_observed(builder, &d.path, obs)?;
                (svc, Some(marker))
            }
            _ => (MultiStreamDpd::from_builder_observed(builder, obs)?, None),
        };
        let shared = Arc::new(Shared {
            cfg,
            core: Mutex::new(Core {
                svc: Some(svc),
                log,
                since_ckpt: 0,
                ckpt_failed: false,
                ordinal: resumed_from.map(|m| m.ordinal).unwrap_or(0),
                ckpt_error: None,
            }),
            conns: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            ctr: NetMetrics::register(&registry),
            registry,
        });
        let sh = shared.clone();
        let accept = thread::Builder::new()
            .name("dpd-net-accept".into())
            .spawn(move || accept_loop(listener, sh))
            .map_err(NetError::Io)?;
        Ok(DpdServer {
            shared,
            addr: local,
            accept: Some(accept),
            resumed_from,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> NetStats {
        self.shared.stats()
    }

    /// The registry all of this server's metrics live in (`dpd_net_*`
    /// plus the detector service's `dpd_shard_*` rollups) — hand it to
    /// a `dpd_obs::MetricsServer` to expose them live.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// `true` once the accept limit was reached *and* every accepted
    /// connection has finished — the self-termination condition for
    /// smoke runs (`accept_limit > 0`).
    pub fn drained(&self) -> bool {
        self.accept
            .as_ref()
            .map(|h| h.is_finished())
            .unwrap_or(true)
            && self.shared.ctr.open.get() == 0
    }

    /// Stop accepting, let in-flight connections observe the stop flag,
    /// take the exit checkpoint when durable, finish the service and
    /// return its close wave and counters. Returns the first checkpoint
    /// failure, else the first events-file failure, once the close wave
    /// is written and the file flushed.
    pub fn shutdown(mut self) -> Result<ServeReport, NetError> {
        self.shared.stop.store(true, Ordering::Release);
        // Unblock a blocking accept() with a self-connection; harmless
        // when the accept loop already exited.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        while self.shared.ctr.open.get() > 0 {
            thread::sleep(Duration::from_millis(2));
        }
        let mut core = lock(&self.shared.core);
        if self.shared.cfg.durable.is_some() && (core.since_ckpt > 0 || core.ckpt_failed) {
            self.shared.checkpoint_locked(&mut core);
        }
        // Quiesce and hand off, so `finish` returns only the close wave.
        if let Some(svc) = core.svc.as_mut() {
            svc.flush();
        }
        core.hand_off();
        let svc = core.svc.take().expect("server shut down twice");
        let (events, snapshot) = svc.finish();
        let log_error = core.log.take().and_then(|mut log| {
            events.iter().for_each(|e| log.write(e));
            match log.error {
                Some(e) => Some(e),
                None => log.out.flush().err(),
            }
        });
        if let Some(e) = core.ckpt_error.take() {
            return Err(NetError::Checkpoint(e));
        }
        if let Some(e) = log_error {
            return Err(NetError::Io(e));
        }
        drop(core);
        Ok(ServeReport {
            events,
            snapshot,
            stats: self.shared.stats(),
            resumed_from: self.resumed_from,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpd_trace::dtb::DtbWriter;
    use std::collections::BTreeMap;

    fn read_handshake(sock: &mut TcpStream) {
        let mut hello = [0u8; 6];
        sock.read_exact(&mut hello).expect("handshake");
        assert_eq!(&hello[..4], &HANDSHAKE_MAGIC);
        assert_eq!(hello[4], PROTOCOL_VERSION);
    }

    fn corpus(streams: u64, samples: u64) -> Vec<u8> {
        let mut w = DtbWriter::with_block_len(Vec::new(), 32).unwrap();
        for s in 0..streams {
            w.declare_events(s, &format!("s{s}")).unwrap();
        }
        for s in 0..streams {
            let vals: Vec<i64> = (0..samples)
                .map(|k| 0x1000 + (s as i64) * 0x100 + (k % (3 + s)) as i64)
                .collect();
            w.push_events(s, &vals).unwrap();
        }
        w.finish().unwrap()
    }

    /// Events of an in-process inline replay of the container `bytes`.
    fn replay(builder: &DpdBuilder, bytes: &[u8]) -> Vec<MultiStreamEvent> {
        let mut svc = MultiStreamDpd::from_builder(builder).unwrap();
        let mut r = dpd_trace::dtb::DtbReader::new(bytes).unwrap();
        while let Some(block) = r.next_block() {
            if let Block::Events { stream, values } = block.unwrap() {
                svc.ingest(&[(StreamId(stream), values)]);
            }
        }
        svc.finish().0
    }

    /// The `{e:?}` lines of `events`, grouped by stream in order.
    fn by_stream(events: &[MultiStreamEvent]) -> BTreeMap<u64, Vec<String>> {
        let mut m: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for e in events {
            m.entry(e.stream().0).or_default().push(format!("{e:?}"));
        }
        m
    }

    /// A fresh temp path for one test.
    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dpd-net-{}-{tag}", std::process::id()))
    }

    /// The lines of an events file, grouped by the stream they name.
    fn file_by_stream(path: &std::path::Path) -> BTreeMap<u64, Vec<String>> {
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        let mut m: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for line in text.lines() {
            let id = line.split("StreamId(").nth(1).unwrap();
            let id = id.split(')').next().unwrap().parse().unwrap();
            m.entry(id).or_default().push(line.to_string());
        }
        m
    }

    /// A server on an ephemeral port that writes its events to `events`.
    fn start_with_events(builder: &DpdBuilder, events: &std::path::Path) -> DpdServer {
        let cfg = NetConfig {
            events: Some(events.to_path_buf()),
            ..NetConfig::default()
        };
        DpdServer::start(builder, cfg, "127.0.0.1:0").unwrap()
    }

    #[test]
    fn loopback_matches_in_process_replay() {
        let builder = DpdBuilder::new().window(8).shards(0);
        let bytes = corpus(4, 200);

        // Reference: in-process inline replay of the same container.
        let ref_events = replay(&builder, &bytes);

        // Wire: one connection, deliberately fragmented writes.
        let events = temp_path("loopback.events");
        let server = start_with_events(&builder, &events);
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        read_handshake(&mut sock);
        for piece in bytes.chunks(7) {
            sock.write_all(piece).unwrap();
        }
        sock.shutdown(Shutdown::Write).unwrap();
        // Wait for the final acknowledgement (cumulative sample count).
        let total: u64 = 4 * 200;
        let mut last = 0u64;
        let mut ack = [0u8; 8];
        while last < total {
            sock.read_exact(&mut ack).expect("ack stream");
            last = u64::from_le_bytes(ack);
        }
        drop(sock);
        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.protocol_errors, 0);
        assert_eq!(report.stats.clean_closes, 1);
        assert_eq!(report.stats.samples, total);
        assert_eq!(file_by_stream(&events), by_stream(&ref_events));
        // The report keeps only the close wave: one close per stream.
        assert_eq!(report.events.len(), 4);
        assert!(report
            .events
            .iter()
            .all(|e| matches!(e, MultiStreamEvent::Closed { .. })));
    }

    #[test]
    fn malformed_frame_closes_with_protocol_error_only_for_that_conn() {
        let builder = DpdBuilder::new().window(8).shards(0);
        let server = DpdServer::start(&builder, NetConfig::default(), "127.0.0.1:0").unwrap();
        let bytes = corpus(1, 50);

        // Victim connection: valid header then garbage.
        let mut bad = TcpStream::connect(server.local_addr()).unwrap();
        read_handshake(&mut bad);
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0x40;
        bad.write_all(&corrupt).unwrap();
        let _ = bad.shutdown(Shutdown::Write);
        // Server closes; the read eventually returns EOF or reset.
        let mut sink = Vec::new();
        let _ = bad.read_to_end(&mut sink);
        drop(bad);

        // A healthy connection is unaffected.
        let mut good = TcpStream::connect(server.local_addr()).unwrap();
        read_handshake(&mut good);
        good.write_all(&bytes).unwrap();
        good.shutdown(Shutdown::Write).unwrap();
        let mut ack = [0u8; 8];
        let mut last = 0u64;
        while last < 50 {
            good.read_exact(&mut ack).expect("healthy ack");
            last = u64::from_le_bytes(ack);
        }
        drop(good);

        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.protocol_errors, 1);
        assert_eq!(report.stats.clean_closes, 1);
        // The healthy connection's samples all landed; the corrupt one
        // contributed at most its clean prefix.
        assert!(report.stats.samples >= 50);
    }

    /// A malformed frame arriving in the same read as valid ones ends the
    /// connection, but the valid prefix before it stays applied.
    #[test]
    fn valid_prefix_before_malformed_frame_is_applied() {
        let builder = DpdBuilder::new().window(8).shards(0);
        let bytes = corpus(2, 60);
        let ref_events = replay(&builder, &bytes);
        let events = temp_path("prefix.events");
        let server = start_with_events(&builder, &events);
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        read_handshake(&mut sock);
        // Unknown frame type 0xEE: one body byte, zero CRC.
        let mut wire = bytes;
        wire.extend_from_slice(&[0xEE, 1, 0, 0, 0, 0, 0]);
        sock.write_all(&wire).unwrap();
        let _ = sock.shutdown(Shutdown::Write);
        let mut sink = Vec::new();
        let _ = sock.read_to_end(&mut sink);
        drop(sock);
        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.protocol_errors, 1);
        assert_eq!(report.stats.samples, 120);
        assert_eq!(file_by_stream(&events), by_stream(&ref_events));
    }

    /// An events file that cannot be created fails `start` with a typed
    /// I/O error.
    #[test]
    fn unopenable_events_file_is_an_io_error() {
        let cfg = NetConfig {
            events: Some(temp_path("no-such-dir").join("events")),
            ..NetConfig::default()
        };
        let builder = DpdBuilder::new().window(8).shards(0);
        assert!(matches!(
            DpdServer::start(&builder, cfg, "127.0.0.1:0"),
            Err(NetError::Io(_))
        ));
    }

    /// A durable server whose checkpoint directory appears only halfway
    /// through the run retries at the cadence, not on every batch: the
    /// checkpoint that lands carries an ordinal within one of the number
    /// of cadence points, acks advance once it does, and `shutdown` still
    /// reports the first failure. A failed last attempt is retried at
    /// shutdown even with no sample after it.
    #[test]
    fn failed_checkpoint_is_retried_at_the_next_cadence_point() {
        let root = temp_path("ckpt-retry");
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("state.ckpt");
        let cadence = 100;
        let cfg = NetConfig {
            durable: Some(DurableNet {
                path: path.clone(),
                every_samples: cadence,
                resume: false,
            }),
            ..NetConfig::default()
        };
        let builder = DpdBuilder::new().window(8).shards(0);
        let server = DpdServer::start(&builder, cfg, "127.0.0.1:0").unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        read_handshake(&mut sock);
        let samples = 2000;
        let bytes = corpus(4, samples / 4);
        let pieces: Vec<&[u8]> = bytes.chunks(40).collect();
        for (k, piece) in pieces.iter().enumerate() {
            if k == pieces.len() / 2 {
                std::fs::create_dir_all(&root).unwrap();
            }
            sock.write_all(piece).unwrap();
            // One read per write, so every batch gets its own drain.
            std::thread::sleep(Duration::from_micros(300));
        }
        sock.shutdown(Shutdown::Write).unwrap();
        let mut last = 0u64;
        let mut ack = [0u8; 8];
        while last < samples {
            sock.read_exact(&mut ack).expect("durable acks resume");
            last = u64::from_le_bytes(ack);
        }
        drop(sock);
        assert!(matches!(server.shutdown(), Err(NetError::Checkpoint(_))));
        let (_, marker) = MultiStreamDpd::resume(&builder, &path).unwrap();
        assert_eq!(marker.samples, samples);
        assert!(
            marker.ordinal <= samples / cadence + 1,
            "{} checkpoint attempts for {} cadence points",
            marker.ordinal,
            samples / cadence
        );
        std::fs::remove_dir_all(&root).unwrap();

        // The last cadence attempt fails and the connection ends by
        // server shutdown, not a clean close: shutdown retries it, so once
        // the directory is back the file covers every sample.
        let cfg = NetConfig {
            durable: Some(DurableNet {
                path: path.clone(),
                every_samples: 1,
                resume: false,
            }),
            ..NetConfig::default()
        };
        let server = DpdServer::start(&builder, cfg, "127.0.0.1:0").unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        read_handshake(&mut sock);
        sock.write_all(&bytes).unwrap();
        while server.stats().samples < samples {
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            // The last batch's attempt has ended once its lock is free.
            let core = lock(&server.shared.core);
            assert!(core.ckpt_failed && core.since_ckpt == 0);
        }
        std::fs::create_dir_all(&root).unwrap();
        assert!(matches!(server.shutdown(), Err(NetError::Checkpoint(_))));
        drop(sock);
        let (_, marker) = MultiStreamDpd::resume(&builder, &path).unwrap();
        assert_eq!(marker.samples, samples);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn net_error_messages_render_lowercase() {
        let errs: Vec<NetError> = vec![
            std::io::Error::other("boom").into(),
            NetError::Checkpoint(CheckpointError::NoCheckpoint),
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg:?}");
            assert!(!msg.ends_with('.'));
            let dyn_err: &dyn std::error::Error = &e;
            assert!(dyn_err.source().is_some());
        }
    }
}
