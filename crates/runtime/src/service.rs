//! Sharded multi-stream DPD service.
//!
//! [`MultiStreamDpd`] scales the single-stream detector *out*: it owns `S`
//! shards, each a worker thread holding a [`StreamTable`] (a keyed map of
//! independent per-stream detectors), and routes interleaved
//! `(StreamId, &[i64])` record batches to the owning shard by the stable
//! hash [`shard_of`]. Each shard drains its queue in FIFO order and emits
//! `(StreamId, SegmentEvent)` observations into an aggregated event sink.
//!
//! * **Queues.** Each shard's commands travel through one crate-private
//!   bounded, closeable FIFO (a `Mutex<VecDeque>` plus two `Condvar`s;
//!   see `sync.rs` for its capacity and why it is not `mpsc`). Routing
//!   to a full queue parks the caller of `ingest` (and of a barrier)
//!   until the worker takes a command, so a shard that falls behind
//!   slows its producer instead of growing its queue. A worker that dies
//!   drops the commands it never ran, so a barrier behind them fails
//!   instead of blocking, a producer parked on its full queue wakes, and
//!   the next command routed to it panics.
//! * **Sink.** Workers publish through `std::sync::mpsc`, whose send path
//!   is a lock-free linked-list queue (Rust ≥ 1.67): producers never take
//!   a lock, and the service side drains with the non-blocking
//!   [`MultiStreamDpd::drain`].
//! * **Rollups.** Every field of each shard's [`TableStats`] (streams,
//!   samples, events, tier and forecast counters, ...) is published into a
//!   `dpd_obs` metrics [`Registry`] and read back without synchronizing
//!   with the workers via [`MultiStreamDpd::snapshot`] — the same cells a
//!   live `/metrics` scrape renders, so drain summaries and scrapes cannot
//!   drift (metric names in `docs/OBSERVABILITY.md`). Queue depth and
//!   batch counts are queue traffic, not table state: they live only in
//!   the registry (`dpd_shard_queue_depth`, `dpd_shard_batches_total`).
//! * **Determinism.** `shards: 0` runs inline on the calling thread and is
//!   the reference: for any shard count and any interleaving of per-stream
//!   batches, the sharded service produces exactly the same per-stream
//!   event sequences (property-tested in `tests/proptest_multistream.rs`).
//!   This holds by construction: both modes run every shard through one
//!   private `ShardCore`, the only code that touches a shard's table,
//!   clock, unpublished events and rollups. A stream is owned by exactly
//!   one shard, shard queues are FIFO, sweeps follow the global sample
//!   clock, and every `StreamTable` decision depends only on the stream's
//!   own samples and the global sample clock carried with each batch.
//!
//! * **Standing queries.** Queries registered on the builder attach to
//!   every shard's table; deltas merge through the same sink and drain
//!   with [`MultiStreamDpd::drain_query_deltas`]. Per-stream queries are
//!   shard-invariant. Join queries are **partition-local** — a pair can
//!   only match inside one shard, exactly like co-partitioned joins in
//!   keyed stream processors — so global joins run inline (`shards(0)`)
//!   or on a single partition (`shards(1)`).
//!
//! Stream lifecycle: streams are created lazily on first sample, evicted
//! after sitting idle past a sample-count watermark, and closed explicitly
//! (or by [`MultiStreamDpd::finish`]) with a final segmentation flush event.
//!
//! * **Durability.** [`MultiStreamDpd::checkpoint`] quiesces every shard,
//!   snapshots the full detector state of the whole service (bit-exact,
//!   via `dpd_core::snapshot`) and writes it to a single-file pile
//!   container atomically (write to `<path>.tmp`, fsync, rename, fsync
//!   the directory). [`MultiStreamDpd::resume`] rebuilds the service from
//!   that file and continues emitting exactly the event suffix an
//!   uninterrupted run would have emitted.

use crate::sync::Fifo;
use dpd_core::pipeline::{BuildError, DpdBuilder, ServiceSpec};
use dpd_core::query::{QueryDelta, QuerySpec};
use dpd_core::shard::{shard_of, MultiStreamEvent, StreamId, StreamTable, TableStats};
use dpd_core::snapshot::{
    Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, TAG_SERVICE,
};
use dpd_obs::{Counter, Gauge, Histogram, Registry, SelfTracer};
use dpd_trace::pile::{recover, EpochMarker, PileError, PileFrame, PileWriter};
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Snapshot of the whole service: one [`TableStats`] per shard, read back
/// from the registry cells a `/metrics` scrape renders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Per-shard rollups (a single entry in inline mode).
    pub shards: Vec<TableStats>,
}

impl ServiceSnapshot {
    /// Sum over all shards.
    pub fn total(&self) -> TableStats {
        self.shards
            .iter()
            .fold(TableStats::default(), |t, s| TableStats {
                streams: t.streams + s.streams,
                cold: t.cold + s.cold,
                created: t.created + s.created,
                samples: t.samples + s.samples,
                events: t.events + s.events,
                evicted: t.evicted + s.evicted,
                closed: t.closed + s.closed,
                demoted: t.demoted + s.demoted,
                promoted: t.promoted + s.promoted,
                forecast_checked: t.forecast_checked + s.forecast_checked,
                forecast_hits: t.forecast_hits + s.forecast_hits,
                forecast_invalidations: t.forecast_invalidations + s.forecast_invalidations,
                query_enters: t.query_enters + s.query_enters,
                query_exits: t.query_exits + s.query_exits,
            })
    }
}

/// Errors produced by [`MultiStreamDpd::checkpoint`] and
/// [`MultiStreamDpd::resume`].
///
/// `#[non_exhaustive]`: downstream matches must carry a wildcard arm.
/// Every variant renders a lowercase, period-free
/// [`Display`](core::fmt::Display) message (asserted by a unit test).
#[non_exhaustive]
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation outside the pile layer failed (read,
    /// rename, directory fsync).
    Io(std::io::Error),
    /// The checkpoint pile container could not be written or decoded.
    Pile(PileError),
    /// The embedded state snapshot is truncated, malformed, or from an
    /// incompatible version.
    Snapshot(SnapshotError),
    /// The builder passed to [`MultiStreamDpd::resume`] does not describe
    /// a coherent service.
    Build(BuildError),
    /// The recovered pile prefix holds no checkpoint frame.
    NoCheckpoint,
    /// The checkpointed service disagrees with the builder's
    /// configuration (`what` names the first mismatching option).
    ConfigMismatch {
        /// Which configuration aspect disagreed.
        what: &'static str,
    },
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint file io failure: {e}"),
            CheckpointError::Pile(e) => write!(f, "{e}"),
            CheckpointError::Snapshot(e) => write!(f, "{e}"),
            CheckpointError::Build(e) => write!(f, "{e}"),
            CheckpointError::NoCheckpoint => {
                write!(f, "no checkpoint frame in the recovered pile prefix")
            }
            CheckpointError::ConfigMismatch { what } => {
                write!(f, "checkpoint does not match the builder: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Pile(e) => Some(e),
            CheckpointError::Snapshot(e) => Some(e),
            CheckpointError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<PileError> for CheckpointError {
    fn from(e: PileError) -> Self {
        CheckpointError::Pile(e)
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Snapshot(e)
    }
}

impl From<BuildError> for CheckpointError {
    fn from(e: BuildError) -> Self {
        CheckpointError::Build(e)
    }
}

/// Observability wiring of a service: the registry its rollups are
/// exported through, plus an optional DTB self-tracer fed by the
/// ingest loops (`dpd serve --self-trace`).
///
/// [`ServiceObs::default`] gives every service its own private
/// [`Registry`] and no tracer, so plain constructors stay zero-config;
/// pass a shared registry (e.g. the one a `--metrics` endpoint
/// renders) through the `*_observed` constructors to surface the
/// rollups live.
#[derive(Clone, Default)]
pub struct ServiceObs {
    /// Registry the per-shard rollups register into (see
    /// `docs/OBSERVABILITY.md` for the metric-name contract).
    pub registry: Registry,
    /// When set, every ingest-loop iteration's wall time is reported
    /// here (log2-quantized) for the DTB self-trace.
    pub self_tracer: Option<SelfTracer>,
}

/// Per-shard rollups as registry handles — the lock-free mirror each
/// shard's core publishes into and [`MultiStreamDpd::snapshot`] reads
/// back. Series carry a `shard` label: `dpd_shard_samples_total{shard="0"}`.
#[derive(Clone)]
struct ShardMetrics {
    streams: Gauge,
    cold: Gauge,
    created: Counter,
    samples: Counter,
    events: Counter,
    evicted: Counter,
    closed: Counter,
    demoted: Counter,
    promoted: Counter,
    forecast_checked: Counter,
    forecast_hits: Counter,
    forecast_invalidations: Counter,
    query_enters: Counter,
    query_exits: Counter,
    /// Queue traffic, not table state: counted by the frontend and the
    /// worker loop, rendered by scrapes, left out of [`TableStats`].
    queue_depth: Gauge,
    batches: Counter,
    /// Ingest-loop iteration wall time; same log2 bucketing as the
    /// self-trace, so the scraped histogram and the DTB capture agree.
    ingest_ns: Histogram,
}

impl ShardMetrics {
    fn register(reg: &Registry, shard: usize) -> Self {
        let c = |name: &str, help: &str| reg.counter(&format!("{name}{{shard=\"{shard}\"}}"), help);
        let g = |name: &str, help: &str| reg.gauge(&format!("{name}{{shard=\"{shard}\"}}"), help);
        ShardMetrics {
            streams: g(
                "dpd_shard_streams",
                "live streams held by the shard (hot + cold)",
            ),
            cold: g(
                "dpd_shard_streams_cold",
                "cold-summary subset of the shard's streams",
            ),
            created: c(
                "dpd_shard_created_total",
                "streams created, including re-creations after eviction or close",
            ),
            samples: c("dpd_shard_samples_total", "samples ingested by the shard"),
            events: c(
                "dpd_shard_events_total",
                "segmentation events emitted (including close flushes)",
            ),
            evicted: c(
                "dpd_shard_evicted_total",
                "streams evicted by the idle watermark",
            ),
            closed: c("dpd_shard_closed_total", "streams explicitly closed"),
            demoted: c(
                "dpd_shard_demoted_total",
                "hot slots demoted to cold summaries",
            ),
            promoted: c(
                "dpd_shard_promoted_total",
                "cold summaries re-promoted to hot",
            ),
            forecast_checked: c(
                "dpd_shard_forecast_checked_total",
                "forecasts scored against an arrived sample",
            ),
            forecast_hits: c(
                "dpd_shard_forecast_hits_total",
                "scored forecasts that matched exactly",
            ),
            forecast_invalidations: c(
                "dpd_shard_forecast_invalidations_total",
                "forecast invalidations on phase changes",
            ),
            query_enters: c(
                "dpd_shard_query_enters_total",
                "standing-query enter deltas emitted",
            ),
            query_exits: c(
                "dpd_shard_query_exits_total",
                "standing-query exit deltas emitted",
            ),
            queue_depth: g(
                "dpd_shard_queue_depth",
                "record batches routed to the shard and not yet processed",
            ),
            batches: c("dpd_shard_batches_total", "record batches fully processed"),
            ingest_ns: reg.histogram(
                &format!("dpd_ingest_loop_nanoseconds{{shard=\"{shard}\"}}"),
                "ingest-loop iteration wall time in nanoseconds (log2 buckets)",
            ),
        }
    }

    /// The single table→registry publication point: store each
    /// [`TableStats`] field into its registry cell.
    fn publish_table(&self, t: &TableStats) {
        self.streams.set(t.streams);
        self.cold.set(t.cold);
        self.created.publish(t.created);
        self.samples.publish(t.samples);
        self.events.publish(t.events);
        self.evicted.publish(t.evicted);
        self.closed.publish(t.closed);
        self.demoted.publish(t.demoted);
        self.promoted.publish(t.promoted);
        self.forecast_checked.publish(t.forecast_checked);
        self.forecast_hits.publish(t.forecast_hits);
        self.forecast_invalidations
            .publish(t.forecast_invalidations);
        self.query_enters.publish(t.query_enters);
        self.query_exits.publish(t.query_exits);
    }

    /// Read the rollups back out of the registry cells.
    fn snapshot(&self) -> TableStats {
        TableStats {
            streams: self.streams.get(),
            cold: self.cold.get(),
            created: self.created.get(),
            samples: self.samples.get(),
            events: self.events.get(),
            evicted: self.evicted.get(),
            closed: self.closed.get(),
            demoted: self.demoted.get(),
            promoted: self.promoted.get(),
            forecast_checked: self.forecast_checked.get(),
            forecast_hits: self.forecast_hits.get(),
            forecast_invalidations: self.forecast_invalidations.get(),
            query_enters: self.query_enters.get(),
            query_exits: self.query_exits.get(),
        }
    }
}

/// One routed record: global sample clock at the first sample, stream,
/// owned samples.
type Record = (u64, StreamId, Vec<i64>);

enum Cmd {
    /// Routed record batches, in frontend arrival order.
    Batches(Vec<Record>),
    /// Explicit close of one stream at the given global clock (final
    /// flush event unless the stream is already idle past the watermark).
    Close(u64, StreamId),
    /// Watermark sweep at the given global clock. Broadcast by the
    /// frontend to every shard on one global cadence, so eviction
    /// retirements (and the query `Exit` deltas they emit) land at
    /// identical clocks in both modes.
    Sweep(u64),
    /// Quiesce barrier: ack once every earlier command is processed.
    Flush(mpsc::Sender<()>),
    /// Checkpoint barrier: reply with the shard's full serialized table
    /// state plus its local clock. Read-only; the shard keeps running on
    /// the same table afterwards.
    Snapshot(mpsc::Sender<(Vec<u8>, u64)>),
    /// Final sweep at the given global clock + close of every live stream.
    Finish(u64, mpsc::Sender<()>),
}

impl Cmd {
    /// Whether the command counts as queue traffic (`dpd_shard_queue_depth`).
    fn queued(&self) -> bool {
        matches!(self, Cmd::Batches(_) | Cmd::Close(..))
    }
}

/// One publication from a shard worker: pending segmentation events plus
/// the standing-query deltas drained from the shard's table in the same
/// processing round (either side may be empty, never both).
type ShardPublication = (Vec<MultiStreamEvent>, Vec<QueryDelta>);

/// One shard's state and the only code that touches it: the table, the
/// highest global sample clock the shard has seen, its unpublished
/// events and its rollups. Inline mode drives one core on the caller's
/// thread; each worker drives its own from the queue.
struct ShardCore {
    shard: usize,
    table: StreamTable,
    clock: u64,
    events: Vec<MultiStreamEvent>,
    metrics: ShardMetrics,
    tracer: Option<SelfTracer>,
    /// Where `publish` sends output. `None` inline: output stays here
    /// until the frontend takes it with `take_output`.
    sink: Option<mpsc::Sender<ShardPublication>>,
}

impl ShardCore {
    /// A fresh table for `spec`, with its standing queries attached.
    fn fresh_table(spec: &ServiceSpec) -> StreamTable {
        let mut table = StreamTable::new(spec.table);
        table.attach_queries(spec.queries.clone());
        table
    }

    /// Restore one shard's checkpointed table (it carries its query
    /// engine), checked against `spec`.
    fn restore_table(bytes: &[u8], spec: &ServiceSpec) -> Result<StreamTable, CheckpointError> {
        let table = StreamTable::restore(bytes)?;
        if *table.config() != spec.table {
            return Err(CheckpointError::ConfigMismatch {
                what: "table configuration",
            });
        }
        if table.query_specs() != spec.queries.as_slice() {
            return Err(CheckpointError::ConfigMismatch {
                what: "standing queries",
            });
        }
        Ok(table)
    }

    /// Wrap `table` (at global clock `clock`) as shard `shard` and publish
    /// its starting rollups, so a resumed service's `snapshot` reflects the
    /// restored streams before the first routed record.
    fn new(
        shard: usize,
        table: StreamTable,
        clock: u64,
        obs: &ServiceObs,
        sink: Option<mpsc::Sender<ShardPublication>>,
    ) -> Self {
        let mut core = ShardCore {
            shard,
            table,
            clock,
            events: Vec::new(),
            metrics: ShardMetrics::register(&obs.registry, shard),
            tracer: obs.self_tracer.clone(),
            sink,
        };
        core.publish();
        core
    }

    /// One ingest-loop iteration over `(seq, stream, samples)` records. The
    /// timing feeds the per-shard histogram and, when a self-trace is
    /// attached, the DTB capture `dpd analyze` can point the detector back
    /// at.
    fn ingest<'a>(&mut self, records: impl IntoIterator<Item = (u64, StreamId, &'a [i64])>) {
        let t0 = Instant::now();
        for (seq, stream, samples) in records {
            self.clock = self.clock.max(seq + samples.len() as u64);
            self.table.ingest(seq, stream, samples, &mut self.events);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.metrics.ingest_ns.record(ns);
        if let Some(tracer) = &self.tracer {
            tracer.record_ns(self.shard, ns);
        }
    }

    /// Apply one command, then publish. Barrier replies go out after the
    /// publication, so everything the command emitted is already in the
    /// sink when the frontend hears back.
    fn apply(&mut self, cmd: Cmd) {
        let ack = match cmd {
            Cmd::Batches(records) => {
                self.ingest(records.iter().map(|(seq, s, v)| (*seq, *s, v.as_slice())));
                None
            }
            Cmd::Close(seq, stream) => {
                self.table.close(seq, stream, &mut self.events);
                None
            }
            Cmd::Sweep(seq) => {
                self.clock = self.clock.max(seq);
                self.table.sweep(seq);
                None
            }
            Cmd::Flush(ack) => Some(ack),
            Cmd::Snapshot(reply) => {
                let _ = reply.send((self.table.snapshot(), self.clock));
                None
            }
            Cmd::Finish(seq, ack) => {
                self.table.sweep(seq);
                self.table.close_all(seq, &mut self.events);
                Some(ack)
            }
        };
        self.publish();
        if let Some(ack) = ack {
            let _ = ack.send(());
        }
    }

    /// Send pending events and query deltas to the sink (when there is
    /// one) and refresh the shard's rollups.
    fn publish(&mut self) {
        if let Some(sink) = &self.sink {
            let mut deltas = Vec::new();
            self.table.drain_query_deltas(&mut deltas);
            if !self.events.is_empty() || !deltas.is_empty() {
                // One lock-free send per processed command, not per event.
                // A send fails only when the service side dropped the
                // receiver (teardown); output is discarded then.
                let _ = sink.send((std::mem::take(&mut self.events), deltas));
            }
        }
        self.metrics.publish_table(&self.table.stats());
    }

    /// Move the output a sinkless (inline) core holds into the frontend's
    /// pending buffers.
    fn take_output(&mut self, events: &mut Vec<MultiStreamEvent>, deltas: &mut Vec<QueryDelta>) {
        events.append(&mut self.events);
        self.table.drain_query_deltas(deltas);
    }
}

/// The shards of a service: one core on the caller's thread, or one
/// worker thread per shard fed through FIFO queues.
enum Shards {
    // Boxed: a StreamTable is hundreds of bytes of inline headers and
    // would otherwise dominate the enum (clippy::large_enum_variant).
    Inline(Box<ShardCore>),
    Workers {
        queues: Vec<Arc<Fifo<Cmd>>>,
        workers: Vec<JoinHandle<()>>,
        sink: mpsc::Receiver<ShardPublication>,
    },
}

/// A sharded multi-stream periodicity-detection service.
///
/// # Examples
/// ```
/// use dpd_core::pipeline::DpdBuilder;
/// use dpd_core::shard::StreamId;
/// use par_runtime::service::MultiStreamDpd;
///
/// let svc = MultiStreamDpd::from_builder(&DpdBuilder::new().window(8).shards(2));
/// let mut svc = svc.unwrap();
/// for round in 0..20 {
///     let a: Vec<i64> = (0..6).map(|i| ((round * 6 + i) % 3) as i64).collect();
///     let b: Vec<i64> = (0..6).map(|i| ((round * 6 + i) % 5) as i64).collect();
///     svc.ingest(&[(StreamId(1), &a), (StreamId(2), &b)]);
/// }
/// let (events, snapshot) = svc.finish();
/// assert_eq!(snapshot.total().samples, 240);
/// assert!(events.iter().any(|e| e.stream() == StreamId(1)));
/// assert!(events.iter().any(|e| e.stream() == StreamId(2)));
/// ```
///
/// Replaying a persisted DTB trace container (the wire-speed ingestion
/// path — the reader's event batches feed `ingest` without copying):
///
/// ```
/// use dpd_core::pipeline::DpdBuilder;
/// use dpd_core::shard::StreamId;
/// use dpd_trace::dtb::{Block, DtbReader, DtbWriter};
/// use par_runtime::service::MultiStreamDpd;
///
/// // Persist two periodic streams into one container...
/// let mut w = DtbWriter::new(Vec::new()).unwrap();
/// for (id, period) in [(1u64, 3i64), (2, 5)] {
///     w.declare_events(id, &format!("app-{id}")).unwrap();
///     let vals: Vec<i64> = (0..120).map(|i| i % period).collect();
///     w.push_events(id, &vals).unwrap();
/// }
/// let bytes = w.finish().unwrap();
///
/// // ...and replay it through the service.
/// let mut svc = MultiStreamDpd::from_builder(&DpdBuilder::new().window(8).shards(0)).unwrap();
/// let mut reader = DtbReader::new(&bytes).unwrap();
/// while let Some(block) = reader.next_block() {
///     if let Block::Events { stream, values } = block.unwrap() {
///         svc.ingest(&[(StreamId(stream), values)]);
///     }
/// }
/// let (events, snapshot) = svc.finish();
/// assert_eq!(snapshot.total().samples, 240);
/// assert_eq!(snapshot.total().closed, 2);
/// # let _ = events;
/// ```
pub struct MultiStreamDpd {
    spec: ServiceSpec,
    shards: Shards,
    /// Registry handles of every shard's rollups (one inline), shared with
    /// the cores that publish into them.
    metrics: Vec<ShardMetrics>,
    /// Published events not yet drained.
    pending_events: Vec<MultiStreamEvent>,
    /// Published query deltas not yet drained.
    pending_deltas: Vec<QueryDelta>,
    /// Global sample clock: samples accepted across all streams.
    ingested: u64,
    /// Samples since the last sweep (sweeps are scheduled here, on the
    /// global sample clock, in both modes).
    since_sweep: u64,
    /// Registry the rollups are exported through.
    registry: Registry,
}

impl MultiStreamDpd {
    /// Start a service straight from the [`DpdBuilder`] (the builder
    /// becomes the per-stream detector factory each shard clones).
    /// Requires [`DpdBuilder::shards`]; `shards(0)` selects the
    /// deterministic inline mode.
    pub fn from_builder(builder: &DpdBuilder) -> Result<Self, BuildError> {
        MultiStreamDpd::from_builder_observed(builder, ServiceObs::default())
    }

    /// [`MultiStreamDpd::from_builder`] with explicit observability
    /// wiring: rollups register into `obs.registry`, ingest-loop
    /// timings feed `obs.self_tracer` when present.
    pub fn from_builder_observed(
        builder: &DpdBuilder,
        obs: ServiceObs,
    ) -> Result<Self, BuildError> {
        let spec = builder.service_spec()?;
        let tables = (0..spec.shards.max(1))
            .map(|_| (ShardCore::fresh_table(&spec), 0))
            .collect();
        Ok(MultiStreamDpd::start(spec, tables, 0, 0, obs))
    }

    /// Build one core per `(table, clock)` entry and start the service:
    /// inline when `spec.shards == 0`, otherwise one worker thread per
    /// shard.
    fn start(
        spec: ServiceSpec,
        tables: Vec<(StreamTable, u64)>,
        ingested: u64,
        since_sweep: u64,
        obs: ServiceObs,
    ) -> Self {
        let (sink_tx, sink_rx) = mpsc::channel();
        let sink = (spec.shards > 0).then_some(sink_tx);
        let mut cores: Vec<ShardCore> = tables
            .into_iter()
            .enumerate()
            .map(|(shard, (table, clock))| ShardCore::new(shard, table, clock, &obs, sink.clone()))
            .collect();
        let metrics = cores.iter().map(|core| core.metrics.clone()).collect();
        let shards = if sink.is_none() {
            Shards::Inline(Box::new(cores.pop().expect("one inline core")))
        } else {
            let (queues, workers) = cores.into_iter().map(spawn_worker).unzip();
            Shards::Workers {
                queues,
                workers,
                sink: sink_rx,
            }
        };
        MultiStreamDpd {
            spec,
            shards,
            metrics,
            pending_events: Vec::new(),
            pending_deltas: Vec::new(),
            ingested,
            since_sweep,
            registry: obs.registry,
        }
    }

    /// The registry this service's rollups are exported through.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Number of shards (`0` = inline mode).
    pub fn shards(&self) -> usize {
        self.spec.shards
    }

    /// Samples accepted so far (the global sample clock).
    pub fn samples_ingested(&self) -> u64 {
        self.ingested
    }

    /// Apply `cmd` to `shard`: at once on the caller's thread inline,
    /// otherwise enqueued for the shard's worker, parking while its queue
    /// is full. Queue traffic is counted here and in the worker loop only,
    /// so inline reports zero.
    fn send(&mut self, shard: usize, cmd: Cmd) {
        match &mut self.shards {
            Shards::Inline(core) => core.apply(cmd),
            Shards::Workers { queues, .. } => {
                if cmd.queued() {
                    self.metrics[shard].queue_depth.add(1);
                }
                if queues[shard].push(cmd).is_err() {
                    panic!("shard worker exited early");
                }
            }
        }
    }

    /// Send one barrier command to every shard and wait for each reply.
    /// Queues are FIFO, so every earlier command has been applied and
    /// published when the replies arrive.
    fn barrier<T>(&mut self, cmd: impl Fn(mpsc::Sender<T>) -> Cmd) -> Vec<T> {
        let replies: Vec<mpsc::Receiver<T>> = (0..self.metrics.len())
            .map(|shard| {
                let (tx, rx) = mpsc::channel();
                self.send(shard, cmd(tx));
                rx
            })
            .collect();
        replies
            .iter()
            .map(|rx| rx.recv().expect("shard worker dropped a barrier reply"))
            .collect()
    }

    /// Move everything published so far into the pending buffers
    /// (non-blocking).
    fn pump(&mut self) {
        match &mut self.shards {
            Shards::Inline(core) => {
                core.take_output(&mut self.pending_events, &mut self.pending_deltas)
            }
            Shards::Workers { sink, .. } => {
                for (events, deltas) in sink.try_iter() {
                    self.pending_events.extend(events);
                    self.pending_deltas.extend(deltas);
                }
            }
        }
    }

    /// Ingest a batch of interleaved per-stream records.
    ///
    /// Records are applied in slice order; two records for the same stream
    /// in one call (or across calls) are processed in that order. In
    /// sharded mode this routes each record to its owning shard and returns
    /// once everything is *enqueued* — processing is asynchronous; use
    /// [`MultiStreamDpd::flush`] to quiesce. Empty sample slices are
    /// ignored.
    pub fn ingest(&mut self, records: &[(StreamId, &[i64])]) {
        let start = self.ingested;
        let mut seq = start;
        if let Shards::Inline(core) = &mut self.shards {
            // Borrowed slices straight into the table: no copy inline.
            core.ingest(records.iter().map(|&(stream, samples)| {
                seq += samples.len() as u64;
                (seq - samples.len() as u64, stream, samples)
            }));
            // One rollup publication per ingest call (not per sample):
            // live scrapes stay fresh at batch granularity.
            core.publish();
        } else {
            let shards = self.metrics.len();
            let mut routed: Vec<Vec<Record>> = vec![Vec::new(); shards];
            for &(stream, samples) in records {
                if !samples.is_empty() {
                    routed[shard_of(stream, shards)].push((seq, stream, samples.to_vec()));
                    seq += samples.len() as u64;
                }
            }
            for (shard, batch) in routed.into_iter().enumerate() {
                if !batch.is_empty() {
                    self.send(shard, Cmd::Batches(batch));
                }
            }
        }
        self.ingested = seq;
        self.since_sweep += seq - start;
        if self.spec.sweep_every > 0 && self.since_sweep >= self.spec.sweep_every {
            // Every shard observes the watermark at the same global clock,
            // keeping eviction-driven query deltas identical across shard
            // counts.
            for shard in 0..self.metrics.len() {
                self.send(shard, Cmd::Sweep(self.ingested));
            }
            self.since_sweep = 0;
        }
    }

    /// Ingest a single stream's batch (convenience wrapper).
    pub fn push(&mut self, stream: StreamId, samples: &[i64]) {
        self.ingest(&[(stream, samples)]);
    }

    /// Explicitly close one stream, emitting its final flush event. Closing
    /// an unknown (or already closed/evicted) stream is a silent no-op, in
    /// both modes.
    pub fn close(&mut self, stream: StreamId) {
        let shard = shard_of(stream, self.metrics.len());
        self.send(shard, Cmd::Close(self.ingested, stream));
    }

    /// Block until every routed record has been processed (immediate in
    /// inline mode, where ingestion is synchronous). Workers park on their
    /// queue condition variable while idle — quiescing burns no CPU.
    pub fn flush(&mut self) {
        self.barrier(Cmd::Flush);
    }

    /// Drain every event published so far, in sink arrival order (per-shard
    /// and therefore per-stream order is preserved; events of different
    /// shards interleave arbitrarily). Non-blocking.
    pub fn drain(&mut self) -> Vec<MultiStreamEvent> {
        self.pump();
        std::mem::take(&mut self.pending_events)
    }

    /// Hand every event published so far to `each`, in [`drain`] order,
    /// and drop the standing-query deltas published so far (their counts
    /// stay in the rollups). The pending buffers are cleared, not taken,
    /// so they keep their capacity and the server can call this after
    /// every `ingest` without allocating.
    ///
    /// [`drain`]: MultiStreamDpd::drain
    pub(crate) fn drain_each(&mut self, each: impl FnMut(&MultiStreamEvent)) {
        self.pump();
        self.pending_events.iter().for_each(each);
        self.pending_events.clear();
        self.pending_deltas.clear();
    }

    /// Standing queries registered on the service (empty unless the
    /// builder carried `standing_query(..)` calls).
    pub fn query_specs(&self) -> &[QuerySpec] {
        &self.spec.queries
    }

    /// Drain every standing-query delta published so far. Per-stream
    /// delta order is preserved (a stream is owned by one shard); deltas
    /// of different shards interleave arbitrarily, so order-sensitive
    /// consumers should sort by `(seq, query, stream)`. Non-blocking; in
    /// sharded mode quiesce with [`MultiStreamDpd::flush`] first to
    /// observe everything already routed.
    pub fn drain_query_deltas(&mut self) -> Vec<QueryDelta> {
        self.pump();
        std::mem::take(&mut self.pending_deltas)
    }

    /// Point-in-time per-shard rollups (lock-free reads; inline mode
    /// reports itself as a single shard).
    ///
    /// Reads go *through the registry*: every shard publishes its table's
    /// rollups after each command it applies, so a live `/metrics` scrape
    /// and this snapshot can never disagree. Queue depth and batch counts
    /// are registry series only ([`MultiStreamDpd::registry`]).
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            shards: self.metrics.iter().map(ShardMetrics::snapshot).collect(),
        }
    }

    /// Finish the service: sweep idle streams at the final clock, close
    /// every live stream (final flush events), quiesce, and return all
    /// undrained events plus the final snapshot. Worker threads are joined.
    pub fn finish(self) -> (Vec<MultiStreamEvent>, ServiceSnapshot) {
        let (events, _deltas, snapshot) = self.finish_with_deltas();
        (events, snapshot)
    }

    /// [`MultiStreamDpd::finish`], additionally returning the undrained
    /// standing-query deltas — the final close wave exits every live
    /// membership, and those `Exit` deltas are only observable here.
    pub fn finish_with_deltas(
        mut self,
    ) -> (Vec<MultiStreamEvent>, Vec<QueryDelta>, ServiceSnapshot) {
        let final_seq = self.ingested;
        self.barrier(|ack| Cmd::Finish(final_seq, ack));
        self.pump();
        let events = std::mem::take(&mut self.pending_events);
        let deltas = std::mem::take(&mut self.pending_deltas);
        (events, deltas, self.snapshot())
        // Drop joins the workers.
    }

    /// Checkpoint the whole service to `path`, durably and atomically.
    ///
    /// Quiesces every shard, captures a bit-exact snapshot of the full
    /// detector state (every stream's detector, forecaster, statistics and
    /// the global sample clock), and writes it as a single-file pile
    /// container carrying one checkpoint frame plus the given epoch
    /// `marker`. The file appears atomically: the bytes go to
    /// `<path>.tmp`, are fsynced, renamed over `path`, and the directory
    /// is fsynced — a crash at any point leaves either the previous
    /// checkpoint or the new one, never a torn file.
    ///
    /// Returns every event published up to the checkpoint (the service
    /// sink is drained once the file is written); the caller owns
    /// delivering them. On an error nothing is drained: the events stay
    /// for the next [`drain`](MultiStreamDpd::drain). The service keeps
    /// running — checkpointing is a read-only barrier, not a shutdown.
    pub fn checkpoint(
        &mut self,
        path: impl AsRef<Path>,
        marker: EpochMarker,
    ) -> Result<Vec<MultiStreamEvent>, CheckpointError> {
        let entries = self.barrier(Cmd::Snapshot);
        let mut w = SnapshotWriter::envelope(TAG_SERVICE);
        w.u64(self.spec.shards as u64);
        w.u64(self.spec.sweep_every);
        w.u64(self.ingested);
        w.u64(entries.len() as u64);
        for (bytes, clock) in &entries {
            w.bytes(bytes);
            w.u64(*clock);
            // The sweep phase is frontend state, identical for every
            // shard; stored per entry for format stability.
            w.u64(self.since_sweep);
        }
        write_checkpoint_file(path.as_ref(), &w.into_bytes(), marker)?;
        Ok(self.drain())
    }

    /// Rebuild a service from a checkpoint file written by
    /// [`MultiStreamDpd::checkpoint`].
    ///
    /// The `builder` must describe the same service that took the
    /// checkpoint (shard count, sweep interval, and per-stream table
    /// configuration are all validated —
    /// [`CheckpointError::ConfigMismatch`] otherwise). The file is scanned
    /// with the pile crash-recovery policy, so a torn tail from a crash
    /// mid-write of a *later* append is ignored; the last intact
    /// checkpoint frame wins. Returns the service plus the epoch marker
    /// identifying where ingestion should restart. The resumed service
    /// continues the original event stream bit-identically: replaying the
    /// post-checkpoint suffix of the input yields exactly the events an
    /// uninterrupted run would have emitted.
    pub fn resume(
        builder: &DpdBuilder,
        path: impl AsRef<Path>,
    ) -> Result<(Self, EpochMarker), CheckpointError> {
        MultiStreamDpd::resume_observed(builder, path, ServiceObs::default())
    }

    /// [`MultiStreamDpd::resume`] with explicit observability wiring.
    /// The restored rollups are published as each shard's core is built,
    /// so a scrape right after resume already reflects the checkpointed
    /// streams.
    pub fn resume_observed(
        builder: &DpdBuilder,
        path: impl AsRef<Path>,
        obs: ServiceObs,
    ) -> Result<(Self, EpochMarker), CheckpointError> {
        let spec = builder.service_spec()?;
        let data = fs::read(path)?;
        let rec = recover(&data);
        let mut payload: Option<&[u8]> = None;
        for frame in &rec.frames {
            if let PileFrame::Checkpoint(p) = frame {
                payload = Some(p);
            }
        }
        let payload = payload.ok_or(CheckpointError::NoCheckpoint)?;
        let marker = rec.last_epoch.unwrap_or(EpochMarker {
            wave: 0,
            samples: 0,
            ordinal: 0,
        });

        let mut r = SnapshotReader::envelope(payload, TAG_SERVICE)?;
        if r.u64()? as usize != spec.shards {
            return Err(CheckpointError::ConfigMismatch {
                what: "shard count",
            });
        }
        if r.u64()? != spec.sweep_every {
            return Err(CheckpointError::ConfigMismatch {
                what: "sweep interval",
            });
        }
        let ingested = r.u64()?;
        let n = r.count(4096, "implausible shard-state count")?;
        if n != spec.shards.max(1) {
            return Err(CheckpointError::Snapshot(SnapshotError::Malformed {
                what: "shard-state count disagrees with the shard count",
            }));
        }
        let mut tables = Vec::with_capacity(n);
        let mut since_sweep = 0;
        for _ in 0..n {
            let bytes = r.bytes()?;
            let clock = r.u64()?;
            // Every entry stores the frontend's sweep phase; take the max
            // so checkpoints from older per-shard-scheduled builds resume
            // on a valid (if phase-shifted) cadence.
            since_sweep = since_sweep.max(r.u64()?);
            tables.push((ShardCore::restore_table(bytes, &spec)?, clock));
        }
        r.finish()?;
        Ok((
            MultiStreamDpd::start(spec, tables, ingested, since_sweep, obs),
            marker,
        ))
    }
}

/// Write `payload` + `marker` as a fresh single-checkpoint pile at `path`,
/// atomically: build `<path>.tmp`, fsync it, rename over `path`, fsync
/// the containing directory.
fn write_checkpoint_file(
    path: &Path,
    payload: &[u8],
    marker: EpochMarker,
) -> Result<(), CheckpointError> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let mut w = PileWriter::new(File::create(&tmp)?)?;
    w.checkpoint(payload)?;
    w.epoch(marker)?;
    let file = w.into_inner()?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

impl Drop for MultiStreamDpd {
    fn drop(&mut self) {
        if let Shards::Workers {
            queues, workers, ..
        } = &mut self.shards
        {
            for queue in queues.iter() {
                queue.close(); // the worker drains it, then stops
            }
            for w in workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

/// Spawn the worker thread that drives `core` from its command queue.
fn spawn_worker(mut core: ShardCore) -> (Arc<Fifo<Cmd>>, JoinHandle<()>) {
    let queue = Arc::new(Fifo::<Cmd>::new());
    let commands = Arc::clone(&queue);
    let worker = std::thread::Builder::new()
        .name(format!("dpd-shard-{}", core.shard))
        .spawn(move || {
            commands.consume(|cmd| {
                let (queued, batch) = (cmd.queued(), matches!(cmd, Cmd::Batches(_)));
                core.apply(cmd);
                if queued {
                    core.metrics.queue_depth.sub(1);
                }
                if batch {
                    core.metrics.batches.inc();
                }
            })
        })
        .expect("failed to spawn shard worker");
    (queue, worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpd_core::streaming::SegmentEvent;

    fn svc_with_window(shards: usize, n: usize) -> MultiStreamDpd {
        MultiStreamDpd::from_builder(&DpdBuilder::new().window(n).shards(shards)).unwrap()
    }

    fn svc_with_eviction(shards: usize, n: usize, evict_after: u64) -> MultiStreamDpd {
        MultiStreamDpd::from_builder(
            &DpdBuilder::new()
                .window(n)
                .evict_after(evict_after)
                .shards(shards),
        )
        .unwrap()
    }

    fn svc_with_forecast(shards: usize, n: usize, h: usize) -> MultiStreamDpd {
        MultiStreamDpd::from_builder(&DpdBuilder::new().window(n).forecast(h).shards(shards))
            .unwrap()
    }

    fn periodic(period: u64, start: u64, len: usize) -> Vec<i64> {
        (0..len as u64)
            .map(|i| ((start + i) % period) as i64)
            .collect()
    }

    /// Round-robin workload: `streams` streams, stream `s` has period
    /// `s % 7 + 2`, delivered as `rounds` rounds of `chunk`-sample records.
    fn drive(svc: &mut MultiStreamDpd, streams: u64, chunk: usize, rounds: u64) {
        for r in 0..rounds {
            let owned: Vec<(StreamId, Vec<i64>)> = (0..streams)
                .map(|s| (StreamId(s), periodic(s % 7 + 2, r * chunk as u64, chunk)))
                .collect();
            let records: Vec<(StreamId, &[i64])> =
                owned.iter().map(|(s, v)| (*s, v.as_slice())).collect();
            svc.ingest(&records);
        }
    }

    fn by_stream(
        events: &[MultiStreamEvent],
    ) -> std::collections::BTreeMap<u64, Vec<MultiStreamEvent>> {
        let mut m: std::collections::BTreeMap<u64, Vec<MultiStreamEvent>> = Default::default();
        for &e in events {
            m.entry(e.stream().0).or_default().push(e);
        }
        m
    }

    #[test]
    fn sharded_matches_inline_reference() {
        let mut reference = svc_with_window(0, 8);
        drive(&mut reference, 20, 6, 15);
        let (ref_events, ref_snap) = reference.finish();

        for shards in [1usize, 2, 4, 7] {
            let mut svc = svc_with_window(shards, 8);
            drive(&mut svc, 20, 6, 15);
            let (events, snap) = svc.finish();
            assert_eq!(
                by_stream(&events),
                by_stream(&ref_events),
                "shards={shards}"
            );
            assert_eq!(snap.total().samples, ref_snap.total().samples);
            assert_eq!(snap.total().events, ref_snap.total().events);
            assert_eq!(snap.shards.len(), shards);
        }
    }

    #[test]
    fn eviction_equivalence_with_sweeps() {
        // Idle gaps larger than the watermark + periodic sweeps in the
        // sharded workers: per-stream events still match the reference.
        let run = |shards: usize| {
            let mut svc = svc_with_eviction(shards, 8, 40);
            // Stream 0 locks, goes idle past the watermark, comes back.
            svc.push(StreamId(0), &periodic(3, 0, 30));
            svc.push(StreamId(1), &periodic(4, 0, 120));
            svc.push(StreamId(0), &periodic(3, 30, 30));
            svc.push(StreamId(2), &periodic(5, 0, 200));
            svc.finish()
        };
        let (ref_events, _) = run(0);
        for shards in [1usize, 3, 4] {
            let (events, _) = run(shards);
            assert_eq!(
                by_stream(&events),
                by_stream(&ref_events),
                "shards={shards}"
            );
        }
        // The reference itself observed the eviction.
        assert!(ref_events.iter().any(|e| matches!(
            e,
            MultiStreamEvent::Segment {
                stream: StreamId(0),
                event: SegmentEvent::PeriodStart { .. }
            }
        )));
    }

    #[test]
    fn close_flushes_final_state() {
        for shards in [0usize, 2] {
            let mut svc = svc_with_window(shards, 8);
            svc.push(StreamId(5), &periodic(4, 0, 40));
            svc.close(StreamId(5));
            svc.close(StreamId(99)); // unknown: silent no-op
            svc.flush();
            let events = svc.drain();
            assert!(
                events.contains(&MultiStreamEvent::Closed {
                    stream: StreamId(5),
                    samples: 40,
                    period: Some(4),
                }),
                "shards={shards}: {events:?}"
            );
        }
    }

    #[test]
    fn flush_quiesces_queues() {
        let mut svc = svc_with_window(3, 8);
        drive(&mut svc, 30, 8, 10);
        svc.flush();
        let snap = svc.snapshot();
        assert_eq!(snap.total().samples, 30 * 8 * 10);
        assert_eq!(snap.total().streams, 30);
        let page = dpd_obs::parse_exposition(&svc.registry().render()).unwrap();
        assert_eq!(page.sum_family("dpd_shard_queue_depth"), 0.0);
        assert!(page.sum_family("dpd_shard_batches_total") > 0.0);
        drop(svc);
    }

    /// Each [`TableStats`] field with the metric family it is published
    /// under.
    fn fields(s: &TableStats) -> [(&'static str, u64); 14] {
        [
            ("dpd_shard_streams", s.streams),
            ("dpd_shard_streams_cold", s.cold),
            ("dpd_shard_created_total", s.created),
            ("dpd_shard_samples_total", s.samples),
            ("dpd_shard_events_total", s.events),
            ("dpd_shard_evicted_total", s.evicted),
            ("dpd_shard_closed_total", s.closed),
            ("dpd_shard_demoted_total", s.demoted),
            ("dpd_shard_promoted_total", s.promoted),
            ("dpd_shard_forecast_checked_total", s.forecast_checked),
            ("dpd_shard_forecast_hits_total", s.forecast_hits),
            (
                "dpd_shard_forecast_invalidations_total",
                s.forecast_invalidations,
            ),
            ("dpd_shard_query_enters_total", s.query_enters),
            ("dpd_shard_query_exits_total", s.query_exits),
        ]
    }

    /// Every field of each typed per-shard snapshot is the scraped series
    /// of the same name, so a swapped or missing registration cannot hide
    /// behind the proptests (which compare typed views only).
    #[test]
    fn snapshot_fields_are_the_scraped_series() {
        for shards in [0usize, 2] {
            let mut svc = MultiStreamDpd::from_builder(
                &DpdBuilder::new()
                    .window(8)
                    .forecast(2)
                    .evict_after(60)
                    .cold_summary(60)
                    .sweep_every(24)
                    .standing_query(QuerySpec::PeriodInRange { lo: 2, hi: 4 })
                    .shards(shards),
            )
            .unwrap();
            drive(&mut svc, 8, 6, 10);
            // Streams 6 and 7 fall silent first and end past the cold
            // retention (evicted); 4 and 5 fall silent later and end past
            // the watermark only (demoted to cold). Stream 1 changes phase
            // (forecast invalidated).
            for (r, live) in [(10u64, 6u64), (11, 6), (12, 6), (13, 4), (14, 4), (15, 4)] {
                let owned: Vec<(StreamId, Vec<i64>)> = (0..live)
                    .map(|s| {
                        let period = if s == 1 && r >= 13 { 5 } else { s % 7 + 2 };
                        (StreamId(s), periodic(period, r * 6, 6))
                    })
                    .collect();
                let records: Vec<(StreamId, &[i64])> =
                    owned.iter().map(|(s, v)| (*s, v.as_slice())).collect();
                svc.ingest(&records);
            }
            // Stream 4 returns from cold (promoted); stream 0 is closed.
            svc.push(StreamId(4), &periodic(6, 96, 12));
            svc.close(StreamId(0));
            svc.flush();
            let page = dpd_obs::parse_exposition(&svc.registry().render()).unwrap();
            let snap = svc.snapshot();
            for (k, s) in snap.shards.iter().enumerate() {
                for (family, value) in fields(s) {
                    let series = format!("{family}{{shard=\"{k}\"}}");
                    assert_eq!(
                        page.get(&series),
                        Some(value as f64),
                        "shards={shards}: {series}"
                    );
                }
            }
            // The workload moves every rollup off zero.
            for (family, value) in fields(&snap.total()) {
                assert!(value > 0, "shards={shards}: {family} stayed 0");
            }
        }
    }

    #[test]
    fn drain_mid_run_preserves_per_stream_order() {
        let mut svc = svc_with_window(4, 8);
        let mut collected = Vec::new();
        for r in 0..12u64 {
            drive(&mut svc, 10, 6, 1);
            // Interleave drains with ingestion; ordering per stream must
            // still be position-monotonic.
            if r % 3 == 0 {
                svc.flush();
                collected.extend(svc.drain());
            }
        }
        let (tail, _) = svc.finish();
        collected.extend(tail);
        for (stream, events) in by_stream(&collected) {
            let positions: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    MultiStreamEvent::Segment {
                        event:
                            SegmentEvent::PeriodStart { position, .. }
                            | SegmentEvent::PeriodLost { position, .. },
                        ..
                    } => Some(*position),
                    _ => None,
                })
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "stream {stream}: positions not monotonic: {positions:?}"
            );
        }
    }

    #[test]
    fn inline_snapshot_reports_single_shard() {
        let mut svc = svc_with_window(0, 8);
        svc.push(StreamId(1), &periodic(3, 0, 30));
        let snap = svc.snapshot();
        assert_eq!(snap.shards.len(), 1);
        assert_eq!(snap.total().samples, 30);
        assert_eq!(snap.total().streams, 1);
    }

    #[test]
    fn finish_closes_every_live_stream() {
        let mut svc = svc_with_window(2, 8);
        drive(&mut svc, 9, 6, 10);
        let (events, snap) = svc.finish();
        let closed: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                MultiStreamEvent::Closed { stream, .. } => Some(stream.0),
                _ => None,
            })
            .collect();
        assert_eq!(closed.len(), 9);
        assert_eq!(snap.total().closed, 9);
        assert_eq!(snap.total().streams, 0);
    }

    #[test]
    fn forecasting_rollups_match_inline_reference() {
        let run = |shards: usize| {
            let mut svc = svc_with_forecast(shards, 8, 2);
            drive(&mut svc, 12, 6, 20);
            let (_, snap) = svc.finish();
            snap.total()
        };
        let reference = run(0);
        assert!(reference.forecast_checked > 0);
        assert_eq!(
            reference.forecast_hit_rate(),
            Some(1.0),
            "exact periodic corpus must forecast perfectly"
        );
        for shards in [1usize, 3] {
            let t = run(shards);
            assert_eq!(
                t.forecast_checked, reference.forecast_checked,
                "shards={shards}"
            );
            assert_eq!(t.forecast_hits, reference.forecast_hits, "shards={shards}");
        }
    }

    #[test]
    fn non_forecasting_service_reports_zero() {
        let mut svc = svc_with_window(0, 8);
        svc.push(StreamId(1), &periodic(3, 0, 40));
        let (_, snap) = svc.finish();
        assert_eq!(snap.total().forecast_checked, 0);
        assert_eq!(snap.total().forecast_hit_rate(), None);
    }

    #[test]
    fn empty_service_finishes_clean() {
        let svc = svc_with_window(3, 8);
        let (events, snap) = svc.finish();
        assert!(events.is_empty());
        assert_eq!(snap.total().samples, 0);
    }

    /// Unique checkpoint path in a fresh temp directory.
    fn ckpt_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dpd-svc-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("state.snap")
    }

    fn marker(wave: u64, samples: u64, ordinal: u64) -> EpochMarker {
        EpochMarker {
            wave,
            samples,
            ordinal,
        }
    }

    /// Checkpoint mid-run, resume, continue: the combined event stream is
    /// bit-identical to an uninterrupted run, in both modes, including
    /// forecasting rollups and idle-stream eviction.
    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
        for shards in [0usize, 3] {
            let builder = DpdBuilder::new()
                .window(8)
                .forecast(2)
                .evict_after(200)
                .shards(shards);

            let mut oracle = MultiStreamDpd::from_builder(&builder).unwrap();
            drive(&mut oracle, 12, 6, 30);
            let (oracle_events, oracle_snap) = oracle.finish();

            let path = ckpt_path(&format!("roundtrip-{shards}"));
            let mut first = MultiStreamDpd::from_builder(&builder).unwrap();
            drive(&mut first, 12, 6, 13);
            let mut events = first
                .checkpoint(&path, marker(13, first.samples_ingested(), 1))
                .unwrap();
            drop(first); // the "crash": the first process goes away

            let (mut resumed, m) = MultiStreamDpd::resume(&builder, &path).unwrap();
            assert_eq!(m.wave, 13);
            assert_eq!(m.ordinal, 1);
            assert_eq!(resumed.samples_ingested(), m.samples);
            // Replay the suffix the oracle saw after wave 13.
            for r in 13..30u64 {
                let owned: Vec<(StreamId, Vec<i64>)> = (0..12u64)
                    .map(|s| (StreamId(s), periodic(s % 7 + 2, r * 6, 6)))
                    .collect();
                let records: Vec<(StreamId, &[i64])> =
                    owned.iter().map(|(s, v)| (*s, v.as_slice())).collect();
                resumed.ingest(&records);
            }
            let (tail, snap) = resumed.finish();
            events.extend(tail);

            assert_eq!(
                by_stream(&events),
                by_stream(&oracle_events),
                "shards={shards}"
            );
            assert_eq!(snap.total().samples, oracle_snap.total().samples);
            assert_eq!(snap.total().events, oracle_snap.total().events);
            assert_eq!(
                snap.total().forecast_checked,
                oracle_snap.total().forecast_checked
            );
            assert_eq!(
                snap.total().forecast_hits,
                oracle_snap.total().forecast_hits
            );
        }
    }

    /// The service keeps running after a checkpoint (read-only barrier),
    /// and a restored sharded service reports its streams in `snapshot`
    /// before any new record arrives.
    #[test]
    fn checkpoint_is_nondestructive_and_resume_publishes_rollups() {
        let path = ckpt_path("live");
        let builder = DpdBuilder::new().window(8).shards(2);
        let mut svc = MultiStreamDpd::from_builder(&builder).unwrap();
        drive(&mut svc, 6, 6, 10);
        let before = svc
            .checkpoint(&path, marker(10, svc.samples_ingested(), 1))
            .unwrap();
        assert!(!before.is_empty());
        drive(&mut svc, 6, 6, 5); // keeps ingesting fine
        let (_, snap) = svc.finish();
        assert_eq!(snap.total().samples, 6 * 6 * 15);

        let (mut resumed, _) = MultiStreamDpd::resume(&builder, &path).unwrap();
        resumed.flush();
        let snap = resumed.snapshot();
        assert_eq!(snap.total().streams, 6);
        assert_eq!(snap.total().samples, 6 * 6 * 10);
        drop(resumed);
    }

    /// A checkpoint whose write fails drains nothing: the events published
    /// up to its barrier are still there for the next `drain`.
    #[test]
    fn failed_checkpoint_keeps_the_events() {
        for shards in [0usize, 2] {
            let mut svc = svc_with_window(shards, 8);
            drive(&mut svc, 6, 6, 10);
            let path = ckpt_path(&format!("unwritable-{shards}")).join("missing/state.snap");
            assert!(svc
                .checkpoint(&path, marker(10, svc.samples_ingested(), 1))
                .is_err());
            let events = svc.drain();
            assert!(!events.is_empty(), "shards={shards}: events lost");
            assert_eq!(
                events.len() as u64,
                svc.snapshot().total().events,
                "shards={shards}"
            );
        }
    }

    /// Overwriting a checkpoint is atomic: the second file fully replaces
    /// the first and resumes from the later state.
    #[test]
    fn checkpoint_overwrite_resumes_from_latest() {
        let path = ckpt_path("overwrite");
        let builder = DpdBuilder::new().window(8).shards(0);
        let mut svc = MultiStreamDpd::from_builder(&builder).unwrap();
        drive(&mut svc, 4, 6, 5);
        svc.checkpoint(&path, marker(5, svc.samples_ingested(), 1))
            .unwrap();
        drive(&mut svc, 4, 6, 5);
        svc.checkpoint(&path, marker(10, svc.samples_ingested(), 2))
            .unwrap();

        let (resumed, m) = MultiStreamDpd::resume(&builder, &path).unwrap();
        assert_eq!(m.ordinal, 2);
        assert_eq!(resumed.samples_ingested(), 4 * 6 * 10);
    }

    #[test]
    fn resume_rejects_mismatched_builder() {
        let path = ckpt_path("mismatch");
        let builder = DpdBuilder::new().window(8).shards(2);
        let mut svc = MultiStreamDpd::from_builder(&builder).unwrap();
        drive(&mut svc, 4, 6, 5);
        svc.checkpoint(&path, marker(5, svc.samples_ingested(), 1))
            .unwrap();
        drop(svc);

        let wrong_shards = DpdBuilder::new().window(8).shards(3);
        assert!(matches!(
            MultiStreamDpd::resume(&wrong_shards, &path),
            Err(CheckpointError::ConfigMismatch {
                what: "shard count"
            })
        ));
        let wrong_window = DpdBuilder::new().window(16).shards(2);
        assert!(matches!(
            MultiStreamDpd::resume(&wrong_window, &path),
            Err(CheckpointError::ConfigMismatch {
                what: "table configuration"
            })
        ));
    }

    #[test]
    fn resume_surfaces_missing_and_empty_files() {
        let path = ckpt_path("absent");
        let builder = DpdBuilder::new().window(8).shards(0);
        assert!(matches!(
            MultiStreamDpd::resume(&builder, &path),
            Err(CheckpointError::Io(_))
        ));
        std::fs::write(&path, b"not a pile at all").unwrap();
        assert!(matches!(
            MultiStreamDpd::resume(&builder, &path),
            Err(CheckpointError::NoCheckpoint)
        ));
    }

    /// A delta key that is stable across shard interleavings: per-stream
    /// order is preserved by shard ownership, so sorting by
    /// `(seq, query, stream, change)` canonicalizes the merged log.
    fn delta_key(d: &QueryDelta) -> (u64, u32, u64, bool) {
        (
            d.seq,
            d.query.0,
            d.stream.0,
            d.change == dpd_core::query::QueryChange::Exit,
        )
    }

    /// Per-stream standing queries evaluate per shard and the merged
    /// delta log is permutation-identical to the inline reference; the
    /// final close wave exits every membership.
    #[test]
    fn sharded_query_deltas_match_inline_reference() {
        let build = |shards: usize| {
            MultiStreamDpd::from_builder(
                &DpdBuilder::new()
                    .window(8)
                    .standing_query(QuerySpec::PeriodInRange { lo: 2, hi: 4 })
                    .standing_query(QuerySpec::LockLostWithin { window: 50 })
                    .shards(shards),
            )
            .unwrap()
        };
        let mut reference = build(0);
        drive(&mut reference, 10, 6, 12);
        let (_, mut ref_deltas, ref_snap) = reference.finish_with_deltas();
        ref_deltas.sort_by_key(delta_key);
        assert!(!ref_deltas.is_empty());
        let enters = ref_deltas
            .iter()
            .filter(|d| d.change == dpd_core::query::QueryChange::Enter)
            .count();
        let exits = ref_deltas.len() - enters;
        assert_eq!(ref_snap.total().query_enters, enters as u64);
        assert_eq!(ref_snap.total().query_exits, exits as u64);
        // Every membership exits by the end of the close wave.
        assert_eq!(enters, exits);

        for shards in [1usize, 2, 4] {
            let mut svc = build(shards);
            assert_eq!(svc.query_specs().len(), 2);
            drive(&mut svc, 10, 6, 12);
            let (_, mut deltas, snap) = svc.finish_with_deltas();
            deltas.sort_by_key(delta_key);
            assert_eq!(deltas, ref_deltas, "shards={shards}");
            assert_eq!(snap.total().query_enters, ref_snap.total().query_enters);
            assert_eq!(snap.total().query_exits, ref_snap.total().query_exits);
        }
    }

    /// Join queries are partition-local: a single partition (`shards(1)`)
    /// matches the inline reference exactly, and the join does fire on
    /// the equal-period stream pairs of the workload.
    #[test]
    fn join_queries_are_partition_local() {
        let build = |shards: usize| {
            MultiStreamDpd::from_builder(
                &DpdBuilder::new()
                    .window(8)
                    .standing_query(QuerySpec::PeriodJoin { tolerance: 0 })
                    .shards(shards),
            )
            .unwrap()
        };
        let mut reference = build(0);
        drive(&mut reference, 10, 6, 12);
        let (_, mut ref_deltas, _) = reference.finish_with_deltas();
        ref_deltas.sort_by_key(delta_key);
        // Streams s and s+7 share period s%7+2: the join must fire.
        assert!(ref_deltas
            .iter()
            .any(|d| d.change == dpd_core::query::QueryChange::Enter));

        let mut svc = build(1);
        drive(&mut svc, 10, 6, 12);
        let (_, mut deltas, _) = svc.finish_with_deltas();
        deltas.sort_by_key(delta_key);
        assert_eq!(deltas, ref_deltas);
    }

    /// `drain_query_deltas` mid-run drains incrementally (no duplicates,
    /// no losses) and a checkpoint/resume continues the delta stream.
    #[test]
    fn query_deltas_survive_checkpoint_resume() {
        let builder = DpdBuilder::new()
            .window(8)
            .standing_query(QuerySpec::PeriodInRange { lo: 2, hi: 8 })
            .shards(2);

        let mut oracle = MultiStreamDpd::from_builder(&builder).unwrap();
        drive(&mut oracle, 8, 6, 20);
        let (_, mut oracle_deltas, _) = oracle.finish_with_deltas();
        oracle_deltas.sort_by_key(delta_key);

        let path = ckpt_path("query-resume");
        let mut first = MultiStreamDpd::from_builder(&builder).unwrap();
        drive(&mut first, 8, 6, 9);
        first
            .checkpoint(&path, marker(9, first.samples_ingested(), 1))
            .unwrap();
        let mut deltas = first.drain_query_deltas();
        drop(first);

        let (mut resumed, _) = MultiStreamDpd::resume(&builder, &path).unwrap();
        // Replay the suffix the oracle saw after wave 9.
        for r in 9..20u64 {
            let owned: Vec<(StreamId, Vec<i64>)> = (0..8u64)
                .map(|s| (StreamId(s), periodic(s % 7 + 2, r * 6, 6)))
                .collect();
            let records: Vec<(StreamId, &[i64])> =
                owned.iter().map(|(s, v)| (*s, v.as_slice())).collect();
            resumed.ingest(&records);
        }
        let (_, tail, _) = resumed.finish_with_deltas();
        deltas.extend(tail);
        deltas.sort_by_key(delta_key);
        assert_eq!(deltas, oracle_deltas);
    }

    /// Resuming under a builder whose standing queries differ from the
    /// checkpoint is a typed configuration mismatch.
    #[test]
    fn resume_rejects_mismatched_queries() {
        let path = ckpt_path("query-mismatch");
        let builder = DpdBuilder::new()
            .window(8)
            .standing_query(QuerySpec::PeriodInRange { lo: 2, hi: 4 })
            .shards(2);
        let mut svc = MultiStreamDpd::from_builder(&builder).unwrap();
        drive(&mut svc, 4, 6, 5);
        svc.checkpoint(&path, marker(5, svc.samples_ingested(), 1))
            .unwrap();
        drop(svc);

        let wrong = DpdBuilder::new()
            .window(8)
            .standing_query(QuerySpec::PeriodInRange { lo: 2, hi: 5 })
            .shards(2);
        assert!(matches!(
            MultiStreamDpd::resume(&wrong, &path),
            Err(CheckpointError::ConfigMismatch {
                what: "standing queries"
            })
        ));
    }

    /// A one-shard service whose worker panics at its first stream: the
    /// table's window-0 detector passes construction and fails the first
    /// time a stream needs one.
    fn svc_with_failing_worker() -> MultiStreamDpd {
        let spec = DpdBuilder::new()
            .window(8)
            .shards(1)
            .service_spec()
            .unwrap();
        let mut broken = spec.table;
        broken.detector.window = 0;
        let tables = vec![(StreamTable::new(broken), 0)];
        MultiStreamDpd::start(spec, tables, 0, 0, ServiceObs::default())
    }

    #[test]
    #[should_panic(expected = "shard worker exited early")]
    fn routing_to_a_dead_worker_panics() {
        let mut svc = svc_with_failing_worker();
        svc.push(StreamId(1), &[1, 2, 3]);
        if let Shards::Workers { workers, .. } = &mut svc.shards {
            let worker = workers.pop().unwrap();
            assert!(
                worker.join().is_err(),
                "the broken table left its worker alive"
            );
        }
        svc.push(StreamId(1), &[4]);
    }

    /// A flush queued behind the command that kills the worker fails
    /// instead of waiting forever for an ack nobody will send (when the
    /// worker is already gone, routing the flush fails instead).
    #[test]
    fn a_barrier_behind_a_dying_worker_fails() {
        let mut svc = svc_with_failing_worker();
        let (done, outcome) = mpsc::channel();
        let flusher = std::thread::spawn(move || {
            let flushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                svc.push(StreamId(1), &[1, 2, 3]);
                svc.flush();
            }));
            let _ = done.send(flushed.is_ok());
        });
        let acked = outcome
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the barrier blocked");
        assert!(!acked, "a dead worker acked a barrier");
        flusher.join().unwrap();
    }

    /// Every `CheckpointError` variant renders a lowercase, period-free
    /// message; wrapping variants expose their cause through `source()`.
    #[test]
    fn every_checkpoint_error_variant_renders() {
        let variants = vec![
            CheckpointError::Io(std::io::Error::from(std::io::ErrorKind::NotFound)),
            CheckpointError::Pile(PileError::Truncated { offset: 7 }),
            CheckpointError::Snapshot(SnapshotError::Truncated),
            CheckpointError::Build(BuildError::ShardsRequired),
            CheckpointError::NoCheckpoint,
            CheckpointError::ConfigMismatch {
                what: "shard count",
            },
        ];
        for v in variants {
            let msg = v.to_string();
            assert!(!msg.is_empty(), "{v:?} renders empty");
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "{v:?} message must start lowercase: {msg:?}"
            );
            assert!(!msg.ends_with('.'), "{v:?} message ends with a period");
            let err: &dyn std::error::Error = &v;
            assert_eq!(
                err.source().is_some(),
                matches!(
                    v,
                    CheckpointError::Io(_)
                        | CheckpointError::Pile(_)
                        | CheckpointError::Snapshot(_)
                        | CheckpointError::Build(_)
                ),
                "{v:?} source() disagrees with its wrapping shape"
            );
        }
    }
}
