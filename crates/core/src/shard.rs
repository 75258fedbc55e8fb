//! Multi-stream detection: keyed stream tables and shard routing.
//!
//! The paper's detector analyzes one instrumented stream; a production
//! deployment serves *many* concurrent traces — one per user session, per
//! instrumented loop nest, per monitored process. This module provides the
//! deterministic single-threaded substrate for that scale-out:
//!
//! * [`StreamId`] — an opaque 64-bit stream key,
//! * [`StreamHandle`] — a compact generational handle naming one resident
//!   stream; the cheap key of the handle-first accessor API,
//! * [`shard_of`] — the stable hash route `StreamId -> shard index` used by
//!   the sharded service in `par-runtime`,
//! * [`StreamTable`] — a keyed slab of independent [`StreamingDpd`]
//!   detectors with lazy stream creation, tiered idle eviction by a
//!   sample-count watermark, an optional byte-accounted memory budget, and
//!   explicit close with a final segmentation flush.
//!
//! # Storage layout
//!
//! The table is a two-level store built for millions of resident streams:
//!
//! ```text
//!   StreamId (u64) ──splitmix64──▶ interning index ──▶ slot (u24) + gen (u8)
//!                                  (open-addressed,          │
//!                                   backshift deletion)      ▼
//!   slab:   slots[slot]  = Free | Hot(Box<detector+predictor>) | Cold(summary)
//!   strips: id[slot], last_seq[slot], tier[slot], gen[slot],
//!           samples[slot], boundaries[slot], checked[slot], hits[slot]
//! ```
//!
//! The *strips* are parallel struct-of-arrays columns holding exactly the
//! fields the sweep and stats paths touch (the watermark clock, the tier
//! byte, lifetime rollup counters), so walking a million idle streams never
//! dereferences a boxed detector. Freed slots go on a free list and are
//! reused; each reuse bumps the slot's generation so stale
//! [`StreamHandle`]s are detectably invalid rather than silently aliased.
//!
//! # Eviction tiers
//!
//! With a cold retention window configured
//! ([`TableConfig::cold_retain`] > 0), an idle stream decays in two steps
//! instead of one: past the hot watermark its boxed detector state is
//! dropped and replaced by a compact [`StreamSummary`]-backed cold record
//! (period, confidence; the lifetime rollups stay in the strips); past
//! `evict_after + cold_retain` the summary goes too. The tier a stream is
//! in is a pure function of its idle gap, so lazy transitions at
//! ingest/close time are observably identical to eager transitions in
//! [`StreamTable::sweep`] — sweeps remain schedulable without affecting
//! determinism. With `cold_retain == 0` eviction is the original binary
//! hot→gone behavior, bit-identical to previous releases.
//!
//! A byte budget ([`TableConfig::memory_budget`]) additionally bounds
//! resident memory: creating or re-promoting a hot stream first demotes
//! (or, without a cold tier, evicts) victims chosen by a clock hand walking
//! the slab until the newcomer fits. The hand is process-local scratch —
//! budget-driven victim order is deterministic for a fixed op sequence on
//! one table but, unlike watermark tiering, not partition-invariant.
//!
//! A sharded deployment runs one `StreamTable` per shard and routes batches
//! by `shard_of`; a deterministic fallback runs a single table over the same
//! batch sequence. Both produce **identical per-stream event sequences**
//! because every watermark decision a table makes about a stream depends
//! only on that stream's own samples and on the global sample clock (`seq`)
//! carried with each batch — never on which other streams happen to share
//! the table.

use crate::predict::{Forecast, ForecastStats, PredictConfig, Predictor};
use crate::query::{QueryDelta, QueryEngine, QuerySpec};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::streaming::{SegmentEvent, StreamStats, StreamingConfig, StreamingDpd};
use crate::EventMetric;

/// Opaque identifier of one logical input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// The splitmix64 finalizer: scrambles low-entropy keys (sequential ids,
/// aligned addresses) into uniform 64-bit hashes. Shared by [`shard_of`]
/// and the table's interning index, so a stream's shard route and its
/// in-shard probe sequence derive from one well-studied mix.
#[inline]
fn splitmix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stable shard route for a stream: `splitmix64(id) % shards`.
///
/// The finalizer scrambles low-entropy keys (sequential ids, aligned
/// addresses) so consecutive streams spread across shards instead of
/// clustering on `id % shards` residues.
///
/// # Panics
/// Panics when `shards == 0` — a zero-shard service has no routing.
pub fn shard_of(stream: StreamId, shards: usize) -> usize {
    assert!(shards > 0, "shard_of requires at least one shard");
    (splitmix64(stream.0) % shards as u64) as usize
}

/// Configuration of a [`StreamTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableConfig {
    /// Detector configuration applied to every stream.
    pub detector: StreamingConfig,
    /// Idle-eviction watermark, in global samples: a stream whose last
    /// sample is more than this many samples of total traffic in the past
    /// leaves the hot tier (its detector state discarded). `0` disables
    /// watermark eviction.
    pub evict_after: u64,
    /// Opt-in per-stream forecasting: horizon `H` of the [`Predictor`]
    /// attached to every stream (scoring the `H`-step-ahead prediction at
    /// each sample). `0` disables forecasting.
    pub forecast_horizon: usize,
    /// Byte budget for resident per-stream state, measured by the table's
    /// own accounting ([`StreamTable::accounted_bytes`]). When creating or
    /// re-promoting a hot stream would exceed the budget, victims are
    /// demoted to cold summaries (or evicted outright when
    /// [`TableConfig::cold_retain`] is `0`) until it fits. `0` disables
    /// the budget.
    pub memory_budget: u64,
    /// Cold-summary retention window, in global samples past the hot
    /// watermark: a stream idle for more than `evict_after` keeps a
    /// compact summary for another `cold_retain` samples before it is
    /// fully evicted. `0` disables the cold tier (binary hot→gone
    /// eviction, the pre-tiering behavior).
    pub cold_retain: u64,
}

impl TableConfig {
    /// The predictor configuration for one stream, when forecasting is on.
    fn predict_config(&self) -> Option<PredictConfig> {
        (self.forecast_horizon > 0)
            .then(|| PredictConfig::new(self.detector.window, self.forecast_horizon))
            .transpose()
            .expect("window validated by detector construction")
    }

    /// Accounted bytes of one **hot** resident stream under this config:
    /// the cold-tier base plus the detector's mirrored history, delay
    /// accumulators and (when forecasting) the predictor's ring, pending
    /// queue and scratch. This is the table's own cost model — a stable,
    /// documented estimate of heap use, not a malloc-exact measurement —
    /// and the unit [`TableConfig::memory_budget`] is enforced in.
    pub fn hot_stream_bytes(&self) -> u64 {
        self.cold_stream_bytes() + hot_heap_bytes(self)
    }

    /// Accounted bytes of one **cold** resident stream: the slab slot, its
    /// struct-of-arrays strip columns, and its amortized share of the
    /// interning index.
    pub fn cold_stream_bytes(&self) -> u64 {
        // strip columns: id(8) + last_seq(8) + tier(1) + gen(1) + four
        // lifetime rollup counters (32); index share: (key + slot) at the
        // 3/4 load factor the index grows at.
        let strip = 8 + 8 + 1 + 1 + 32;
        let index = (8 + 4) * 4 / 3;
        (std::mem::size_of::<SlotState>() as u64) + strip + index
    }
}

/// Heap bytes behind one hot slot's `Box`: the detector's mirrored history
/// (`2 * (window + m_max + 64)` samples), its per-delay sums, fixed struct
/// overhead, and the forecaster's ring + pending + scratch when a horizon
/// is configured.
fn hot_heap_bytes(config: &TableConfig) -> u64 {
    let n = config.detector.window as u64;
    let m = config.detector.m_max as u64;
    let history = 2 * (n + m + 64) * 8;
    // 12 B per candidate delay: the 8 B f64 sum plus 4 B of headroom. The
    // budget's eviction mix is tuned against this price; charging 8 B
    // would change which streams a given budget keeps hot.
    let engine = m * 12;
    let fixed = std::mem::size_of::<HotState>() as u64 + 128;
    let predictor = if config.forecast_horizon > 0 {
        let h = config.forecast_horizon as u64;
        n * 8 + h * 24 + 128
    } else {
        0
    };
    history + engine + fixed + predictor
}

/// One observation emitted by a multi-stream detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiStreamEvent {
    /// A segmentation event on one stream.
    Segment {
        /// The stream the event belongs to.
        stream: StreamId,
        /// The underlying detector event (never [`SegmentEvent::None`]).
        event: SegmentEvent,
    },
    /// A stream was explicitly closed; carries the final segmentation
    /// state as the close-time "flush".
    Closed {
        /// The closed stream.
        stream: StreamId,
        /// Samples the stream received over its lifetime.
        samples: u64,
        /// The periodicity locked at close time, if any.
        period: Option<usize>,
    },
}

impl MultiStreamEvent {
    /// The stream this event belongs to.
    pub fn stream(&self) -> StreamId {
        match self {
            MultiStreamEvent::Segment { stream, .. } => *stream,
            MultiStreamEvent::Closed { stream, .. } => *stream,
        }
    }
}

/// Rollup counters of one [`StreamTable`] (one shard's worth of state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Resident streams currently held (hot + cold tiers).
    pub streams: u64,
    /// Resident streams currently in the cold summary tier.
    pub cold: u64,
    /// Streams ever created (lazy creations, including re-creations after
    /// eviction or close).
    pub created: u64,
    /// Total samples ingested.
    pub samples: u64,
    /// Total non-trivial segmentation events emitted.
    pub events: u64,
    /// Streams evicted — fully removed past the watermark(s) or under
    /// budget pressure (swept, reset in place, or dropped at close time).
    pub evicted: u64,
    /// Streams explicitly closed.
    pub closed: u64,
    /// Hot→cold demotions (idle past the hot watermark with a cold tier
    /// configured, or squeezed out by the memory budget).
    pub demoted: u64,
    /// Cold→hot re-promotions (a cold stream received new samples).
    pub promoted: u64,
    /// Forecasts scored against an arrived sample (monotonic: survives
    /// eviction and close of the streams that produced them). `0` unless
    /// [`TableConfig::forecast_horizon`] is set.
    pub forecast_checked: u64,
    /// Scored forecasts that matched exactly.
    pub forecast_hits: u64,
    /// Forecast invalidations across all streams (phase changes; see
    /// [`crate::predict`]).
    pub forecast_invalidations: u64,
    /// Standing-query `Enter` transitions emitted (see [`crate::query`]).
    /// `0` unless queries are attached.
    pub query_enters: u64,
    /// Standing-query `Exit` transitions emitted.
    pub query_exits: u64,
}

impl TableStats {
    /// Exact-match rate of scored forecasts; `None` before any check.
    pub fn forecast_hit_rate(&self) -> Option<f64> {
        (self.forecast_checked > 0)
            .then(|| self.forecast_hits as f64 / self.forecast_checked as f64)
    }
}

// ---------------------------------------------------------------------------
// Handles, tiers and summaries: the handle-first accessor vocabulary.

/// Hard cap on resident streams per table: slot indices are 24 bits.
pub const MAX_RESIDENT_STREAMS: usize = 1 << 24;

/// A compact generational handle naming one **resident** stream of one
/// [`StreamTable`]: the slab slot index in the low 24 bits, the slot's
/// generation tag in the high 8.
///
/// Handles are the cheap tier of the table API: [`StreamTable::resolve`]
/// pays the hash probe once, and every `*_of` accessor afterwards is a
/// bounds-check plus generation compare — no re-hash per call. A handle
/// stays valid across hot↔cold tier moves and across lazy in-place resets
/// of the *same* resident slot, and is invalidated (generation bump) when
/// its stream is closed or fully evicted. Handles are process-local
/// conveniences: they are never serialized, and a restored table assigns
/// fresh ones. The 8-bit generation means a slot must be reused 256 times
/// before a stale handle could alias; treat handles as short-lived keys,
/// not durable names — the durable name is the [`StreamId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamHandle(u32);

impl StreamHandle {
    fn new(slot: usize, generation: u8) -> Self {
        debug_assert!(slot < MAX_RESIDENT_STREAMS);
        StreamHandle(((generation as u32) << 24) | slot as u32)
    }

    /// The slab slot index this handle names.
    pub fn index(self) -> usize {
        (self.0 & 0x00FF_FFFF) as usize
    }

    fn generation(self) -> u8 {
        (self.0 >> 24) as u8
    }
}

impl std::fmt::Display for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "handle#{}@{}", self.index(), self.generation())
    }
}

/// Which residency tier a stream currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamTier {
    /// Full detector (and predictor) state resident; samples apply
    /// directly.
    Hot,
    /// Compact summary only (period, confidence, lifetime rollups); new
    /// samples re-promote the stream with a fresh detector.
    Cold,
}

/// The compact per-stream digest available in every tier (~64 bytes).
///
/// For a hot stream the period/confidence fields are computed live from
/// the resident detector; for a cold stream they are the values frozen at
/// demotion time. The rollup counters are lifetime totals that survive
/// hot→cold→hot round trips (they reset only when the stream is closed or
/// fully evicted and later re-created).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Samples ingested over the stream's resident lifetime.
    pub samples: u64,
    /// Period-start boundaries observed over the resident lifetime.
    pub boundaries: u64,
    /// The period the stream is (hot) or was (cold) locked to, if any.
    pub period: Option<usize>,
    /// Forecast confidence, `0.0` when the table does not forecast.
    pub confidence: f64,
    /// Forecasts scored over the resident lifetime.
    pub forecast_checked: u64,
    /// Scored forecasts that matched exactly.
    pub forecast_hits: u64,
}

// ---------------------------------------------------------------------------
// The interning index: StreamId -> slot, open-addressed, tombstone-free.

const IDX_EMPTY: u32 = u32::MAX;

/// Open-addressed `u64 key -> u32 slot` map with linear probing over a
/// power-of-two capacity, splitmix64-hashed, grown at 3/4 load. Deletion
/// is by backshift (displaced entries slide back toward their home
/// bucket), so the index carries no tombstones and probe lengths never
/// degrade under churn.
#[derive(Debug)]
struct StreamIndex {
    keys: Vec<u64>,
    slots: Vec<u32>,
    len: usize,
}

impl StreamIndex {
    fn new() -> Self {
        StreamIndex::with_pow2_capacity(16)
    }

    fn with_pow2_capacity(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        StreamIndex {
            keys: vec![0; cap],
            slots: vec![IDX_EMPTY; cap],
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn get(&self, key: u64) -> Option<u32> {
        let mask = self.mask();
        let mut i = (splitmix64(key) as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == IDX_EMPTY {
                return None;
            }
            if self.keys[i] == key {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert a key known to be absent.
    fn insert(&mut self, key: u64, slot: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = (splitmix64(key) as usize) & mask;
        while self.slots[i] != IDX_EMPTY {
            debug_assert_ne!(self.keys[i], key, "insert of a present key");
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
        self.len += 1;
    }

    /// Remove a key known to be present, backshifting displaced entries.
    fn remove(&mut self, key: u64) {
        let mask = self.mask();
        let mut i = (splitmix64(key) as usize) & mask;
        loop {
            debug_assert_ne!(self.slots[i], IDX_EMPTY, "remove of an absent key");
            if self.slots[i] != IDX_EMPTY && self.keys[i] == key {
                break;
            }
            if self.slots[i] == IDX_EMPTY {
                return; // release: tolerate an absent key
            }
            i = (i + 1) & mask;
        }
        // Backshift: an entry at j (home h) may fill the hole at i iff i
        // lies on its probe path, i.e. dist(i, j) <= dist(h, j) cyclically.
        let mut j = i;
        loop {
            self.slots[i] = IDX_EMPTY;
            loop {
                j = (j + 1) & mask;
                if self.slots[j] == IDX_EMPTY {
                    self.len -= 1;
                    return;
                }
                let home = (splitmix64(self.keys[j]) as usize) & mask;
                if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                    break;
                }
            }
            self.keys[i] = self.keys[j];
            self.slots[i] = self.slots[j];
            i = j;
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mut keys = vec![0u64; cap];
        let mut slots = vec![IDX_EMPTY; cap];
        let mask = cap - 1;
        for i in 0..self.slots.len() {
            if self.slots[i] == IDX_EMPTY {
                continue;
            }
            let mut j = (splitmix64(self.keys[i]) as usize) & mask;
            while slots[j] != IDX_EMPTY {
                j = (j + 1) & mask;
            }
            keys[j] = self.keys[i];
            slots[j] = self.slots[i];
        }
        self.keys = keys;
        self.slots = slots;
    }
}

// ---------------------------------------------------------------------------
// The slab: boxed hot state or inline cold summaries, plus SoA strips.

const TIER_FREE: u8 = 0;
const TIER_HOT: u8 = 1;
const TIER_COLD: u8 = 2;

/// Full per-stream state of one hot slot (boxed: the slab stays dense and
/// slot moves never copy detector innards).
#[derive(Debug)]
struct HotState {
    dpd: StreamingDpd<i64, EventMetric>,
    /// Per-stream forecaster, present when the table forecasts.
    predictor: Option<Predictor>,
}

impl HotState {
    /// Back to the as-constructed state without touching any allocation —
    /// a pooled `HotState` after `reset_fresh` is observably (and
    /// serialization-byte) identical to [`StreamTable::fresh_hot_state`]'s
    /// freshly built one.
    fn reset_fresh(&mut self) {
        self.dpd.reset_fresh();
        if let Some(p) = self.predictor.as_mut() {
            p.reset_fresh();
        }
    }
}

/// Retired hot states kept for reuse. Bounds the pool's unaccounted
/// memory to `HOT_POOL_CAP * hot_stream_bytes` while keeping the
/// demote-one-admit-one steady state allocation-free: under budget
/// pressure every newly created or promoted stream recycles the detector
/// buffers of a recently demoted victim. Since the pool's allocations
/// are made early (while the heap is small), the resident hot set stays
/// in a dense address range no matter how many streams have churned
/// through — which is what keeps per-push cost flat from 10⁴ to 10⁶
/// resident streams.
const HOT_POOL_CAP: usize = 32;

/// The ~16-byte inline record of a cold slot; the rest of the cold
/// summary (lifetime rollups, last_seq) lives in the strips.
#[derive(Debug, Clone, Copy)]
struct ColdState {
    period: Option<u32>,
    confidence: f64,
}

#[derive(Debug)]
enum SlotState {
    Free,
    Hot(Box<HotState>),
    Cold(ColdState),
}

/// Struct-of-arrays strip columns, indexed by slot. Sweep walks
/// `tier` + `last_seq` only; stats and summaries read the rollup columns —
/// neither ever touches the boxed detector state.
#[derive(Debug, Default)]
struct Strips {
    id: Vec<u64>,
    last_seq: Vec<u64>,
    tier: Vec<u8>,
    generation: Vec<u8>,
    samples: Vec<u64>,
    boundaries: Vec<u64>,
    checked: Vec<u64>,
    hits: Vec<u64>,
}

impl Strips {
    fn push_slot(&mut self) {
        self.id.push(0);
        self.last_seq.push(0);
        self.tier.push(TIER_FREE);
        self.generation.push(0);
        self.samples.push(0);
        self.boundaries.push(0);
        self.checked.push(0);
        self.hits.push(0);
    }

    /// Zero the per-lifetime columns of a slot being (re)born.
    fn reset_lifetime(&mut self, slot: usize) {
        self.last_seq[slot] = 0;
        self.samples[slot] = 0;
        self.boundaries[slot] = 0;
        self.checked[slot] = 0;
        self.hits[slot] = 0;
    }
}

/// A keyed table of independent per-stream detectors.
///
/// Streams are created lazily on first sample, tiered out when idle past
/// the configured watermark(s), and closed explicitly with a final flush
/// event. All watermark behavior is deterministic in the batch sequence:
/// feeding the same `(seq, stream, samples)` calls produces the same
/// per-stream events regardless of how streams are partitioned across
/// tables.
///
/// # Examples
/// ```
/// use dpd_core::pipeline::DpdBuilder;
/// use dpd_core::shard::{MultiStreamEvent, StreamId};
///
/// let mut table = DpdBuilder::new().window(8).build_table().unwrap();
/// let mut out = Vec::new();
/// let mut seq = 0u64;
/// for round in 0..30 {
///     for s in 0..3u64 {
///         // Stream s carries period s+2.
///         let chunk: Vec<i64> = (0..4).map(|i| ((round * 4 + i) % (s + 2)) as i64).collect();
///         table.ingest(seq, StreamId(s), &chunk, &mut out);
///         seq += chunk.len() as u64;
///     }
/// }
/// assert_eq!(table.len(), 3);
/// assert!(out.iter().any(|e| matches!(
///     e,
///     MultiStreamEvent::Segment { stream: StreamId(0), .. }
/// )));
/// ```
///
/// The handle-first tier skips the per-call hash probe:
///
/// ```
/// use dpd_core::pipeline::DpdBuilder;
/// use dpd_core::shard::StreamId;
///
/// let mut table = DpdBuilder::new().window(8).build_table().unwrap();
/// let mut out = Vec::new();
/// table.ingest(0, StreamId(7), &[0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2], &mut out);
/// let h = table.resolve(StreamId(7)).unwrap();
/// assert_eq!(table.id_of(h), Some(StreamId(7)));
/// assert_eq!(table.locked_period_of(h), Some(3));
/// assert!(table.ingest_handle(12, h, &[0, 1, 2], &mut out));
/// ```
#[derive(Debug)]
pub struct StreamTable {
    config: TableConfig,
    index: StreamIndex,
    slots: Vec<SlotState>,
    strips: Strips,
    free: Vec<u32>,
    /// Resident-state accounting in the config's cost model.
    accounted: u64,
    hot_count: usize,
    cold_count: usize,
    /// Clock hand for budget victim selection (process-local scratch;
    /// never serialized).
    hand: usize,
    /// Retired hot states awaiting reuse (process-local scratch; never
    /// serialized, capped at [`HOT_POOL_CAP`]). Deliberately a vec of
    /// boxes: entries are the exact `Box<HotState>` allocations moved
    /// out of [`SlotState::Hot`], recycled without reallocating.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<HotState>>,
    /// Cached `config.cold_stream_bytes()`.
    slot_bytes: u64,
    /// Cached `hot_stream_bytes - cold_stream_bytes`.
    hot_extra: u64,
    stats: TableStats,
    /// Delta-evaluated standing queries over this table's event stream,
    /// when attached (see [`crate::query`] and
    /// [`StreamTable::attach_queries`]). Boxed: query-less tables pay one
    /// pointer.
    queries: Option<Box<QueryEngine>>,
}

impl StreamTable {
    /// Empty table with the given configuration.
    pub fn new(config: TableConfig) -> Self {
        let slot_bytes = config.cold_stream_bytes();
        let hot_extra = config.hot_stream_bytes() - slot_bytes;
        StreamTable {
            config,
            index: StreamIndex::new(),
            slots: Vec::new(),
            strips: Strips::default(),
            free: Vec::new(),
            accounted: 0,
            hot_count: 0,
            cold_count: 0,
            hand: 0,
            pool: Vec::new(),
            slot_bytes,
            hot_extra,
            stats: TableStats::default(),
            queries: None,
        }
    }

    /// Attach a standing-query engine evaluating `specs` against this
    /// table's event stream (see [`crate::query`]). Membership deltas
    /// accumulate in the table and are collected with
    /// [`StreamTable::drain_query_deltas`]. Specs must be valid
    /// ([`QuerySpec::is_valid`]) — the validating registration surface is
    /// `DpdBuilder::standing_query`. An empty `specs` detaches.
    ///
    /// # Panics
    /// Panics when the table already holds resident streams: queries
    /// observe every state transition from the start, so they must be
    /// attached before the first ingest.
    pub fn attach_queries(&mut self, specs: Vec<QuerySpec>) {
        assert!(
            self.is_empty() && self.stats.created == 0,
            "standing queries must be attached before the first ingest"
        );
        self.queries = (!specs.is_empty()).then(|| Box::new(QueryEngine::new(specs)));
    }

    /// The attached standing-query specs, in registration order (empty
    /// when no engine is attached).
    pub fn query_specs(&self) -> &[QuerySpec] {
        self.queries.as_ref().map_or(&[], |q| q.specs())
    }

    /// The attached standing-query engine, for result-set inspection
    /// ([`QueryEngine::members`], [`QueryEngine::tracked`]).
    pub fn query_engine(&self) -> Option<&QueryEngine> {
        self.queries.as_deref()
    }

    /// Move every pending standing-query delta into `out`, preserving
    /// emission order. No-op without an attached engine.
    pub fn drain_query_deltas(&mut self, out: &mut Vec<QueryDelta>) {
        if let Some(q) = self.queries.as_deref_mut() {
            q.drain_deltas(out);
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Number of resident streams (hot + cold tiers).
    pub fn len(&self) -> usize {
        self.hot_count + self.cold_count
    }

    /// `true` when no stream is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rollup counters.
    pub fn stats(&self) -> TableStats {
        TableStats {
            streams: self.len() as u64,
            cold: self.cold_count as u64,
            query_enters: self.queries.as_ref().map_or(0, |q| q.enters()),
            query_exits: self.queries.as_ref().map_or(0, |q| q.exits()),
            ..self.stats
        }
    }

    /// Resident bytes currently accounted against
    /// [`TableConfig::memory_budget`], in the cost model of
    /// [`TableConfig::hot_stream_bytes`] / [`TableConfig::cold_stream_bytes`].
    pub fn accounted_bytes(&self) -> u64 {
        self.accounted
    }

    fn cold_enabled(&self) -> bool {
        self.config.cold_retain > 0
    }

    /// The watermark past which even a cold summary is gone.
    fn gone_after(&self) -> u64 {
        if self.cold_enabled() {
            self.config
                .evict_after
                .saturating_add(self.config.cold_retain)
        } else {
            self.config.evict_after
        }
    }

    // ------------------------------------------------------------------
    // Handle-first accessors: resolve once, address by slot afterwards.

    /// Intern lookup: the handle of a resident stream (hot or cold).
    pub fn resolve(&self, stream: StreamId) -> Option<StreamHandle> {
        let slot = self.index.get(stream.0)? as usize;
        Some(StreamHandle::new(slot, self.strips.generation[slot]))
    }

    /// The slot a live handle names, or `None` when the handle is stale
    /// (its stream was closed or evicted since it was resolved).
    fn slot_of(&self, handle: StreamHandle) -> Option<usize> {
        let slot = handle.index();
        (slot < self.slots.len()
            && self.strips.tier[slot] != TIER_FREE
            && self.strips.generation[slot] == handle.generation())
        .then_some(slot)
    }

    /// The stream a live handle names.
    pub fn id_of(&self, handle: StreamHandle) -> Option<StreamId> {
        self.slot_of(handle).map(|s| StreamId(self.strips.id[s]))
    }

    /// The residency tier of a live handle's stream.
    pub fn tier_of(&self, handle: StreamHandle) -> Option<StreamTier> {
        match self.strips.tier[self.slot_of(handle)?] {
            TIER_HOT => Some(StreamTier::Hot),
            TIER_COLD => Some(StreamTier::Cold),
            _ => None,
        }
    }

    /// Detector statistics of a live **hot** stream (cold streams have no
    /// resident detector — see [`StreamTable::summary_of`]).
    pub fn stream_stats_of(&self, handle: StreamHandle) -> Option<&StreamStats> {
        match &self.slots[self.slot_of(handle)?] {
            SlotState::Hot(hot) => Some(hot.dpd.stats()),
            _ => None,
        }
    }

    /// The period a live **hot** stream is currently locked to, if any.
    pub fn locked_period_of(&self, handle: StreamHandle) -> Option<usize> {
        match &self.slots[self.slot_of(handle)?] {
            SlotState::Hot(hot) => hot.dpd.locked_period(),
            _ => None,
        }
    }

    /// Forecast-accuracy statistics of a live **hot** stream (since its
    /// creation or last re-promotion). `None` for cold streams or when the
    /// table does not forecast.
    pub fn forecast_stats_of(&self, handle: StreamHandle) -> Option<ForecastStats> {
        match &self.slots[self.slot_of(handle)?] {
            SlotState::Hot(hot) => hot.predictor.as_ref().map(|p| p.stats()),
            _ => None,
        }
    }

    /// Current forecast confidence of a live **hot** stream.
    pub fn forecast_confidence_of(&self, handle: StreamHandle) -> Option<f64> {
        match &self.slots[self.slot_of(handle)?] {
            SlotState::Hot(hot) => hot.predictor.as_ref().map(|p| p.confidence()),
            _ => None,
        }
    }

    /// Materialize the forecast for the next `h` values of a live **hot**
    /// stream (`h` up to the configured horizon).
    pub fn forecast_of(&mut self, handle: StreamHandle, h: usize) -> Option<Forecast<'_>> {
        let slot = self.slot_of(handle)?;
        match &mut self.slots[slot] {
            SlotState::Hot(hot) => hot.predictor.as_mut()?.forecast(h),
            _ => None,
        }
    }

    /// The compact digest of a live stream in **either** tier: lifetime
    /// rollups from the strips plus period/confidence (computed live for
    /// hot streams, frozen at demotion time for cold ones).
    pub fn summary_of(&self, handle: StreamHandle) -> Option<StreamSummary> {
        let slot = self.slot_of(handle)?;
        let (period, confidence) = match &self.slots[slot] {
            SlotState::Hot(hot) => (
                hot.dpd.locked_period(),
                hot.predictor.as_ref().map_or(0.0, |p| p.confidence()),
            ),
            SlotState::Cold(cold) => (cold.period.map(|p| p as usize), cold.confidence),
            SlotState::Free => return None,
        };
        Some(StreamSummary {
            samples: self.strips.samples[slot],
            boundaries: self.strips.boundaries[slot],
            period,
            confidence,
            forecast_checked: self.strips.checked[slot],
            forecast_hits: self.strips.hits[slot],
        })
    }

    /// Ingest one batch for the stream a live handle names — the
    /// hash-free twin of [`StreamTable::ingest`], byte-identical in
    /// effect. Returns `false` (and ingests nothing) when the handle is
    /// stale. Note the batch itself may retire the handle: a stream idle
    /// past the full eviction horizon is reset to a fresh incarnation
    /// (generation bump), so re-resolve after long gaps.
    pub fn ingest_handle(
        &mut self,
        seq: u64,
        handle: StreamHandle,
        samples: &[i64],
        out: &mut Vec<MultiStreamEvent>,
    ) -> bool {
        let Some(slot) = self.slot_of(handle) else {
            return false;
        };
        if samples.is_empty() {
            return true;
        }
        let stream = StreamId(self.strips.id[slot]);
        self.ingest_resident(seq, slot, stream, samples, out);
        true
    }

    /// Handles of every resident stream, in slab order (unspecified;
    /// sort by [`StreamTable::id_of`] for a partition-stable order).
    pub fn handles(&self) -> impl Iterator<Item = StreamHandle> + '_ {
        self.strips
            .tier
            .iter()
            .enumerate()
            .filter(|&(_, &tier)| tier != TIER_FREE)
            .map(|(slot, _)| StreamHandle::new(slot, self.strips.generation[slot]))
    }

    // ------------------------------------------------------------------
    // StreamId convenience tier: thin resolve-then-delegate wrappers.

    /// Per-stream detector statistics for a resident hot stream.
    pub fn stream_stats(&self, stream: StreamId) -> Option<&StreamStats> {
        self.stream_stats_of(self.resolve(stream)?)
    }

    /// The period a resident hot stream is currently locked to, if any.
    pub fn locked_period(&self, stream: StreamId) -> Option<usize> {
        self.locked_period_of(self.resolve(stream)?)
    }

    /// Forecast-accuracy statistics of one resident hot stream (since its
    /// creation or last eviction reset). `None` when the stream is not
    /// resident hot or the table does not forecast.
    pub fn forecast_stats(&self, stream: StreamId) -> Option<ForecastStats> {
        self.forecast_stats_of(self.resolve(stream)?)
    }

    /// Current forecast confidence of one resident hot stream; `None` when
    /// the stream is not resident hot or the table does not forecast.
    pub fn forecast_confidence(&self, stream: StreamId) -> Option<f64> {
        self.forecast_confidence_of(self.resolve(stream)?)
    }

    /// Materialize the forecast for the next `h` values of one stream
    /// (`h` up to the configured horizon). `None` when the stream is not
    /// resident hot, the table does not forecast, or the stream's
    /// predictor is not locked and primed yet.
    pub fn forecast(&mut self, stream: StreamId, h: usize) -> Option<Forecast<'_>> {
        let handle = self.resolve(stream)?;
        self.forecast_of(handle, h)
    }

    /// The compact digest of one resident stream in either tier.
    pub fn summary(&self, stream: StreamId) -> Option<StreamSummary> {
        self.summary_of(self.resolve(stream)?)
    }

    /// Ids of every resident stream, in slab order (unspecified; collect
    /// and sort for a partition-stable order). Allocation-free.
    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.strips
            .tier
            .iter()
            .enumerate()
            .filter(|&(_, &tier)| tier != TIER_FREE)
            .map(|(slot, _)| StreamId(self.strips.id[slot]))
    }

    fn sorted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.stream_ids().map(|s| s.0).collect();
        ids.sort_unstable();
        ids
    }

    // ------------------------------------------------------------------
    // Slab lifecycle.

    /// A hot state indistinguishable from newly constructed — recycled
    /// from the pool when one is available (resetting is cheaper than
    /// reallocating the detector's window buffers, and keeps the hot
    /// heap dense; see [`HOT_POOL_CAP`]).
    fn fresh_hot_state(&mut self) -> Box<HotState> {
        if let Some(mut state) = self.pool.pop() {
            state.reset_fresh();
            return state;
        }
        Box::new(HotState {
            dpd: StreamingDpd::events(self.config.detector)
                .expect("table config validated at construction"),
            predictor: self.config.predict_config().map(Predictor::new),
        })
    }

    /// Retire a hot state into the reuse pool (dropped once full).
    fn retire_hot_state(&mut self, state: Box<HotState>) {
        if self.pool.len() < HOT_POOL_CAP {
            self.pool.push(state);
        }
    }

    /// Take a slot off the free list (or extend the slab) and stamp it
    /// with `id`, lifetime columns zeroed. Tier stays `Free`; the caller
    /// installs state. The slot's generation carries over from its
    /// previous life — it was bumped at release time.
    fn alloc_slot(&mut self, id: u64) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                assert!(
                    self.slots.len() < MAX_RESIDENT_STREAMS,
                    "stream table slab is full ({MAX_RESIDENT_STREAMS} resident streams)"
                );
                self.slots.push(SlotState::Free);
                self.strips.push_slot();
                self.slots.len() - 1
            }
        };
        self.strips.id[slot] = id;
        self.strips.reset_lifetime(slot);
        slot
    }

    /// Install fresh hot state into a slot that currently holds none.
    fn make_hot(&mut self, slot: usize) {
        let state = self.fresh_hot_state();
        self.install_hot(slot, state);
    }

    fn install_hot(&mut self, slot: usize, state: Box<HotState>) {
        self.slots[slot] = SlotState::Hot(state);
        self.strips.tier[slot] = TIER_HOT;
        self.hot_count += 1;
        self.accounted += self.hot_extra;
    }

    /// Create a brand-new stream: allocate, intern, budget, go hot.
    fn create_stream(&mut self, id: u64) -> usize {
        self.stats.created += 1;
        let slot = self.alloc_slot(id);
        self.index.insert(id, slot as u32);
        self.accounted += self.slot_bytes;
        self.enforce_budget(slot);
        self.make_hot(slot);
        slot
    }

    /// Drop a slot's hot state down to a cold summary (frozen period +
    /// confidence; rollups stay in the strips).
    fn demote_slot(&mut self, slot: usize) {
        let state = std::mem::replace(&mut self.slots[slot], SlotState::Free);
        let SlotState::Hot(hot) = state else {
            unreachable!("demote requires a hot slot");
        };
        let cold = ColdState {
            period: hot.dpd.locked_period().map(|p| p as u32),
            confidence: hot.predictor.as_ref().map_or(0.0, |p| p.confidence()),
        };
        self.slots[slot] = SlotState::Cold(cold);
        self.strips.tier[slot] = TIER_COLD;
        self.hot_count -= 1;
        self.cold_count += 1;
        self.accounted -= self.hot_extra;
        self.stats.demoted += 1;
        self.retire_hot_state(hot);
    }

    /// Re-promote a cold slot: fresh detector/predictor, lifetime rollup
    /// columns carried forward. `seq` is the global clock of the samples
    /// that triggered the promotion — the standing-query engine clears
    /// the lock- and confidence-derived facts there (the fresh detector
    /// starts unlocked; a silent reset is not a loss).
    fn promote_slot(&mut self, slot: usize, seq: u64) {
        if let Some(q) = self.queries.as_deref_mut() {
            q.reset_lock(StreamId(self.strips.id[slot]), seq);
        }
        self.cold_count -= 1;
        self.enforce_budget(slot);
        self.make_hot(slot);
        self.stats.promoted += 1;
    }

    /// Remove a resident slot entirely: un-intern, free state, bump the
    /// generation (stale handles die here), push on the free list.
    fn release_slot(&mut self, slot: usize) {
        if let Some(q) = self.queries.as_deref_mut() {
            // Exit every membership at the engine's clock (callers with a
            // batch clock advance the engine first; budget evictions have
            // no clock of their own).
            let at = q.clock();
            q.retire(StreamId(self.strips.id[slot]), at);
        }
        match self.strips.tier[slot] {
            TIER_HOT => {
                self.hot_count -= 1;
                self.accounted -= self.hot_extra + self.slot_bytes;
            }
            TIER_COLD => {
                self.cold_count -= 1;
                self.accounted -= self.slot_bytes;
            }
            _ => unreachable!("release of a free slot"),
        }
        self.index.remove(self.strips.id[slot]);
        if let SlotState::Hot(hot) = std::mem::replace(&mut self.slots[slot], SlotState::Free) {
            self.retire_hot_state(hot);
        }
        self.strips.tier[slot] = TIER_FREE;
        self.strips.generation[slot] = self.strips.generation[slot].wrapping_add(1);
        self.free.push(slot as u32);
    }

    fn evict_slot(&mut self, slot: usize) {
        self.release_slot(slot);
        self.stats.evicted += 1;
    }

    /// Demote or evict resident streams until one more hot stream fits
    /// [`TableConfig::memory_budget`]. Victims are chosen by a clock hand
    /// walking the slab: pass one demotes hot slots to cold summaries (or
    /// evicts them outright when the cold tier is disabled); if the table
    /// is still over budget after a full lap, pass two evicts cold slots
    /// too. Best-effort: the protected newcomer is always admitted. The
    /// hand is process-local scratch — budget-driven victim order (unlike
    /// watermark tiering) is not partition-invariant.
    fn enforce_budget(&mut self, protect: usize) {
        let budget = self.config.memory_budget;
        if budget == 0 {
            return;
        }
        let cap = self.slots.len();
        if cap == 0 {
            return;
        }
        let need = self.hot_extra;
        let mut steps = 0;
        while self.accounted.saturating_add(need) > budget && steps < cap {
            let slot = self.hand;
            self.hand = (self.hand + 1) % cap;
            steps += 1;
            if slot == protect || self.strips.tier[slot] != TIER_HOT {
                continue;
            }
            if self.cold_enabled() {
                self.demote_slot(slot);
            } else {
                self.evict_slot(slot);
            }
        }
        let mut steps = 0;
        while self.accounted.saturating_add(need) > budget && steps < cap {
            let slot = self.hand;
            self.hand = (self.hand + 1) % cap;
            steps += 1;
            if slot == protect || self.strips.tier[slot] != TIER_COLD {
                continue;
            }
            self.evict_slot(slot);
        }
    }

    // ------------------------------------------------------------------
    // Ingest / close / sweep.

    /// Ingest one batch of samples for one stream, appending every
    /// non-trivial event to `out`.
    ///
    /// `seq` is the global sample clock at the batch's first sample — the
    /// total number of samples ingested across *all* streams before this
    /// batch. It drives idle tiering: a stream whose previous sample is
    /// more than `evict_after` global samples in the past is demoted (cold
    /// tier on) or reset to a fresh detector (cold tier off) before the
    /// batch is applied; past `evict_after + cold_retain` even the cold
    /// summary is discarded and the stream starts a fresh incarnation.
    /// The lazy transitions are observably identical to a sweep at any
    /// point inside the gap.
    pub fn ingest(
        &mut self,
        seq: u64,
        stream: StreamId,
        samples: &[i64],
        out: &mut Vec<MultiStreamEvent>,
    ) {
        if samples.is_empty() {
            return;
        }
        match self.index.get(stream.0) {
            Some(slot) => self.ingest_resident(seq, slot as usize, stream, samples, out),
            None => {
                let slot = self.create_stream(stream.0);
                self.push_batch(seq, slot, stream, samples, out);
            }
        }
    }

    /// Apply the watermark tier transitions a resident slot owes at `seq`,
    /// then push the batch. Counter increments mirror exactly what eager
    /// sweeps at the tier boundaries would have recorded.
    fn ingest_resident(
        &mut self,
        seq: u64,
        slot: usize,
        stream: StreamId,
        samples: &[i64],
        out: &mut Vec<MultiStreamEvent>,
    ) {
        if let Some(q) = self.queries.as_deref_mut() {
            // Fire lock-lost deadlines the arriving batch's clock passed
            // *before* any watermark eviction below retires the slot —
            // a retirement bumps the epoch, which would orphan a still
            // parked deadline exit that logically preceded it.
            q.advance(seq);
        }
        let watermark = self.config.evict_after;
        let gap = seq.saturating_sub(self.strips.last_seq[slot]);
        match self.strips.tier[slot] {
            TIER_HOT => {
                if watermark > 0 && gap > watermark {
                    if self.cold_enabled() && gap <= self.gone_after() {
                        // Idle into the cold window: demote (as a sweep
                        // inside the gap would have), then immediately
                        // re-promote for the arriving samples. Lifetime
                        // rollups survive; detector state does not.
                        self.demote_slot(slot);
                        self.promote_slot(slot, seq);
                    } else {
                        // Idle past everything: a fresh incarnation. A
                        // sweep schedule would have demoted then evicted;
                        // mirror both counters.
                        if self.cold_enabled() {
                            self.stats.demoted += 1;
                        }
                        self.reset_hot_slot(slot, seq);
                    }
                }
            }
            TIER_COLD => {
                if watermark > 0 && gap > self.gone_after() {
                    // The summary was logically gone before the samples
                    // arrived: evict it and start a fresh incarnation.
                    if let Some(q) = self.queries.as_deref_mut() {
                        q.retire(stream, seq);
                    }
                    self.stats.evicted += 1;
                    self.stats.created += 1;
                    self.cold_count -= 1;
                    self.strips.generation[slot] = self.strips.generation[slot].wrapping_add(1);
                    self.strips.reset_lifetime(slot);
                    self.enforce_budget(slot);
                    self.make_hot(slot);
                } else {
                    self.promote_slot(slot, seq);
                }
            }
            _ => unreachable!("interned stream in a free slot"),
        }
        self.push_batch(seq, slot, stream, samples, out);
    }

    /// In-place rebirth of a hot slot whose stream idled out completely:
    /// discard state, count the eviction + re-creation, and start over —
    /// exactly what a memory sweep inside the gap followed by lazy
    /// re-creation would have produced. Forecast state is part of the
    /// discarded state: the fresh predictor starts unlocked with empty
    /// statistics. The generation bumps — handles into the old
    /// incarnation must not alias the new one. The standing-query engine
    /// retires the old incarnation at `seq` (every membership exits).
    fn reset_hot_slot(&mut self, slot: usize, seq: u64) {
        if let Some(q) = self.queries.as_deref_mut() {
            q.retire(StreamId(self.strips.id[slot]), seq);
        }
        self.stats.evicted += 1;
        self.stats.created += 1;
        self.strips.generation[slot] = self.strips.generation[slot].wrapping_add(1);
        self.strips.reset_lifetime(slot);
        let SlotState::Hot(hot) = &mut self.slots[slot] else {
            unreachable!("in-place rebirth requires a hot slot");
        };
        hot.reset_fresh();
    }

    /// The per-sample hot loop: push into the detector, emit events, score
    /// forecasts, then fold the batch's deltas into table stats and the
    /// slot's lifetime strip columns.
    fn push_batch(
        &mut self,
        seq: u64,
        slot: usize,
        stream: StreamId,
        samples: &[i64],
        out: &mut Vec<MultiStreamEvent>,
    ) {
        let mut queries = self.queries.as_deref_mut();
        let SlotState::Hot(hot) = &mut self.slots[slot] else {
            unreachable!("push into a non-hot slot");
        };
        let mut events = 0u64;
        let mut boundaries = 0u64;
        let mut checked = 0u64;
        let mut hits = 0u64;
        let mut invalidations = 0u64;
        for (i, &s) in samples.iter().enumerate() {
            // Advance the query clock to this sample *before* its events:
            // a lock-lost deadline elapsing here must exit (at its true
            // `loss + window` seq) ahead of any membership change this
            // sample causes, keeping the delta log emission-ordered by
            // seq. O(1) when no deadline is due (a heap peek).
            if let Some(q) = queries.as_deref_mut() {
                q.advance(seq + i as u64);
            }
            let e = hot.dpd.push(s);
            if e != SegmentEvent::None {
                if matches!(e, SegmentEvent::PeriodStart { .. }) {
                    boundaries += 1;
                }
                out.push(MultiStreamEvent::Segment { stream, event: e });
                events += 1;
                if let Some(q) = queries.as_deref_mut() {
                    q.on_segment(stream, e, seq + i as u64);
                }
            }
            if let Some(pred) = hot.predictor.as_mut() {
                let ob = pred.observe(s, e);
                if let Some(scored) = ob.scored {
                    checked += 1;
                    hits += scored.hit as u64;
                    if let Some(q) = queries.as_deref_mut() {
                        q.on_scored(stream, scored.hit, seq + i as u64);
                    }
                }
                invalidations += ob.invalidated as u64;
            }
        }
        let len = samples.len() as u64;
        self.strips.last_seq[slot] = seq + len - 1;
        self.strips.samples[slot] += len;
        self.strips.boundaries[slot] += boundaries;
        self.strips.checked[slot] += checked;
        self.strips.hits[slot] += hits;
        self.stats.samples += len;
        self.stats.events += events;
        self.stats.forecast_checked += checked;
        self.stats.forecast_hits += hits;
        self.stats.forecast_invalidations += invalidations;
    }

    /// Explicitly close a stream at global sample clock `seq`, emitting a
    /// final [`MultiStreamEvent::Closed`] flush. A stream already idle past
    /// the full eviction horizon at `seq` is evicted silently instead — it
    /// was logically gone before the close arrived, whether or not a memory
    /// sweep had gotten to it, so close-time behavior stays independent of
    /// sweep scheduling. A stream in the cold window (resident cold, or
    /// hot-but-logically-cold) flushes from its summary: lifetime sample
    /// count and frozen period. Returns `false` when the stream is not
    /// live (already closed, evicted, or never seen).
    pub fn close(&mut self, seq: u64, stream: StreamId, out: &mut Vec<MultiStreamEvent>) -> bool {
        let Some(slot) = self.index.get(stream.0).map(|s| s as usize) else {
            return false;
        };
        if let Some(q) = self.queries.as_deref_mut() {
            // Fire lock-lost deadlines the close clock passed, so the
            // retirement below exits at `seq`, after them.
            q.advance(seq);
        }
        let watermark = self.config.evict_after;
        let gap = seq.saturating_sub(self.strips.last_seq[slot]);
        if watermark > 0 && gap > watermark {
            if !self.cold_enabled() || gap > self.gone_after() {
                // Logically gone before the close arrived. Mirror the
                // sweep counters the gap owed (demotion first, if a
                // hot slot crossed the whole cold window unswept).
                if self.cold_enabled() && self.strips.tier[slot] == TIER_HOT {
                    self.stats.demoted += 1;
                }
                self.evict_slot(slot);
                return false;
            }
            if self.strips.tier[slot] == TIER_HOT {
                // Logically cold: demote now (as a sweep would have), then
                // flush below from the summary.
                self.demote_slot(slot);
            }
        }
        let period = match &self.slots[slot] {
            SlotState::Hot(hot) => hot.dpd.locked_period(),
            SlotState::Cold(cold) => cold.period.map(|p| p as usize),
            SlotState::Free => unreachable!("interned stream in a free slot"),
        };
        out.push(MultiStreamEvent::Closed {
            stream,
            samples: self.strips.samples[slot],
            period,
        });
        self.stats.closed += 1;
        self.stats.events += 1;
        self.release_slot(slot);
        true
    }

    /// Close every resident stream at clock `seq`, ascending by id (a
    /// stable order no matter how streams were partitioned across tables).
    pub fn close_all(&mut self, seq: u64, out: &mut Vec<MultiStreamEvent>) {
        for id in self.sorted_ids() {
            self.close(seq, StreamId(id), out);
        }
    }

    /// Reclaim memory of streams idle past the watermark(s) at global
    /// sample clock `seq`, walking only the dense tier/clock strips.
    /// Hot streams idle past `evict_after` demote to cold summaries (or
    /// evict, without a cold tier); summaries idle past
    /// `evict_after + cold_retain` are freed. Returns the number of
    /// streams fully evicted. Emits no events: a swept stream that later
    /// receives samples is indistinguishable from one lazily tiered by
    /// [`StreamTable::ingest`], so sweeps may run on any schedule without
    /// affecting determinism.
    pub fn sweep(&mut self, seq: u64) -> usize {
        if let Some(q) = self.queries.as_deref_mut() {
            // A sweep is a clock observation: parked lock-lost exits the
            // clock passed fire here, eviction retirements exit at `seq`.
            q.advance(seq);
        }
        let watermark = self.config.evict_after;
        if watermark == 0 {
            return 0;
        }
        let gone = self.gone_after();
        let mut evicted = 0usize;
        for slot in 0..self.slots.len() {
            match self.strips.tier[slot] {
                TIER_HOT => {
                    let gap = seq.saturating_sub(self.strips.last_seq[slot]);
                    if gap <= watermark {
                        continue;
                    }
                    if self.cold_enabled() && gap <= gone {
                        self.demote_slot(slot);
                    } else {
                        // Crossed the whole cold window between sweeps:
                        // count the demotion the schedule skipped.
                        if self.cold_enabled() {
                            self.stats.demoted += 1;
                        }
                        self.evict_slot(slot);
                        evicted += 1;
                    }
                }
                TIER_COLD => {
                    let gap = seq.saturating_sub(self.strips.last_seq[slot]);
                    if gap > gone {
                        self.evict_slot(slot);
                        evicted += 1;
                    }
                }
                _ => {}
            }
        }
        evicted
    }

    // ------------------------------------------------------------------
    // Snapshot hooks (see `crate::snapshot` for the envelope and the
    // TAG_TABLE_V2 / TAG_TABLE_V3 negotiation; layouts in docs/FORMAT.md).

    /// Serialize the full table state — configuration, rollup counters,
    /// every hot stream entry and every cold summary (each section
    /// ascending by id, so the byte image is independent of slab layout
    /// and sweep schedule) — into `w`. Handles, slot indices, the free
    /// list and the budget clock hand are process-local and deliberately
    /// not serialized.
    pub(crate) fn snapshot_state(&self, w: &mut SnapshotWriter) {
        crate::snapshot::write_streaming_config(w, &self.config.detector);
        w.u64(self.config.evict_after);
        w.u64(self.config.forecast_horizon as u64);
        w.u64(self.config.memory_budget);
        w.u64(self.config.cold_retain);
        w.u64(self.stats.created);
        w.u64(self.stats.samples);
        w.u64(self.stats.events);
        w.u64(self.stats.evicted);
        w.u64(self.stats.closed);
        w.u64(self.stats.demoted);
        w.u64(self.stats.promoted);
        w.u64(self.stats.forecast_checked);
        w.u64(self.stats.forecast_hits);
        w.u64(self.stats.forecast_invalidations);
        let mut hot: Vec<(u64, usize)> = Vec::with_capacity(self.hot_count);
        let mut cold: Vec<(u64, usize)> = Vec::with_capacity(self.cold_count);
        for slot in 0..self.slots.len() {
            match self.strips.tier[slot] {
                TIER_HOT => hot.push((self.strips.id[slot], slot)),
                TIER_COLD => cold.push((self.strips.id[slot], slot)),
                _ => {}
            }
        }
        hot.sort_unstable();
        cold.sort_unstable();
        w.u64(hot.len() as u64);
        for (id, slot) in hot {
            w.u64(id);
            self.write_strip_columns(w, slot);
            let SlotState::Hot(state) = &self.slots[slot] else {
                unreachable!("hot tier strip names a non-hot slot");
            };
            state.dpd.snapshot_state(w, &|w, v| w.i64(v));
            match state.predictor.as_ref() {
                Some(p) => {
                    w.bool(true);
                    p.snapshot_state(w);
                }
                None => w.bool(false),
            }
        }
        w.u64(cold.len() as u64);
        for (id, slot) in cold {
            w.u64(id);
            self.write_strip_columns(w, slot);
            let SlotState::Cold(state) = &self.slots[slot] else {
                unreachable!("cold tier strip names a non-cold slot");
            };
            w.u64(state.period.map_or(0, |p| p as u64 + 1));
            w.f64(state.confidence);
        }
    }

    /// V3 body: the v2 body followed by the standing-query engine section
    /// (specs, clock, counters, per-stream facts, pending deltas — see
    /// `crate::query` and docs/FORMAT.md §12). Only engine-attached
    /// tables write this; query-less tables keep emitting the v2 tag so
    /// their checkpoints stay readable by older builds.
    pub(crate) fn snapshot_state_v3(&self, w: &mut SnapshotWriter) {
        self.snapshot_state(w);
        self.queries
            .as_ref()
            .expect("v3 table snapshot requires an attached query engine")
            .snapshot_state(w);
    }

    /// Rebuild a table plus its standing-query engine from a v3 body.
    pub(crate) fn restore_state_v3(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut table = StreamTable::restore_state(r)?;
        let engine = QueryEngine::restore_state(r)?;
        table.queries = Some(Box::new(engine));
        Ok(table)
    }

    /// `true` when a standing-query engine is attached (selects the
    /// snapshot tag).
    pub(crate) fn has_queries(&self) -> bool {
        self.queries.is_some()
    }

    fn write_strip_columns(&self, w: &mut SnapshotWriter, slot: usize) {
        w.u64(self.strips.last_seq[slot]);
        w.u64(self.strips.samples[slot]);
        w.u64(self.strips.boundaries[slot]);
        w.u64(self.strips.checked[slot]);
        w.u64(self.strips.hits[slot]);
    }

    /// Rebuild a table from serialized v2 state. Slots are assigned in
    /// deserialization order (hot section first, then cold, each
    /// ascending by id): handles are process-local, so slab layout need
    /// not survive a restore — only logical state does. The budget clock
    /// hand restarts at 0.
    pub(crate) fn restore_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let detector = crate::snapshot::read_streaming_config(r)?;
        let config = TableConfig {
            detector,
            evict_after: r.u64()?,
            forecast_horizon: r.u64()? as usize,
            memory_budget: r.u64()?,
            cold_retain: r.u64()?,
        };
        if detector.window == 0 || detector.m_max == 0 || detector.m_max > detector.window {
            return Err(SnapshotError::Malformed {
                what: "table detector configuration fails validation",
            });
        }
        let mut table = StreamTable::new(config);
        table.stats = TableStats {
            streams: 0,
            cold: 0,
            created: r.u64()?,
            samples: r.u64()?,
            events: r.u64()?,
            evicted: r.u64()?,
            closed: r.u64()?,
            demoted: r.u64()?,
            promoted: r.u64()?,
            forecast_checked: r.u64()?,
            forecast_hits: r.u64()?,
            forecast_invalidations: r.u64()?,
            query_enters: 0,
            query_exits: 0,
        };
        let hot = r.count(MAX_RESIDENT_STREAMS, "implausible hot-stream count")?;
        let mut prev: Option<u64> = None;
        for _ in 0..hot {
            let id = r.u64()?;
            if prev.is_some_and(|p| p >= id) {
                return Err(SnapshotError::Malformed {
                    what: "hot stream entries out of ascending id order",
                });
            }
            prev = Some(id);
            let slot = table.adopt_slot(id, r)?;
            let dpd = StreamingDpd::restore_events(r)?;
            if dpd.config() != config.detector {
                return Err(SnapshotError::Malformed {
                    what: "stream detector configuration disagrees with table",
                });
            }
            let predictor = if r.bool()? {
                let p = Predictor::restore_state(r)?;
                if Some(p.config()) != config.predict_config() {
                    return Err(SnapshotError::Malformed {
                        what: "stream predictor configuration disagrees with table",
                    });
                }
                Some(p)
            } else {
                if config.forecast_horizon > 0 {
                    return Err(SnapshotError::Malformed {
                        what: "forecasting table entry lacks a predictor",
                    });
                }
                None
            };
            table.install_hot(slot, Box::new(HotState { dpd, predictor }));
        }
        let cold = r.count(MAX_RESIDENT_STREAMS, "implausible cold-stream count")?;
        if cold > 0 && config.cold_retain == 0 {
            return Err(SnapshotError::Malformed {
                what: "cold summaries in a table without a cold tier",
            });
        }
        let mut prev: Option<u64> = None;
        for _ in 0..cold {
            let id = r.u64()?;
            if prev.is_some_and(|p| p >= id) {
                return Err(SnapshotError::Malformed {
                    what: "cold stream entries out of ascending id order",
                });
            }
            prev = Some(id);
            let slot = table.adopt_slot(id, r)?;
            let raw = r.u64()?;
            let period = match raw {
                0 => None,
                p if p - 1 <= u32::MAX as u64 => Some((p - 1) as u32),
                _ => {
                    return Err(SnapshotError::Malformed {
                        what: "cold summary period out of range",
                    })
                }
            };
            let confidence = r.f64()?;
            table.slots[slot] = SlotState::Cold(ColdState { period, confidence });
            table.strips.tier[slot] = TIER_COLD;
            table.cold_count += 1;
        }
        Ok(table)
    }

    /// Allocate + intern a slot during restore and fill its strip columns
    /// (no creation counter, no budget enforcement — restores are
    /// faithful; the budget re-engages on future creations).
    fn adopt_slot(&mut self, id: u64, r: &mut SnapshotReader<'_>) -> Result<usize, SnapshotError> {
        if self.index.get(id).is_some() {
            return Err(SnapshotError::Malformed {
                what: "duplicate stream id across table tiers",
            });
        }
        let slot = self.alloc_slot(id);
        self.index.insert(id, slot as u32);
        self.accounted += self.slot_bytes;
        self.strips.last_seq[slot] = r.u64()?;
        self.strips.samples[slot] = r.u64()?;
        self.strips.boundaries[slot] = r.u64()?;
        self.strips.checked[slot] = r.u64()?;
        self.strips.hits[slot] = r.u64()?;
        Ok(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DpdBuilder;

    fn table_with_window(n: usize) -> StreamTable {
        DpdBuilder::new().window(n).build_table().unwrap()
    }

    fn table_with_eviction(n: usize, evict_after: u64) -> StreamTable {
        DpdBuilder::new()
            .window(n)
            .evict_after(evict_after)
            .build_table()
            .unwrap()
    }

    fn periodic(period: u64, start: u64, len: usize) -> Vec<i64> {
        (0..len as u64)
            .map(|i| ((start + i) % period) as i64)
            .collect()
    }

    /// Feed `rounds` rounds of `chunk`-sized batches for `streams` streams
    /// round-robin; stream `s` carries period `s + 2`.
    fn drive(
        table: &mut StreamTable,
        streams: u64,
        chunk: usize,
        rounds: u64,
    ) -> Vec<MultiStreamEvent> {
        let mut out = Vec::new();
        let mut seq = 0u64;
        for r in 0..rounds {
            for s in 0..streams {
                let data = periodic(s + 2, r * chunk as u64, chunk);
                table.ingest(seq, StreamId(s), &data, &mut out);
                seq += chunk as u64;
            }
        }
        out
    }

    #[test]
    fn lazy_creation_and_per_stream_detection() {
        let mut table = table_with_window(8);
        let out = drive(&mut table, 4, 8, 20);
        assert_eq!(table.len(), 4);
        assert_eq!(table.stats().created, 4);
        for s in 0..4u64 {
            let stats = table.stream_stats(StreamId(s)).unwrap();
            assert_eq!(
                stats.detected_periods(),
                vec![(s + 2) as usize],
                "stream {s}"
            );
        }
        assert!(out.len() > 20);
        assert_eq!(table.stats().events, out.len() as u64);
    }

    #[test]
    fn events_tag_the_right_stream() {
        let mut table = table_with_window(8);
        let out = drive(&mut table, 3, 6, 30);
        for e in &out {
            if let MultiStreamEvent::Segment {
                stream,
                event: SegmentEvent::PeriodStart { period, .. },
            } = e
            {
                assert_eq!(*period as u64, stream.0 + 2);
            }
        }
    }

    #[test]
    fn table_partitioning_is_observation_invariant() {
        // One table over 6 streams vs two tables over a 3/3 split: the
        // per-stream event sequences must be identical.
        let mut whole = table_with_eviction(8, 64);
        let all = drive(&mut whole, 6, 8, 25);

        let mut even = table_with_eviction(8, 64);
        let mut odd = table_with_eviction(8, 64);
        let mut split = Vec::new();
        let mut seq = 0u64;
        for r in 0..25u64 {
            for s in 0..6u64 {
                let data = periodic(s + 2, r * 8, 8);
                let table = if s % 2 == 0 { &mut even } else { &mut odd };
                table.ingest(seq, StreamId(s), &data, &mut split);
                seq += 8;
            }
        }
        for s in 0..6u64 {
            let expect: Vec<_> = all.iter().filter(|e| e.stream().0 == s).collect();
            let got: Vec<_> = split.iter().filter(|e| e.stream().0 == s).collect();
            assert_eq!(got, expect, "stream {s}");
        }
    }

    /// The price of a stream, which decides what a memory budget keeps
    /// hot, is pinned: these figures were measured before the engine
    /// gained its code layout, which must not grow an engine.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn hot_stream_price_is_pinned() {
        for (window, horizon, hot) in [
            (16, 0, 2434),
            (64, 0, 4546),
            (64, 4, 5282),
            (1024, 0, 46786),
        ] {
            let mut builder = DpdBuilder::new().window(window);
            if horizon > 0 {
                builder = builder.forecast(horizon);
            }
            let config = builder.table_config().unwrap();
            assert_eq!(
                config.hot_stream_bytes(),
                hot,
                "window {window}, horizon {horizon}"
            );
            assert_eq!(config.cold_stream_bytes(), 82);
        }
    }

    /// The hot-stream cost model stays as priced for `i64` history and
    /// `f64` sums; the 16-bit code layout of a window-1024 detector must
    /// fit inside it even when every retained value is distinct, its
    /// codebook's worst case.
    #[test]
    fn code_layout_heap_fits_the_hot_stream_cost_model() {
        let config = DpdBuilder::new().window(1024).table_config().unwrap();
        let priced = hot_heap_bytes(&config) as usize - std::mem::size_of::<HotState>();
        let looped: Vec<i64> = (0..20_000).map(|i| 0x40_0000 + i % 97 * 0x40).collect();
        let distinct: Vec<i64> = (0..20_000).map(|i| 0x40_0000 + i * 0x40).collect();
        for data in [looped, distinct] {
            let mut dpd = StreamingDpd::events(config.detector).unwrap();
            dpd.push_slice(&data);
            let engine = dpd.engine();
            assert!(engine.uses_codes());
            let heap = engine.heap_bytes() + dpd.stats().periods.capacity() * 16;
            assert!(heap <= priced, "{heap} heap bytes against {priced} priced");
        }
    }

    /// A recycled hot state is reset, codebook included, to exactly what
    /// a new detector is: at a wide window, a stream reborn in place after
    /// idle eviction, and a new stream that takes a swept state from the
    /// pool, emit the same events as a fresh detector fed their samples.
    #[test]
    fn recycled_wide_detectors_equal_fresh_ones() {
        let mut table = table_with_eviction(256, 64);
        let detector = table.config().detector;
        // All-distinct values, then a loop: a well-used codebook.
        let first: Vec<i64> = (0..700).chain((0..600).map(|i| i % 9)).collect();
        let second: Vec<i64> = (0..1500).map(|i| [5, 1_000, -7, 5, 42][i % 5]).collect();
        let expect = StreamingDpd::events(detector).unwrap().push_slice(&second);
        assert!(!expect.is_empty());
        let events_of = |out: &[MultiStreamEvent], id: u64| -> Vec<SegmentEvent> {
            out.iter()
                .filter_map(|e| match e {
                    MultiStreamEvent::Segment { stream, event } if stream.0 == id => Some(*event),
                    _ => None,
                })
                .collect()
        };
        let mut out = Vec::new();
        table.ingest(0, StreamId(0), &first, &mut out);
        table.ingest(1300, StreamId(1), &first[..100], &mut out);
        // Stream 0 returns idle past the watermark: reborn in place.
        out.clear();
        table.ingest(1400, StreamId(0), &second, &mut out);
        assert_eq!(table.stats().evicted, 1);
        assert_eq!(events_of(&out, 0), expect);
        // Both streams swept into the pool; stream 2 takes a pooled state.
        assert_eq!(table.sweep(3000), 2);
        out.clear();
        table.ingest(3000, StreamId(2), &second, &mut out);
        assert_eq!(events_of(&out, 2), expect);
    }

    #[test]
    fn idle_eviction_resets_detector_state() {
        let mut table = table_with_eviction(8, 16);
        let mut out = Vec::new();
        // Lock stream 0 to period 3.
        table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
        assert_eq!(table.locked_period(StreamId(0)), Some(3));
        // 100 global samples of other traffic go by (> watermark 16).
        table.ingest(24, StreamId(1), &periodic(5, 0, 100), &mut out);
        // Stream 0 returns: its old lock must be gone (fresh detector).
        out.clear();
        table.ingest(124, StreamId(0), &periodic(3, 0, 4), &mut out);
        assert_eq!(table.locked_period(StreamId(0)), None);
        assert_eq!(table.stats().evicted, 1);
        // ...and it re-locks with more data, proving the state is live.
        table.ingest(128, StreamId(0), &periodic(3, 4, 24), &mut out);
        assert_eq!(table.locked_period(StreamId(0)), Some(3));
    }

    #[test]
    fn sweep_matches_lazy_eviction_observably() {
        let mk = || table_with_eviction(8, 16);
        let feed = |table: &mut StreamTable, sweep_at: Option<u64>| {
            let mut out = Vec::new();
            table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
            table.ingest(24, StreamId(1), &periodic(5, 0, 100), &mut out);
            if let Some(seq) = sweep_at {
                table.sweep(seq);
            }
            table.ingest(124, StreamId(0), &periodic(3, 0, 30), &mut out);
            table.ingest(154, StreamId(1), &periodic(5, 100, 10), &mut out);
            out
        };
        let lazy = feed(&mut mk(), None);
        let swept = feed(&mut mk(), Some(124));
        assert_eq!(lazy, swept);
        // The sweep actually removed stream 0's state at seq 124.
        let mut probe = mk();
        let mut out = Vec::new();
        probe.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
        probe.ingest(24, StreamId(1), &periodic(5, 0, 100), &mut out);
        assert_eq!(probe.sweep(124), 1);
        assert_eq!(probe.len(), 1);
        assert_eq!(probe.stats().evicted, 1);
    }

    #[test]
    fn close_emits_final_flush() {
        let mut table = table_with_window(8);
        let mut out = Vec::new();
        table.ingest(0, StreamId(7), &periodic(4, 0, 32), &mut out);
        out.clear();
        assert!(table.close(32, StreamId(7), &mut out));
        assert_eq!(
            out,
            vec![MultiStreamEvent::Closed {
                stream: StreamId(7),
                samples: 32,
                period: Some(4),
            }]
        );
        assert!(!table.close(32, StreamId(7), &mut out), "already closed");
        assert_eq!(table.stats().closed, 1);
        assert!(table.is_empty());
    }

    #[test]
    fn close_all_is_ascending_by_id() {
        let mut table = table_with_window(8);
        let mut out = Vec::new();
        for &s in &[9u64, 2, 5] {
            table.ingest(0, StreamId(s), &periodic(3, 0, 6), &mut out);
        }
        out.clear();
        table.close_all(18, &mut out);
        let order: Vec<u64> = out.iter().map(|e| e.stream().0).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn close_of_idle_stream_evicts_silently() {
        let mut table = table_with_eviction(8, 16);
        let mut out = Vec::new();
        table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
        out.clear();
        // Clock 200: stream 0 sat idle far past the watermark. Whether or
        // not a sweep ran in between, close must not flush it.
        assert!(!table.close(200, StreamId(0), &mut out));
        assert!(out.is_empty());
        assert_eq!(table.stats().evicted, 1);
        assert_eq!(table.stats().closed, 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut table = table_with_window(8);
        let mut out = Vec::new();
        table.ingest(0, StreamId(1), &[], &mut out);
        assert!(table.is_empty());
        assert_eq!(table.stats().samples, 0);
    }

    #[test]
    fn shard_of_spreads_sequential_ids() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for s in 0..8000u64 {
            counts[shard_of(StreamId(s), shards)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "shard {i} got {c} of 8000 streams"
            );
        }
        // Stable: same input, same route.
        assert_eq!(shard_of(StreamId(42), 8), shard_of(StreamId(42), 8));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_of_zero_panics() {
        let _ = shard_of(StreamId(1), 0);
    }

    #[test]
    fn forecasting_table_scores_per_stream() {
        let mut table = DpdBuilder::new()
            .window(8)
            .forecast(2)
            .build_table()
            .unwrap();
        let mut out = Vec::new();
        table.ingest(0, StreamId(1), &periodic(3, 0, 60), &mut out);
        table.ingest(60, StreamId(2), &periodic(5, 0, 60), &mut out);
        let t = table.stats();
        assert!(t.forecast_checked > 0);
        assert_eq!(t.forecast_hits, t.forecast_checked);
        assert_eq!(t.forecast_hit_rate(), Some(1.0));
        for s in [1u64, 2] {
            let fs = table.forecast_stats(StreamId(s)).unwrap();
            assert_eq!(fs.hit_rate(), Some(1.0), "stream {s}");
            assert!(table.forecast_confidence(StreamId(s)).unwrap() > 0.9);
        }
        // Table totals are the sum of per-stream stats while all live.
        let sum: u64 = [1u64, 2]
            .iter()
            .map(|&s| table.forecast_stats(StreamId(s)).unwrap().checked)
            .sum();
        assert_eq!(sum, t.forecast_checked);
        // Forecast slice for stream 1: period 3, last sample of
        // periodic(3, 0, 60) is value (59 % 3) = 2.
        let fc = table.forecast(StreamId(1), 2).unwrap();
        assert_eq!(fc.period, 3);
        assert_eq!(fc.predicted, &[0, 1]);
    }

    #[test]
    fn non_forecasting_table_reports_none() {
        let mut table = table_with_window(8);
        let mut out = Vec::new();
        table.ingest(0, StreamId(1), &periodic(3, 0, 40), &mut out);
        assert_eq!(table.forecast_stats(StreamId(1)), None);
        assert_eq!(table.forecast_confidence(StreamId(1)), None);
        assert!(table.forecast(StreamId(1), 1).is_none());
        assert_eq!(table.stats().forecast_checked, 0);
    }

    #[test]
    fn eviction_resets_forecast_state_but_keeps_table_counters() {
        let mut table = DpdBuilder::new()
            .window(8)
            .evict_after(16)
            .forecast(1)
            .build_table()
            .unwrap();
        let mut out = Vec::new();
        table.ingest(0, StreamId(0), &periodic(3, 0, 40), &mut out);
        let before = table.stats().forecast_checked;
        assert!(before > 0);
        assert!(table.forecast_stats(StreamId(0)).unwrap().checked > 0);
        // Idle past the watermark, then return: per-stream stats reset,
        // table rollups stay monotonic.
        table.ingest(40, StreamId(1), &periodic(4, 0, 100), &mut out);
        table.ingest(140, StreamId(0), &periodic(3, 0, 4), &mut out);
        let fs = table.forecast_stats(StreamId(0)).unwrap();
        assert_eq!(fs.checked, 0, "fresh predictor after eviction");
        assert_eq!(table.forecast_confidence(StreamId(0)), Some(0.0));
        assert!(table.stats().forecast_checked >= before);
    }

    #[test]
    fn stats_roll_up() {
        let mut table = table_with_window(8);
        let out = drive(&mut table, 2, 10, 10);
        let st = table.stats();
        assert_eq!(st.streams, 2);
        assert_eq!(st.samples, 200);
        assert_eq!(st.events, out.len() as u64);
        assert_eq!(st.evicted, 0);
    }

    // ------------------------------------------------------------------
    // Handle-first API.

    #[test]
    fn handles_resolve_and_delegate() {
        let mut table = DpdBuilder::new()
            .window(8)
            .forecast(2)
            .build_table()
            .unwrap();
        let mut out = Vec::new();
        table.ingest(0, StreamId(5), &periodic(3, 0, 40), &mut out);
        let h = table.resolve(StreamId(5)).unwrap();
        assert_eq!(table.id_of(h), Some(StreamId(5)));
        assert_eq!(table.tier_of(h), Some(StreamTier::Hot));
        assert_eq!(table.locked_period_of(h), table.locked_period(StreamId(5)));
        assert_eq!(
            table.forecast_stats_of(h),
            table.forecast_stats(StreamId(5))
        );
        assert_eq!(
            table.forecast_confidence_of(h),
            table.forecast_confidence(StreamId(5))
        );
        let s = table.summary_of(h).unwrap();
        assert_eq!(s.samples, 40);
        assert_eq!(s.period, Some(3));
        assert!(s.confidence > 0.9);
        assert!(table.resolve(StreamId(6)).is_none());
    }

    #[test]
    fn ingest_handle_matches_ingest_by_id() {
        let mk = || {
            DpdBuilder::new()
                .window(8)
                .evict_after(64)
                .forecast(1)
                .build_table()
                .unwrap()
        };
        let mut by_id = mk();
        let mut by_handle = mk();
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        let mut seq = 0u64;
        for round in 0..12u64 {
            for s in 0..3u64 {
                let chunk = periodic(s + 2, round * 6, 6);
                by_id.ingest(seq, StreamId(s), &chunk, &mut ea);
                match by_handle.resolve(StreamId(s)) {
                    Some(h) => assert!(by_handle.ingest_handle(seq, h, &chunk, &mut eb)),
                    None => by_handle.ingest(seq, StreamId(s), &chunk, &mut eb),
                }
                seq += 6;
            }
        }
        assert_eq!(ea, eb, "handle ingest is byte-identical to id ingest");
        assert_eq!(by_id.stats(), by_handle.stats());
    }

    #[test]
    fn stale_handles_die_with_their_stream() {
        let mut table = table_with_eviction(8, 16);
        let mut out = Vec::new();
        table.ingest(0, StreamId(1), &periodic(3, 0, 12), &mut out);
        let h = table.resolve(StreamId(1)).unwrap();
        assert!(table.close(12, StreamId(1), &mut out));
        assert_eq!(table.id_of(h), None);
        assert_eq!(table.tier_of(h), None);
        assert!(table.summary_of(h).is_none());
        assert!(!table.ingest_handle(12, h, &[1, 2, 3], &mut out));
        // The re-created stream reuses the slot under a fresh generation.
        table.ingest(12, StreamId(1), &periodic(3, 0, 6), &mut out);
        assert_eq!(
            table.id_of(h),
            None,
            "old handle must not alias the new incarnation"
        );
        assert!(table.resolve(StreamId(1)).is_some());
    }

    #[test]
    fn stream_ids_iterates_live_slots() {
        let mut table = table_with_window(8);
        let mut out = Vec::new();
        for &s in &[9u64, 2, 5] {
            table.ingest(0, StreamId(s), &periodic(3, 0, 6), &mut out);
        }
        let mut ids: Vec<u64> = table.stream_ids().map(|s| s.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 5, 9]);
        table.close(18, StreamId(5), &mut out);
        let mut ids: Vec<u64> = table.stream_ids().map(|s| s.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 9]);
        assert_eq!(table.handles().count(), 2);
    }

    #[test]
    fn index_churn_matches_reference_model() {
        let mut idx = StreamIndex::new();
        let mut model: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let mut x = 7u64;
        for step in 0..20_000u64 {
            x = splitmix64(x ^ step);
            let key = x % 512; // heavy collisions, constant reuse
            match model.remove(&key) {
                Some(_) => idx.remove(key),
                None => {
                    let slot = (step % 90_000) as u32;
                    model.insert(key, slot);
                    idx.insert(key, slot);
                }
            }
            if step % 251 == 0 {
                for probe in 0..512u64 {
                    assert_eq!(
                        idx.get(probe),
                        model.get(&probe).copied(),
                        "key {probe} at step {step}"
                    );
                }
            }
        }
        assert_eq!(idx.len, model.len());
    }

    // ------------------------------------------------------------------
    // Cold tier.

    #[test]
    fn cold_tier_keeps_summary_then_expires() {
        let mut table = DpdBuilder::new()
            .window(8)
            .evict_after(16)
            .cold_summary(32)
            .build_table()
            .unwrap();
        let mut out = Vec::new();
        table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
        // last_seq 23; gap 25 at clock 48 (> 16, <= 48): logically cold.
        assert_eq!(table.sweep(48), 0, "cold window: demoted, not evicted");
        let h = table.resolve(StreamId(0)).unwrap();
        assert_eq!(table.tier_of(h), Some(StreamTier::Cold));
        assert_eq!(table.locked_period_of(h), None, "no resident detector");
        assert!(table.stream_stats_of(h).is_none());
        let s = table.summary_of(h).unwrap();
        assert_eq!(s.period, Some(3), "summary froze the lock");
        assert_eq!(s.samples, 24);
        let st = table.stats();
        assert_eq!((st.demoted, st.evicted, st.cold, st.streams), (1, 0, 1, 1));
        // Past evict_after + cold_retain the summary goes too.
        assert_eq!(table.sweep(23 + 16 + 32 + 1), 1);
        assert!(table.is_empty());
        assert_eq!(table.stats().evicted, 1);
    }

    #[test]
    fn cold_revival_restores_lifetime_rollups_exactly() {
        let mk = || {
            DpdBuilder::new()
                .window(8)
                .evict_after(16)
                .cold_summary(64)
                .forecast(1)
                .build_table()
                .unwrap()
        };
        let run = |sweep_at: Option<u64>| {
            let mut table = mk();
            let mut out = Vec::new();
            table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
            let before = table.summary(StreamId(0)).unwrap();
            if let Some(seq) = sweep_at {
                table.sweep(seq);
            }
            // Return inside the cold window (gap 37 <= 16 + 64).
            table.ingest(60, StreamId(0), &periodic(3, 0, 6), &mut out);
            (table, before, out)
        };
        let (mut lazy, before, lazy_out) = run(None);
        let (mut eager, _, eager_out) = run(Some(50));
        assert_eq!(lazy_out, eager_out, "events agree across sweep schedules");
        assert_eq!(lazy.stats(), eager.stats());
        for table in [&mut lazy, &mut eager] {
            let h = table.resolve(StreamId(0)).unwrap();
            assert_eq!(table.tier_of(h), Some(StreamTier::Hot));
            let after = table.summary_of(h).unwrap();
            assert_eq!(
                after.samples,
                before.samples + 6,
                "lifetime samples carried through the cold tier"
            );
            assert_eq!(after.boundaries, before.boundaries, "rollups exact");
            assert_eq!(after.forecast_checked, before.forecast_checked);
            assert_eq!(after.period, None, "fresh detector after revival");
            let st = table.stats();
            assert_eq!((st.demoted, st.promoted, st.evicted), (1, 1, 0));
            assert_eq!(st.created, 1, "revival is not a re-creation");
        }
    }

    #[test]
    fn cold_close_flushes_the_summary() {
        let mk = || {
            DpdBuilder::new()
                .window(8)
                .evict_after(16)
                .cold_summary(64)
                .build_table()
                .unwrap()
        };
        let mut table = mk();
        let mut out = Vec::new();
        table.ingest(0, StreamId(3), &periodic(4, 0, 32), &mut out);
        out.clear();
        // gap 30 at close: inside the cold window — demoted, then flushed.
        assert!(table.close(61, StreamId(3), &mut out));
        assert_eq!(
            out,
            vec![MultiStreamEvent::Closed {
                stream: StreamId(3),
                samples: 32,
                period: Some(4),
            }]
        );
        let st = table.stats();
        assert_eq!((st.demoted, st.closed, st.evicted), (1, 1, 0));
        // Past the whole horizon the close is a silent eviction instead.
        let mut table = mk();
        table.ingest(0, StreamId(3), &periodic(4, 0, 32), &mut out);
        out.clear();
        assert!(!table.close(400, StreamId(3), &mut out));
        assert!(out.is_empty());
        let st = table.stats();
        assert_eq!((st.demoted, st.closed, st.evicted), (1, 0, 1));
    }

    // ------------------------------------------------------------------
    // Memory budget.

    #[test]
    fn memory_budget_demotes_to_cold_and_accounts() {
        let probe = DpdBuilder::new().window(8).table_config().unwrap();
        // Room for ~3 hot streams plus slot overhead for the rest.
        let budget = probe.hot_stream_bytes() * 3 + probe.cold_stream_bytes() * 64;
        let mut table = DpdBuilder::new()
            .window(8)
            .cold_summary(1_000_000)
            .memory_budget(budget)
            .build_table()
            .unwrap();
        let mut out = Vec::new();
        for s in 0..32u64 {
            table.ingest(s * 8, StreamId(s), &periodic(3, 0, 8), &mut out);
            assert!(
                table.accounted_bytes() <= budget,
                "over budget after stream {s}"
            );
        }
        let st = table.stats();
        assert_eq!(st.streams, 32, "every stream stays resident");
        assert!(st.cold >= 28, "budget squeezed most cold (got {})", st.cold);
        assert_eq!(st.evicted, 0, "the cold tier absorbed the pressure");
        assert!(st.demoted >= 28);
    }

    #[test]
    fn memory_budget_without_cold_tier_evicts() {
        let probe = DpdBuilder::new().window(8).table_config().unwrap();
        let budget = probe.hot_stream_bytes() * 3;
        let mut table = DpdBuilder::new()
            .window(8)
            .memory_budget(budget)
            .build_table()
            .unwrap();
        let mut out = Vec::new();
        for s in 0..16u64 {
            table.ingest(s * 8, StreamId(s), &periodic(3, 0, 8), &mut out);
            assert!(table.accounted_bytes() <= budget);
        }
        let st = table.stats();
        assert!(st.streams <= 3, "budget holds {} streams", st.streams);
        assert!(st.evicted >= 13);
        assert_eq!((st.cold, st.demoted), (0, 0));
        // Evicted streams are gone: the clock hand took the oldest first.
        assert!(table.resolve(StreamId(0)).is_none());
    }

    #[test]
    fn accounting_returns_to_zero_when_drained() {
        let mut table = table_with_eviction(8, 16);
        let mut out = Vec::new();
        for s in 0..5u64 {
            table.ingest(s, StreamId(s), &periodic(3, 0, 4), &mut out);
        }
        assert_eq!(
            table.accounted_bytes(),
            5 * table.config().hot_stream_bytes()
        );
        table.close_all(18, &mut out);
        assert!(table.is_empty());
        assert_eq!(table.accounted_bytes(), 0);
    }
}
