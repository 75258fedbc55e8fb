//! Standing queries over the event stream: delta-evaluated subscriptions.
//!
//! [`QueryEngine`] holds a set of registered [`QuerySpec`] predicates and
//! answers them **incrementally**: it consumes the same per-sample deltas
//! the detector already emits ([`SegmentEvent`] transitions, scored
//! forecasts, stream retirement) and turns every state change into at most
//! a handful of [`QueryChange::Enter`]/[`QueryChange::Exit`] notifications.
//! It never rescans detector state — in the semi-naive tradition, work is
//! proportional to the *delta* (the streams and predicates a change can
//! affect), not to the table size or the number of registered queries:
//!
//! * **`period-in LO HI`** — streams whose locked period lies in
//!   `[LO, HI]`. Indexed by a per-period bucket list built at
//!   registration: a period change `p_old → p_new` touches only the
//!   queries whose interval covers `p_old` or `p_new`.
//! * **`lock-lost-within N`** — streams that reported
//!   [`SegmentEvent::PeriodLost`] within the last `N` global samples.
//!   `Enter` fires at the loss; the matching `Exit` is armed on a
//!   deadline min-heap and fires at exactly `loss + N`, independent of
//!   how the clock is advanced.
//! * **`confidence-at-least T`** — streams whose forecast confidence
//!   (the engine's own EWMA over scored forecast hits, `alpha = 1/8`,
//!   starting at `0`) is at least `T`. Indexed by a sorted threshold
//!   list: a confidence move flips exactly the thresholds inside the
//!   `(old, new]` band.
//! * **`period-join TOL`** — the cross-stream join: streams whose locked
//!   period is within `TOL` of *another* live locked stream's period.
//!   Maintained from per-period membership buckets; a period change
//!   re-evaluates only the streams within `TOL` of the old or new value.
//!
//! Membership per `(query, stream)` is a bitset keyed by the engine's own
//! compact stream slot, so `Enter`/`Exit` strictly alternate by
//! construction. The engine is wired into [`crate::shard::StreamTable`]
//! (see `DpdBuilder::standing_query`), which feeds it from the ingest hot
//! loop and retires streams on eviction/close; `tests/proptest_query.rs`
//! proves the incremental results equal a naive full-rescan oracle.
//! Grammar, semantics and the scaling contract are specified in
//! `docs/QUERIES.md`.

use crate::shard::StreamId;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::streaming::SegmentEvent;
use std::collections::HashMap;

/// EWMA weight of one scored forecast in the engine's confidence estimate.
///
/// This is the query layer's *own* confidence — derived purely from the
/// scored-forecast deltas it consumes — and is deliberately distinct from
/// the predictor's internal EWMA (which the engine never reads).
pub const CONFIDENCE_ALPHA: f64 = 1.0 / 8.0;

/// Upper bound on a `period-in` / `period-join` period value; bounds the
/// registration-time index allocation (`O(hi)` bucket lists).
pub const MAX_QUERY_PERIOD: usize = 1 << 16;

/// Identifier of one registered standing query: its zero-based
/// registration index, stable for the lifetime of the engine (and across
/// snapshot/restore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query#{}", self.0)
    }
}

/// One standing-query predicate over per-stream detector state.
///
/// Specs render in the text grammar accepted by [`parse_specs`] (one
/// query per line), so `spec.to_string()` round-trips through the parser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuerySpec {
    /// Streams whose locked period lies in `[lo, hi]` (inclusive).
    PeriodInRange {
        /// Smallest matching period (≥ 1).
        lo: usize,
        /// Largest matching period (≥ `lo`, ≤ [`MAX_QUERY_PERIOD`]).
        hi: usize,
    },
    /// Streams that lost periodicity lock within the last `window` global
    /// samples.
    LockLostWithin {
        /// Number of global samples a loss stays visible for (≥ 1).
        window: u64,
    },
    /// Streams whose scored-forecast confidence EWMA is at least
    /// `threshold`.
    ConfidenceAtLeast {
        /// Matching threshold, in `(0, 1]`.
        threshold: f64,
    },
    /// Cross-stream join: streams whose locked period is within
    /// `tolerance` of another live locked stream's period.
    PeriodJoin {
        /// Maximum period difference for two streams to join
        /// (`0` = exactly equal periods).
        tolerance: usize,
    },
}

impl std::fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuerySpec::PeriodInRange { lo, hi } => write!(f, "period-in {lo} {hi}"),
            QuerySpec::LockLostWithin { window } => write!(f, "lock-lost-within {window}"),
            QuerySpec::ConfidenceAtLeast { threshold } => {
                write!(f, "confidence-at-least {threshold}")
            }
            QuerySpec::PeriodJoin { tolerance } => write!(f, "period-join {tolerance}"),
        }
    }
}

impl QuerySpec {
    /// `true` when the spec's parameters are usable: non-empty period
    /// range within [`MAX_QUERY_PERIOD`], non-zero loss window, finite
    /// threshold in `(0, 1]`, join tolerance within [`MAX_QUERY_PERIOD`].
    pub fn is_valid(&self) -> bool {
        match *self {
            QuerySpec::PeriodInRange { lo, hi } => lo >= 1 && lo <= hi && hi <= MAX_QUERY_PERIOD,
            QuerySpec::LockLostWithin { window } => window >= 1,
            QuerySpec::ConfidenceAtLeast { threshold } => {
                threshold.is_finite() && threshold > 0.0 && threshold <= 1.0
            }
            QuerySpec::PeriodJoin { tolerance } => tolerance <= MAX_QUERY_PERIOD,
        }
    }
}

/// A membership transition of one stream for one standing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryChange {
    /// The stream now satisfies the query.
    Enter,
    /// The stream no longer satisfies the query.
    Exit,
}

/// One incremental notification: at global sample clock `seq`, `stream`
/// entered or exited the result set of `query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryDelta {
    /// Global sample clock of the state change that caused the transition.
    pub seq: u64,
    /// The registered query whose result set changed.
    pub query: QueryId,
    /// The stream that entered or exited.
    pub stream: StreamId,
    /// The direction of the transition.
    pub change: QueryChange,
}

impl std::fmt::Display for QueryDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verb = match self.change {
            QueryChange::Enter => "enter",
            QueryChange::Exit => "exit",
        };
        write!(
            f,
            "[{:>6}] {} {} stream#{}",
            self.seq, self.query, verb, self.stream.0
        )
    }
}

/// Error from parsing a standing-query spec file ([`parse_specs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query spec line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSpecError {}

/// Parse the standing-query spec grammar: one query per line, `#` starts
/// a comment, blank lines ignored. Accepted forms (see `docs/QUERIES.md`):
///
/// ```text
/// period-in LO HI
/// lock-lost-within N
/// confidence-at-least T
/// period-join TOL
/// ```
pub fn parse_specs(text: &str) -> Result<Vec<QuerySpec>, ParseSpecError> {
    let mut specs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ParseSpecError {
            line: idx + 1,
            message,
        };
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("non-empty line has a first word");
        let args: Vec<&str> = words.collect();
        let spec = match keyword {
            "period-in" => {
                let [lo, hi] = args[..] else {
                    return Err(err(format!(
                        "period-in takes 2 arguments (LO HI), got {}",
                        args.len()
                    )));
                };
                let lo = lo
                    .parse::<usize>()
                    .map_err(|_| err(format!("bad period bound {lo:?}")))?;
                let hi = hi
                    .parse::<usize>()
                    .map_err(|_| err(format!("bad period bound {hi:?}")))?;
                QuerySpec::PeriodInRange { lo, hi }
            }
            "lock-lost-within" => {
                let [n] = args[..] else {
                    return Err(err(format!(
                        "lock-lost-within takes 1 argument (N), got {}",
                        args.len()
                    )));
                };
                let window = n
                    .parse::<u64>()
                    .map_err(|_| err(format!("bad sample window {n:?}")))?;
                QuerySpec::LockLostWithin { window }
            }
            "confidence-at-least" => {
                let [t] = args[..] else {
                    return Err(err(format!(
                        "confidence-at-least takes 1 argument (T), got {}",
                        args.len()
                    )));
                };
                let threshold = t
                    .parse::<f64>()
                    .map_err(|_| err(format!("bad threshold {t:?}")))?;
                QuerySpec::ConfidenceAtLeast { threshold }
            }
            "period-join" => {
                let [tol] = args[..] else {
                    return Err(err(format!(
                        "period-join takes 1 argument (TOL), got {}",
                        args.len()
                    )));
                };
                let tolerance = tol
                    .parse::<usize>()
                    .map_err(|_| err(format!("bad tolerance {tol:?}")))?;
                QuerySpec::PeriodJoin { tolerance }
            }
            other => {
                return Err(err(format!(
                    "unknown query kind {other:?} (expected period-in, \
                     lock-lost-within, confidence-at-least or period-join)"
                )))
            }
        };
        if !spec.is_valid() {
            return Err(err(format!("invalid parameters for `{spec}`")));
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// The per-stream facts the engine has accumulated from event deltas.
/// Exposed for differential oracles (`tests/proptest_query.rs`): a naive
/// full rescan over these facts must reproduce the incremental result
/// sets exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedStream {
    /// The stream the facts belong to.
    pub stream: StreamId,
    /// Currently locked period, if any.
    pub period: Option<usize>,
    /// Global clock of the most recent lock loss, if any.
    pub last_loss: Option<u64>,
    /// Scored-forecast confidence EWMA ([`CONFIDENCE_ALPHA`]); `0` until
    /// the first scored forecast.
    pub confidence: f64,
}

/// Engine-local per-stream state (compact slot, reused via a free list).
#[derive(Debug, Clone)]
struct StreamSlot {
    id: u64,
    /// Bumped on retire so parked heap deadlines die lazily.
    epoch: u32,
    period: Option<u32>,
    /// Position inside `period_members[period]`, for O(1) swap-remove.
    bucket_pos: u32,
    last_loss: Option<u64>,
    confidence: f64,
    live: bool,
}

/// A parked `lock-lost-within` exit: fires at `deadline` for `(slot,
/// query)` unless the slot's epoch moved or a newer loss re-armed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Deadline {
    deadline: u64,
    slot: u32,
    epoch: u32,
    query: u32,
}

/// The delta-evaluated standing-query engine. See the module docs for
/// semantics; construction is via [`QueryEngine::new`] with pre-validated
/// specs (the builder's `standing_query` is the validating entry point).
#[derive(Debug)]
pub struct QueryEngine {
    specs: Vec<QuerySpec>,
    /// `period → range queries covering it` (len = max `hi` + 1).
    range_index: Vec<Vec<u32>>,
    /// `(threshold, query)` ascending — binary-searched per band flip.
    conf_index: Vec<(f64, u32)>,
    /// `(query, window)` of every `lock-lost-within` query.
    lost_queries: Vec<(u32, u64)>,
    /// `(query, tolerance)` of every `period-join` query.
    join_queries: Vec<(u32, usize)>,
    /// Live locked streams per period value (grown on demand).
    period_members: Vec<Vec<u32>>,
    slots: Vec<StreamSlot>,
    free: Vec<u32>,
    by_id: HashMap<u64, u32>,
    /// Per-query membership bitsets over engine slots.
    member: Vec<Vec<u64>>,
    /// Binary min-heap of parked lock-lost exits.
    deadlines: Vec<Deadline>,
    clock: u64,
    deltas: Vec<QueryDelta>,
    enters: u64,
    exits: u64,
    /// Scratch for join re-evaluation (kept to avoid per-event allocation).
    scratch: Vec<u32>,
}

impl QueryEngine {
    /// Engine over `specs`. Panics on a spec that fails
    /// [`QuerySpec::is_valid`] — validation belongs to the registration
    /// surface (`DpdBuilder::standing_query`, [`parse_specs`]).
    pub fn new(specs: Vec<QuerySpec>) -> Self {
        let mut range_hi = 0usize;
        for spec in &specs {
            assert!(spec.is_valid(), "invalid standing-query spec: {spec}");
            if let QuerySpec::PeriodInRange { hi, .. } = *spec {
                range_hi = range_hi.max(hi);
            }
        }
        let mut range_index = vec![Vec::new(); range_hi + 1];
        let mut conf_index = Vec::new();
        let mut lost_queries = Vec::new();
        let mut join_queries = Vec::new();
        for (q, spec) in specs.iter().enumerate() {
            let q = q as u32;
            match *spec {
                QuerySpec::PeriodInRange { lo, hi } => {
                    for bucket in &mut range_index[lo..=hi] {
                        bucket.push(q);
                    }
                }
                QuerySpec::LockLostWithin { window } => lost_queries.push((q, window)),
                QuerySpec::ConfidenceAtLeast { threshold } => conf_index.push((threshold, q)),
                QuerySpec::PeriodJoin { tolerance } => join_queries.push((q, tolerance)),
            }
        }
        conf_index.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let member = vec![Vec::new(); specs.len()];
        QueryEngine {
            specs,
            range_index,
            conf_index,
            lost_queries,
            join_queries,
            period_members: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            by_id: HashMap::new(),
            member,
            deadlines: Vec::new(),
            clock: 0,
            deltas: Vec::new(),
            enters: 0,
            exits: 0,
            scratch: Vec::new(),
        }
    }

    /// The registered specs, in [`QueryId`] order.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// Total `Enter` transitions emitted over the engine's lifetime.
    pub fn enters(&self) -> u64 {
        self.enters
    }

    /// Total `Exit` transitions emitted over the engine's lifetime.
    pub fn exits(&self) -> u64 {
        self.exits
    }

    /// The engine's global sample clock: the largest `seq` it has seen.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    // ------------------------------------------------------------------
    // Delta intake.

    /// Consume one segmentation delta of `stream` at global clock `seq`.
    pub fn on_segment(&mut self, stream: StreamId, event: SegmentEvent, seq: u64) {
        self.clock = self.clock.max(seq);
        match event {
            SegmentEvent::None => {}
            SegmentEvent::PeriodStart { period, .. } => {
                let slot = self.slot_for(stream);
                self.set_period(slot, Some(period.min(u32::MAX as usize) as u32), seq);
            }
            SegmentEvent::PeriodLost { .. } => {
                let slot = self.slot_for(stream);
                self.set_period(slot, None, seq);
                self.slots[slot as usize].last_loss = Some(seq);
                let epoch = self.slots[slot as usize].epoch;
                for i in 0..self.lost_queries.len() {
                    let (q, window) = self.lost_queries[i];
                    self.set_member(q, slot, true, seq);
                    self.deadlines_push(Deadline {
                        deadline: seq.saturating_add(window),
                        slot,
                        epoch,
                        query: q,
                    });
                }
            }
        }
    }

    /// Consume one scored-forecast delta: `stream`'s `H`-step forecast was
    /// checked against the arrived sample at `seq` and hit or missed.
    pub fn on_scored(&mut self, stream: StreamId, hit: bool, seq: u64) {
        self.clock = self.clock.max(seq);
        if self.conf_index.is_empty() {
            return;
        }
        let slot = self.slot_for(stream);
        let old = self.slots[slot as usize].confidence;
        let target = if hit { 1.0 } else { 0.0 };
        let new = old + CONFIDENCE_ALPHA * (target - old);
        self.slots[slot as usize].confidence = new;
        // Thresholds strictly inside the (min, max] band flip: membership
        // is `confidence >= threshold`, thresholds are > 0, confidence
        // starts at 0 — so pre-first-score streams are never members.
        let (lo, hi, entering) = if new > old {
            (old, new, true)
        } else if new < old {
            (new, old, false)
        } else {
            return;
        };
        let start = self.conf_index.partition_point(|&(t, _)| t <= lo);
        let end = self.conf_index.partition_point(|&(t, _)| t <= hi);
        for i in start..end {
            let q = self.conf_index[i].1;
            self.set_member(q, slot, entering, seq);
        }
    }

    /// The stream left the table (evicted, closed, or reset to a fresh
    /// incarnation): exit every membership at clock `seq` and forget its
    /// facts. A later event for the same [`StreamId`] starts from scratch.
    pub fn retire(&mut self, stream: StreamId, seq: u64) {
        self.clock = self.clock.max(seq);
        let Some(&slot) = self.by_id.get(&stream.0) else {
            return;
        };
        let at = self.clock;
        for q in 0..self.specs.len() as u32 {
            self.set_member(q, slot, false, at);
        }
        self.unbucket(slot, at);
        let s = &mut self.slots[slot as usize];
        s.live = false;
        s.period = None;
        s.last_loss = None;
        s.confidence = 0.0;
        s.epoch = s.epoch.wrapping_add(1);
        self.by_id.remove(&stream.0);
        self.free.push(slot);
    }

    /// The detector of `stream` was reset without a loss event (idle
    /// re-promotion from a cold summary discards detector and predictor
    /// state): clear the lock- and confidence-derived facts, exiting the
    /// memberships they carried, but keep the stream tracked. Pending
    /// `lock-lost-within` memberships still expire on their original
    /// deadlines — a reset is not a loss.
    pub fn reset_lock(&mut self, stream: StreamId, seq: u64) {
        self.clock = self.clock.max(seq);
        let Some(&slot) = self.by_id.get(&stream.0) else {
            return;
        };
        self.set_period(slot, None, seq);
        let old = self.slots[slot as usize].confidence;
        if old > 0.0 {
            self.slots[slot as usize].confidence = 0.0;
            let end = self.conf_index.partition_point(|&(t, _)| t <= old);
            for i in 0..end {
                let q = self.conf_index[i].1;
                self.set_member(q, slot, false, seq);
            }
        }
    }

    /// Advance the global clock to `clock`, firing every parked
    /// `lock-lost-within` exit whose deadline has passed. Exit `seq` is
    /// always `loss + window` — a pure function of the loss event,
    /// independent of the advance schedule.
    pub fn advance(&mut self, clock: u64) {
        self.clock = self.clock.max(clock);
        while let Some(&top) = self.deadlines.first() {
            if top.deadline > self.clock {
                break;
            }
            self.deadlines_pop();
            let s = &self.slots[top.slot as usize];
            if !s.live || s.epoch != top.epoch {
                continue;
            }
            let window = self
                .lost_queries
                .iter()
                .find(|&&(q, _)| q == top.query)
                .map(|&(_, w)| w)
                .expect("deadline for a registered lock-lost query");
            // A newer loss re-armed this (slot, query) with a later
            // deadline; that entry (still parked) owns the exit.
            let armed = s.last_loss.map(|l| l.saturating_add(window));
            if armed != Some(top.deadline) {
                continue;
            }
            self.set_member(top.query, top.slot, false, top.deadline);
        }
    }

    // ------------------------------------------------------------------
    // Results.

    /// Current members of `query`, ascending by stream id. `None` when the
    /// id was never registered.
    pub fn members(&self, query: QueryId) -> Option<Vec<StreamId>> {
        let bits = self.member.get(query.0 as usize)?;
        let mut out = Vec::new();
        for (word_idx, &word) in bits.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                out.push(StreamId(self.slots[word_idx * 64 + bit].id));
            }
        }
        out.sort_unstable_by_key(|s| s.0);
        Some(out)
    }

    /// `true` when `stream` is currently a member of `query`.
    pub fn is_member(&self, query: QueryId, stream: StreamId) -> bool {
        let Some(&slot) = self.by_id.get(&stream.0) else {
            return false;
        };
        self.member
            .get(query.0 as usize)
            .is_some_and(|bits| bit_get(bits, slot as usize))
    }

    /// Every stream the engine currently tracks, ascending by id — the
    /// fact base a full-rescan oracle re-evaluates the specs over.
    pub fn tracked(&self) -> Vec<TrackedStream> {
        let mut out: Vec<TrackedStream> = self
            .slots
            .iter()
            .filter(|s| s.live)
            .map(|s| TrackedStream {
                stream: StreamId(s.id),
                period: s.period.map(|p| p as usize),
                last_loss: s.last_loss,
                confidence: s.confidence,
            })
            .collect();
        out.sort_unstable_by_key(|t| t.stream.0);
        out
    }

    /// Move every pending delta into `out`, preserving emission order.
    pub fn drain_deltas(&mut self, out: &mut Vec<QueryDelta>) {
        out.append(&mut self.deltas);
    }

    /// Take the pending deltas, leaving the buffer empty.
    pub fn take_deltas(&mut self) -> Vec<QueryDelta> {
        std::mem::take(&mut self.deltas)
    }

    /// Number of pending (undrained) deltas.
    pub fn pending_deltas(&self) -> usize {
        self.deltas.len()
    }

    // ------------------------------------------------------------------
    // Internals.

    fn slot_for(&mut self, stream: StreamId) -> u32 {
        if let Some(&slot) = self.by_id.get(&stream.0) {
            return slot;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.id = stream.0;
                s.live = true;
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(StreamSlot {
                    id: stream.0,
                    epoch: 0,
                    period: None,
                    bucket_pos: 0,
                    last_loss: None,
                    confidence: 0.0,
                    live: true,
                });
                slot
            }
        };
        self.by_id.insert(stream.0, slot);
        slot
    }

    /// Record a period transition: maintain the range-query memberships,
    /// the per-period join buckets, and re-evaluate the join neighborhoods
    /// of the old and new period values.
    fn set_period(&mut self, slot: u32, new: Option<u32>, seq: u64) {
        let old = self.slots[slot as usize].period;
        if old == new {
            return;
        }
        // Range queries: only those covering the old or new value move.
        for q in self.range_queries_at(old) {
            if !self.range_covers(q, new) {
                self.set_member(q, slot, false, seq);
            }
        }
        for q in self.range_queries_at(new) {
            if !self.range_covers(q, old) {
                self.set_member(q, slot, true, seq);
            }
        }
        // Join buckets: move the stream, then re-evaluate the affected
        // neighborhoods (including the stream itself at its new period).
        if let Some(p) = old {
            self.bucket_remove(slot, p as usize);
        }
        self.slots[slot as usize].period = new;
        if let Some(p) = new {
            self.bucket_insert(slot, p as usize);
        }
        if !self.join_queries.is_empty() {
            if new.is_none() {
                // Unlocked streams never join.
                for i in 0..self.join_queries.len() {
                    let (q, _) = self.join_queries[i];
                    self.set_member(q, slot, false, seq);
                }
            }
            self.reeval_join_near(old, seq);
            self.reeval_join_near(new, seq);
        }
    }

    /// Drop the stream from its period bucket (if locked) and re-evaluate
    /// the join neighborhood its departure may have broken.
    fn unbucket(&mut self, slot: u32, seq: u64) {
        if let Some(p) = self.slots[slot as usize].period {
            self.bucket_remove(slot, p as usize);
            self.slots[slot as usize].period = None;
            self.reeval_join_near(Some(p), seq);
        }
    }

    fn range_queries_at(&self, period: Option<u32>) -> Vec<u32> {
        match period {
            Some(p) => self
                .range_index
                .get(p as usize)
                .cloned()
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    fn range_covers(&self, q: u32, period: Option<u32>) -> bool {
        let QuerySpec::PeriodInRange { lo, hi } = self.specs[q as usize] else {
            unreachable!("range index names a range query");
        };
        period.is_some_and(|p| (lo..=hi).contains(&(p as usize)))
    }

    fn bucket_insert(&mut self, slot: u32, period: usize) {
        if self.period_members.len() <= period {
            self.period_members.resize_with(period + 1, Vec::new);
        }
        self.slots[slot as usize].bucket_pos = self.period_members[period].len() as u32;
        self.period_members[period].push(slot);
    }

    fn bucket_remove(&mut self, slot: u32, period: usize) {
        let pos = self.slots[slot as usize].bucket_pos as usize;
        let bucket = &mut self.period_members[period];
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.slots[moved as usize].bucket_pos = pos as u32;
        }
    }

    /// Live locked streams with period in `[p - tol, p + tol]`.
    fn join_degree(&self, p: usize, tol: usize) -> usize {
        let lo = p.saturating_sub(tol);
        let hi = (p + tol).min(self.period_members.len().saturating_sub(1));
        if lo >= self.period_members.len() {
            return 0;
        }
        self.period_members[lo..=hi].iter().map(Vec::len).sum()
    }

    /// Re-evaluate every join query's membership for the streams whose
    /// period lies within that query's tolerance of `center` — exactly the
    /// streams a change at `center` can affect.
    fn reeval_join_near(&mut self, center: Option<u32>, seq: u64) {
        let Some(center) = center else {
            return;
        };
        let center = center as usize;
        for i in 0..self.join_queries.len() {
            let (q, tol) = self.join_queries[i];
            let lo = center.saturating_sub(tol);
            let hi = (center + tol).min(self.period_members.len().saturating_sub(1));
            if lo >= self.period_members.len() {
                continue;
            }
            self.scratch.clear();
            for p in lo..=hi {
                self.scratch.extend_from_slice(&self.period_members[p]);
            }
            let mut scratch = std::mem::take(&mut self.scratch);
            for &slot in &scratch {
                let p = self.slots[slot as usize].period.expect("bucketed ⇒ locked") as usize;
                let joined = self.join_degree(p, tol) >= 2;
                self.set_member(q, slot, joined, seq);
            }
            scratch.clear();
            self.scratch = scratch;
        }
    }

    /// Flip one membership bit, emitting the delta when it actually moves.
    /// Idempotent: setting a bit to its current value is a no-op, which is
    /// what makes `Enter`/`Exit` strictly alternate per (query, stream).
    fn set_member(&mut self, q: u32, slot: u32, member: bool, seq: u64) {
        let bits = &mut self.member[q as usize];
        if bit_get(bits, slot as usize) == member {
            return;
        }
        bit_set(bits, slot as usize, member);
        let change = if member {
            self.enters += 1;
            QueryChange::Enter
        } else {
            self.exits += 1;
            QueryChange::Exit
        };
        self.deltas.push(QueryDelta {
            seq,
            query: QueryId(q),
            stream: StreamId(self.slots[slot as usize].id),
            change,
        });
    }

    // Binary min-heap over `Deadline` (ordered by `deadline`; ties broken
    // by slot/query for determinism).

    fn deadlines_push(&mut self, d: Deadline) {
        self.deadlines.push(d);
        let mut i = self.deadlines.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if deadline_key(&self.deadlines[i]) < deadline_key(&self.deadlines[parent]) {
                self.deadlines.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn deadlines_pop(&mut self) -> Option<Deadline> {
        if self.deadlines.is_empty() {
            return None;
        }
        let last = self.deadlines.len() - 1;
        self.deadlines.swap(0, last);
        let top = self.deadlines.pop();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.deadlines.len()
                && deadline_key(&self.deadlines[l]) < deadline_key(&self.deadlines[smallest])
            {
                smallest = l;
            }
            if r < self.deadlines.len()
                && deadline_key(&self.deadlines[r]) < deadline_key(&self.deadlines[smallest])
            {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.deadlines.swap(i, smallest);
            i = smallest;
        }
        top
    }

    // ------------------------------------------------------------------
    // Snapshot hooks (body of the `TAG_TABLE_V3` query section; see
    // `crate::snapshot` and docs/FORMAT.md §12). Memberships, join buckets
    // and the deadline heap are *rebuilt* from the serialized facts — they
    // are pure functions of (facts, clock), so post-restore deltas are
    // bit-identical to an uninterrupted run.

    pub(crate) fn snapshot_state(&self, w: &mut SnapshotWriter) {
        w.u64(self.specs.len() as u64);
        for spec in &self.specs {
            match *spec {
                QuerySpec::PeriodInRange { lo, hi } => {
                    w.u8(1);
                    w.u64(lo as u64);
                    w.u64(hi as u64);
                }
                QuerySpec::LockLostWithin { window } => {
                    w.u8(2);
                    w.u64(window);
                }
                QuerySpec::ConfidenceAtLeast { threshold } => {
                    w.u8(3);
                    w.f64(threshold);
                }
                QuerySpec::PeriodJoin { tolerance } => {
                    w.u8(4);
                    w.u64(tolerance as u64);
                }
            }
        }
        w.u64(self.clock);
        w.u64(self.enters);
        w.u64(self.exits);
        let tracked = self.tracked();
        w.u64(tracked.len() as u64);
        for t in &tracked {
            w.u64(t.stream.0);
            w.u64(t.period.map_or(0, |p| p as u64 + 1));
            w.bool(t.last_loss.is_some());
            w.u64(t.last_loss.unwrap_or(0));
            w.f64(t.confidence);
        }
        w.u64(self.deltas.len() as u64);
        for d in &self.deltas {
            w.u64(d.seq);
            w.u64(d.query.0 as u64);
            w.u64(d.stream.0);
            w.u8(match d.change {
                QueryChange::Enter => 0,
                QueryChange::Exit => 1,
            });
        }
    }

    pub(crate) fn restore_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let spec_count = r.count(1 << 20, "standing queries")?;
        let mut specs = Vec::with_capacity(spec_count);
        for _ in 0..spec_count {
            let spec = match r.u8()? {
                1 => QuerySpec::PeriodInRange {
                    lo: r.u64()? as usize,
                    hi: r.u64()? as usize,
                },
                2 => QuerySpec::LockLostWithin { window: r.u64()? },
                3 => QuerySpec::ConfidenceAtLeast {
                    threshold: r.f64()?,
                },
                4 => QuerySpec::PeriodJoin {
                    tolerance: r.u64()? as usize,
                },
                _ => {
                    return Err(SnapshotError::Malformed {
                        what: "standing-query kind",
                    })
                }
            };
            if !spec.is_valid() {
                return Err(SnapshotError::Malformed {
                    what: "standing-query spec",
                });
            }
            specs.push(spec);
        }
        let mut engine = QueryEngine::new(specs);
        engine.clock = r.u64()?;
        let enters = r.u64()?;
        let exits = r.u64()?;
        let stream_count = r.count(crate::shard::MAX_RESIDENT_STREAMS, "tracked streams")?;
        for _ in 0..stream_count {
            let id = r.u64()?;
            let period = match r.u64()? {
                0 => None,
                p => Some((p - 1).min(u32::MAX as u64) as u32),
            };
            let has_loss = r.bool()?;
            let loss = r.u64()?;
            let last_loss = has_loss.then_some(loss);
            let confidence = r.f64()?;
            let slot = engine.slot_for(StreamId(id));
            let s = &mut engine.slots[slot as usize];
            s.last_loss = last_loss;
            s.confidence = confidence;
            if let Some(p) = period {
                engine.slots[slot as usize].period = Some(p);
                engine.bucket_insert(slot, p as usize);
            }
        }
        engine.rebuild_derived();
        // The counters and pending buffer of the snapshotted run replace
        // whatever the silent rebuild accumulated.
        engine.enters = enters;
        engine.exits = exits;
        engine.deltas.clear();
        let delta_count = r.count(1 << 24, "pending query deltas")?;
        for _ in 0..delta_count {
            let seq = r.u64()?;
            let query = QueryId(r.u64()? as u32);
            let stream = StreamId(r.u64()?);
            let change = match r.u8()? {
                0 => QueryChange::Enter,
                1 => QueryChange::Exit,
                _ => {
                    return Err(SnapshotError::Malformed {
                        what: "query delta kind",
                    })
                }
            };
            engine.deltas.push(QueryDelta {
                seq,
                query,
                stream,
                change,
            });
        }
        Ok(engine)
    }

    /// Recompute memberships and the deadline heap from the restored
    /// facts by direct evaluation (the one permitted "full scan": restore
    /// time, over the engine's own fact base, never the table).
    fn rebuild_derived(&mut self) {
        for slot in 0..self.slots.len() as u32 {
            if !self.slots[slot as usize].live {
                continue;
            }
            let period = self.slots[slot as usize].period;
            for q in self.range_queries_at(period) {
                bit_set(&mut self.member[q as usize], slot as usize, true);
            }
            for i in 0..self.join_queries.len() {
                let (q, tol) = self.join_queries[i];
                if let Some(p) = period {
                    if self.join_degree(p as usize, tol) >= 2 {
                        bit_set(&mut self.member[q as usize], slot as usize, true);
                    }
                }
            }
            if let Some(loss) = self.slots[slot as usize].last_loss {
                let epoch = self.slots[slot as usize].epoch;
                for i in 0..self.lost_queries.len() {
                    let (q, window) = self.lost_queries[i];
                    let deadline = loss.saturating_add(window);
                    if deadline > self.clock {
                        bit_set(&mut self.member[q as usize], slot as usize, true);
                        self.deadlines_push(Deadline {
                            deadline,
                            slot,
                            epoch,
                            query: q,
                        });
                    }
                }
            }
            let conf = self.slots[slot as usize].confidence;
            let end = self.conf_index.partition_point(|&(t, _)| t <= conf);
            for i in 0..end {
                let q = self.conf_index[i].1;
                bit_set(&mut self.member[q as usize], slot as usize, true);
            }
        }
    }
}

fn deadline_key(d: &Deadline) -> (u64, u32, u32) {
    (d.deadline, d.slot, d.query)
}

fn bit_get(bits: &[u64], idx: usize) -> bool {
    bits.get(idx / 64)
        .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
}

fn bit_set(bits: &mut Vec<u64>, idx: usize, value: bool) {
    let word = idx / 64;
    if bits.len() <= word {
        bits.resize(word + 1, 0);
    }
    if value {
        bits[word] |= 1u64 << (idx % 64);
    } else {
        bits[word] &= !(1u64 << (idx % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(p: usize) -> SegmentEvent {
        SegmentEvent::PeriodStart {
            period: p,
            position: 0,
        }
    }

    fn lost(p: usize) -> SegmentEvent {
        SegmentEvent::PeriodLost {
            period: p,
            position: 0,
        }
    }

    #[test]
    fn parse_round_trips_every_kind() {
        let text = "\
            # watchlist\n\
            period-in 3 9\n\
            lock-lost-within 64   # recent losses\n\
            confidence-at-least 0.5\n\
            period-join 1\n";
        let specs = parse_specs(text).unwrap();
        assert_eq!(specs.len(), 4);
        let rendered: String = specs.iter().map(|s| format!("{s}\n")).collect();
        assert_eq!(parse_specs(&rendered).unwrap(), specs);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        for (text, line) in [
            ("period-in 3", 1),
            ("\nperiod-in 0 5", 2),
            ("period-in 9 3", 1),
            ("lock-lost-within 0", 1),
            ("confidence-at-least 1.5", 1),
            ("confidence-at-least nope", 1),
            ("sample-rate 5", 1),
            ("period-in 1 999999999", 1),
        ] {
            let err = parse_specs(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn period_range_enter_exit_alternate() {
        let mut e = QueryEngine::new(vec![QuerySpec::PeriodInRange { lo: 3, hi: 5 }]);
        let s = StreamId(7);
        e.on_segment(s, start(4), 10);
        e.on_segment(s, start(5), 20); // still inside: no delta
        e.on_segment(s, start(9), 30); // outside: exit
        e.on_segment(s, lost(9), 40); // already out: nothing
        e.on_segment(s, start(3), 50); // back in
        let deltas = e.take_deltas();
        let kinds: Vec<(u64, QueryChange)> = deltas.iter().map(|d| (d.seq, d.change)).collect();
        assert_eq!(
            kinds,
            vec![
                (10, QueryChange::Enter),
                (30, QueryChange::Exit),
                (50, QueryChange::Enter),
            ]
        );
        assert_eq!(e.members(QueryId(0)).unwrap(), vec![s]);
    }

    #[test]
    fn lock_lost_exit_fires_at_loss_plus_window() {
        let mut e = QueryEngine::new(vec![QuerySpec::LockLostWithin { window: 100 }]);
        let s = StreamId(1);
        e.on_segment(s, start(3), 5);
        e.on_segment(s, lost(3), 50);
        e.advance(149);
        assert!(e.is_member(QueryId(0), s));
        e.advance(150);
        assert!(!e.is_member(QueryId(0), s));
        let deltas = e.take_deltas();
        assert_eq!(deltas.last().unwrap().seq, 150, "exit at loss + window");
        // A re-loss re-arms the deadline; the stale one must not fire.
        e.on_segment(s, start(3), 160);
        e.on_segment(s, lost(3), 170);
        e.on_segment(s, start(3), 180);
        e.on_segment(s, lost(3), 200);
        e.advance(280); // 170 + 100 = 270 passed, but re-armed at 300
        assert!(e.is_member(QueryId(0), s));
        e.advance(300);
        assert!(!e.is_member(QueryId(0), s));
        assert_eq!(e.take_deltas().last().unwrap().seq, 300);
    }

    #[test]
    fn confidence_band_flips() {
        let mut e = QueryEngine::new(vec![
            QuerySpec::ConfidenceAtLeast { threshold: 0.1 },
            QuerySpec::ConfidenceAtLeast { threshold: 0.3 },
        ]);
        let s = StreamId(2);
        e.on_scored(s, true, 1); // conf 0.125: enters 0.1 only
        assert!(e.is_member(QueryId(0), s));
        assert!(!e.is_member(QueryId(1), s));
        for seq in 2..12 {
            e.on_scored(s, true, seq);
        }
        assert!(e.is_member(QueryId(1), s), "conf grew past 0.3");
        for seq in 12..40 {
            e.on_scored(s, false, seq);
        }
        assert!(!e.is_member(QueryId(0), s), "conf decayed below 0.1");
        // Strict alternation per (query, stream).
        let mut last = HashMap::new();
        for d in e.take_deltas() {
            assert_ne!(last.insert(d.query, d.change), Some(d.change));
        }
    }

    #[test]
    fn period_join_pairs_and_breaks() {
        let mut e = QueryEngine::new(vec![QuerySpec::PeriodJoin { tolerance: 1 }]);
        let (a, b, c) = (StreamId(1), StreamId(2), StreamId(3));
        e.on_segment(a, start(5), 1);
        assert!(e.members(QueryId(0)).unwrap().is_empty(), "alone: no join");
        e.on_segment(b, start(6), 2); // |5-6| <= 1: both join
        assert_eq!(e.members(QueryId(0)).unwrap(), vec![a, b]);
        e.on_segment(c, start(9), 3); // far away: unaffected
        assert_eq!(e.members(QueryId(0)).unwrap(), vec![a, b]);
        e.on_segment(b, start(9), 4); // b moves next to c, breaks a
        assert_eq!(e.members(QueryId(0)).unwrap(), vec![b, c]);
        e.retire(b, 5); // departure breaks the remaining pair
        assert!(e.members(QueryId(0)).unwrap().is_empty());
    }

    #[test]
    fn retire_exits_everything_and_forgets() {
        let mut e = QueryEngine::new(vec![
            QuerySpec::PeriodInRange { lo: 1, hi: 10 },
            QuerySpec::LockLostWithin { window: 1000 },
        ]);
        let s = StreamId(4);
        e.on_segment(s, start(4), 10);
        e.on_segment(s, lost(4), 20);
        assert!(e.is_member(QueryId(1), s));
        e.retire(s, 30);
        assert!(e.tracked().is_empty());
        assert_eq!(e.enters(), e.exits());
        // The old incarnation's parked deadline must not touch the new one.
        e.on_segment(s, lost(4), 40);
        e.advance(1020); // old deadline passes; new membership holds
        assert!(e.is_member(QueryId(1), s));
        e.advance(1040);
        assert!(!e.is_member(QueryId(1), s));
    }

    #[test]
    fn reset_lock_clears_without_loss_semantics() {
        let mut e = QueryEngine::new(vec![
            QuerySpec::PeriodInRange { lo: 1, hi: 10 },
            QuerySpec::LockLostWithin { window: 100 },
            QuerySpec::ConfidenceAtLeast { threshold: 0.05 },
        ]);
        let s = StreamId(5);
        e.on_segment(s, start(4), 10);
        e.on_scored(s, true, 11);
        e.reset_lock(s, 20);
        assert!(!e.is_member(QueryId(0), s), "period membership cleared");
        assert!(!e.is_member(QueryId(2), s), "confidence cleared");
        assert!(!e.is_member(QueryId(1), s), "a reset is not a loss");
        assert_eq!(e.tracked().len(), 1, "still tracked");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let specs = vec![
            QuerySpec::PeriodInRange { lo: 2, hi: 6 },
            QuerySpec::LockLostWithin { window: 50 },
            QuerySpec::ConfidenceAtLeast { threshold: 0.2 },
            QuerySpec::PeriodJoin { tolerance: 0 },
        ];
        let mut live = QueryEngine::new(specs.clone());
        let feed_a = |e: &mut QueryEngine| {
            e.on_segment(StreamId(1), start(3), 1);
            e.on_segment(StreamId(2), start(3), 2);
            e.on_scored(StreamId(1), true, 3);
            e.on_scored(StreamId(1), true, 4);
            e.on_segment(StreamId(3), start(9), 5);
            e.on_segment(StreamId(2), lost(3), 6);
            e.advance(10);
        };
        feed_a(&mut live);
        live.take_deltas();
        let mut w = SnapshotWriter::new();
        live.snapshot_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let mut restored = QueryEngine::restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.specs(), live.specs());
        assert_eq!(restored.tracked(), live.tracked());
        assert_eq!(restored.enters(), live.enters());
        assert_eq!(restored.exits(), live.exits());
        for q in 0..4u32 {
            assert_eq!(restored.members(QueryId(q)), live.members(QueryId(q)));
        }
        // Identical subsequent deltas, including the parked lock-lost exit.
        let feed_b = |e: &mut QueryEngine| {
            e.on_segment(StreamId(3), start(3), 20);
            e.on_scored(StreamId(1), false, 30);
            e.advance(200);
        };
        feed_b(&mut live);
        feed_b(&mut restored);
        assert_eq!(live.take_deltas(), restored.take_deltas());
    }

    #[test]
    fn spec_display_is_stable() {
        assert_eq!(
            QuerySpec::PeriodInRange { lo: 3, hi: 9 }.to_string(),
            "period-in 3 9"
        );
        assert_eq!(
            QuerySpec::ConfidenceAtLeast { threshold: 0.25 }.to_string(),
            "confidence-at-least 0.25"
        );
        assert_eq!(
            QueryDelta {
                seq: 42,
                query: QueryId(1),
                stream: StreamId(9),
                change: QueryChange::Enter,
            }
            .to_string(),
            "[    42] query#1 enter stream#9"
        );
    }
}
