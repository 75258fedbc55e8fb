//! One typed entry point for every detector stack: the [`DpdBuilder`].
//!
//! The paper describes a single conceptual object — a dynamic periodicity
//! detector fed a sample stream, emitting periods, segments and forecasts —
//! but a grown codebase easily fractures that object into parallel
//! construction paths (the Table 1 `Dpd`, `StreamingDpd` + config,
//! `MultiScaleDpd`, `ForecastingDpd`, `StreamTable`, the sharded service).
//! [`DpdBuilder`] is the one builder whose typed options (window, metric,
//! multi-scale bank, forecast horizon, keyed table, shard count) cover
//! every stack; incoherent combinations are rejected with a precise
//! [`BuildError`] instead of panicking or silently misbehaving.
//!
//! The builder is the only construction path. Each finisher returns its
//! own stack, and the stack reports through its own `push` return value,
//! as the paper's `int DPD(long sample, int *period)` does: a
//! [`SegmentEvent`] per sample from a detector, the per-scale events from
//! a bank, and the event plus a forecast [`Observation`] from a
//! forecaster. `tests/proptest_pipeline.rs` checks that finishers built
//! from the same options agree with each other.
//!
//! [`Observation`]: crate::predict::Observation
//! [`SegmentEvent`]: crate::streaming::SegmentEvent
//!
//! # Quick start
//!
//! ```
//! use dpd_core::pipeline::DpdBuilder;
//! use dpd_core::streaming::SegmentEvent;
//!
//! // Period-3 loop-address stream through the event-stream detector.
//! let mut dpd = DpdBuilder::new().window(8).build_detector().unwrap();
//! let stream: Vec<i64> = (0..30).map(|i| [0x400000, 0x400040, 0x400080][i % 3]).collect();
//! let events = dpd.push_slice(&stream);
//! assert!(events
//!     .iter()
//!     .any(|e| matches!(e, SegmentEvent::PeriodStart { period: 3, .. })));
//! ```
//!
//! A forecasting stack is the same entry point plus one option:
//!
//! ```
//! use dpd_core::pipeline::DpdBuilder;
//!
//! let mut f = DpdBuilder::new().window(8).forecast(4).build_forecasting().unwrap();
//! for i in 0..40usize {
//!     f.push([10i64, 20, 30][i % 3]);
//! }
//! let fc = f.forecast(4).expect("locked and primed");
//! assert_eq!(fc.period, 3);
//! assert_eq!(fc.predicted, &[20, 30, 10, 20]);
//! ```

use crate::capi::Dpd;
use crate::metric::{EventMetric, L1Metric};
use crate::minima::MinimaPolicy;
use crate::predict::{ForecastingDpd, PredictConfig, Predictor};
use crate::query::QuerySpec;
use crate::shard::{StreamTable, TableConfig};
use crate::snapshot::{Restore, SnapshotError};
use crate::streaming::{MultiScaleDpd, StreamingConfig, StreamingDpd};
use crate::DpdError;

/// The paper's multi-scale setting: small, medium and large windows
/// (`N = 8, 64, 512`; §3.1 discusses N from under 10 up to 1024).
pub const DEFAULT_SCALES: &[usize] = &[8, 64, 512];

/// An option combination the builder cannot assemble into a coherent stack.
///
/// Every variant renders a lowercase, period-free [`Display`] message
/// (asserted by a unit test) and the enum is `#[non_exhaustive]`: new
/// incoherent-combination diagnostics may be added without a major bump.
///
/// [`Display`]: core::fmt::Display
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The underlying detector configuration is invalid (window, maximum
    /// delay or forecast horizon out of range).
    Detector(DpdError),
    /// `scales(&[])`: a multi-scale bank needs at least one window.
    EmptyScales,
    /// A multi-scale bank cannot drive the forecaster (which extends one
    /// stream under one lock); build a forecaster at the outer scale's
    /// window next to the bank instead.
    ScalesWithForecast,
    /// A multi-scale bank is a single-stream analysis; it cannot be the
    /// per-stream detector of a keyed table or sharded service.
    ScalesWithKeyed,
    /// A plain single detector was requested but a multi-scale bank is
    /// configured; finish with [`DpdBuilder::build_multi_scale`] instead.
    ScalesOnPlainDetector,
    /// [`DpdBuilder::build_multi_scale`] needs [`DpdBuilder::scales`].
    ScalesRequired,
    /// A plain single detector was requested but a forecast horizon is
    /// configured; finish with [`DpdBuilder::build_forecasting`] instead.
    ForecastOnPlainDetector,
    /// [`DpdBuilder::build_forecasting`] needs [`DpdBuilder::forecast`].
    ForecastRequired,
    /// Magnitude streams (equation 1) carry `f64` samples; the multi-scale
    /// bank is an event-stream (equation 2) analysis.
    MagnitudesWithScales,
    /// The online forecaster extends exact event values; magnitude streams
    /// have no exact periodic extension to issue.
    MagnitudesWithForecast,
    /// Keyed tables and the sharded service detect event streams; magnitude
    /// streams are single-stream analyses.
    MagnitudesWithKeyed,
    /// An event-stream (`i64`) stack was requested but
    /// [`DpdBuilder::magnitudes`] is set; finish with
    /// [`DpdBuilder::build_magnitude_detector`] instead.
    MagnitudesOnEventPipeline,
    /// [`DpdBuilder::build_magnitude_detector`] needs
    /// [`DpdBuilder::magnitudes`].
    EventsOnMagnitudePipeline,
    /// A keyed-table option ([`DpdBuilder::evict_after`],
    /// [`DpdBuilder::memory_budget`] or [`DpdBuilder::cold_summary`]) is
    /// set but a single-stream stack was requested; finish with
    /// [`DpdBuilder::build_table`] or the service
    /// (`MultiStreamDpd::from_builder` in `par-runtime`) instead.
    KeyedOnSingleStream,
    /// [`DpdBuilder::shards`] is set but a single-stream stack was
    /// requested; build the sharded service via
    /// `MultiStreamDpd::from_builder` in `par-runtime` instead.
    ShardsOnSingleStream,
    /// [`DpdBuilder::shards`] is set but an in-process keyed table was
    /// requested; sharding is a service concern — use
    /// `MultiStreamDpd::from_builder`, or drop the option.
    ShardsOnTable,
    /// A service was requested ([`DpdBuilder::service_spec`]) without
    /// [`DpdBuilder::shards`] (use `shards(0)` for the deterministic
    /// inline mode).
    ShardsRequired,
    /// [`DpdBuilder::sweep_every`] paces the service's idle-stream sweeps;
    /// it has no meaning outside the service (any finisher but
    /// [`DpdBuilder::service_spec`], which needs [`DpdBuilder::shards`]).
    SweepWithoutKeyed,
    /// [`DpdBuilder::memory_budget`] is smaller than the accounted cost of
    /// a single hot stream under the configured detector options; such a
    /// table could never admit any stream.
    MemoryBudgetTooSmall,
    /// [`DpdBuilder::cold_summary`] retains demoted streams, but nothing
    /// ever demotes them: cold retention needs [`DpdBuilder::evict_after`]
    /// or [`DpdBuilder::memory_budget`].
    ColdSummaryWithoutEviction,
    /// A [`DpdBuilder::standing_query`] spec has unusable parameters
    /// (empty or oversized period range, zero loss window, non-finite or
    /// out-of-range confidence threshold; see
    /// [`QuerySpec::is_valid`](crate::query::QuerySpec::is_valid)).
    InvalidQuerySpec(QuerySpec),
    /// A `confidence-at-least` standing query scores forecast confidence,
    /// which only exists with [`DpdBuilder::forecast`] configured.
    ConfidenceQueryWithoutForecast,
    /// [`DpdBuilder::standing_query`] subscribes to a keyed table's event
    /// stream; it has no meaning on a single-stream stack.
    QueriesOnSingleStream,
    /// A `restore_*` finisher could not reconstruct the stack from the
    /// snapshot bytes (truncated/corrupt image, wrong type tag, or a
    /// configuration mismatch against the builder's options).
    Snapshot(SnapshotError),
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            // Transparent: callers prefixing "invalid configuration: {e}"
            // read the same message the pre-builder constructors produced.
            BuildError::Detector(e) => write!(f, "{e}"),
            BuildError::EmptyScales => write!(f, "multi-scale bank needs at least one window"),
            BuildError::ScalesWithForecast => {
                write!(f, "forecasting is incompatible with a multi-scale bank")
            }
            BuildError::ScalesWithKeyed => {
                write!(f, "a keyed table cannot hold multi-scale banks")
            }
            BuildError::ScalesOnPlainDetector => {
                write!(f, "scales are configured: finish with build_multi_scale")
            }
            BuildError::ScalesRequired => {
                write!(f, "build_multi_scale needs scales(..)")
            }
            BuildError::ForecastOnPlainDetector => {
                write!(
                    f,
                    "a forecast horizon is configured: finish with build_forecasting"
                )
            }
            BuildError::ForecastRequired => {
                write!(f, "build_forecasting needs forecast(..)")
            }
            BuildError::MagnitudesWithScales => {
                write!(f, "magnitude streams have no multi-scale bank")
            }
            BuildError::MagnitudesWithForecast => {
                write!(f, "magnitude streams cannot drive the online forecaster")
            }
            BuildError::MagnitudesWithKeyed => {
                write!(f, "keyed tables detect event streams, not magnitudes")
            }
            BuildError::MagnitudesOnEventPipeline => {
                write!(
                    f,
                    "magnitudes() is set: finish with build_magnitude_detector"
                )
            }
            BuildError::EventsOnMagnitudePipeline => {
                write!(f, "build_magnitude_detector needs magnitudes()")
            }
            BuildError::KeyedOnSingleStream => {
                write!(f, "keyed-table options need build_table or the service")
            }
            BuildError::ShardsOnSingleStream => {
                write!(f, "shards(..) needs the sharded service (par-runtime)")
            }
            BuildError::ShardsOnTable => {
                write!(
                    f,
                    "an in-process table has no shards: use the service or drop shards(..)"
                )
            }
            BuildError::ShardsRequired => {
                write!(f, "a service needs shards(..) (0 selects inline mode)")
            }
            BuildError::SweepWithoutKeyed => {
                write!(f, "sweep_every(..) only paces the service's sweeps")
            }
            BuildError::MemoryBudgetTooSmall => {
                write!(f, "memory_budget(..) cannot hold even one hot stream")
            }
            BuildError::ColdSummaryWithoutEviction => {
                write!(
                    f,
                    "cold_summary(..) needs evict_after(..) or memory_budget(..) to demote"
                )
            }
            BuildError::InvalidQuerySpec(spec) => {
                write!(f, "invalid standing-query parameters: {spec}")
            }
            BuildError::ConfidenceQueryWithoutForecast => {
                write!(f, "confidence-at-least queries need forecast(..) to score")
            }
            BuildError::QueriesOnSingleStream => {
                write!(
                    f,
                    "standing_query(..) subscribes to a keyed table or service"
                )
            }
            // Transparent like Detector: the snapshot error is the message.
            BuildError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Detector(e) => Some(e),
            BuildError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DpdError> for BuildError {
    fn from(e: DpdError) -> Self {
        BuildError::Detector(e)
    }
}

impl From<SnapshotError> for BuildError {
    fn from(e: SnapshotError) -> Self {
        BuildError::Snapshot(e)
    }
}

/// Everything `par-runtime` needs to assemble the sharded service from a
/// builder: the validated per-stream table configuration (the factory each
/// shard clones), the shard count, the sweep cadence, and the registered
/// standing queries (evaluated per shard over that shard's streams).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Per-stream table configuration, cloned into every shard.
    pub table: TableConfig,
    /// Worker shards (`0` = deterministic inline mode).
    pub shards: usize,
    /// Samples of shard-local traffic between idle-stream sweeps
    /// (`0` = sweep only at service finish).
    pub sweep_every: u64,
    /// Standing queries attached to every shard's table, in registration
    /// order (see [`crate::query`]).
    pub queries: Vec<QuerySpec>,
}

/// One typed, validated construction path for every detector stack.
///
/// Options compose freely; incoherent combinations surface as a
/// [`BuildError`] from the finisher instead of a panic deep inside a
/// subsystem. Finishers, by stack:
///
/// | finisher | stack |
/// |----------|-------|
/// | [`build_detector`](DpdBuilder::build_detector) | raw [`StreamingDpd`] (event metric, equation 2) |
/// | [`build_magnitude_detector`](DpdBuilder::build_magnitude_detector) | raw [`StreamingDpd`] (`f64` L1 metric, equation 1) |
/// | [`build_multi_scale`](DpdBuilder::build_multi_scale) | raw [`MultiScaleDpd`] bank |
/// | [`build_forecasting`](DpdBuilder::build_forecasting) | raw [`ForecastingDpd`] |
/// | [`build_capi`](DpdBuilder::build_capi) | the paper-faithful Table 1 [`Dpd`] |
/// | [`build_table`](DpdBuilder::build_table) | raw [`StreamTable`] |
/// | [`service_spec`](DpdBuilder::service_spec) | sharded service (finished by `MultiStreamDpd::from_builder` in `par-runtime`) |
///
/// [`detector_config`](DpdBuilder::detector_config) and
/// [`table_config`](DpdBuilder::table_config) expose the validated
/// configuration structs for code that embeds them.
#[derive(Debug, Clone, PartialEq)]
pub struct DpdBuilder {
    window: usize,
    m_max: Option<usize>,
    policy: Option<MinimaPolicy>,
    confirm: Option<usize>,
    lose: Option<usize>,
    resync_interval: Option<u64>,
    magnitudes: bool,
    scales: Option<Vec<usize>>,
    horizon: Option<usize>,
    evict_after: u64,
    memory_budget: u64,
    cold_retain: u64,
    shards: Option<usize>,
    sweep_every: Option<u64>,
    queries: Vec<QuerySpec>,
}

impl Default for DpdBuilder {
    fn default() -> Self {
        DpdBuilder::new()
    }
}

impl DpdBuilder {
    /// Builder with the paper's defaults: the large initial window
    /// ([`crate::capi::DEFAULT_WINDOW`], §3.1), exact event metric,
    /// immediate lock, no forecasting, single stream.
    pub fn new() -> Self {
        DpdBuilder {
            window: crate::capi::DEFAULT_WINDOW,
            m_max: None,
            policy: None,
            confirm: None,
            lose: None,
            resync_interval: None,
            magnitudes: false,
            scales: None,
            horizon: None,
            evict_after: 0,
            memory_budget: 0,
            cold_retain: 0,
            shards: None,
            sweep_every: None,
            queries: Vec::new(),
        }
    }

    /// Data window size `N`.
    pub fn window(mut self, n: usize) -> Self {
        self.window = n;
        self
    }

    /// Maximum candidate delay `M` (`0 < M <= N`); defaults to `N`.
    pub fn m_max(mut self, m: usize) -> Self {
        self.m_max = Some(m);
        self
    }

    /// Minima acceptance policy (consulted by inexact metrics only).
    pub fn policy(mut self, policy: MinimaPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Consecutive agreeing detections required to lock (default 1 for
    /// event streams, 4 under [`DpdBuilder::magnitudes`]).
    pub fn confirm(mut self, n: usize) -> Self {
        self.confirm = Some(n);
        self
    }

    /// Consecutive failed boundary verifications tolerated before the lock
    /// drops (default 1 for event streams, 2 under
    /// [`DpdBuilder::magnitudes`]).
    pub fn lose(mut self, n: usize) -> Self {
        self.lose = Some(n);
        self
    }

    /// Resync interval for the incremental engine's L1 drift bound
    /// (default 0 for event streams, 8192 under
    /// [`DpdBuilder::magnitudes`]).
    pub fn resync_interval(mut self, samples: u64) -> Self {
        self.resync_interval = Some(samples);
        self
    }

    /// Select the magnitude-stream metric (equation 1, `f64` samples —
    /// sampled CPU-usage traces, paper Figs. 3/4) with its noisy-stream
    /// defaults: relative-threshold minima policy, confirmation window 4,
    /// loss tolerance 2, drift resync every 8192 samples. Explicit
    /// [`DpdBuilder::policy`] / [`DpdBuilder::confirm`] /
    /// [`DpdBuilder::lose`] / [`DpdBuilder::resync_interval`] calls
    /// override the defaults in any order. Finish with
    /// [`DpdBuilder::build_magnitude_detector`].
    pub fn magnitudes(mut self) -> Self {
        self.magnitudes = true;
        self
    }

    /// Run a bank of event-stream detectors at these window sizes
    /// (ascending recommended; see [`DEFAULT_SCALES`]) to capture nested
    /// periodicities (paper Table 2).
    pub fn scales(mut self, windows: &[usize]) -> Self {
        self.scales = Some(windows.to_vec());
        self
    }

    /// Attach the online forecaster at horizon `h >= 1`: the `h`-step-ahead
    /// prediction is issued and scored at every sample
    /// (see `docs/PREDICTION.md`).
    pub fn forecast(mut self, h: usize) -> Self {
        self.horizon = Some(h);
        self
    }

    /// Evict a stream idle for more than this many global samples (`0`
    /// disables eviction). A keyed-table option: single-stream finishers
    /// reject it ([`BuildError::KeyedOnSingleStream`]).
    pub fn evict_after(mut self, samples: u64) -> Self {
        self.evict_after = samples;
        self
    }

    /// Bound the table's accounted per-stream memory to this many bytes
    /// (a keyed-table option; `0` disables the budget). When admission or
    /// re-promotion would exceed the budget the table demotes
    /// least-recently-active hot streams to compact cold summaries (when
    /// [`DpdBuilder::cold_summary`] is on) or evicts them outright. The
    /// budget must cover at least one hot stream
    /// ([`BuildError::MemoryBudgetTooSmall`]); see
    /// [`TableConfig::hot_stream_bytes`] for the accounting model.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Retain demoted streams as compact cold summaries (~64 bytes: frozen
    /// period, confidence and lifetime rollups) for this many further
    /// global samples past the eviction watermark before they are gone
    /// (a keyed-table option; `0` disables the cold tier — demotion then
    /// means eviction, the pre-budget binary behavior). A
    /// stream returning within the retention window is re-promoted with
    /// its lifetime counters restored exactly. Requires
    /// [`DpdBuilder::evict_after`] or [`DpdBuilder::memory_budget`]
    /// ([`BuildError::ColdSummaryWithoutEviction`]).
    pub fn cold_summary(mut self, samples: u64) -> Self {
        self.cold_retain = samples;
        self
    }

    /// Shard the service's stream table over this many worker threads
    /// (`0` = deterministic inline mode). Only the service consumes this
    /// option — finish with `MultiStreamDpd::from_builder` in
    /// `par-runtime`.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Samples of traffic between the service's idle-stream memory sweeps
    /// (default: four eviction watermarks when eviction is on, else never).
    /// Sweeps reclaim memory early but never change emitted events. Only
    /// the service reads it, so it requires [`DpdBuilder::shards`]: a raw
    /// [`StreamTable`] sweeps only when its caller calls
    /// [`StreamTable::sweep`].
    pub fn sweep_every(mut self, samples: u64) -> Self {
        self.sweep_every = Some(samples);
        self
    }

    /// Register a standing query (a keyed-table option): the table or
    /// service evaluates `spec` incrementally against its event stream
    /// and emits [`QueryDelta`](crate::query::QueryDelta)
    /// membership transitions (see [`crate::query`] and `docs/QUERIES.md`).
    /// Call repeatedly to register several queries; registration order
    /// assigns the [`QueryId`](crate::query::QueryId)s. Validated by the
    /// keyed finishers: bad parameters are
    /// [`BuildError::InvalidQuerySpec`], confidence queries without
    /// [`DpdBuilder::forecast`] are
    /// [`BuildError::ConfidenceQueryWithoutForecast`], and single-stream
    /// finishers reject queries outright
    /// ([`BuildError::QueriesOnSingleStream`]).
    pub fn standing_query(mut self, spec: QuerySpec) -> Self {
        self.queries.push(spec);
        self
    }

    /// Register every query parsed from the text spec grammar
    /// ([`crate::query::parse_specs`]) — the bulk twin of
    /// [`DpdBuilder::standing_query`].
    pub fn standing_queries(mut self, specs: &[QuerySpec]) -> Self {
        self.queries.extend_from_slice(specs);
        self
    }

    /// Adopt every detector-level option from an existing
    /// [`StreamingConfig`] (window, maximum delay, policy, confirmation,
    /// loss tolerance, resync interval).
    pub fn detector(mut self, config: StreamingConfig) -> Self {
        self.window = config.window;
        self.m_max = Some(config.m_max);
        self.policy = Some(config.policy);
        self.confirm = Some(config.confirm);
        self.lose = Some(config.lose);
        self.resync_interval = Some(config.resync_interval);
        self
    }

    // ------------------------------------------------------------------
    // Validation.

    /// `true` when any keyed-table option is set.
    fn is_keyed(&self) -> bool {
        self.evict_after > 0
            || self.memory_budget > 0
            || self.cold_retain > 0
            || !self.queries.is_empty()
    }

    /// Checks shared by every finisher.
    fn validate_shared(&self) -> Result<(), BuildError> {
        if let Some(scales) = &self.scales {
            if scales.is_empty() {
                return Err(BuildError::EmptyScales);
            }
            if scales.contains(&0) {
                return Err(BuildError::Detector(DpdError::InvalidWindow(0)));
            }
            if self.magnitudes {
                return Err(BuildError::MagnitudesWithScales);
            }
            if self.horizon.is_some() {
                return Err(BuildError::ScalesWithForecast);
            }
            if self.is_keyed() || self.shards.is_some() {
                return Err(BuildError::ScalesWithKeyed);
            }
        }
        if self.magnitudes {
            if self.horizon.is_some() {
                return Err(BuildError::MagnitudesWithForecast);
            }
            if self.is_keyed() || self.shards.is_some() {
                return Err(BuildError::MagnitudesWithKeyed);
            }
        }
        if self.sweep_every.is_some() && self.shards.is_none() {
            return Err(BuildError::SweepWithoutKeyed);
        }
        if self.window == 0 {
            return Err(BuildError::Detector(DpdError::InvalidWindow(0)));
        }
        let m_max = self.m_max.unwrap_or(self.window);
        if m_max == 0 || m_max > self.window {
            return Err(BuildError::Detector(DpdError::InvalidMaxDelay {
                m_max,
                window: self.window,
            }));
        }
        if let Some(h) = self.horizon {
            // Validated here (not only in PredictConfig) so every finisher
            // reports a bad horizon the same way.
            if h == 0 {
                return Err(BuildError::Detector(DpdError::InvalidHorizon(0)));
            }
        }
        Ok(())
    }

    /// Reject multi-stream options on single-stream finishers.
    fn validate_single_stream(&self) -> Result<(), BuildError> {
        if self.shards.is_some() {
            return Err(BuildError::ShardsOnSingleStream);
        }
        // Before the generic keyed check: a standing query is a keyed
        // option, and the precise diagnosis is the query registration.
        if !self.queries.is_empty() {
            return Err(BuildError::QueriesOnSingleStream);
        }
        if self.is_keyed() {
            return Err(BuildError::KeyedOnSingleStream);
        }
        Ok(())
    }

    /// The assembled detector configuration (defaults resolved by metric).
    fn assemble_detector(&self) -> StreamingConfig {
        StreamingConfig {
            window: self.window,
            m_max: self.m_max.unwrap_or(self.window),
            policy: self.policy.unwrap_or(if self.magnitudes {
                MinimaPolicy::relative(0.35)
            } else {
                MinimaPolicy::exact()
            }),
            confirm: self.confirm.unwrap_or(if self.magnitudes { 4 } else { 1 }),
            lose: self.lose.unwrap_or(if self.magnitudes { 2 } else { 1 }),
            resync_interval: self
                .resync_interval
                .unwrap_or(if self.magnitudes { 8192 } else { 0 }),
        }
    }

    // ------------------------------------------------------------------
    // Finishers.

    /// The validated single-detector [`StreamingConfig`] (for embedding in
    /// code that owns its own detector wiring).
    pub fn detector_config(&self) -> Result<StreamingConfig, BuildError> {
        self.validate_shared()?;
        if self.scales.is_some() {
            return Err(BuildError::ScalesOnPlainDetector);
        }
        Ok(self.assemble_detector())
    }

    /// Assemble the event-stream detector (options already validated).
    fn assemble_event_detector(&self) -> Result<StreamingDpd<i64, EventMetric>, BuildError> {
        StreamingDpd::events(self.assemble_detector()).map_err(BuildError::Detector)
    }

    /// A raw event-stream detector (equation 2) — the paper's on-line DPD.
    pub fn build_detector(&self) -> Result<StreamingDpd<i64, EventMetric>, BuildError> {
        self.validate_shared()?;
        self.validate_single_stream()?;
        if self.magnitudes {
            return Err(BuildError::MagnitudesOnEventPipeline);
        }
        if self.horizon.is_some() {
            return Err(BuildError::ForecastOnPlainDetector);
        }
        if self.scales.is_some() {
            return Err(BuildError::ScalesOnPlainDetector);
        }
        self.assemble_event_detector()
    }

    /// A raw magnitude-stream detector (equation 1, `f64` samples).
    /// Requires [`DpdBuilder::magnitudes`].
    pub fn build_magnitude_detector(&self) -> Result<StreamingDpd<f64, L1Metric>, BuildError> {
        self.validate_shared()?;
        self.validate_single_stream()?;
        if !self.magnitudes {
            return Err(BuildError::EventsOnMagnitudePipeline);
        }
        if self.horizon.is_some() {
            return Err(BuildError::ForecastOnPlainDetector);
        }
        if self.scales.is_some() {
            return Err(BuildError::ScalesOnPlainDetector);
        }
        StreamingDpd::new(L1Metric, self.assemble_detector()).map_err(BuildError::Detector)
    }

    /// A raw multi-scale bank. Requires [`DpdBuilder::scales`].
    pub fn build_multi_scale(&self) -> Result<MultiScaleDpd, BuildError> {
        self.validate_shared()?;
        self.validate_single_stream()?;
        match &self.scales {
            Some(scales) => MultiScaleDpd::from_windows(scales).map_err(BuildError::Detector),
            None => Err(BuildError::ScalesRequired),
        }
    }

    /// The paper-faithful Table 1 interface
    /// (`int DPD(long sample, int *period)`).
    pub fn build_capi(&self) -> Result<Dpd, BuildError> {
        Ok(Dpd::from_detector(self.build_detector()?))
    }

    /// A raw detector + forecaster bundle. Requires
    /// [`DpdBuilder::forecast`].
    pub fn build_forecasting(&self) -> Result<ForecastingDpd, BuildError> {
        self.validate_shared()?;
        self.validate_single_stream()?;
        if self.magnitudes {
            return Err(BuildError::MagnitudesOnEventPipeline);
        }
        let horizon = self.horizon.ok_or(BuildError::ForecastRequired)?;
        let predict = PredictConfig::new(self.window, horizon).map_err(BuildError::Detector)?;
        Ok(ForecastingDpd::from_parts(
            self.assemble_event_detector()?,
            Predictor::new(predict),
        ))
    }

    /// Validate and assemble the per-stream table configuration shared by
    /// the in-process table and the sharded service.
    fn keyed_table_config(&self) -> Result<TableConfig, BuildError> {
        self.validate_shared()?;
        if self.scales.is_some() {
            return Err(BuildError::ScalesWithKeyed);
        }
        if self.magnitudes {
            return Err(BuildError::MagnitudesWithKeyed);
        }
        if self.cold_retain > 0 && self.evict_after == 0 && self.memory_budget == 0 {
            return Err(BuildError::ColdSummaryWithoutEviction);
        }
        for spec in &self.queries {
            if !spec.is_valid() {
                return Err(BuildError::InvalidQuerySpec(*spec));
            }
            if matches!(spec, QuerySpec::ConfidenceAtLeast { .. }) && self.horizon.is_none() {
                return Err(BuildError::ConfidenceQueryWithoutForecast);
            }
        }
        let config = TableConfig {
            detector: self.assemble_detector(),
            evict_after: self.evict_after,
            forecast_horizon: self.horizon.unwrap_or(0),
            memory_budget: self.memory_budget,
            cold_retain: self.cold_retain,
        };
        if config.memory_budget > 0 && config.memory_budget < config.hot_stream_bytes() {
            return Err(BuildError::MemoryBudgetTooSmall);
        }
        Ok(config)
    }

    /// The validated keyed-table configuration.
    pub fn table_config(&self) -> Result<TableConfig, BuildError> {
        if self.shards.is_some() {
            return Err(BuildError::ShardsOnTable);
        }
        self.keyed_table_config()
    }

    /// A raw keyed stream table: one independent detector per
    /// [`StreamId`](crate::shard::StreamId), created lazily. Registered standing queries
    /// ([`DpdBuilder::standing_query`]) are attached before the table sees
    /// its first sample.
    pub fn build_table(&self) -> Result<StreamTable, BuildError> {
        let mut table = StreamTable::new(self.table_config()?);
        table.attach_queries(self.queries.clone());
        Ok(table)
    }

    /// Everything the sharded service needs. Requires
    /// [`DpdBuilder::shards`] (`shards(0)` selects the deterministic
    /// inline mode); finish with `MultiStreamDpd::from_builder` in
    /// `par-runtime`.
    pub fn service_spec(&self) -> Result<ServiceSpec, BuildError> {
        let shards = self.shards.ok_or(BuildError::ShardsRequired)?;
        Ok(ServiceSpec {
            table: self.keyed_table_config()?,
            shards,
            // Default cadence: four eviction watermarks, or never.
            sweep_every: self.sweep_every.unwrap_or(self.evict_after * 4),
            queries: self.queries.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Restore finishers: rebuild a stack bit-exactly from snapshot bytes
    // (see [`crate::snapshot`]). Each finisher first validates the
    // builder's options exactly like its `build_*` twin, then checks the
    // snapshot's embedded configuration against what this builder would
    // assemble — restoring a checkpoint into a differently-configured
    // stack is a [`BuildError::Snapshot`] error, never silent drift.

    /// Restore an event-stream detector snapshot
    /// (the [`build_detector`](DpdBuilder::build_detector) twin).
    pub fn restore_detector(
        &self,
        bytes: &[u8],
    ) -> Result<StreamingDpd<i64, EventMetric>, BuildError> {
        let expected = self.build_detector()?.config();
        let restored = StreamingDpd::<i64, EventMetric>::restore(bytes)?;
        if restored.config() != expected {
            return Err(BuildError::Snapshot(SnapshotError::ConfigMismatch {
                what: "detector configuration",
            }));
        }
        Ok(restored)
    }

    /// Restore a magnitude-stream detector snapshot
    /// (the [`build_magnitude_detector`](DpdBuilder::build_magnitude_detector) twin).
    pub fn restore_magnitude_detector(
        &self,
        bytes: &[u8],
    ) -> Result<StreamingDpd<f64, L1Metric>, BuildError> {
        let expected = self.build_magnitude_detector()?.config();
        let restored = StreamingDpd::<f64, L1Metric>::restore(bytes)?;
        if restored.config() != expected {
            return Err(BuildError::Snapshot(SnapshotError::ConfigMismatch {
                what: "magnitude detector configuration",
            }));
        }
        Ok(restored)
    }

    /// Restore a multi-scale bank snapshot
    /// (the [`build_multi_scale`](DpdBuilder::build_multi_scale) twin).
    pub fn restore_multi_scale(&self, bytes: &[u8]) -> Result<MultiScaleDpd, BuildError> {
        let expected = self.build_multi_scale()?;
        let restored = MultiScaleDpd::restore(bytes)?;
        let windows = |bank: &MultiScaleDpd| -> Vec<usize> {
            bank.scales().iter().map(|d| d.window()).collect()
        };
        if windows(&restored) != windows(&expected) {
            return Err(BuildError::Snapshot(SnapshotError::ConfigMismatch {
                what: "multi-scale window set",
            }));
        }
        Ok(restored)
    }

    /// Restore a paper-interface detector snapshot
    /// (the [`build_capi`](DpdBuilder::build_capi) twin).
    pub fn restore_capi(&self, bytes: &[u8]) -> Result<Dpd, BuildError> {
        let expected = self.build_capi()?.inner().config();
        let restored = Dpd::restore(bytes)?;
        if restored.inner().config() != expected {
            return Err(BuildError::Snapshot(SnapshotError::ConfigMismatch {
                what: "detector configuration",
            }));
        }
        Ok(restored)
    }

    /// Restore a detector + forecaster snapshot
    /// (the [`build_forecasting`](DpdBuilder::build_forecasting) twin).
    pub fn restore_forecasting(&self, bytes: &[u8]) -> Result<ForecastingDpd, BuildError> {
        let expected = self.build_forecasting()?;
        let restored = ForecastingDpd::restore(bytes)?;
        if restored.dpd().config() != expected.dpd().config() {
            return Err(BuildError::Snapshot(SnapshotError::ConfigMismatch {
                what: "detector configuration",
            }));
        }
        if restored.predictor().config() != expected.predictor().config() {
            return Err(BuildError::Snapshot(SnapshotError::ConfigMismatch {
                what: "forecaster configuration",
            }));
        }
        Ok(restored)
    }

    /// Restore a keyed stream-table snapshot
    /// (the [`build_table`](DpdBuilder::build_table) twin).
    pub fn restore_table(&self, bytes: &[u8]) -> Result<StreamTable, BuildError> {
        let expected = self.table_config()?;
        let restored = StreamTable::restore(bytes)?;
        if *restored.config() != expected {
            return Err(BuildError::Snapshot(SnapshotError::ConfigMismatch {
                what: "table configuration",
            }));
        }
        if restored.query_specs() != self.queries.as_slice() {
            return Err(BuildError::Snapshot(SnapshotError::ConfigMismatch {
                what: "standing queries",
            }));
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: every documented incoherent option combination returns
    /// its precise `BuildError` variant — none of them panic.
    #[test]
    fn incoherent_combos_error_precisely() {
        use BuildError as E;
        let b = DpdBuilder::new;
        // (case, got, expected) triples, table-driven.
        let cases: Vec<(&str, Option<E>, E)> = vec![
            (
                "zero window",
                b().window(0).build_detector().err(),
                E::Detector(DpdError::InvalidWindow(0)),
            ),
            (
                "m_max beyond window",
                b().window(8).m_max(9).build_detector().err(),
                E::Detector(DpdError::InvalidMaxDelay {
                    m_max: 9,
                    window: 8,
                }),
            ),
            (
                "zero m_max",
                b().window(8).m_max(0).build_detector().err(),
                E::Detector(DpdError::InvalidMaxDelay {
                    m_max: 0,
                    window: 8,
                }),
            ),
            (
                "zero forecast horizon",
                b().forecast(0).build_forecasting().err(),
                E::Detector(DpdError::InvalidHorizon(0)),
            ),
            (
                "empty scales",
                b().scales(&[]).build_multi_scale().err(),
                E::EmptyScales,
            ),
            (
                "zero scale window",
                b().scales(&[8, 0]).build_multi_scale().err(),
                E::Detector(DpdError::InvalidWindow(0)),
            ),
            (
                "forecast horizon on a multi-scale bank",
                b().scales(&[8]).forecast(2).build_forecasting().err(),
                E::ScalesWithForecast,
            ),
            (
                "scales on a keyed table",
                b().scales(&[8]).build_table().err(),
                E::ScalesWithKeyed,
            ),
            (
                "scales on the sharded service",
                b().scales(&[8]).shards(2).service_spec().err(),
                E::ScalesWithKeyed,
            ),
            (
                "scales on a plain detector",
                b().scales(&[8]).build_detector().err(),
                E::ScalesOnPlainDetector,
            ),
            (
                "multi-scale finisher without scales",
                b().build_multi_scale().err(),
                E::ScalesRequired,
            ),
            (
                "forecast on a plain detector finisher",
                b().forecast(2).build_detector().err(),
                E::ForecastOnPlainDetector,
            ),
            (
                "forecasting finisher without a horizon",
                b().build_forecasting().err(),
                E::ForecastRequired,
            ),
            (
                "magnitudes with scales",
                b().magnitudes().scales(&[8]).build_multi_scale().err(),
                E::MagnitudesWithScales,
            ),
            (
                "magnitudes with forecasting",
                b().magnitudes().forecast(2).build_forecasting().err(),
                E::MagnitudesWithForecast,
            ),
            (
                "magnitudes on a keyed table",
                b().magnitudes().build_table().err(),
                E::MagnitudesWithKeyed,
            ),
            (
                "magnitudes on the sharded service",
                b().magnitudes().shards(2).service_spec().err(),
                E::MagnitudesWithKeyed,
            ),
            (
                "magnitudes on the event pipeline",
                b().magnitudes().build_detector().err(),
                E::MagnitudesOnEventPipeline,
            ),
            (
                "magnitude finisher without magnitudes()",
                b().build_magnitude_detector().err(),
                E::EventsOnMagnitudePipeline,
            ),
            (
                "eviction on a single-stream finisher",
                b().evict_after(64).build_capi().err(),
                E::KeyedOnSingleStream,
            ),
            (
                "shards on a single-stream finisher",
                b().shards(4).build_detector().err(),
                E::ShardsOnSingleStream,
            ),
            (
                "shards on the in-process table",
                b().shards(4).build_table().err(),
                E::ShardsOnTable,
            ),
            (
                "service without shards",
                b().service_spec().err(),
                E::ShardsRequired,
            ),
            (
                "sweep cadence without a keyed table",
                b().sweep_every(128).build_detector().err(),
                E::SweepWithoutKeyed,
            ),
            (
                "sweep cadence on the in-process table",
                b().evict_after(10).sweep_every(5).build_table().err(),
                E::SweepWithoutKeyed,
            ),
            (
                "sweep cadence in a table configuration",
                b().evict_after(10).sweep_every(5).table_config().err(),
                E::SweepWithoutKeyed,
            ),
            (
                "memory budget on a single-stream finisher",
                b().memory_budget(1 << 20).build_detector().err(),
                E::KeyedOnSingleStream,
            ),
            (
                "cold summaries on a single-stream finisher",
                b().cold_summary(64).build_forecasting().err(),
                E::KeyedOnSingleStream,
            ),
            (
                "memory budget below one hot stream",
                b().window(8).memory_budget(1).build_table().err(),
                E::MemoryBudgetTooSmall,
            ),
            (
                "cold summaries with nothing demoting",
                b().window(8).cold_summary(64).build_table().err(),
                E::ColdSummaryWithoutEviction,
            ),
            (
                "standing query with an empty period range",
                b().window(8)
                    .standing_query(QuerySpec::PeriodInRange { lo: 9, hi: 3 })
                    .build_table()
                    .err(),
                E::InvalidQuerySpec(QuerySpec::PeriodInRange { lo: 9, hi: 3 }),
            ),
            (
                "standing query with a zero loss window",
                b().window(8)
                    .standing_query(QuerySpec::LockLostWithin { window: 0 })
                    .build_table()
                    .err(),
                E::InvalidQuerySpec(QuerySpec::LockLostWithin { window: 0 }),
            ),
            (
                "standing query with an out-of-range threshold",
                b().window(8)
                    .forecast(2)
                    .standing_query(QuerySpec::ConfidenceAtLeast { threshold: 1.5 })
                    .build_table()
                    .err(),
                E::InvalidQuerySpec(QuerySpec::ConfidenceAtLeast { threshold: 1.5 }),
            ),
            (
                "confidence query without forecasting",
                b().window(8)
                    .standing_query(QuerySpec::ConfidenceAtLeast { threshold: 0.5 })
                    .build_table()
                    .err(),
                E::ConfidenceQueryWithoutForecast,
            ),
            (
                "standing query on a single-stream finisher",
                b().window(8)
                    .standing_query(QuerySpec::PeriodJoin { tolerance: 0 })
                    .build_detector()
                    .err(),
                E::QueriesOnSingleStream,
            ),
        ];
        for (case, got, expected) in cases {
            assert_eq!(got, Some(expected), "case: {case}");
        }
    }

    /// Satellite: every `BuildError` variant renders a lowercase,
    /// period-free message.
    #[test]
    fn every_build_error_variant_renders() {
        let variants = vec![
            BuildError::Detector(DpdError::InvalidWindow(0)),
            BuildError::EmptyScales,
            BuildError::ScalesWithForecast,
            BuildError::ScalesWithKeyed,
            BuildError::ScalesOnPlainDetector,
            BuildError::ScalesRequired,
            BuildError::ForecastOnPlainDetector,
            BuildError::ForecastRequired,
            BuildError::MagnitudesWithScales,
            BuildError::MagnitudesWithForecast,
            BuildError::MagnitudesWithKeyed,
            BuildError::MagnitudesOnEventPipeline,
            BuildError::EventsOnMagnitudePipeline,
            BuildError::KeyedOnSingleStream,
            BuildError::ShardsOnSingleStream,
            BuildError::ShardsOnTable,
            BuildError::ShardsRequired,
            BuildError::SweepWithoutKeyed,
            BuildError::MemoryBudgetTooSmall,
            BuildError::ColdSummaryWithoutEviction,
            BuildError::InvalidQuerySpec(QuerySpec::PeriodInRange { lo: 9, hi: 3 }),
            BuildError::ConfidenceQueryWithoutForecast,
            BuildError::QueriesOnSingleStream,
            BuildError::Snapshot(SnapshotError::Truncated),
        ];
        for v in variants {
            let msg = v.to_string();
            assert!(!msg.is_empty(), "{v:?} renders empty");
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "{v:?} message must start lowercase: {msg:?}"
            );
            assert!(!msg.ends_with('.'), "{v:?} message ends with a period");
            // std::error::Error is wired up, with sources on wrappers.
            let err: &dyn std::error::Error = &v;
            if matches!(v, BuildError::Detector(_) | BuildError::Snapshot(_)) {
                assert!(err.source().is_some());
            } else {
                assert!(err.source().is_none());
            }
        }
    }

    #[test]
    fn magnitude_detector_matches_magnitude_defaults() {
        let config = DpdBuilder::new()
            .window(24)
            .magnitudes()
            .detector_config()
            .unwrap();
        assert_eq!(config.confirm, 4);
        assert_eq!(config.lose, 2);
        assert_eq!(config.resync_interval, 8192);
        // Overrides win regardless of call order.
        let tuned = DpdBuilder::new()
            .confirm(7)
            .magnitudes()
            .window(24)
            .detector_config()
            .unwrap();
        assert_eq!(tuned.confirm, 7);
        assert_eq!(tuned.lose, 2);
        let mut dpd = DpdBuilder::new()
            .window(24)
            .magnitudes()
            .build_magnitude_detector()
            .unwrap();
        for i in 0..400usize {
            dpd.push([0.0, 2.0, 8.0, 16.0, 8.0, 2.0][i % 6] + ((i * 7919) % 11) as f64 * 0.02);
        }
        assert_eq!(dpd.locked_period(), Some(6));
    }

    #[test]
    fn detector_option_round_trips_configs() {
        let config = StreamingConfig {
            window: 48,
            m_max: 32,
            policy: MinimaPolicy::relative(0.2),
            confirm: 3,
            lose: 5,
            resync_interval: 1024,
        };
        let round = DpdBuilder::new()
            .detector(config)
            .detector_config()
            .unwrap();
        assert_eq!(round, config);
    }

    #[test]
    fn service_spec_carries_table_and_sweep_defaults() {
        let spec = DpdBuilder::new()
            .window(16)
            .evict_after(100)
            .forecast(2)
            .shards(4)
            .service_spec()
            .unwrap();
        assert_eq!(spec.shards, 4);
        assert_eq!(spec.sweep_every, 400, "defaults to four watermarks");
        assert_eq!(spec.table.evict_after, 100);
        assert_eq!(spec.table.forecast_horizon, 2);
        assert_eq!(spec.table.detector.window, 16);
        let explicit = DpdBuilder::new()
            .evict_after(100)
            .sweep_every(50)
            .shards(0)
            .service_spec()
            .unwrap();
        assert_eq!(explicit.sweep_every, 50);
        assert_eq!(explicit.shards, 0);
    }
}
