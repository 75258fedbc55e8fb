//! On-line (streaming) periodicity detection and segmentation.
//!
//! [`StreamingDpd`] is the run-time detector of the paper: samples are pushed
//! one at a time (the value passed to `int DPD(long sample, int *period)` in
//! Table 1), the `d(m)` sums are maintained incrementally in O(M), and the
//! detector reports a [`SegmentEvent::PeriodStart`] whenever the current
//! sample starts a new period of the detected periodicity — exactly the
//! "returns a value different from zero" contract used by the SelfAnalyzer
//! integration (paper Fig. 6).
//!
//! [`MultiScaleDpd`] runs a small bank of detectors with different window
//! sizes. The paper observes (§3.1) that the window must be at least as large
//! as the periodicity to capture it, and that several *nested* periodicities
//! can be present (hydro2d: 1, 24 and 269; turb3d: 12 and 142, Table 2); a
//! small window locks quickly onto short inner periods while a large window
//! captures the outer iteration, reproducing the multi-valued detections of
//! Table 2.

use crate::incremental::{EngineConfig, IncrementalEngine, Symbols, IDENTIFIERS};
use crate::metric::{EventMetric, Metric};
use crate::minima::MinimaPolicy;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::spectrum::Spectrum;

/// Configuration of a [`StreamingDpd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// Data window size `N`.
    pub window: usize,
    /// Maximum candidate delay `M` (`0 < M <= N`).
    pub m_max: usize,
    /// Minima acceptance policy (only consulted for inexact metrics; exact
    /// metrics use the equation-(2) zero test).
    pub policy: MinimaPolicy,
    /// Number of consecutive agreeing detections required to lock. `1` locks
    /// immediately (exact streams); noisy magnitude streams benefit from
    /// a small confirmation count.
    pub confirm: usize,
    /// Number of consecutive failed boundary verifications tolerated before
    /// the lock is dropped.
    pub lose: usize,
    /// Resync interval forwarded to the incremental engine (L1 drift bound).
    pub resync_interval: u64,
}

impl StreamingConfig {
    /// Engine-level event-stream defaults (`M = N`, exact policy), used by
    /// the builder internals.
    pub(crate) fn events_defaults(n: usize) -> Self {
        StreamingConfig {
            window: n,
            m_max: n,
            policy: MinimaPolicy::exact(),
            confirm: 1,
            lose: 1,
            resync_interval: 0,
        }
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            frame: self.window,
            m_max: self.m_max,
            resync_interval: self.resync_interval,
        }
    }
}

/// What the detector observed for one pushed sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentEvent {
    /// Nothing new: either still warming up, still searching, or inside a
    /// period. Corresponds to `DPD(...) == 0` in the paper's interface.
    None,
    /// The current sample starts a period of length `period`.
    /// Corresponds to `DPD(...) != 0`.
    PeriodStart {
        /// Detected periodicity in samples.
        period: usize,
        /// Stream position (0-based index of the pushed sample).
        position: u64,
    },
    /// A previously locked periodicity no longer holds at this sample
    /// (structure change, e.g. leaving a nested inner loop).
    PeriodLost {
        /// The period that was being tracked.
        period: usize,
        /// Stream position of the sample that broke it.
        position: u64,
    },
}

impl SegmentEvent {
    /// The paper's return convention: the period at a period start, else 0.
    pub fn as_return_value(&self) -> usize {
        match self {
            SegmentEvent::PeriodStart { period, .. } => *period,
            _ => 0,
        }
    }
}

/// Running tally of what a detector has seen (Table 2 bookkeeping).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Distinct periodicities that were locked at least once, with the
    /// number of period-start events observed for each, insertion order.
    pub periods: Vec<(usize, u64)>,
    /// Total samples pushed.
    pub samples: u64,
    /// Total period-start (segmentation) events.
    pub boundaries: u64,
    /// Total lock losses.
    pub losses: u64,
}

impl StreamStats {
    fn record_boundary(&mut self, period: usize) {
        self.boundaries += 1;
        if let Some(entry) = self.periods.iter_mut().find(|(p, _)| *p == period) {
            entry.1 += 1;
        } else {
            self.periods.push((period, 1));
        }
    }

    /// Distinct detected periodicities, ascending (the paper's Table 2 cell).
    pub fn detected_periods(&self) -> Vec<usize> {
        let mut p: Vec<usize> = self.periods.iter().map(|&(p, _)| p).collect();
        p.sort_unstable();
        p
    }
}

#[derive(Debug, Clone, Copy)]
enum State<T> {
    Searching {
        candidate: Option<usize>,
        agree: usize,
    },
    Locked {
        period: usize,
        anchor: T,
        /// Samples since the last period start (0 right at a boundary).
        phase: usize,
        misses: usize,
    },
}

/// The on-line Dynamic Periodicity Detector.
///
/// # Examples
/// ```
/// use dpd_core::pipeline::DpdBuilder;
/// use dpd_core::streaming::SegmentEvent;
///
/// let mut dpd = DpdBuilder::new().window(8).build_detector().unwrap();
/// let mut boundaries = 0;
/// for i in 0..100usize {
///     let address = [0x400000i64, 0x400040, 0x400080, 0x4000c0][i % 4];
///     if let SegmentEvent::PeriodStart { period, .. } = dpd.push(address) {
///         assert_eq!(period, 4);
///         boundaries += 1;
///     }
/// }
/// assert!(boundaries > 20);
/// assert_eq!(dpd.stats().detected_periods(), vec![4]);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDpd<T, M: Metric<T>> {
    engine: IncrementalEngine<T, M>,
    config: StreamingConfig,
    state: State<T>,
    stats: StreamStats,
}

impl<T: Copy + PartialEq, M: Metric<T>> StreamingDpd<T, M> {
    /// Create a detector from a metric and configuration.
    pub fn new(metric: M, config: StreamingConfig) -> crate::Result<Self> {
        let engine = IncrementalEngine::new(metric, config.engine_config())?;
        Ok(StreamingDpd::from_engine(engine, config))
    }

    fn from_engine(engine: IncrementalEngine<T, M>, config: StreamingConfig) -> Self {
        StreamingDpd {
            engine,
            config,
            state: State::Searching {
                candidate: None,
                agree: 0,
            },
            stats: StreamStats::default(),
        }
    }

    /// The configured window size `N`.
    pub fn window(&self) -> usize {
        self.config.window
    }

    /// Return to the exact as-constructed state, retaining buffer
    /// allocations: observably and serialization-byte identical to
    /// `StreamingDpd::new` with the same metric and config. Used by the
    /// stream-table hot-state pool to recycle detectors.
    pub(crate) fn reset_fresh(&mut self) {
        self.engine.reset_fresh();
        self.state = State::Searching {
            candidate: None,
            agree: 0,
        };
        self.stats = StreamStats::default();
    }

    /// The engine behind this detector.
    #[cfg(test)]
    pub(crate) fn engine(&self) -> &IncrementalEngine<T, M> {
        &self.engine
    }

    /// Running statistics (Table 2 bookkeeping).
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The currently locked periodicity, if any.
    pub fn locked_period(&self) -> Option<usize> {
        match self.state {
            State::Locked { period, .. } => Some(period),
            _ => None,
        }
    }

    /// Snapshot of the current `d(m)` spectrum.
    pub fn spectrum(&self) -> Spectrum {
        self.engine.spectrum()
    }

    /// Change the data window size at run time (paper `DPDWindowSize`).
    /// Keeps as much history as fits and drops any active lock so the
    /// detector re-confirms under the new window. The candidate-delay range
    /// follows the window (`M = N`): growing the window must extend the
    /// detectable periods, which is the whole point of the paper's "set N
    /// to a large value for unknown streams" guidance.
    pub fn set_window(&mut self, n: usize) -> crate::Result<()> {
        let new = StreamingConfig {
            window: n,
            m_max: n,
            ..self.config
        };
        self.engine.reconfigure(new.engine_config())?;
        self.config = new;
        self.state = State::Searching {
            candidate: None,
            agree: 0,
        };
        Ok(())
    }

    /// Current detection according to the metric kind: smallest exact zero
    /// for exact metrics, policy fundamental for inexact ones.
    fn detect(&self, metric_exact: bool) -> Option<usize> {
        if metric_exact {
            self.engine.first_zero()
        } else {
            self.config
                .policy
                .fundamental(&self.engine.spectrum())
                .map(|m| m.delay)
        }
    }

    /// Verify at a period boundary that the lock still holds.
    fn boundary_holds(&self, period: usize, anchor: T, sample: T, metric_exact: bool) -> bool {
        if metric_exact {
            // The region is identified by its starting value (paper §5.1);
            // the anchor must recur and the window must still be period-pure.
            sample == anchor
                && self.engine.is_complete(period)
                && self.engine.pair_sum(period) == Some(0.0)
        } else {
            match self.engine.distance(period) {
                Some(d) => {
                    d <= self.config.policy.absolute_threshold
                        || self
                            .engine
                            .spectrum()
                            .mean()
                            .map(|mean| d <= self.config.policy.relative_threshold * mean)
                            .unwrap_or(false)
                }
                None => false,
            }
        }
    }

    /// Push one sample; returns the paper's `DPD()` outcome for it.
    pub fn push(&mut self, sample: T) -> SegmentEvent {
        let metric_exact = self.engine.metric_ref().exact();
        self.engine.push(sample);
        let position = self.stats.samples;
        self.stats.samples += 1;

        // State<T> is Copy (T: Copy): snapshot, decide, write back.
        match self.state {
            State::Searching { candidate, agree } => match self.detect(metric_exact) {
                Some(p) => {
                    let agree = if candidate == Some(p) { agree + 1 } else { 1 };
                    if agree >= self.config.confirm {
                        self.state = State::Locked {
                            period: p,
                            anchor: sample,
                            phase: 0,
                            misses: 0,
                        };
                        self.stats.record_boundary(p);
                        SegmentEvent::PeriodStart {
                            period: p,
                            position,
                        }
                    } else {
                        self.state = State::Searching {
                            candidate: Some(p),
                            agree,
                        };
                        SegmentEvent::None
                    }
                }
                None => {
                    self.state = State::Searching {
                        candidate: None,
                        agree: 0,
                    };
                    SegmentEvent::None
                }
            },
            State::Locked {
                period,
                anchor,
                phase,
                misses,
            } => {
                let phase = phase + 1;
                if phase == period {
                    if self.boundary_holds(period, anchor, sample, metric_exact) {
                        self.state = State::Locked {
                            period,
                            anchor,
                            phase: 0,
                            misses: 0,
                        };
                        self.stats.record_boundary(period);
                        SegmentEvent::PeriodStart { period, position }
                    } else {
                        let misses = misses + 1;
                        if misses >= self.config.lose {
                            self.state = State::Searching {
                                candidate: None,
                                agree: 0,
                            };
                            self.stats.losses += 1;
                            SegmentEvent::PeriodLost { period, position }
                        } else {
                            self.state = State::Locked {
                                period,
                                anchor,
                                phase: 0,
                                misses,
                            };
                            SegmentEvent::None
                        }
                    }
                } else if metric_exact && !self.sample_matches_period(period) {
                    // Mid-period structural mismatch on an exact stream: the
                    // pattern changed (e.g. nested inner iteration ended).
                    self.state = State::Searching {
                        candidate: None,
                        agree: 0,
                    };
                    self.stats.losses += 1;
                    SegmentEvent::PeriodLost { period, position }
                } else {
                    self.state = State::Locked {
                        period,
                        anchor,
                        phase,
                        misses,
                    };
                    SegmentEvent::None
                }
            }
        }
    }

    /// Push a whole slice of samples, returning every non-trivial event in
    /// stream order. Semantically identical to calling
    /// [`StreamingDpd::push`] per sample and discarding
    /// [`SegmentEvent::None`] results; each returned event carries the
    /// absolute stream position of the sample that produced it, so callers
    /// can associate events with samples positionally.
    ///
    /// Detection is inherently per-sample (the state machine must see every
    /// intermediate spectrum), so this steps the same per-sample fast path
    /// as `push`; the batch form buys positional event collection, not a
    /// different algorithm. Callers that only need final spectra should use
    /// [`IncrementalEngine::push_slice`](crate::incremental::IncrementalEngine::push_slice),
    /// whose block ingestion skips per-push bookkeeping entirely.
    pub fn push_slice(&mut self, samples: &[T]) -> Vec<SegmentEvent> {
        let mut events = Vec::new();
        for &s in samples {
            let e = self.push(s);
            if e != SegmentEvent::None {
                events.push(e);
            }
        }
        events
    }

    /// `true` when the newest sample equals the sample one period earlier.
    fn sample_matches_period(&self, period: usize) -> bool {
        match (self.newest(), self.at_age(period)) {
            (Some(new), Some(old)) => new == old,
            _ => true, // not enough history to judge: give benefit of doubt
        }
    }

    fn newest(&self) -> Option<T> {
        self.engine.history_ago(0)
    }

    fn at_age(&self, age: usize) -> Option<T> {
        self.engine.history_ago(age)
    }

    /// The full configuration (snapshot/restore validation hook).
    pub(crate) fn config(&self) -> StreamingConfig {
        self.config
    }

    /// Serialize the full detector state — configuration, engine,
    /// segmentation state machine and statistics — into `w`.
    pub(crate) fn snapshot_state(
        &self,
        w: &mut SnapshotWriter,
        put: &impl Fn(&mut SnapshotWriter, T),
    ) {
        crate::snapshot::write_streaming_config(w, &self.config);
        self.engine.snapshot_state(w, put);
        match self.state {
            State::Searching { candidate, agree } => {
                w.u8(0);
                w.bool(candidate.is_some());
                w.u64(candidate.unwrap_or(0) as u64);
                w.u64(agree as u64);
            }
            State::Locked {
                period,
                anchor,
                phase,
                misses,
            } => {
                w.u8(1);
                w.u64(period as u64);
                put(w, anchor);
                w.u64(phase as u64);
                w.u64(misses as u64);
            }
        }
        w.u64(self.stats.periods.len() as u64);
        for &(p, n) in &self.stats.periods {
            w.u64(p as u64);
            w.u64(n);
        }
        w.u64(self.stats.samples);
        w.u64(self.stats.boundaries);
        w.u64(self.stats.losses);
    }

    /// Rebuild a detector from serialized state. The embedded configuration
    /// is re-validated through [`StreamingDpd::new`]; the engine sums are
    /// restored verbatim, never re-derived. `symbols` is set for the
    /// identifier detector (see [`StreamingDpd::restore_events`]).
    pub(crate) fn restore_state<'a>(
        metric: M,
        symbols: Option<Symbols<T>>,
        r: &mut SnapshotReader<'a>,
        get: &impl Fn(&mut SnapshotReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let config = crate::snapshot::read_streaming_config(r)?;
        let probe = StreamingDpd::new(metric, config).map_err(|_| SnapshotError::Malformed {
            what: "detector configuration fails validation",
        })?;
        let metric = probe.engine.metric_ref().clone();
        let engine =
            IncrementalEngine::restore_with(metric, config.engine_config(), symbols, r, get)?;
        let state = match r.u8()? {
            0 => {
                let has_candidate = r.bool()?;
                let candidate = r.u64()? as usize;
                State::Searching {
                    candidate: has_candidate.then_some(candidate),
                    agree: r.u64()? as usize,
                }
            }
            1 => {
                let period = r.u64()? as usize;
                if period == 0 || period > config.m_max {
                    return Err(SnapshotError::Malformed {
                        what: "locked period outside the configured delay range",
                    });
                }
                State::Locked {
                    period,
                    anchor: get(r)?,
                    phase: r.u64()? as usize,
                    misses: r.u64()? as usize,
                }
            }
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "unknown segmentation state tag",
                })
            }
        };
        let n_periods = r.count(1 << 24, "implausible distinct-period count")?;
        let mut periods = Vec::with_capacity(n_periods);
        for _ in 0..n_periods {
            let p = r.u64()? as usize;
            let n = r.u64()?;
            periods.push((p, n));
        }
        let stats = StreamStats {
            periods,
            samples: r.u64()?,
            boundaries: r.u64()?,
            losses: r.u64()?,
        };
        Ok(StreamingDpd {
            engine,
            config,
            state,
            stats,
        })
    }
}

impl StreamingDpd<i64, EventMetric> {
    /// The equation-(2) detector over `i64` identifiers, as `dpd-core`
    /// builds it: wide configurations keep the engine's history as 16-bit
    /// symbol codes (see [`crate::incremental`]), with every observable
    /// identical to [`StreamingDpd::new`]'s.
    pub(crate) fn events(config: StreamingConfig) -> crate::Result<Self> {
        let engine = IncrementalEngine::with_symbols(
            EventMetric,
            config.engine_config(),
            Some(IDENTIFIERS),
        )?;
        Ok(StreamingDpd::from_engine(engine, config))
    }

    /// Restore a detector written by [`Snapshot`](crate::snapshot::Snapshot)
    /// as [`StreamingDpd::events`] would have built it, codebook rebuilt
    /// from the restored values.
    pub(crate) fn restore_events(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        StreamingDpd::restore_state(EventMetric, Some(IDENTIFIERS), r, &|r| r.i64())
    }
}

/// A bank of event-stream detectors at several window sizes.
///
/// Reproduces the paper's observation that applications contain nested
/// iterative structures whose periods span orders of magnitude (Table 2):
/// each scale locks onto the periodicities its window can capture, and the
/// union of their detections is the reported periodicity set.
///
/// # Examples
/// ```
/// use dpd_core::pipeline::DpdBuilder;
///
/// // Inner pattern of 4, repeated 8 times + 8 tail values: outer period 40.
/// let mut outer: Vec<i64> = Vec::new();
/// for _ in 0..8 { outer.extend([1, 2, 3, 4]); }
/// outer.extend(100..108);
///
/// let mut bank = DpdBuilder::new().scales(&[8, 128]).build_multi_scale().unwrap();
/// for i in 0..400 {
///     bank.push(outer[i % 40]);
/// }
/// assert_eq!(bank.detected_periods(), vec![4, 40]);
/// ```
#[derive(Debug, Clone)]
pub struct MultiScaleDpd {
    scales: Vec<StreamingDpd<i64, EventMetric>>,
}

/// Events from all scales for one pushed sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiScaleEvent {
    /// `(window_size, event)` for every scale that reported something.
    pub events: Vec<(usize, SegmentEvent)>,
}

impl MultiScaleEvent {
    /// The period-start event from the *largest* window, if any — the outer
    /// iteration boundary used for segmentation displays (paper Fig. 7).
    pub fn outer_start(&self) -> Option<(usize, usize)> {
        self.events.iter().rev().find_map(|(w, e)| match e {
            SegmentEvent::PeriodStart { period, .. } => Some((*w, *period)),
            _ => None,
        })
    }
}

impl MultiScaleDpd {
    /// Engine-level bank construction (windows ascending recommended),
    /// used by the builder.
    pub(crate) fn from_windows(windows: &[usize]) -> crate::Result<Self> {
        if windows.is_empty() {
            return Err(crate::DpdError::InvalidWindow(0));
        }
        let mut scales = Vec::with_capacity(windows.len());
        for &w in windows {
            if w == 0 {
                return Err(crate::DpdError::InvalidWindow(0));
            }
            let config = StreamingConfig::events_defaults(w);
            scales.push(StreamingDpd::events(config).expect("validated above"));
        }
        Ok(MultiScaleDpd { scales })
    }

    /// Push a sample through every scale.
    pub fn push(&mut self, sample: i64) -> MultiScaleEvent {
        let mut events = Vec::new();
        for dpd in &mut self.scales {
            let e = dpd.push(sample);
            if e != SegmentEvent::None {
                events.push((dpd.window(), e));
            }
        }
        MultiScaleEvent { events }
    }

    /// Push a whole slice of samples through every scale.
    ///
    /// Returns `(window_size, event)` pairs for every non-trivial event any
    /// scale produced, ordered by stream position and, within one position,
    /// by scale construction order — exactly the dispatch order of
    /// sample-by-sample [`MultiScaleDpd::push`]. Each event carries its
    /// absolute stream position, so callers can associate events with
    /// samples positionally.
    pub fn push_slice(&mut self, samples: &[i64]) -> Vec<(usize, SegmentEvent)> {
        let mut tagged: Vec<(u64, usize, usize, SegmentEvent)> = Vec::new();
        for (scale_idx, dpd) in self.scales.iter_mut().enumerate() {
            let window = dpd.window();
            for e in dpd.push_slice(samples) {
                let position = match e {
                    SegmentEvent::PeriodStart { position, .. }
                    | SegmentEvent::PeriodLost { position, .. } => position,
                    SegmentEvent::None => unreachable!("push_slice never yields None"),
                };
                tagged.push((position, scale_idx, window, e));
            }
        }
        tagged.sort_by_key(|&(position, scale_idx, _, _)| (position, scale_idx));
        tagged.into_iter().map(|(_, _, w, e)| (w, e)).collect()
    }

    /// Union of distinct periodicities locked by any scale, ascending —
    /// the contents of a Table 2 cell.
    pub fn detected_periods(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .scales
            .iter()
            .flat_map(|d| d.stats().detected_periods())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Access the per-scale detectors.
    pub fn scales(&self) -> &[StreamingDpd<i64, EventMetric>] {
        &self.scales
    }

    /// Reassemble a bank from restored per-scale detectors (snapshot
    /// restore only; the caller guarantees `scales` is non-empty).
    pub(crate) fn from_scales(scales: Vec<StreamingDpd<i64, EventMetric>>) -> Self {
        MultiScaleDpd { scales }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DpdBuilder;

    fn run_events(data: &[i64], window: usize) -> (Vec<SegmentEvent>, StreamStats) {
        let mut dpd = DpdBuilder::new().window(window).build_detector().unwrap();
        let events = data.iter().map(|&s| dpd.push(s)).collect();
        (events, dpd.stats().clone())
    }

    #[test]
    fn locks_and_segments_simple_period() {
        let data: Vec<i64> = (0..40).map(|i| [100, 200, 300, 400][i % 4]).collect();
        let (events, stats) = run_events(&data, 8);
        let starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                SegmentEvent::PeriodStart { position, period } => {
                    assert_eq!(*period, 4);
                    Some(*position)
                }
                _ => None,
            })
            .collect();
        assert!(!starts.is_empty());
        // After the first start, boundaries are exactly 4 apart.
        for w in starts.windows(2) {
            assert_eq!(w[1] - w[0], 4);
        }
        assert_eq!(stats.detected_periods(), vec![4]);
        assert_eq!(stats.losses, 0);
    }

    #[test]
    fn period_one_run_detected_with_small_window() {
        let mut data = vec![7i64; 20];
        data.extend([1, 2, 3, 4, 5, 6]);
        let (events, stats) = run_events(&data, 4);
        assert!(stats.detected_periods().contains(&1));
        // The run's end produces a loss event.
        assert!(events
            .iter()
            .any(|e| matches!(e, SegmentEvent::PeriodLost { period: 1, .. })));
    }

    #[test]
    fn structure_change_relocks_new_period() {
        // Period 3 for a while, then period 5.
        let mut data: Vec<i64> = (0..30).map(|i| [1, 2, 3][i % 3]).collect();
        data.extend((0..50).map(|i| [10, 20, 30, 40, 50][i % 5]));
        let (_, stats) = run_events(&data, 8);
        let periods = stats.detected_periods();
        assert!(periods.contains(&3), "periods: {periods:?}");
        assert!(periods.contains(&5), "periods: {periods:?}");
        assert!(stats.losses >= 1);
    }

    #[test]
    fn aperiodic_stream_never_locks() {
        let data: Vec<i64> = (0..200).collect();
        let (events, stats) = run_events(&data, 16);
        assert!(events.iter().all(|e| *e == SegmentEvent::None));
        assert!(stats.detected_periods().is_empty());
    }

    #[test]
    fn return_value_convention() {
        assert_eq!(SegmentEvent::None.as_return_value(), 0);
        assert_eq!(
            SegmentEvent::PeriodStart {
                period: 6,
                position: 10
            }
            .as_return_value(),
            6
        );
        assert_eq!(
            SegmentEvent::PeriodLost {
                period: 6,
                position: 10
            }
            .as_return_value(),
            0
        );
    }

    #[test]
    fn magnitude_stream_locks_with_confirmation() {
        let data: Vec<f64> = (0..400)
            .map(|i| {
                let base = [0.0, 2.0, 8.0, 16.0, 8.0, 2.0][i % 6];
                let noise = ((i * 7919) % 11) as f64 * 0.02;
                base + noise
            })
            .collect();
        let mut dpd = DpdBuilder::new()
            .window(24)
            .magnitudes()
            .build_magnitude_detector()
            .unwrap();
        let mut locked = None;
        for &s in &data {
            if let SegmentEvent::PeriodStart { period, .. } = dpd.push(s) {
                locked = Some(period);
            }
        }
        assert_eq!(locked, Some(6));
    }

    #[test]
    fn set_window_drops_lock_and_recovers() {
        let mut dpd = DpdBuilder::new().window(16).build_detector().unwrap();
        for i in 0..64 {
            dpd.push([1i64, 2, 3][i % 3]);
        }
        assert_eq!(dpd.locked_period(), Some(3));
        dpd.set_window(6).unwrap();
        assert_eq!(dpd.locked_period(), None);
        let mut relocked = false;
        for i in 64..96 {
            if let SegmentEvent::PeriodStart { period, .. } = dpd.push([1i64, 2, 3][i % 3]) {
                assert_eq!(period, 3);
                relocked = true;
            }
        }
        assert!(relocked);
    }

    #[test]
    fn multiscale_detects_nested_periods() {
        // Inner pattern of 4 repeated 8 times, then 8 distinct tail values,
        // giving an outer period of 40; stream repeats the outer 10 times.
        let mut outer: Vec<i64> = Vec::new();
        for _ in 0..8 {
            outer.extend([1i64, 2, 3, 4]);
        }
        outer.extend(101..109);
        assert_eq!(outer.len(), 40);
        let data: Vec<i64> = (0..400).map(|i| outer[i % 40]).collect();

        let mut bank = DpdBuilder::new()
            .scales(&[8, 128])
            .build_multi_scale()
            .unwrap();
        for &s in &data {
            bank.push(s);
        }
        let periods = bank.detected_periods();
        assert!(periods.contains(&4), "periods: {periods:?}");
        assert!(periods.contains(&40), "periods: {periods:?}");
    }

    #[test]
    fn multiscale_rejects_empty_and_zero() {
        assert!(MultiScaleDpd::from_windows(&[]).is_err());
        assert!(MultiScaleDpd::from_windows(&[8, 0]).is_err());
    }

    #[test]
    fn outer_start_prefers_largest_window() {
        let e = MultiScaleEvent {
            events: vec![
                (
                    8,
                    SegmentEvent::PeriodStart {
                        period: 4,
                        position: 1,
                    },
                ),
                (
                    128,
                    SegmentEvent::PeriodStart {
                        period: 40,
                        position: 1,
                    },
                ),
            ],
        };
        assert_eq!(e.outer_start(), Some((128, 40)));
    }

    #[test]
    fn push_slice_equals_per_sample_events() {
        // Structure change halfway through so the sequence includes locks,
        // boundary starts and a loss.
        let mut data: Vec<i64> = (0..60).map(|i| [1, 2, 3][i % 3]).collect();
        data.extend((0..70).map(|i| [10, 20, 30, 40, 50][i % 5]));

        let mut single = DpdBuilder::new().window(8).build_detector().unwrap();
        let expected: Vec<SegmentEvent> = data
            .iter()
            .map(|&s| single.push(s))
            .filter(|e| *e != SegmentEvent::None)
            .collect();

        let mut batch = DpdBuilder::new().window(8).build_detector().unwrap();
        let mut got = Vec::new();
        for chunk in data.chunks(23) {
            got.extend(batch.push_slice(chunk));
        }
        assert_eq!(got, expected);
        assert_eq!(batch.stats(), single.stats());
        assert_eq!(batch.locked_period(), single.locked_period());
    }

    #[test]
    fn push_slice_magnitudes_match_per_sample() {
        let data: Vec<f64> = (0..500)
            .map(|i| {
                let base = [0.0, 2.0, 8.0, 16.0, 8.0, 2.0][i % 6];
                base + ((i * 7919) % 11) as f64 * 0.02
            })
            .collect();
        let magnitudes = DpdBuilder::new().window(24).magnitudes();
        let mut single = magnitudes.build_magnitude_detector().unwrap();
        let expected: Vec<SegmentEvent> = data
            .iter()
            .map(|&s| single.push(s))
            .filter(|e| *e != SegmentEvent::None)
            .collect();
        let mut batch = magnitudes.build_magnitude_detector().unwrap();
        let got = batch.push_slice(&data);
        assert_eq!(got, expected);
        assert!(!got.is_empty(), "magnitude stream must lock");
    }

    #[test]
    fn multiscale_push_slice_matches_per_sample() {
        let mut outer: Vec<i64> = Vec::new();
        for _ in 0..8 {
            outer.extend([1i64, 2, 3, 4]);
        }
        outer.extend(101..109);
        let data: Vec<i64> = (0..400).map(|i| outer[i % 40]).collect();

        let mut single = DpdBuilder::new()
            .scales(&[8, 128])
            .build_multi_scale()
            .unwrap();
        let mut expected = Vec::new();
        for &s in &data {
            for (w, e) in single.push(s).events {
                expected.push((w, e));
            }
        }

        let mut batch = DpdBuilder::new()
            .scales(&[8, 128])
            .build_multi_scale()
            .unwrap();
        let mut got = Vec::new();
        for chunk in data.chunks(57) {
            got.extend(batch.push_slice(chunk));
        }
        assert_eq!(got, expected);
        assert_eq!(batch.detected_periods(), single.detected_periods());
    }

    #[test]
    fn stats_count_boundaries() {
        let data: Vec<i64> = (0..43).map(|i| [1, 2, 3][i % 3]).collect();
        let (_, stats) = run_events(&data, 6);
        assert!(stats.boundaries >= 10);
        assert_eq!(stats.samples, 43);
    }
}
