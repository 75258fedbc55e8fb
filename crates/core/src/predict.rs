//! Online period-based forecasting of upcoming stream values.
//!
//! The paper's stated purpose for detecting periodicity at run time is to
//! *use* it while the application still runs: "future parameter values can
//! be predicted" (§1, application 3) and upcoming iteration behavior drives
//! the speedup estimation of §5. This module turns the incremental detector
//! into that application: [`Predictor`] is an **online, allocation-free**
//! per-stream forecaster layered on the segmentation events of
//! [`StreamingDpd`] (or any compatible event source), and
//! [`ForecastingDpd`] bundles detector + predictor into one
//! push-per-sample object.
//!
//! This module is the crate's only forecaster (contract in
//! `docs/PREDICTION.md`). Its differential oracle is the test-local
//! `NaiveForecaster` in `tests/proptest_predict.rs`, a from-scratch
//! full-history implementation of the same contract.
//!
//! # Model
//!
//! While a periodicity `p` is locked, the forecast for `k` samples ahead of
//! the newest observed sample `x[t]` is the periodic extension of the last
//! full period of history:
//!
//! ```text
//! x̂[t + k] = x[t + k - p·⌈k/p⌉]        (k >= 1)
//! ```
//!
//! [`Predictor::forecast`] materializes the next `h` values as one slice
//! (into an internal scratch buffer — no allocation per call) together with
//! a confidence score; [`Predictor::observe`] feeds one actual sample plus
//! the detector's [`SegmentEvent`] for it, scoring the standing prediction
//! for that position and maintaining the forecast-accuracy statistics.
//!
//! # Confidence and invalidation
//!
//! Confidence is derived from recent period *stability*, not from the lock
//! alone (see `docs/PREDICTION.md` for the normative description):
//!
//! * **match-metric trend** — every observed sample is compared against the
//!   sample one period earlier (its own equation-(2) pair); the boolean
//!   outcomes feed an EWMA, so a stream that is drifting away from its
//!   locked period decays confidence before the detector drops the lock;
//! * **boundary confirmations** — every verified period boundary
//!   ([`SegmentEvent::PeriodStart`] under an existing lock) pulls the EWMA
//!   up more strongly;
//! * **phase-change invalidation** — a segmentation boundary that breaks
//!   the lock ([`SegmentEvent::PeriodLost`], or a relock onto a *different*
//!   period) invalidates the forecast state: every outstanding prediction
//!   is dropped **unscored** (they were issued under a period that no
//!   longer describes the stream), confidence resets, and forecasting
//!   resumes only after the detector locks again and a full period of
//!   post-lock history is available.
//!
//! Without a live lock the predictor issues no forecasts and
//! [`Predictor::confidence`] is `0`.
//!
//! # Examples
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
//! assert_eq!(fc.predicted, &[20, 30, 10, 20]); // last sample was 10
//! assert!(fc.confidence > 0.9);
//! let stats = f.predictor().stats();
//! assert_eq!(stats.hit_rate(), Some(1.0));
//! ```

use crate::metric::EventMetric;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::streaming::{SegmentEvent, StreamingDpd};
use crate::window::RingWindow;
use std::collections::VecDeque;

/// EWMA step for the per-sample match-metric trend.
const MATCH_ALPHA: f64 = 0.1;
/// EWMA step for a verified period boundary (stronger evidence).
const BOUNDARY_ALPHA: f64 = 0.2;
/// Confidence assigned to a freshly established lock.
const FRESH_LOCK_CONFIDENCE: f64 = 0.5;

/// Configuration of a [`Predictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictConfig {
    /// History retention in samples. Must cover every period the paired
    /// detector can lock (use the detector window: periods never exceed it).
    pub window: usize,
    /// Forecast horizon `H >= 1`: [`Predictor::observe`] scores the
    /// `H`-step-ahead prediction for every position, and
    /// [`Predictor::forecast`] serves any horizon up to `H`.
    pub horizon: usize,
}

impl PredictConfig {
    /// Validated configuration.
    pub fn new(window: usize, horizon: usize) -> crate::Result<Self> {
        if window == 0 {
            return Err(crate::DpdError::InvalidWindow(window));
        }
        if horizon == 0 {
            return Err(crate::DpdError::InvalidHorizon(horizon));
        }
        Ok(PredictConfig { window, horizon })
    }
}

/// Forecast-accuracy bookkeeping of one [`Predictor`].
///
/// `checked`/`hits` count predictions scored against the sample that
/// arrived at their target position; `mae`/`mape` treat values as
/// magnitudes. Predictions dropped by a phase-change invalidation are
/// counted in `dropped` and never scored — see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ForecastStats {
    /// Predictions issued (one per observed sample while locked + primed).
    pub issued: u64,
    /// Predictions scored against an arrived sample.
    pub checked: u64,
    /// Scored predictions that matched exactly.
    pub hits: u64,
    /// Sum of absolute errors `|x̂ - x|` over scored predictions.
    pub abs_err_sum: f64,
    /// Sum of absolute percentage errors `|x̂ - x| / |x|`, over scored
    /// predictions whose actual value is non-zero.
    pub ape_sum: f64,
    /// Scored predictions with non-zero actual value (the MAPE denominator).
    pub ape_checked: u64,
    /// Phase-change invalidations (lock lost or relocked onto a new period
    /// while predictions were outstanding or a lock was live).
    pub invalidations: u64,
    /// Outstanding predictions dropped unscored by invalidations.
    pub dropped: u64,
}

impl ForecastStats {
    /// Exact-match rate in `[0, 1]`; `None` before any scored prediction.
    pub fn hit_rate(&self) -> Option<f64> {
        (self.checked > 0).then(|| self.hits as f64 / self.checked as f64)
    }

    /// Mean absolute error; `None` before any scored prediction.
    pub fn mae(&self) -> Option<f64> {
        (self.checked > 0).then(|| self.abs_err_sum / self.checked as f64)
    }

    /// Mean absolute percentage error in `[0, ∞)`, over scored predictions
    /// with non-zero actuals; `None` when no such prediction was scored.
    pub fn mape(&self) -> Option<f64> {
        (self.ape_checked > 0).then(|| self.ape_sum / self.ape_checked as f64)
    }
}

/// One materialized forecast: the next `horizon` values of the stream.
///
/// `predicted` borrows the predictor's scratch buffer; copy it out before
/// the next call that mutates the predictor.
#[derive(Debug, PartialEq)]
pub struct Forecast<'a> {
    /// Number of values forecast (`predicted.len()`).
    pub horizon: usize,
    /// Predicted values for positions `t+1 ..= t+horizon`.
    pub predicted: &'a [i64],
    /// Confidence in `[0, 1]` (see the module docs for semantics).
    pub confidence: f64,
    /// The locked period the forecast extends.
    pub period: usize,
}

/// Outcome of scoring one arrived sample against its standing prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scored {
    /// What was predicted for this position.
    pub predicted: i64,
    /// What actually arrived.
    pub actual: i64,
    /// `predicted == actual`.
    pub hit: bool,
}

/// What one [`Predictor::observe`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observation {
    /// The prediction scored at this position, if one was outstanding.
    pub scored: Option<Scored>,
    /// `true` when this sample's event invalidated the forecast state
    /// (lock lost or relocked onto a different period).
    pub invalidated: bool,
    /// Outstanding predictions dropped unscored by this call's
    /// invalidation (`0` unless `invalidated`).
    pub dropped: u64,
    /// The `H`-step-ahead prediction issued from the post-sample state,
    /// as `(target_position, value)`; `None` while not locked and primed.
    pub issued: Option<(u64, i64)>,
}

#[derive(Debug, Clone, Copy)]
struct Lock {
    period: usize,
    ewma: f64,
}

/// A prediction waiting for its target position to arrive.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Stream position (0-based) the prediction targets.
    pos: u64,
    value: i64,
}

/// Online period-based forecaster over one event stream.
///
/// Feed it `(sample, event)` pairs — the sample pushed into a
/// [`StreamingDpd`] and the [`SegmentEvent`] that push returned — via
/// [`Predictor::observe`]. All buffers are sized at construction; `observe`
/// and `forecast` never allocate.
#[derive(Debug, Clone)]
pub struct Predictor {
    config: PredictConfig,
    history: RingWindow<i64>,
    lock: Option<Lock>,
    /// Stream position of the next sample to observe.
    pos: u64,
    /// Outstanding predictions, ascending by target position; at most one
    /// per position and never more than `horizon` entries, so the deque
    /// never grows past its initial capacity.
    pending: VecDeque<Pending>,
    /// Scratch for [`Predictor::forecast`] slices.
    scratch: Vec<i64>,
    stats: ForecastStats,
}

impl Predictor {
    /// Predictor with the given configuration.
    pub fn new(config: PredictConfig) -> Self {
        Predictor {
            config,
            history: RingWindow::new(config.window),
            lock: None,
            pos: 0,
            pending: VecDeque::with_capacity(config.horizon),
            scratch: vec![0; config.horizon],
            stats: ForecastStats::default(),
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> PredictConfig {
        self.config
    }

    /// Return to the exact as-constructed state, retaining the history,
    /// pending, and scratch allocations: observably and
    /// serialization-byte identical to `Predictor::new` with the same
    /// config. Used by the stream-table hot-state pool.
    pub(crate) fn reset_fresh(&mut self) {
        self.history.clear();
        self.history.set_pushed(0);
        self.lock = None;
        self.pos = 0;
        self.pending.clear();
        self.scratch.iter_mut().for_each(|v| *v = 0);
        self.stats = ForecastStats::default();
    }

    /// Forecast-accuracy statistics so far.
    pub fn stats(&self) -> ForecastStats {
        self.stats
    }

    /// Current confidence in `[0, 1]`; `0` without a live lock.
    pub fn confidence(&self) -> f64 {
        self.lock.as_ref().map_or(0.0, |l| l.ewma)
    }

    /// The period forecasts currently extend, if locked.
    pub fn period(&self) -> Option<usize> {
        self.lock.as_ref().map(|l| l.period)
    }

    /// `true` when the predictor can forecast: locked, with at least one
    /// full period of history observed.
    pub fn is_primed(&self) -> bool {
        self.lock
            .as_ref()
            .is_some_and(|l| self.history.len() >= l.period)
    }

    /// Samples observed so far (the stream position of the next sample).
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// The most recently issued outstanding prediction, as
    /// `(target_position, value)`; `None` when nothing is outstanding.
    /// Right after [`Predictor::observe`] issues, this is the issued
    /// [`Observation`]'s `issued` pair.
    pub fn last_issued(&self) -> Option<(u64, i64)> {
        self.pending.back().map(|p| (p.pos, p.value))
    }

    /// Drop the lock, every outstanding prediction (unscored) and reset
    /// confidence. Counted as an invalidation when any state was live;
    /// returns `Some(dropped_count)` then, `None` when nothing was live.
    fn invalidate(&mut self) -> Option<u64> {
        let had_state = self.lock.is_some() || !self.pending.is_empty();
        self.lock = None;
        if !had_state {
            return None;
        }
        let dropped = self.pending.len() as u64;
        self.stats.invalidations += 1;
        self.stats.dropped += dropped;
        self.pending.clear();
        Some(dropped)
    }

    /// Observe one actual sample together with the detector event its push
    /// produced. Applies, in order: phase-change invalidation, scoring of
    /// the standing prediction for this position, lock/confidence updates,
    /// history append, and issuance of the `H`-step-ahead prediction.
    pub fn observe(&mut self, sample: i64, event: SegmentEvent) -> Observation {
        let mut ob = Observation::default();

        // 1. Lock transitions. A lost period — or a relock onto a different
        //    one — makes every outstanding prediction stale: drop them
        //    before scoring so no stale-period prediction is ever counted.
        match event {
            SegmentEvent::PeriodLost { .. } => {
                if let Some(dropped) = self.invalidate() {
                    ob.invalidated = true;
                    ob.dropped = dropped;
                }
            }
            SegmentEvent::PeriodStart { period, .. } => match self.lock {
                Some(ref mut l) if l.period == period => {
                    l.ewma += BOUNDARY_ALPHA * (1.0 - l.ewma);
                }
                Some(_) => {
                    if let Some(dropped) = self.invalidate() {
                        ob.invalidated = true;
                        ob.dropped = dropped;
                    }
                    self.lock = Some(Lock {
                        period,
                        ewma: FRESH_LOCK_CONFIDENCE,
                    });
                }
                None => {
                    self.lock = Some(Lock {
                        period,
                        ewma: FRESH_LOCK_CONFIDENCE,
                    });
                }
            },
            SegmentEvent::None => {}
        }

        // 2. Score the standing prediction for this position, if it
        //    survived step 1.
        if let Some(front) = self.pending.front().copied() {
            debug_assert!(front.pos >= self.pos, "pending fell behind stream");
            if front.pos == self.pos {
                self.pending.pop_front();
                let hit = front.value == sample;
                self.stats.checked += 1;
                self.stats.hits += hit as u64;
                let err = (front.value as f64 - sample as f64).abs();
                self.stats.abs_err_sum += err;
                if sample != 0 {
                    self.stats.ape_sum += err / (sample as f64).abs();
                    self.stats.ape_checked += 1;
                }
                ob.scored = Some(Scored {
                    predicted: front.value,
                    actual: sample,
                    hit,
                });
            }
        }

        // 3. Match-metric trend: compare the sample against the one a full
        //    period earlier (its own equation-(2) pair).
        if let Some(ref mut l) = self.lock {
            if let Some(prior) = self.history.ago(l.period - 1) {
                let m = (prior == sample) as u64 as f64;
                l.ewma += MATCH_ALPHA * (m - l.ewma);
            }
        }

        // 4. Advance the stream.
        self.history.push(sample);
        self.pos += 1;

        // 5. Issue the H-step-ahead prediction from the new state.
        if let Some(value) = self.predicted_value(self.config.horizon) {
            let pos = self.pos - 1 + self.config.horizon as u64;
            self.pending.push_back(Pending { pos, value });
            self.stats.issued += 1;
            ob.issued = Some((pos, value));
        }
        ob
    }

    /// The forecast value `k >= 1` positions ahead of the newest observed
    /// sample, if locked and primed.
    fn predicted_value(&self, k: usize) -> Option<i64> {
        let l = self.lock.as_ref()?;
        let p = l.period;
        if self.history.len() < p || k == 0 {
            return None;
        }
        // x̂[t+k] = x[t + k - p·⌈k/p⌉]: age (p - k mod p) mod p below t.
        let age = (p - (k % p)) % p;
        self.history.ago(age)
    }

    /// Materialize the forecast for the next `h` positions (`1 <= h <=
    /// horizon`). Returns `None` when not locked or not yet primed, or for
    /// an out-of-range `h`. The returned slice borrows internal scratch.
    pub fn forecast(&mut self, h: usize) -> Option<Forecast<'_>> {
        if h == 0 || h > self.config.horizon || !self.is_primed() {
            return None;
        }
        let period = self.lock.as_ref()?.period;
        for k in 1..=h {
            self.scratch[k - 1] = self.predicted_value(k)?;
        }
        Some(Forecast {
            horizon: h,
            predicted: &self.scratch[..h],
            confidence: self.confidence(),
            period,
        })
    }

    /// Serialize the full predictor state — configuration, history, lock,
    /// outstanding predictions and statistics — into `w`. The confidence
    /// EWMA and the error accumulators travel as raw bit patterns.
    pub(crate) fn snapshot_state(&self, w: &mut SnapshotWriter) {
        crate::snapshot::write_predict_config(w, &self.config);
        let hist = self.history.to_vec();
        w.u64(hist.len() as u64);
        for &s in &hist {
            w.i64(s);
        }
        w.u64(self.history.pushed());
        match self.lock {
            Some(Lock { period, ewma }) => {
                w.bool(true);
                w.u64(period as u64);
                w.f64(ewma);
            }
            None => w.bool(false),
        }
        w.u64(self.pos);
        w.u64(self.pending.len() as u64);
        for p in &self.pending {
            w.u64(p.pos);
            w.i64(p.value);
        }
        w.u64(self.stats.issued);
        w.u64(self.stats.checked);
        w.u64(self.stats.hits);
        w.f64(self.stats.abs_err_sum);
        w.f64(self.stats.ape_sum);
        w.u64(self.stats.ape_checked);
        w.u64(self.stats.invalidations);
        w.u64(self.stats.dropped);
    }

    /// Rebuild a predictor from serialized state.
    pub(crate) fn restore_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let config = crate::snapshot::read_predict_config(r)?;
        let mut p = Predictor::new(config);
        let hist_len = r.count(config.window, "history longer than configured window")?;
        for _ in 0..hist_len {
            let s = r.i64()?;
            p.history.push(s);
        }
        p.history.set_pushed(r.u64()?);
        if r.bool()? {
            let period = r.u64()? as usize;
            if period == 0 {
                return Err(SnapshotError::Malformed {
                    what: "locked forecast period is zero",
                });
            }
            p.lock = Some(Lock {
                period,
                ewma: r.f64()?,
            });
        }
        p.pos = r.u64()?;
        let n_pending = r.count(config.horizon, "more pending predictions than the horizon")?;
        for _ in 0..n_pending {
            let pos = r.u64()?;
            let value = r.i64()?;
            p.pending.push_back(Pending { pos, value });
        }
        p.stats = ForecastStats {
            issued: r.u64()?,
            checked: r.u64()?,
            hits: r.u64()?,
            abs_err_sum: r.f64()?,
            ape_sum: r.f64()?,
            ape_checked: r.u64()?,
            invalidations: r.u64()?,
            dropped: r.u64()?,
        };
        Ok(p)
    }
}

/// Detector + predictor in one object: push samples, get forecasts.
///
/// The detector runs first; its segmentation event for the pushed sample
/// drives the predictor's lock/invalidation state, exactly as if the two
/// were wired by hand (which [`StreamTable`](crate::shard::StreamTable)
/// does for its keyed per-stream detectors).
#[derive(Debug, Clone)]
pub struct ForecastingDpd {
    dpd: StreamingDpd<i64, EventMetric>,
    predictor: Predictor,
}

impl ForecastingDpd {
    /// Bundle an assembled detector and predictor (the
    /// [`crate::pipeline::DpdBuilder`] hook).
    pub(crate) fn from_parts(dpd: StreamingDpd<i64, EventMetric>, predictor: Predictor) -> Self {
        ForecastingDpd { dpd, predictor }
    }

    /// Push one sample through detector and predictor; returns the
    /// segmentation event and what the predictor did with it.
    pub fn push(&mut self, sample: i64) -> (SegmentEvent, Observation) {
        let event = self.dpd.push(sample);
        let ob = self.predictor.observe(sample, event);
        (event, ob)
    }

    /// Materialize the forecast for the next `h` positions.
    pub fn forecast(&mut self, h: usize) -> Option<Forecast<'_>> {
        self.predictor.forecast(h)
    }

    /// The underlying detector.
    pub fn dpd(&self) -> &StreamingDpd<i64, EventMetric> {
        &self.dpd
    }

    /// The underlying predictor (stats, confidence, configuration).
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::pipeline::DpdBuilder;

    fn forecasting(window: usize, horizon: usize) -> crate::Result<ForecastingDpd> {
        DpdBuilder::new()
            .window(window)
            .forecast(horizon)
            .build_forecasting()
            .map_err(|e| match e {
                crate::pipeline::BuildError::Detector(d) => d,
                other => panic!("unexpected build error: {other}"),
            })
    }

    fn push_all(f: &mut ForecastingDpd, data: &[i64]) -> Vec<Observation> {
        data.iter().map(|&s| f.push(s).1).collect()
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            PredictConfig::new(0, 4),
            Err(crate::DpdError::InvalidWindow(0))
        );
        assert_eq!(
            PredictConfig::new(8, 0),
            Err(crate::DpdError::InvalidHorizon(0))
        );
        assert!(PredictConfig::new(8, 4).is_ok());
    }

    #[test]
    fn no_forecast_before_lock() {
        let mut f = forecasting(8, 2).unwrap();
        for &s in &[1i64, 2, 3, 4, 5] {
            f.push(s);
        }
        assert!(f.forecast(1).is_none());
        assert_eq!(f.predictor().confidence(), 0.0);
        assert_eq!(f.predictor().stats().issued, 0);
    }

    #[test]
    fn exact_periodic_stream_forecasts_perfectly() {
        let data: Vec<i64> = (0..200).map(|i| [7i64, 8, 9, 10][i % 4]).collect();
        let mut f = forecasting(8, 3).unwrap();
        push_all(&mut f, &data);
        let stats = f.predictor().stats();
        assert!(stats.checked > 100, "{stats:?}");
        assert_eq!(stats.hit_rate(), Some(1.0));
        assert_eq!(stats.mae(), Some(0.0));
        assert_eq!(stats.mape(), Some(0.0));
        assert_eq!(stats.invalidations, 0);
        assert!(f.predictor().confidence() > 0.95);

        // Forecast slice extends the period from the newest sample.
        let newest = *data.last().unwrap(); // position 199 -> value [7,8,9,10][3] = 10
        assert_eq!(newest, 10);
        let fc = f.forecast(3).unwrap();
        assert_eq!(fc.predicted, &[7, 8, 9]);
        assert_eq!(fc.period, 4);
    }

    #[test]
    fn horizon_wraps_past_one_period() {
        let mut f = forecasting(8, 7).unwrap();
        for i in 0..40usize {
            f.push([1i64, 2, 3][i % 3]);
        }
        // last sample at i=39 -> value [1,2,3][0] = 1
        let fc = f.forecast(7).unwrap();
        assert_eq!(fc.predicted, &[2, 3, 1, 2, 3, 1, 2]);
    }

    #[test]
    fn phase_change_invalidates_unscored() {
        // Period 3, then an abrupt switch to period 5 with a disjoint
        // alphabet: every outstanding prediction must be dropped, none
        // scored against the new phase.
        let mut data: Vec<i64> = (0..60).map(|i| [1i64, 2, 3][i % 3]).collect();
        data.extend((0..80).map(|i| [10i64, 20, 30, 40, 50][i % 5]));
        let mut f = forecasting(8, 4).unwrap();
        let obs = push_all(&mut f, &data);

        let stats = f.predictor().stats();
        assert!(stats.invalidations >= 1, "{stats:?}");
        assert!(stats.dropped >= 1, "{stats:?}");
        // Every *scored* prediction was issued under a live matching lock:
        // on this corpus that means all of them hit.
        assert_eq!(stats.hit_rate(), Some(1.0), "{stats:?}");
        assert!(obs.iter().any(|o| o.invalidated));
        // Re-locked onto the new period and forecasting again.
        assert_eq!(f.predictor().period(), Some(5));
        assert!(f.forecast(1).is_some());
    }

    #[test]
    fn confidence_decays_on_mismatching_samples() {
        let mut f = forecasting(8, 1).unwrap();
        for i in 0..30usize {
            f.push([1i64, 2][i % 2]);
        }
        let confident = f.predictor().confidence();
        assert!(confident > 0.9);
        // Degrade: aperiodic tail. Confidence must fall (until the lock is
        // lost, which zeroes it).
        for v in 100..140i64 {
            f.push(v);
        }
        assert_eq!(f.predictor().confidence(), 0.0);
        assert!(f.predictor().period().is_none());
    }

    #[test]
    fn forecast_rejects_out_of_range_horizons() {
        let mut f = forecasting(8, 2).unwrap();
        for i in 0..30usize {
            f.push([4i64, 5][i % 2]);
        }
        assert!(f.forecast(0).is_none());
        assert!(f.forecast(3).is_none(), "beyond configured horizon");
        assert!(f.forecast(2).is_some());
    }

    #[test]
    fn scored_observation_reports_prediction() {
        let mut f = forecasting(8, 1).unwrap();
        let mut scored = Vec::new();
        for i in 0..30usize {
            let (_, ob) = f.push([6i64, 7, 8][i % 3]);
            if let Some(s) = ob.scored {
                scored.push(s);
            }
        }
        assert!(!scored.is_empty());
        assert!(scored.iter().all(|s| s.hit && s.predicted == s.actual));
    }

    #[test]
    fn mape_skips_zero_actuals() {
        // Period-2 stream containing zeros: MAPE only counts the non-zero
        // positions, MAE counts all.
        let mut f = forecasting(4, 1).unwrap();
        for i in 0..40usize {
            f.push([0i64, 9][i % 2]);
        }
        let stats = f.predictor().stats();
        assert!(stats.checked > stats.ape_checked);
        assert_eq!(stats.mape(), Some(0.0));
    }

    #[test]
    fn pending_never_exceeds_horizon() {
        let mut f = forecasting(8, 5).unwrap();
        for i in 0..200usize {
            f.push([1i64, 2, 3, 4][i % 4]);
            assert!(f.predictor().pending.len() <= 5);
        }
        let stats = f.predictor().stats();
        // Steady state: one issued per sample, one scored per sample (H
        // behind), so issued - checked is at most the outstanding tail.
        assert!(stats.issued - stats.checked <= 5);
    }

    #[test]
    fn stats_accessors_before_any_activity() {
        let s = ForecastStats::default();
        assert_eq!(s.hit_rate(), None);
        assert_eq!(s.mae(), None);
        assert_eq!(s.mape(), None);
    }
}
