//! Differential oracle for the online forecasting subsystem.
//!
//! [`NaiveForecaster`] is a deliberately naive from-scratch reference
//! implementation of the forecasting contract documented in
//! `docs/PREDICTION.md`: it keeps the *entire* stream in a growing `Vec`,
//! re-derives "the last full period of samples" by slicing that history on
//! every call, and scans a plain list of outstanding predictions — no ring
//! buffers, no bounded state. The incremental `dpd::core::predict` path
//! must match it **bit-for-bit** (including the f64 confidence EWMA and
//! error accumulators) across random traces, horizons, warmup/steady
//! chunk straddles, and detector resyncs.

use dpd::core::pipeline::DpdBuilder;
use dpd::core::predict::ForecastStats;
use dpd::core::streaming::{SegmentEvent, StreamingConfig};
use proptest::prelude::*;

// The confidence constants of the forecasting contract (PREDICTION.md).
const MATCH_ALPHA: f64 = 0.1;
const BOUNDARY_ALPHA: f64 = 0.2;
const FRESH_LOCK_CONFIDENCE: f64 = 0.5;

/// From-scratch reference forecaster (see module docs).
struct NaiveForecaster {
    horizon: usize,
    /// Full stream history, never truncated.
    hist: Vec<i64>,
    /// `(period, confidence EWMA)` of the live lock.
    lock: Option<(usize, f64)>,
    /// Outstanding `(target position, predicted value)` pairs, unordered.
    pending: Vec<(u64, i64)>,
    stats: ForecastStats,
}

impl NaiveForecaster {
    fn new(horizon: usize) -> Self {
        NaiveForecaster {
            horizon,
            hist: Vec::new(),
            lock: None,
            pending: Vec::new(),
            stats: ForecastStats::default(),
        }
    }

    fn invalidate(&mut self) -> bool {
        let had_state = self.lock.is_some() || !self.pending.is_empty();
        if had_state {
            self.stats.invalidations += 1;
            self.stats.dropped += self.pending.len() as u64;
        }
        self.pending.clear();
        self.lock = None;
        had_state
    }

    /// The forecast value `k >= 1` ahead, recomputed from scratch: slice
    /// the last full period out of the complete history and extend it.
    fn forecast_value(&self, k: usize) -> Option<i64> {
        let (p, _) = self.lock?;
        if self.hist.len() < p || k == 0 {
            return None;
        }
        let last_period = &self.hist[self.hist.len() - p..];
        Some(last_period[(k - 1) % p])
    }

    fn forecast(&self, h: usize) -> Option<Vec<i64>> {
        if h == 0 || h > self.horizon || self.lock.is_none_or(|(p, _)| self.hist.len() < p) {
            return None;
        }
        (1..=h).map(|k| self.forecast_value(k)).collect()
    }

    fn confidence(&self) -> f64 {
        self.lock.map_or(0.0, |(_, c)| c)
    }

    fn observe(&mut self, sample: i64, event: SegmentEvent) {
        // 1. Lock transitions / phase-change invalidation.
        match event {
            SegmentEvent::PeriodLost { .. } => {
                self.invalidate();
            }
            SegmentEvent::PeriodStart { period, .. } => match self.lock {
                Some((p, ref mut ewma)) if p == period => {
                    *ewma += BOUNDARY_ALPHA * (1.0 - *ewma);
                }
                Some(_) => {
                    self.invalidate();
                    self.lock = Some((period, FRESH_LOCK_CONFIDENCE));
                }
                None => self.lock = Some((period, FRESH_LOCK_CONFIDENCE)),
            },
            SegmentEvent::None => {}
        }

        // 2. Score the standing prediction for this position.
        let pos = self.hist.len() as u64;
        if let Some(i) = self.pending.iter().position(|&(target, _)| target == pos) {
            let (_, predicted) = self.pending.remove(i);
            self.stats.checked += 1;
            self.stats.hits += (predicted == sample) as u64;
            let err = (predicted as f64 - sample as f64).abs();
            self.stats.abs_err_sum += err;
            if sample != 0 {
                self.stats.ape_sum += err / (sample as f64).abs();
                self.stats.ape_checked += 1;
            }
        }

        // 3. Match-metric trend: the sample vs one full period earlier.
        if let Some((p, ref mut ewma)) = self.lock {
            if self.hist.len() >= p {
                let prior = self.hist[self.hist.len() - p];
                let m = (prior == sample) as u64 as f64;
                *ewma += MATCH_ALPHA * (m - *ewma);
            }
        }

        // 4. Advance the stream.
        self.hist.push(sample);

        // 5. Issue the H-step-ahead prediction.
        if let Some(value) = self.forecast_value(self.horizon) {
            self.pending
                .push((self.hist.len() as u64 - 1 + self.horizon as u64, value));
            self.stats.issued += 1;
        }
    }
}

/// Build an event trace from raw words: a sequence of segments, each
/// either exactly periodic over a segment-private alphabet or aperiodic,
/// so locks, relocks, phase changes and searching stretches all occur.
fn trace_from_words(words: &[u64]) -> Vec<i64> {
    let mut out = Vec::new();
    let mut fresh = 0x7000_0000i64;
    for (seg, &w) in words.iter().enumerate() {
        let period = (w % 7 + 1) as usize;
        let len = ((w >> 8) % 90 + 5) as usize;
        let aperiodic = (w >> 16) % 5 == 0;
        for i in 0..len {
            if aperiodic {
                fresh += 1;
                out.push(fresh);
            } else {
                out.push(0x1000 * (seg as i64 + 1) + (i % period) as i64);
            }
        }
    }
    out
}

/// Assert every observable of the two paths matches bit-for-bit.
fn assert_stats_bit_identical(incremental: ForecastStats, naive: ForecastStats, ctx: &str) {
    assert_eq!(incremental.issued, naive.issued, "{ctx}: issued");
    assert_eq!(incremental.checked, naive.checked, "{ctx}: checked");
    assert_eq!(incremental.hits, naive.hits, "{ctx}: hits");
    assert_eq!(
        incremental.abs_err_sum.to_bits(),
        naive.abs_err_sum.to_bits(),
        "{ctx}: abs_err_sum"
    );
    assert_eq!(
        incremental.ape_sum.to_bits(),
        naive.ape_sum.to_bits(),
        "{ctx}: ape_sum"
    );
    assert_eq!(
        incremental.ape_checked, naive.ape_checked,
        "{ctx}: ape_checked"
    );
    assert_eq!(
        incremental.invalidations, naive.invalidations,
        "{ctx}: invalidations"
    );
    assert_eq!(incremental.dropped, naive.dropped, "{ctx}: dropped");
}

/// Drive both implementations over `data` in `chunk`-sized strides,
/// comparing forecasts and confidence at every chunk boundary and the
/// statistics at the end. `config` parameterizes the shared detector
/// (window, confirmation counts, resync interval).
fn run_differential(data: &[i64], config: StreamingConfig, horizon: usize, chunk: usize) {
    let mut incremental = DpdBuilder::new()
        .detector(config)
        .forecast(horizon)
        .build_forecasting()
        .expect("valid config");
    // The naive path drives its own detector instance: same config, same
    // samples => same event sequence.
    let mut detector = DpdBuilder::new()
        .detector(config)
        .build_detector()
        .expect("valid config");
    let mut naive = NaiveForecaster::new(horizon);

    let ctx = format!(
        "window={} horizon={horizon} chunk={chunk} resync={}",
        config.window, config.resync_interval
    );
    // Observations the incremental path hands back, counted against its
    // own statistics at the end.
    let (mut issued, mut scored) = (0u64, 0u64);
    for (c, samples) in data.chunks(chunk.max(1)).enumerate() {
        for &s in samples {
            let (_, ob) = incremental.push(s);
            if let Some(issue) = ob.issued {
                assert_eq!(
                    incremental.predictor().last_issued(),
                    Some(issue),
                    "{ctx}: issued observation disagrees with the pending tail"
                );
                issued += 1;
            }
            scored += u64::from(ob.scored.is_some());
            let event = detector.push(s);
            naive.observe(s, event);
        }
        // Chunk-boundary probes: confidence, lock and every horizon slice.
        assert_eq!(
            incremental.predictor().confidence().to_bits(),
            naive.confidence().to_bits(),
            "{ctx}: confidence after chunk {c}"
        );
        assert_eq!(
            incremental.predictor().period(),
            naive.lock.map(|(p, _)| p),
            "{ctx}: period after chunk {c}"
        );
        for h in 1..=horizon {
            let got = incremental.forecast(h).map(|f| f.predicted.to_vec());
            let expect = naive.forecast(h);
            assert_eq!(got, expect, "{ctx}: forecast({h}) after chunk {c}");
        }
    }
    let stats = incremental.predictor().stats();
    assert_eq!(
        (issued, scored),
        (stats.issued, stats.checked),
        "{ctx}: issued and scored observations vs stats"
    );
    assert_stats_bit_identical(stats, naive.stats, &ctx);
}

#[test]
fn simple_periodic_and_phase_change_corpora() {
    let mut data: Vec<i64> = (0..60).map(|i| [1i64, 2, 3][i % 3]).collect();
    data.extend((0..80).map(|i| [10i64, 20, 30, 40, 50][i % 5]));
    for horizon in [1usize, 3, 8] {
        for chunk in [1usize, 7, 140] {
            let config = DpdBuilder::new().window(8).detector_config().unwrap();
            run_differential(&data, config, horizon, chunk);
        }
    }
}

#[test]
fn resync_interval_does_not_change_forecasts() {
    let data = trace_from_words(&[0x00012345, 0x00fe4321, 0x00aa0077, 0x00054321]);
    for resync in [0u64, 13, 64] {
        let config = DpdBuilder::new()
            .window(16)
            .resync_interval(resync)
            .detector_config()
            .unwrap();
        run_differential(&data, config, 4, 23);
    }
}

proptest! {
    /// Random segmented traces, random horizons, random chunk sizes
    /// straddling warmup and steady state, several windows.
    #[test]
    fn incremental_predict_matches_naive_reference(
        words in collection::vec(any::<u64>(), 1..8),
        horizon in 1usize..9,
        chunk in 1usize..50,
        window_pow in 2u32..7,
    ) {
        let data = trace_from_words(&words);
        let window = 1usize << window_pow; // 4..=64
        let config = DpdBuilder::new().window(window).detector_config().unwrap();
        run_differential(&data, config, horizon, chunk);
    }

    /// Confirmation/lose hysteresis and resync intervals forwarded to the
    /// engine must not affect the forecaster/naive agreement either.
    #[test]
    fn hysteresis_and_resync_match_naive_reference(
        words in collection::vec(any::<u64>(), 1..6),
        horizon in 1usize..5,
        confirm in 1usize..4,
        lose in 1usize..3,
        resync in 0u64..40,
    ) {
        let data = trace_from_words(&words);
        let config = DpdBuilder::new()
            .window(16)
            .confirm(confirm)
            .lose(lose)
            .resync_interval(resync)
            .detector_config()
            .unwrap();
        run_differential(&data, config, horizon, 11);
    }
}
