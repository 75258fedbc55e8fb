//! Property tests: batch ingestion (`push_slice` / `dpd_batch`) is
//! observably identical to sample-by-sample feeding.
//!
//! The incremental engine's batch path promises **bit-identical** running
//! sums (the per-accumulator floating-point operation order is preserved
//! exactly), and the streaming detectors promise the **same event
//! sequence**. These properties are exercised across arbitrary chunkings —
//! including chunks that straddle the warmup/steady-state boundary — for
//! both metrics, with and without the `resync_interval` drift-bound path.

use dpd::core::incremental::{EngineConfig, IncrementalEngine};
use dpd::core::metric::{EventMetric, L1Metric, Metric};
use dpd::core::pipeline::DpdBuilder;
use dpd::core::streaming::{SegmentEvent, StreamingDpd};
use proptest::prelude::*;

/// Split `data` into chunks whose sizes cycle through `chunk_sizes`.
fn chunked<'d>(data: &'d [i64], chunk_sizes: &[usize]) -> Vec<&'d [i64]> {
    let mut out = Vec::new();
    let mut rest = data;
    let mut it = chunk_sizes.iter().copied().cycle();
    while !rest.is_empty() {
        let k = it.next().unwrap_or(1).clamp(1, rest.len());
        let (now, later) = rest.split_at(k);
        out.push(now);
        rest = later;
    }
    out
}

fn chunked_f64<'d>(data: &'d [f64], chunk_sizes: &[usize]) -> Vec<&'d [f64]> {
    let mut out = Vec::new();
    let mut rest = data;
    let mut it = chunk_sizes.iter().copied().cycle();
    while !rest.is_empty() {
        let k = it.next().unwrap_or(1).clamp(1, rest.len());
        let (now, later) = rest.split_at(k);
        out.push(now);
        rest = later;
    }
    out
}

/// Assert two engines observing the same stream differently-chunked agree
/// bit-for-bit on every observable.
fn assert_engines_identical<T, M>(
    single: &IncrementalEngine<T, M>,
    batch: &IncrementalEngine<T, M>,
    m_max: usize,
) where
    T: Copy + PartialEq + std::fmt::Debug,
    M: Metric<T>,
{
    assert_eq!(single.pushed(), batch.pushed());
    assert_eq!(single.is_warm(), batch.is_warm());
    let ss = single.spectrum();
    let bs = batch.spectrum();
    for m in 1..=m_max {
        assert_eq!(
            single.pair_sum(m).map(f64::to_bits),
            batch.pair_sum(m).map(f64::to_bits),
            "pair_sum differs at m={m}"
        );
        assert_eq!(
            single.distance(m).map(f64::to_bits),
            batch.distance(m).map(f64::to_bits),
            "distance differs at m={m}"
        );
        assert_eq!(single.is_complete(m), batch.is_complete(m), "m={m}");
        assert_eq!(
            ss.at(m).map(f64::to_bits),
            bs.at(m).map(f64::to_bits),
            "spectrum differs at m={m}"
        );
    }
    assert_eq!(single.first_zero(), batch.first_zero());
    assert_eq!(single.history_vec(), batch.history_vec());
}

proptest! {
    /// Engine, event metric: arbitrary streams and chunkings, arbitrary
    /// configurations — bit-identical spectra. Short streams keep some
    /// chunkings entirely inside warmup; long ones straddle the boundary.
    #[test]
    fn engine_events_batch_bit_identical(
        data in collection::vec(0i64..6, 1..400),
        n in 2usize..40,
        m_extra in 0usize..20,
        chunk_sizes in collection::vec(1usize..80, 1..6),
    ) {
        let m_max = (n - 1).saturating_sub(m_extra).max(1);
        let cfg = EngineConfig { frame: n, m_max, resync_interval: 0 };
        let mut single = IncrementalEngine::new(EventMetric, cfg).unwrap();
        let mut batch = IncrementalEngine::new(EventMetric, cfg).unwrap();
        for &s in &data {
            single.push(s);
        }
        for chunk in chunked(&data, &chunk_sizes) {
            batch.push_slice(chunk);
        }
        assert_engines_identical(&single, &batch, m_max);
    }

    /// Engine, L1 metric with the resync drift-bound enabled: the batch path
    /// must fire resyncs at exactly the same stream positions, so sums stay
    /// bit-identical even though resync rewrites them from history.
    #[test]
    fn engine_l1_batch_bit_identical_with_resync(
        data in collection::vec(-100.0f64..100.0, 1..400),
        n in 2usize..32,
        resync in 1u64..120,
        chunk_sizes in collection::vec(1usize..90, 1..5),
    ) {
        let cfg = EngineConfig { frame: n, m_max: n, resync_interval: resync };
        let mut single = IncrementalEngine::new(L1Metric, cfg).unwrap();
        let mut batch = IncrementalEngine::new(L1Metric, cfg).unwrap();
        for &s in &data {
            single.push(s);
        }
        for chunk in chunked_f64(&data, &chunk_sizes) {
            batch.push_slice(chunk);
        }
        assert_engines_identical(&single, &batch, n);
    }

    /// Streaming detector, event metric: identical event sequences (periods,
    /// positions, losses) and identical final statistics under any chunking
    /// of a stream with a mid-stream structure change.
    #[test]
    fn streaming_events_same_event_sequence(
        period_a in 1usize..7,
        period_b in 1usize..7,
        len_a in 0usize..120,
        len_b in 0usize..120,
        window in 4usize..24,
        chunk_sizes in collection::vec(1usize..70, 1..5),
    ) {
        let mut data: Vec<i64> = (0..len_a).map(|i| (i % period_a) as i64).collect();
        data.extend((0..len_b).map(|i| 1000 + (i % period_b) as i64));
        if data.is_empty() {
            data.push(1);
        }

        let mut single = DpdBuilder::new().window(window).build_detector().unwrap();
        let expected: Vec<SegmentEvent> = data
            .iter()
            .map(|&s| single.push(s))
            .filter(|e| *e != SegmentEvent::None)
            .collect();

        let mut batch = DpdBuilder::new().window(window).build_detector().unwrap();
        let mut got = Vec::new();
        for chunk in chunked(&data, &chunk_sizes) {
            got.extend(batch.push_slice(chunk));
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(batch.stats(), single.stats());
        prop_assert_eq!(batch.locked_period(), single.locked_period());
    }

    /// Streaming detector, L1 metric with confirmation, losses and resync:
    /// the noisy-magnitude configuration takes every state-machine path.
    #[test]
    fn streaming_magnitudes_same_event_sequence(
        period in 2usize..8,
        reps in 10usize..60,
        noise_scale in 0u32..40,
        chunk_sizes in collection::vec(1usize..50, 1..4),
    ) {
        let data: Vec<f64> = (0..period * reps)
            .map(|i| {
                let base = ((i % period) as f64) * 4.0;
                let noise = ((i * 7919) % 17) as f64 * (noise_scale as f64 * 0.001);
                base + noise
            })
            .collect();
        let mut config = DpdBuilder::new()
            .window(3 * period)
            .magnitudes()
            .detector_config()
            .unwrap();
        config.resync_interval = 37; // force mid-stream resyncs
        let mut single = StreamingDpd::new(L1Metric, config).unwrap();
        let expected: Vec<SegmentEvent> = data
            .iter()
            .map(|&s| single.push(s))
            .filter(|e| *e != SegmentEvent::None)
            .collect();
        let mut batch = StreamingDpd::new(L1Metric, config).unwrap();
        let mut got = Vec::new();
        for chunk in chunked_f64(&data, &chunk_sizes) {
            got.extend(batch.push_slice(chunk));
        }
        prop_assert_eq!(got, expected);
    }

    /// Table 1 batch interface: `dpd_batch` reports exactly the detections
    /// of per-sample `dpd()`, with chunk-relative offsets.
    #[test]
    fn capi_batch_matches_per_sample(
        period in 1usize..9,
        reps in 5usize..80,
        window in 4usize..32,
        chunk_sizes in collection::vec(1usize..60, 1..5),
    ) {
        let data: Vec<i64> = (0..period * reps).map(|i| (i % period) as i64).collect();

        let mut single = DpdBuilder::new().window(window).build_capi().unwrap();
        let mut period_out = 0i32;
        let mut expected = Vec::new();
        for (i, &s) in data.iter().enumerate() {
            if single.dpd(s, &mut period_out) != 0 {
                expected.push((i, period_out));
            }
        }

        let mut batch = DpdBuilder::new().window(window).build_capi().unwrap();
        let mut got = Vec::new();
        let mut consumed = 0usize;
        for chunk in chunked(&data, &chunk_sizes) {
            for (offset, p) in batch.dpd_batch(chunk) {
                got.push((consumed + offset, p));
            }
            consumed += chunk.len();
        }
        prop_assert_eq!(got, expected);
    }

    /// Multi-scale bank: batch ingestion preserves the per-sample dispatch
    /// order (position-major, then scale order) and the detected-period set.
    #[test]
    fn multiscale_batch_matches_per_sample(
        inner in 1usize..5,
        runs in 1usize..6,
        tail in 0usize..6,
        outers in 2usize..10,
        chunk_sizes in collection::vec(1usize..40, 1..4),
    ) {
        let mut one: Vec<i64> = Vec::new();
        for _ in 0..runs {
            one.extend((0..inner).map(|i| 0x100 + i as i64));
        }
        one.extend((0..tail).map(|i| 0x900 + i as i64));
        let data: Vec<i64> = (0..one.len() * outers).map(|i| one[i % one.len()]).collect();

        let mut single = DpdBuilder::new().scales(&[8, 64]).build_multi_scale().unwrap();
        let mut expected = Vec::new();
        for &s in &data {
            expected.extend(single.push(s).events);
        }

        let mut batch = DpdBuilder::new().scales(&[8, 64]).build_multi_scale().unwrap();
        let mut got = Vec::new();
        for chunk in chunked(&data, &chunk_sizes) {
            got.extend(batch.push_slice(chunk));
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(batch.detected_periods(), single.detected_periods());
    }
}

/// The engine's update rule in its per-delay form, kept as a reference for
/// the forward-slice kernels: sums in ascending delay order, an explicit
/// pair count per delay, a warmup step with two data-dependent branches per
/// delay, and a steady step that walks the delayed history newest-first.
/// History is never trimmed; only the trailing `N + M` samples are read.
struct PerDelayEngine<T, M> {
    metric: M,
    frame: usize,
    m_max: usize,
    resync_interval: u64,
    history: Vec<T>,
    sums: Vec<f64>,
    pairs: Vec<u32>,
    pushed: u64,
}

impl<T: Copy, M: Metric<T>> PerDelayEngine<T, M> {
    fn new(metric: M, cfg: EngineConfig) -> Self {
        PerDelayEngine {
            metric,
            frame: cfg.frame,
            m_max: cfg.m_max,
            resync_interval: cfg.resync_interval,
            history: Vec::new(),
            sums: vec![0.0; cfg.m_max],
            pairs: vec![0; cfg.m_max],
            pushed: 0,
        }
    }

    fn push(&mut self, sample: T) {
        let (n, m_max) = (self.frame, self.m_max);
        let steady = self.history.len() >= n + m_max;
        self.history.push(sample);
        self.pushed += 1;
        let h = &self.history;
        let t = h.len();
        let newest = h[t - 1];
        if steady {
            let out_cur = h[t - 1 - n];
            for m in 1..=m_max {
                self.sums[m - 1] += self.metric.pair(newest, h[t - 1 - m]);
                self.sums[m - 1] -= self.metric.pair(out_cur, h[t - 1 - n - m]);
            }
        } else {
            for m in 1..=m_max {
                if t > m {
                    self.sums[m - 1] += self.metric.pair(newest, h[t - 1 - m]);
                    self.pairs[m - 1] += 1;
                    if self.pairs[m - 1] as usize > n {
                        self.sums[m - 1] -= self.metric.pair(h[t - 1 - n], h[t - 1 - n - m]);
                        self.pairs[m - 1] = n as u32;
                    }
                }
            }
        }
        if self.resync_interval > 0 && self.pushed.is_multiple_of(self.resync_interval) {
            self.resync();
        }
    }

    fn resync(&mut self) {
        let h = &self.history;
        let avail = h.len();
        for m in 1..=self.m_max {
            let mut sum = 0.0;
            let mut count = 0u32;
            for age in 0..self.frame.min(avail) {
                if age + m < avail {
                    sum += self.metric.pair(h[avail - 1 - age], h[avail - 1 - age - m]);
                    count += 1;
                }
            }
            self.sums[m - 1] = sum;
            self.pairs[m - 1] = count;
        }
    }
}

/// Push `data` into the engine and the per-delay reference one sample at a
/// time; after every push each delay's raw sum must match to the bit and
/// its completeness must match the reference's pair count.
fn assert_matches_per_delay<T, M>(metric: M, cfg: EngineConfig, data: &[T])
where
    T: Copy,
    M: Metric<T>,
{
    let mut engine = IncrementalEngine::new(metric.clone(), cfg).unwrap();
    let mut reference = PerDelayEngine::new(metric, cfg);
    for (t, &s) in data.iter().enumerate() {
        engine.push(s);
        reference.push(s);
        for m in 1..=cfg.m_max {
            assert_eq!(
                engine.pair_sum(m).map(f64::to_bits),
                Some(reference.sums[m - 1].to_bits()),
                "t={t} m={m}"
            );
            assert_eq!(
                engine.is_complete(m),
                reference.pairs[m - 1] as usize == cfg.frame,
                "t={t} m={m}"
            );
        }
    }
}

proptest! {
    /// L1 over magnitudes, with resyncs at arbitrary intervals: the warmup
    /// and steady loops of the engine reproduce the per-delay update to the
    /// bit after every push.
    #[test]
    fn engine_l1_matches_per_delay_update(
        data in collection::vec(-100.0f64..100.0, 1..300),
        n in 1usize..48,
        m_extra in 0usize..24,
        resync in 0u64..90,
    ) {
        let m_max = n.saturating_sub(m_extra).max(1);
        let cfg = EngineConfig { frame: n, m_max, resync_interval: resync };
        assert_matches_per_delay(L1Metric, cfg, &data);
    }

    /// Mismatch tallies over event streams: equation (2)'s pair sums count
    /// mismatching positions (their share of `N` is the mismatch fraction).
    #[test]
    fn engine_mismatch_fraction_matches_per_delay_update(
        data in collection::vec(0i64..5, 1..300),
        n in 1usize..48,
        m_extra in 0usize..24,
    ) {
        let m_max = n.saturating_sub(m_extra).max(1);
        let cfg = EngineConfig { frame: n, m_max, resync_interval: 0 };
        assert_matches_per_delay(EventMetric, cfg, &data);
    }
}
