//! Property-based tests on the DPD core invariants (proptest).

use dpd::core::incremental::{EngineConfig, IncrementalEngine};
use dpd::core::metric::{direct_distance, EventMetric, L1Metric, Metric};
use dpd::core::pipeline::DpdBuilder;
use dpd::core::snapshot::{Restore, Snapshot, SnapshotReader, SnapshotWriter};
use dpd::core::spectrum::Spectrum;
use dpd::core::streaming::{StreamingConfig, StreamingDpd};
use dpd::trace::{io, EventTrace, SampledTrace};
use proptest::prelude::*;

/// Compare every observable of `e` with the direct definition over `seen`,
/// the samples pushed since the last reset (`direct_distance` reads only the
/// trailing `N + m` of them).
fn assert_engine_is_direct(
    e: &IncrementalEngine<i64, EventMetric>,
    seen: &[i64],
    cfg: EngineConfig,
) {
    let mut first_zero = None;
    for m in 1..=cfg.m_max {
        let direct = direct_distance(&EventMetric, seen, cfg.frame, m);
        prop_assert_eq!(
            e.is_complete(m),
            direct.is_some(),
            "len={}, m={}",
            seen.len(),
            m
        );
        if let Some(d) = direct {
            prop_assert_eq!(e.distance(m), Some(d), "len={}, m={}", seen.len(), m);
            if d == 0.0 && first_zero.is_none() {
                first_zero = Some(m);
            }
        }
    }
    prop_assert_eq!(e.first_zero(), first_zero, "len={}", seen.len());
}

/// Equation (2) from its definition, kept in O(M) per sample: for every
/// delay `m`, one past the newest position `t` with `x[t] != x[t-m]` (0 for
/// none). `d(m) = 0` exactly when that mismatch lies before the frame.
struct LastMismatch {
    seen: Vec<i64>,
    last: Vec<usize>,
}

impl LastMismatch {
    fn new(seen: Vec<i64>, m_max: usize) -> Self {
        let mut oracle = LastMismatch {
            seen: Vec::new(),
            last: vec![0; m_max + 1],
        };
        for s in seen {
            oracle.push(s);
        }
        oracle
    }

    fn push(&mut self, s: i64) {
        let t = self.seen.len();
        self.seen.push(s);
        for m in 1..self.last.len().min(t + 1) {
            if self.seen[t - m] != s {
                self.last[m] = t + 1;
            }
        }
    }

    /// `d(m)` over frame `n`, `None` until `n + m` samples exist.
    fn distance(&self, n: usize, m: usize) -> Option<f64> {
        let len = self.seen.len();
        (len >= n + m).then(|| if self.last[m] <= len - n { 0.0 } else { 1.0 })
    }
}

/// Spectrum values (as bits) and pair counts, for bit-exact comparison.
fn spectrum_bits(s: &Spectrum) -> (Vec<u64>, Vec<Option<u32>>) {
    (
        s.values().iter().map(|v| v.to_bits()).collect(),
        (1..=s.m_max()).map(|m| s.pairs_at(m)).collect(),
    )
}

/// Windows around and far above the width from which `DpdBuilder`'s event
/// detectors keep 16-bit symbol codes (128 candidate delays) instead of
/// `i64` values.
const CODE_WINDOWS: [usize; 6] = [64, 127, 128, 129, 200, 1024];

/// Compare `dpd`'s spectrum with the oracle's definition of equation (2).
fn assert_spectrum_is_direct(dpd: &StreamingDpd<i64, EventMetric>, oracle: &LastMismatch) {
    let s = dpd.spectrum();
    for m in 1..=s.m_max() {
        let direct = oracle.distance(s.frame(), m);
        prop_assert_eq!(
            s.is_complete_at(m),
            direct.is_some(),
            "len={}, m={}",
            oracle.seen.len(),
            m
        );
        if direct.is_some() {
            prop_assert_eq!(s.at(m), direct, "len={}, m={}", oracle.seen.len(), m);
        }
    }
}

proptest! {
    /// Soundness of equation (2): over a fully periodic stream, d(m) is
    /// zero exactly at multiples of the fundamental period (for delays the
    /// window can judge).
    #[test]
    fn event_metric_zero_iff_periodic(
        period in 1usize..12,
        reps in 6usize..20,
        seed in 0i64..1000,
    ) {
        let pattern: Vec<i64> = (0..period).map(|i| seed + i as i64).collect();
        let len = period * reps;
        let data: Vec<i64> = (0..len).map(|i| pattern[i % period]).collect();
        let n = 2 * period;
        for m in 1..=n.min(len.saturating_sub(n)) {
            if let Some(d) = direct_distance(&EventMetric, &data, n, m) {
                // Pattern values are distinct, so d(m) = 0 ⟺ period | m.
                if m % period == 0 {
                    prop_assert_eq!(d, 0.0, "m={}, period={}", m, period);
                } else {
                    prop_assert_eq!(d, 1.0, "m={}, period={}", m, period);
                }
            }
        }
    }

    /// The incremental engine computes exactly the same distances, complete
    /// delays and first zero as the direct definition, for arbitrary event
    /// streams, across a mid-stream snapshot/restore, a reset, a growing
    /// and a shrinking reconfigure. Windows up to 80 make the first-zero
    /// scan cross several full 16-delay chunks; the mostly periodic input
    /// gives it zeros to find.
    #[test]
    fn incremental_equals_direct(
        period in 1usize..40,
        glitches in proptest::collection::vec(0i64..64, 100..420),
        n in 1usize..81,
        m_max in 1usize..81,
        grow in 1usize..30,
        shrink_pct in 1usize..100,
        cuts in proptest::collection::vec(0usize..420, 4..5),
    ) {
        // Values repeat with `period`, except where a glitch draw lands
        // below 3: then the value is off-pattern.
        let data: Vec<i64> = glitches
            .iter()
            .enumerate()
            .map(|(i, &g)| if g < 3 { 100 + g } else { (i % period) as i64 })
            .collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % data.len()).collect();
        cuts.sort_unstable();
        let mut cfg = EngineConfig { frame: n, m_max: m_max.min(n), resync_interval: 0 };
        let mut e = IncrementalEngine::new(EventMetric, cfg).unwrap();
        // Samples since the last reset; a reconfigure trims it to what the
        // engine kept.
        let mut seen: Vec<i64> = Vec::new();
        let mut start = 0;
        for (phase, &cut) in cuts.iter().chain([&data.len()]).enumerate() {
            for &s in &data[start..cut] {
                e.push(s);
                seen.push(s);
                assert_engine_is_direct(&e, &seen, cfg);
            }
            start = cut;
            match phase {
                0 => {
                    let mut w = SnapshotWriter::new();
                    e.snapshot_state(&mut w, &|w, v| w.i64(v));
                    let bytes = w.into_bytes();
                    let mut r = SnapshotReader::new(&bytes);
                    e = IncrementalEngine::restore_state(EventMetric, cfg, &mut r, &|r| r.i64())
                        .unwrap();
                    r.finish().unwrap();
                }
                1 => {
                    e.reset();
                    seen.clear();
                }
                2 | 3 => {
                    cfg = if phase == 2 {
                        let frame = cfg.frame + grow;
                        EngineConfig { frame, m_max: (cfg.m_max + grow).min(frame), ..cfg }
                    } else {
                        let frame = (cfg.frame * shrink_pct / 100).max(1);
                        EngineConfig { frame, m_max: cfg.m_max.min(frame), ..cfg }
                    };
                    e.reconfigure(cfg).unwrap();
                    let kept = e.history_vec();
                    prop_assert_eq!(&kept[..], &seen[seen.len() - kept.len()..]);
                    seen = kept;
                }
                _ => {}
            }
            assert_engine_is_direct(&e, &seen, cfg);
        }
    }

    /// The detector `DpdBuilder` builds keeps the equation-(2) engine's
    /// history as 16-bit symbol codes at wide windows, `StreamingDpd::new`
    /// as `i64` values. Across windows on both sides of that switch and up
    /// to 1024, pushed one sample at a time, the two emit the same events
    /// and bit-identical spectra, and the spectrum is the definition's at
    /// every push. Along the way: a snapshot/restore, `set_window` across
    /// the switch in both directions, all-distinct stretches that cycle
    /// codes through release and reuse, `i64::MIN`/`MAX`, and glitch values
    /// that leave retention and come back.
    #[test]
    fn code_layout_detector_equals_direct(
        pick in 0usize..6,
        across in 0usize..6,
        period in 1usize..40,
        glitches in proptest::collection::vec(0i64..64, 150..400),
        distinct in 0usize..5,
        cuts in proptest::collection::vec(0usize..1000, 3..4),
    ) {
        let mut n = CODE_WINDOWS[pick];
        // A clean loop long enough to warm the window and lock, then the
        // glitches.
        let clean = 2 * n + period;
        let len = clean + glitches.len();
        let data: Vec<i64> = (0..len)
            .map(|i| match glitches[i.saturating_sub(clean) % glitches.len()] {
                _ if i < clean => (i % period) as i64,
                g @ 0..=2 => 100 + g,
                3 => i64::MIN,
                4 => i64::MAX,
                // `distinct` of every 4 samples never seen before: all of
                // them at 4.
                _ if i % 4 < distinct => 1_000_000 + i as i64,
                _ => (i % period) as i64,
            })
            .collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c * len / 1000).collect();
        cuts.sort_unstable();

        let builder = DpdBuilder::new().window(n);
        let mut dpd = builder.build_detector().unwrap();
        let config: StreamingConfig = builder.detector_config().unwrap();
        let mut reference = StreamingDpd::new(EventMetric, config).unwrap();
        let mut oracle = LastMismatch::new(Vec::new(), n);
        let mut start = 0;
        for (phase, &cut) in cuts.iter().chain([&len]).enumerate() {
            for &s in &data[start..cut] {
                prop_assert_eq!(dpd.push(s), reference.push(s));
                oracle.push(s);
                assert_spectrum_is_direct(&dpd, &oracle);
                prop_assert_eq!(spectrum_bits(&dpd.spectrum()), spectrum_bits(&reference.spectrum()));
            }
            start = cut;
            // The direct sums at every phase boundary, and the stats.
            for m in 1..=n {
                let direct = direct_distance(&EventMetric, &oracle.seen, n, m);
                prop_assert_eq!(direct, oracle.distance(n, m), "m={}", m);
            }
            prop_assert_eq!(dpd.stats(), reference.stats());
            prop_assert_eq!(dpd.snapshot(), reference.snapshot());
            match phase {
                0 => {
                    dpd = StreamingDpd::<i64, EventMetric>::restore(&dpd.snapshot()).unwrap();
                }
                1 | 2 => {
                    // Across the switch: wide windows shrink below 128,
                    // narrow ones grow above it.
                    let old = n;
                    n = if n >= 128 { CODE_WINDOWS[across % 2] } else { CODE_WINDOWS[2 + across % 4] };
                    dpd.set_window(n).unwrap();
                    reference.set_window(n).unwrap();
                    // A detector retains its last N + M + 64 samples (the
                    // frame, the deepest delay, one ingestion block), and
                    // keeps what fits the new window of those.
                    let mut seen = std::mem::take(&mut oracle.seen);
                    seen.drain(..seen.len().saturating_sub((2 * old + 64).min(2 * n + 64)));
                    oracle = LastMismatch::new(seen, n);
                    assert_spectrum_is_direct(&dpd, &oracle);
                }
                _ => {}
            }
        }
    }

    /// L1 incremental sums stay within numeric tolerance of the direct
    /// computation even over long streams.
    #[test]
    fn incremental_l1_tolerance(
        data in proptest::collection::vec(-100.0f64..100.0, 50..250),
    ) {
        let cfg = EngineConfig { frame: 16, m_max: 8, resync_interval: 0 };
        let mut e = IncrementalEngine::new(L1Metric, cfg).unwrap();
        for (t, &s) in data.iter().enumerate() {
            e.push(s);
            if t + 1 == data.len() {
                for m in 1..=8 {
                    if let Some(direct) = direct_distance(&L1Metric, &data[..=t], 16, m) {
                        let inc = e.distance(m).unwrap();
                        prop_assert!((inc - direct).abs() < 1e-6, "m={}: {} vs {}", m, inc, direct);
                    }
                }
            }
        }
    }

    /// Streaming detection on an exactly periodic stream locks on the
    /// fundamental period (never a multiple) and marks are period-spaced.
    #[test]
    fn streaming_locks_fundamental(
        period in 2usize..10,
        reps in 30usize..60,
    ) {
        let pattern: Vec<i64> = (0..period).map(|i| 100 + i as i64).collect();
        let data: Vec<i64> = (0..period * reps).map(|i| pattern[i % period]).collect();
        let mut dpd = DpdBuilder::new().window(2 * period + 2).build_detector().unwrap();
        let mut marks = Vec::new();
        for &s in &data {
            let e = dpd.push(s);
            if let dpd::core::streaming::SegmentEvent::PeriodStart { period: p, position } = e {
                prop_assert_eq!(p, period);
                marks.push(position);
            }
        }
        prop_assert!(!marks.is_empty());
        for w in marks.windows(2) {
            prop_assert_eq!(w[1] - w[0], period as u64);
        }
    }

    /// The forecaster is perfect on exactly periodic streams: every
    /// forecast it scores is a hit.
    #[test]
    fn predictor_perfect_on_periodic(
        period in 1usize..16,
        reps in 4usize..20,
    ) {
        let data: Vec<i64> = (0..period * reps).map(|i| (i % period) as i64).collect();
        let mut f = DpdBuilder::new().window(16).forecast(1).build_forecasting().unwrap();
        for &s in &data {
            f.push(s);
        }
        if let Some(rate) = f.predictor().stats().hit_rate() {
            prop_assert_eq!(rate, 1.0);
        }
    }

    /// fold_harmonics: every output delay divides no earlier output delay,
    /// and every input delay is a multiple of some output delay.
    #[test]
    fn fold_harmonics_properties(
        mut delays in proptest::collection::vec(1usize..200, 1..20),
    ) {
        delays.sort_unstable();
        delays.dedup();
        let folded = Spectrum::fold_harmonics(&delays);
        for (i, &a) in folded.iter().enumerate() {
            for &b in &folded[i + 1..] {
                prop_assert_ne!(b % a, 0, "harmonic {} of {} survived", b, a);
            }
        }
        for &d in &delays {
            prop_assert!(folded.iter().any(|&f| d % f == 0), "{} lost", d);
        }
    }

    /// Metric axioms: pair(a, a) = 0 and pair(a, b) >= 0.
    #[test]
    fn metric_axioms(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(Metric::<i64>::pair(&EventMetric, a, a), 0.0);
        prop_assert!(Metric::<i64>::pair(&EventMetric, a, b) >= 0.0);
        prop_assert_eq!(Metric::<i64>::pair(&L1Metric, a, a), 0.0);
        prop_assert!(Metric::<i64>::pair(&L1Metric, a, b) >= 0.0);
    }

    /// Trace file I/O round-trips arbitrary event traces.
    #[test]
    fn event_trace_io_roundtrip(
        values in proptest::collection::vec(any::<i64>(), 0..100),
    ) {
        let t = EventTrace::from_values("prop", values);
        let mut buf = Vec::new();
        io::write_events(&t, &mut buf).unwrap();
        let back = io::read_events(&buf[..]).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Sampled trace I/O round-trips finite values.
    #[test]
    fn sampled_trace_io_roundtrip(
        values in proptest::collection::vec(-1e12f64..1e12, 0..100),
        period in 1u64..10_000_000,
    ) {
        let t = SampledTrace::from_values("prop", period, values);
        let mut buf = Vec::new();
        io::write_sampled(&t, &mut buf).unwrap();
        let back = io::read_sampled(&buf[..]).unwrap();
        prop_assert_eq!(back.sample_period_ns, t.sample_period_ns);
        prop_assert_eq!(back.values.len(), t.values.len());
        for (a, b) in back.values.iter().zip(&t.values) {
            prop_assert!((a - b).abs() <= f64::EPSILON * a.abs().max(1.0));
        }
    }

    /// A stream whose period exceeds the window never produces a lock
    /// (paper §3.1).
    #[test]
    fn no_lock_beyond_window(
        window in 4usize..16,
        extra in 1usize..20,
    ) {
        let period = window + extra;
        let data: Vec<i64> = (0..period * 30).map(|i| (i % period) as i64).collect();
        let mut dpd = DpdBuilder::new().window(window).build_detector().unwrap();
        for &s in &data {
            let e = dpd.push(s);
            prop_assert_eq!(e.as_return_value(), 0);
        }
    }

    /// RingWindow retains exactly the trailing `capacity` samples.
    #[test]
    fn ring_window_retains_tail(
        data in proptest::collection::vec(any::<i64>(), 1..200),
        cap in 1usize..32,
    ) {
        let mut w = dpd::core::window::RingWindow::new(cap);
        for &v in &data {
            w.push(v);
        }
        let keep = data.len().min(cap);
        let expected: Vec<i64> = data[data.len() - keep..].to_vec();
        prop_assert_eq!(w.to_vec(), expected);
        prop_assert_eq!(w.len(), keep);
        prop_assert_eq!(w.pushed(), data.len() as u64);
    }

    /// Segmentation invariant on arbitrary periodic-with-phase-changes
    /// streams: segments never overlap and appear in stream order.
    #[test]
    fn segments_never_overlap(
        p1 in 2usize..8,
        p2 in 2usize..8,
        reps1 in 10usize..30,
        reps2 in 10usize..30,
    ) {
        let mut data: Vec<i64> = (0..p1 * reps1).map(|i| (i % p1) as i64).collect();
        data.extend((0..p2 * reps2).map(|i| 100 + (i % p2) as i64));
        let (segments, _) = dpd::core::segmentation::segment_events(&data, 16);
        for w in segments.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "overlap: {:?}", w);
        }
        for s in &segments {
            prop_assert!(s.start < s.end);
            // Untruncated segments span periods * period exactly; a lock
            // loss truncates at most one period's worth off the end.
            let len = s.end - s.start;
            prop_assert!(len <= s.periods * s.period as u64, "{:?}", s);
            prop_assert!(
                len > (s.periods - 1) * s.period as u64,
                "{:?}", s
            );
        }
    }
}
