//! Edge-case integration tests: degenerate windows, miss tolerance and
//! cross-module corner conditions.

use dpd::core::minima::MinimaPolicy;
use dpd::core::pipeline::DpdBuilder;
use dpd::core::streaming::SegmentEvent;

#[test]
fn window_of_one_locks_on_constant_stream() {
    let mut dpd = DpdBuilder::new().window(1).build_detector().unwrap();
    let mut starts = 0u64;
    for _ in 0..20 {
        if dpd.push(5i64).as_return_value() != 0 {
            starts += 1;
        }
    }
    assert!(starts > 10, "period 1 on constant stream: {starts}");
}

#[test]
fn lose_tolerance_survives_single_boundary_anomaly() {
    // With lose = 2, one bad boundary must NOT drop the lock for magnitude
    // streams (event streams break on mid-period mismatches by design).
    let mut dpd = DpdBuilder::new()
        .window(16)
        .magnitudes()
        .lose(2)
        .build_magnitude_detector()
        .unwrap();
    let shape = [0.0f64, 4.0, 9.0, 4.0];
    // Establish the lock.
    for i in 0..200usize {
        dpd.push(shape[i % 4]);
    }
    assert_eq!(dpd.locked_period(), Some(4));
    // One glitched period, then clean again.
    for v in [0.0f64, 40.0, 40.0, 40.0] {
        dpd.push(v);
    }
    let mut lost = false;
    let mut restarts = 0;
    for i in 0..200usize {
        match dpd.push(shape[i % 4]) {
            SegmentEvent::PeriodLost { .. } => lost = true,
            SegmentEvent::PeriodStart { .. } => restarts += 1,
            SegmentEvent::None => {}
        }
    }
    // Either the glitch was ridden out (no loss) or the detector recovered.
    assert!(!lost || restarts > 0, "lock neither survived nor recovered");
    assert!(restarts > 10);
}

#[test]
fn m_max_smaller_than_window() {
    // Restricting the candidate range must hide larger periods.
    let mut dpd = DpdBuilder::new()
        .window(64)
        .m_max(4)
        .build_detector()
        .unwrap();
    for i in 0..400usize {
        let e = dpd.push([1i64, 2, 3, 4, 5, 6][i % 6]);
        assert_eq!(
            e.as_return_value(),
            0,
            "period 6 must be invisible with M=4"
        );
    }
    // Period 3 stream is visible.
    let mut found = false;
    for i in 0..400usize {
        if dpd.push([7i64, 8, 9][i % 3]).as_return_value() == 3 {
            found = true;
        }
    }
    assert!(found);
}

#[test]
fn minima_policy_min_delay_zero_behaves_like_one() {
    // min_delay 0 must not panic or reject delay 1.
    let policy = MinimaPolicy {
        min_delay: 0,
        ..MinimaPolicy::exact()
    };
    let values = vec![0.0, 1.0, 1.0];
    let pairs = vec![8u32; 3];
    let spectrum = dpd::core::spectrum::Spectrum::from_parts(values, pairs, 8);
    let minima = policy.extract(&spectrum);
    assert_eq!(minima[0].delay, 1);
}

#[test]
fn stream_of_two_alternating_values() {
    let mut dpd = DpdBuilder::new().window(4).build_detector().unwrap();
    let mut periods = Vec::new();
    for i in 0..40usize {
        if let SegmentEvent::PeriodStart { period, .. } = dpd.push([10i64, 20][i % 2]) {
            periods.push(period);
        }
    }
    assert!(periods.iter().all(|&p| p == 2), "{periods:?}");
    assert!(!periods.is_empty());
}

#[test]
fn very_long_stream_stays_stable() {
    // 1M samples through a small window: no drift, no spurious losses.
    let mut dpd = DpdBuilder::new().window(16).build_detector().unwrap();
    for i in 0..1_000_000usize {
        dpd.push([1i64, 2, 3, 4, 5][i % 5]);
    }
    let st = dpd.stats();
    assert_eq!(st.detected_periods(), vec![5]);
    assert_eq!(st.losses, 0);
    assert_eq!(st.samples, 1_000_000);
    // Boundaries: one per period after warm-up.
    assert!(st.boundaries > 199_000, "{}", st.boundaries);
}

#[test]
fn interleaved_detectors_do_not_share_state() {
    let mut a = DpdBuilder::new().window(8).build_detector().unwrap();
    let mut b = DpdBuilder::new().window(8).build_detector().unwrap();
    for i in 0..100usize {
        a.push([1i64, 2, 3][i % 3]);
        b.push(i as i64); // aperiodic
    }
    assert_eq!(a.stats().detected_periods(), vec![3]);
    assert!(b.stats().detected_periods().is_empty());
}

#[test]
fn capi_handles_extreme_sample_values() {
    let mut dpd = DpdBuilder::new().window(8).build_capi().unwrap();
    let mut p = 0i32;
    let pattern = [i64::MIN, -1, 0, i64::MAX];
    let mut hits = 0;
    for i in 0..100usize {
        hits += dpd.dpd(pattern[i % 4], &mut p);
    }
    assert!(hits > 0);
    assert_eq!(p, 4);
}
