//! Differential property tests: finishers of one `DpdBuilder` agree with
//! each other.
//!
//! For random segmented traces (phase changes included) and random
//! configurations, each pair below must agree **byte for byte**: the
//! event sequences (compared structurally — every payload is integral),
//! the running statistics, and the forecast `f64` accumulators (compared
//! via `to_bits`, so even the floating-point operation *order* must
//! match). The pairs are a keyed table's stream and the single-stream
//! detector or forecaster, a multi-scale bank and one detector per
//! window, the Table 1 interface and the raw detector, and the raw keyed
//! table and the inline multi-stream service.

use dpd::core::pipeline::DpdBuilder;
use dpd::core::predict::{Forecast, ForecastStats};
use dpd::core::shard::{MultiStreamEvent, StreamId};
use dpd::core::streaming::SegmentEvent;
use dpd::runtime::service::MultiStreamDpd;
use proptest::collection;
use proptest::prelude::*;

/// Deterministic segmented event trace: a few phases, each periodic with
/// its own alphabet, driven from random words.
fn trace_from_words(words: &[u64]) -> Vec<i64> {
    let mut out = Vec::new();
    for (pi, &w) in words.iter().enumerate() {
        let period = (w % 7 + 1) as usize;
        let len = (w >> 8) % 120 + 30;
        let base = (pi as i64 + 1) * 1000;
        for i in 0..len as usize {
            out.push(base + (i % period) as i64);
        }
    }
    out
}

/// `ForecastStats` equality including bit-exact `f64` accumulators.
fn assert_forecast_stats_bit_identical(a: ForecastStats, b: ForecastStats, ctx: &str) {
    assert_eq!(a.issued, b.issued, "{ctx}: issued");
    assert_eq!(a.checked, b.checked, "{ctx}: checked");
    assert_eq!(a.hits, b.hits, "{ctx}: hits");
    assert_eq!(a.invalidations, b.invalidations, "{ctx}: invalidations");
    assert_eq!(a.dropped, b.dropped, "{ctx}: dropped");
    assert_eq!(a.ape_checked, b.ape_checked, "{ctx}: ape_checked");
    assert_eq!(
        a.abs_err_sum.to_bits(),
        b.abs_err_sum.to_bits(),
        "{ctx}: abs_err_sum bits"
    );
    assert_eq!(
        a.ape_sum.to_bits(),
        b.ape_sum.to_bits(),
        "{ctx}: ape_sum bits"
    );
}

/// `build_table` vs `build_detector`: one stream of a keyed table reports
/// exactly the single-stream detector's events and statistics.
fn check_table_stream(data: &[i64], window: usize) {
    let builder = DpdBuilder::new().window(window);
    let mut dpd = builder.build_detector().unwrap();
    let expected: Vec<MultiStreamEvent> = dpd
        .push_slice(data)
        .into_iter()
        .map(|event| MultiStreamEvent::Segment {
            stream: StreamId(0),
            event,
        })
        .collect();
    let mut table = builder.build_table().unwrap();
    let mut events = Vec::new();
    table.ingest(0, StreamId(0), data, &mut events);
    assert_eq!(events, expected, "table window={window}");
    assert_eq!(
        table.stream_stats(StreamId(0)),
        Some(dpd.stats()),
        "table window={window}: detector stats"
    );
}

/// `build_multi_scale` vs one `build_detector` per window: every scale of
/// the bank reports exactly its window's single detector, sample by
/// sample.
fn check_multi_scale(data: &[i64], scales: &[usize]) {
    let mut bank = DpdBuilder::new()
        .scales(scales)
        .build_multi_scale()
        .unwrap();
    let mut singles: Vec<_> = scales
        .iter()
        .map(|&w| DpdBuilder::new().window(w).build_detector().unwrap())
        .collect();
    for &s in data {
        let expected: Vec<(usize, SegmentEvent)> = singles
            .iter_mut()
            .filter_map(|d| match d.push(s) {
                SegmentEvent::None => None,
                e => Some((d.window(), e)),
            })
            .collect();
        assert_eq!(bank.push(s).events, expected, "scales={scales:?}");
    }
    for (scale, single) in bank.scales().iter().zip(&singles) {
        assert_eq!(scale.stats(), single.stats(), "scales={scales:?}: stats");
    }
}

/// `build_table` with a horizon vs `build_forecasting`: one stream of a
/// forecasting table scores and forecasts exactly like the single-stream
/// forecaster.
fn check_forecasting(data: &[i64], window: usize, horizon: usize) {
    let builder = DpdBuilder::new().window(window).forecast(horizon);
    let mut f = builder.build_forecasting().unwrap();
    for &s in data {
        f.push(s);
    }
    let mut table = builder.build_table().unwrap();
    table.ingest(0, StreamId(0), data, &mut Vec::new());
    let ctx = format!("forecasting window={window} horizon={horizon}");
    assert_forecast_stats_bit_identical(
        table.forecast_stats(StreamId(0)).unwrap(),
        f.predictor().stats(),
        &ctx,
    );
    let slice = |fc: Forecast| (fc.period, fc.predicted.to_vec(), fc.confidence.to_bits());
    assert_eq!(
        table.forecast(StreamId(0), horizon).map(slice),
        f.forecast(horizon).map(slice),
        "{ctx}: forecast slice"
    );
}

/// Table 1 `build_capi` vs the raw `build_detector`: `dpd` returns
/// nonzero and writes the period exactly on the raw detector's period
/// starts, sample by sample.
fn check_capi(data: &[i64], window: usize) {
    let mut raw = DpdBuilder::new().window(window).build_detector().unwrap();
    let mut capi = DpdBuilder::new().window(window).build_capi().unwrap();
    let mut period = -1i32;
    for &s in data {
        let before = period;
        let ret = capi.dpd(s, &mut period);
        match raw.push(s) {
            SegmentEvent::PeriodStart { period: p, .. } => {
                assert_eq!((ret, period), (1, p as i32), "capi window={window}")
            }
            _ => assert_eq!((ret, period), (0, before), "capi window={window}"),
        }
    }
}

/// A batch schedule: `(stream, chunk)` pairs replayed in order.
type Schedule = Vec<(u64, Vec<i64>)>;

fn schedule_from_words(words: &[u64], streams: u64) -> Schedule {
    let mut out = Vec::new();
    for &w in words {
        let stream = w % streams;
        let period = (w >> 4) % 6 + 1;
        let len = ((w >> 16) % 40 + 1) as usize;
        let start = (w >> 32) % 1000;
        out.push((
            stream,
            (0..len as u64)
                .map(|i| ((start + i) % period) as i64)
                .collect(),
        ));
    }
    out
}

/// Table-scale options (eviction, forecasting, memory budget, cold
/// summaries): the raw `build_table` loop and the inline service
/// (`shards(0)`) agree — identical events and whole rollups (tier,
/// creation and forecast counters included).
fn check_keyed_tiered(
    schedule: &Schedule,
    window: usize,
    evict_after: u64,
    cold_retain: u64,
    budget_streams: u64,
    horizon: usize,
) {
    let mut builder = DpdBuilder::new().window(window);
    if evict_after > 0 {
        builder = builder.evict_after(evict_after);
    }
    if horizon > 0 {
        builder = builder.forecast(horizon);
    }
    if budget_streams > 0 {
        let probe = builder.table_config().unwrap();
        builder = builder.memory_budget(
            probe.hot_stream_bytes() * budget_streams + probe.cold_stream_bytes() * 64,
        );
    }
    if cold_retain > 0 {
        builder = builder.cold_summary(cold_retain);
    }
    let ctx = format!(
        "tiered window={window} evict={evict_after} cold={cold_retain} \
         budget_streams={budget_streams} horizon={horizon}"
    );

    let mut raw_table = builder.build_table().unwrap();
    let mut raw_events = Vec::new();
    let mut seq = 0u64;
    for (stream, samples) in schedule {
        raw_table.ingest(seq, StreamId(*stream), samples, &mut raw_events);
        seq += samples.len() as u64;
    }
    // The order `finish` uses: a final-clock sweep, then close every
    // live stream.
    raw_table.sweep(seq);
    raw_table.close_all(seq, &mut raw_events);

    let mut svc = MultiStreamDpd::from_builder(&builder.sweep_every(0).shards(0)).unwrap();
    for (stream, samples) in schedule {
        svc.push(StreamId(*stream), samples);
    }
    let (events, snapshot) = svc.finish();
    assert_eq!(events, raw_events, "{ctx}");
    assert_eq!(snapshot.total(), raw_table.stats(), "{ctx}: rollups");
    let st = raw_table.stats();
    assert!(
        st.promoted <= st.demoted,
        "{ctx}: promotions without demotions ({st:?})"
    );
}

proptest! {
    /// A keyed table's stream vs the single-stream detector, random
    /// traces and windows.
    #[test]
    fn streaming_builder_bit_identical(
        words in collection::vec(any::<u64>(), 1..6),
        window_pow in 0u32..7,
    ) {
        let data = trace_from_words(&words);
        check_table_stream(&data, 1usize << window_pow);
    }

    /// Multi-scale bank vs one detector per window.
    #[test]
    fn multi_scale_builder_bit_identical(
        words in collection::vec(any::<u64>(), 1..6),
        small in 2usize..12,
        large in 32usize..128,
    ) {
        let data = trace_from_words(&words);
        check_multi_scale(&data, &[small, large]);
    }

    /// A forecasting table's stream vs the single-stream forecaster,
    /// incl. bit-exact f64 accumulators and forecast slices.
    #[test]
    fn forecasting_builder_bit_identical(
        words in collection::vec(any::<u64>(), 1..6),
        window_pow in 2u32..7,
        horizon in 1usize..9,
    ) {
        let data = trace_from_words(&words);
        check_forecasting(&data, 1usize << window_pow, horizon);
    }

    /// Table 1 C-style interface vs the raw detector.
    #[test]
    fn capi_builder_bit_identical(
        words in collection::vec(any::<u64>(), 1..5),
        window in 2usize..64,
    ) {
        let data = trace_from_words(&words);
        check_capi(&data, window);
    }

    /// Table-scale options: memory budget and cold summaries behave
    /// identically through the raw table and the inline service.
    #[test]
    fn tiered_table_paths_bit_identical(
        words in collection::vec(any::<u64>(), 1..16),
        window in 2usize..24,
        evict_sel in 0u64..2,
        evict_raw in 20u64..200,
        cold_sel in 0u64..2,
        cold_raw in 10u64..300,
        budget_streams in 0u64..6,
        horizon in 0usize..3,
    ) {
        let evict = if evict_sel == 0 { 0 } else { evict_raw };
        let cold = if cold_sel == 0 { 0 } else { cold_raw };
        // Cold retention needs a demotion source; budget alone suffices.
        let budget_streams = if cold > 0 && evict == 0 { budget_streams.max(2) } else { budget_streams };
        let schedule = schedule_from_words(&words, 5);
        check_keyed_tiered(&schedule, window, evict, cold, budget_streams, horizon);
    }
}
