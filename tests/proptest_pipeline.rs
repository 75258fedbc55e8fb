//! Differential property tests: the unified `DpdBuilder` pipeline (or the
//! Table 1 interface, or the inline multi-stream service) and the raw stack
//! the same options build report bit-identical behaviour.
//!
//! For random segmented traces (phase changes included) and random
//! configurations, each pair below must agree **byte for byte**: the full
//! event sequences (compared structurally — every payload is integral),
//! the running statistics, and the forecast `f64` accumulators (compared
//! via `to_bits`, so even the floating-point operation *order* must
//! match). This is the proof that the one event stream of
//! [`DpdEvent`]s is a faithful view of every stack, not a reinterpretation.

use dpd::core::pipeline::{Detector, DpdBuilder, DpdEvent};
use dpd::core::predict::ForecastStats;
use dpd::core::shard::StreamId;
use dpd::core::streaming::{SegmentEvent, StreamStats};
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

fn assert_stream_stats_equal(a: &StreamStats, b: &StreamStats, ctx: &str) {
    assert_eq!(a, b, "{ctx}: detector stats");
}

/// Raw `build_detector` vs `build(sink)`: same events on the unified
/// stream, same stats, same lock.
fn check_streaming(data: &[i64], window: usize) {
    let mut raw = DpdBuilder::new().window(window).build_detector().unwrap();
    let mut raw_events = Vec::new();
    for &s in data {
        let e = raw.push(s);
        if e != SegmentEvent::None {
            raw_events.push((StreamId(0), DpdEvent::Segment(e)));
        }
    }

    let mut pipe = DpdBuilder::new().window(window).build(Vec::new()).unwrap();
    pipe.push_slice(data);
    assert_eq!(pipe.sink(), &raw_events, "streaming window={window}");
    assert_stream_stats_equal(
        pipe.streaming().unwrap().stats(),
        raw.stats(),
        &format!("streaming window={window}"),
    );
    assert_eq!(pipe.locked_period(), raw.locked_period());
}

/// Raw `build_multi_scale` bank vs `DpdBuilder::scales(..).build(sink)`.
fn check_multi_scale(data: &[i64], scales: &[usize]) {
    let mut raw = DpdBuilder::new()
        .scales(scales)
        .build_multi_scale()
        .unwrap();
    let mut raw_events = Vec::new();
    for &s in data {
        for (window, event) in raw.push(s).events {
            raw_events.push((StreamId(0), DpdEvent::Scale { window, event }));
        }
    }

    let mut pipe = DpdBuilder::new().scales(scales).build(Vec::new()).unwrap();
    pipe.push_slice(data);
    assert_eq!(pipe.sink(), &raw_events, "scales={scales:?}");
    assert_eq!(pipe.detected_periods(), raw.detected_periods());
}

/// Raw `build_forecasting` bundle vs the builder's forecasting pipeline:
/// segment/scored/invalidated events and the bit-exact forecast stats.
fn check_forecasting(data: &[i64], window: usize, horizon: usize) {
    let builder = DpdBuilder::new().window(window).forecast(horizon);
    let mut raw = builder.build_forecasting().unwrap();
    let mut raw_events: Vec<(StreamId, DpdEvent)> = Vec::new();
    for &s in data {
        let (e, ob) = raw.push(s);
        if e != SegmentEvent::None {
            raw_events.push((StreamId(0), DpdEvent::Segment(e)));
        }
        if ob.invalidated {
            raw_events.push((
                StreamId(0),
                DpdEvent::ForecastInvalidated {
                    dropped: ob.dropped,
                },
            ));
        }
        if let Some(sc) = ob.scored {
            raw_events.push((
                StreamId(0),
                DpdEvent::ForecastScored {
                    predicted: sc.predicted,
                    actual: sc.actual,
                    hit: sc.hit,
                },
            ));
        }
        if let Some((position, value)) = ob.issued {
            assert_eq!(
                raw.predictor().last_issued(),
                Some((position, value)),
                "issued observation disagrees with pending tail"
            );
            raw_events.push((StreamId(0), DpdEvent::ForecastIssued { position, value }));
        }
    }

    let mut pipe = builder.build(Vec::new()).unwrap();
    pipe.push_slice(data);
    let ctx = format!("forecasting window={window} horizon={horizon}");
    assert_eq!(pipe.sink(), &raw_events, "{ctx}");
    assert_forecast_stats_bit_identical(
        pipe.forecasting().unwrap().predictor().stats(),
        raw.predictor().stats(),
        &ctx,
    );
    // The materialized forecast slices agree too.
    let raw_fc = raw
        .forecast(horizon)
        .map(|f| (f.period, f.predicted.to_vec(), f.confidence.to_bits()));
    let pipe_fc = pipe
        .forecast(horizon)
        .map(|f| (f.period, f.predicted.to_vec(), f.confidence.to_bits()));
    assert_eq!(pipe_fc, raw_fc, "{ctx}: forecast slice");
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

/// `MultiStreamDpd::drain_into` delivers exactly `drain()`'s events,
/// translated through the one unified vocabulary.
#[test]
fn service_drain_into_matches_drain() {
    let schedule = schedule_from_words(&[3, 99, 0x50_0007, 0xAB_CDEF, 42], 3);
    let run = |collect: bool| {
        let mut svc = MultiStreamDpd::from_builder(&DpdBuilder::new().window(8).shards(0)).unwrap();
        for (stream, samples) in &schedule {
            svc.ingest(&[(StreamId(*stream), samples.as_slice())]);
        }
        svc.flush();
        if collect {
            let mut sink: Vec<(StreamId, DpdEvent)> = Vec::new();
            svc.drain_into(&mut sink);
            sink
        } else {
            svc.drain()
                .iter()
                .map(DpdEvent::from_multi_stream)
                .collect()
        }
    };
    let a = run(true);
    let b = run(false);
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

/// A closure sink observes the same events a `Vec` sink collects.
#[test]
fn closure_sink_sees_vec_sink_events() {
    let data = trace_from_words(&[7, 0x30_0042, 19]);
    let mut collected = Vec::new();
    {
        let sink = |s: StreamId, e: &DpdEvent| collected.push((s, *e));
        let mut pipe = DpdBuilder::new().window(8).forecast(2).build(sink).unwrap();
        pipe.push_slice(&data);
    }
    let mut reference = DpdBuilder::new()
        .window(8)
        .forecast(2)
        .build(Vec::new())
        .unwrap();
    reference.push_slice(&data);
    assert_eq!(&collected, reference.sink());
    assert!(!collected.is_empty());
}

/// The `EventSink` impl for `()` discards without disturbing the stack.
#[test]
fn unit_sink_keeps_stack_behavior() {
    let data = trace_from_words(&[5, 0x20_0031]);
    let mut silent = DpdBuilder::new().window(8).build(()).unwrap();
    silent.push_slice(&data);
    let mut loud = DpdBuilder::new().window(8).build(Vec::new()).unwrap();
    loud.push_slice(&data);
    assert_eq!(silent.detected_periods(), loud.detected_periods());
    assert_eq!(silent.locked_period(), loud.locked_period());
}

proptest! {
    /// Plain streaming stack: raw detector vs pipeline, random traces
    /// and windows.
    #[test]
    fn streaming_builder_bit_identical(
        words in collection::vec(any::<u64>(), 1..6),
        window_pow in 0u32..7,
    ) {
        let data = trace_from_words(&words);
        check_streaming(&data, 1usize << window_pow);
    }

    /// Multi-scale stack: raw bank vs builder pipeline.
    #[test]
    fn multi_scale_builder_bit_identical(
        words in collection::vec(any::<u64>(), 1..6),
        small in 2usize..12,
        large in 32usize..128,
    ) {
        let data = trace_from_words(&words);
        check_multi_scale(&data, &[small, large]);
    }

    /// Forecasting stack: raw bundle vs builder pipeline, incl. bit-exact
    /// f64 accumulators and forecast slices.
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
