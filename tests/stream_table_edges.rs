//! Eviction-edge coverage for [`StreamTable`]: watermark ties,
//! close-after-evict interactions, re-opening an evicted stream in the
//! middle of a forecast — forecast state must reset and every counter must
//! stay consistent — and the interaction of snapshots with eviction:
//! snapshot-then-evict must equal evict-then-snapshot, and restoring a
//! table whose stream closed mid-forecast must keep rollups monotonic.

use dpd::core::pipeline::DpdBuilder;
use dpd::core::shard::{MultiStreamEvent, StreamId};
use dpd::core::snapshot::{Restore, Snapshot};

fn periodic(period: u64, start: u64, len: usize) -> Vec<i64> {
    (0..len as u64)
        .map(|i| ((start + i) % period) as i64)
        .collect()
}

/// The eviction comparison is strict: a stream whose idle gap equals the
/// watermark *exactly* is still live; one more sample of gap evicts it.
#[test]
fn watermark_tie_is_not_an_eviction() {
    for extra in [0u64, 1] {
        let mut table = DpdBuilder::new()
            .window(8)
            .evict_after(50)
            .build_table()
            .unwrap();
        let mut out = Vec::new();
        table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
        assert_eq!(table.locked_period(StreamId(0)), Some(3));
        // Stream 0's last sample sits at clock 23. A batch arriving at
        // seq such that seq - 23 == 50 (+ extra) probes the boundary.
        let seq = 23 + 50 + extra;
        table.ingest(seq, StreamId(0), &periodic(3, 24, 3), &mut out);
        if extra == 0 {
            assert_eq!(table.stats().evicted, 0, "tie must keep the stream");
            assert_eq!(
                table.locked_period(StreamId(0)),
                Some(3),
                "lock survives a gap of exactly the watermark"
            );
        } else {
            assert_eq!(table.stats().evicted, 1, "gap one past the watermark");
            assert_eq!(table.locked_period(StreamId(0)), None);
        }
    }
}

/// `sweep` uses the same strict comparison as lazy eviction.
#[test]
fn sweep_watermark_tie_is_not_an_eviction() {
    let mut table = DpdBuilder::new()
        .window(8)
        .evict_after(50)
        .build_table()
        .unwrap();
    let mut out = Vec::new();
    table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
    assert_eq!(table.sweep(23 + 50), 0, "tie survives the sweep");
    assert_eq!(table.len(), 1);
    assert_eq!(table.sweep(23 + 51), 1, "one past the watermark is gone");
    assert!(table.is_empty());
    assert_eq!(table.stats().evicted, 1);
}

/// Closing a stream that a sweep already evicted is a plain
/// unknown-stream close: no flush, no double-counted eviction.
#[test]
fn close_after_sweep_evict_is_a_silent_noop() {
    let mut table = DpdBuilder::new()
        .window(8)
        .evict_after(16)
        .build_table()
        .unwrap();
    let mut out = Vec::new();
    table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
    assert_eq!(table.sweep(200), 1);
    out.clear();
    assert!(!table.close(200, StreamId(0), &mut out));
    assert!(out.is_empty());
    let stats = table.stats();
    assert_eq!(stats.evicted, 1, "the sweep's eviction, counted once");
    assert_eq!(stats.closed, 0);
    // Whether the eviction happened by sweep or lazily inside close, the
    // observable event stream is identical (none) and the rollups agree.
    let mut lazy = DpdBuilder::new()
        .window(8)
        .evict_after(16)
        .build_table()
        .unwrap();
    let mut lazy_out = Vec::new();
    lazy.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut lazy_out);
    lazy_out.clear();
    assert!(!lazy.close(200, StreamId(0), &mut lazy_out));
    assert!(lazy_out.is_empty());
    assert_eq!(lazy.stats().evicted, stats.evicted);
    assert_eq!(lazy.stats().closed, stats.closed);
}

/// A closed stream id can be re-opened: the close flushed the old state,
/// and the re-opened stream starts from scratch (fresh creation counter).
#[test]
fn reopen_after_close_starts_fresh() {
    let mut table = DpdBuilder::new()
        .window(8)
        .forecast(1)
        .build_table()
        .unwrap();
    let mut out = Vec::new();
    table.ingest(0, StreamId(9), &periodic(4, 0, 32), &mut out);
    assert!(table.close(32, StreamId(9), &mut out));
    assert_eq!(table.stats().created, 1);
    out.clear();
    table.ingest(32, StreamId(9), &periodic(6, 0, 12), &mut out);
    assert_eq!(table.stats().created, 2);
    assert_eq!(table.locked_period(StreamId(9)), None, "fresh detector");
    let fs = table.forecast_stats(StreamId(9)).unwrap();
    assert_eq!(fs.checked, 0, "fresh forecaster after close + re-open");
}

/// Re-opening an evicted stream mid-forecast: the stream was locked and
/// actively forecasting when it went idle; on return its forecast state
/// (lock, confidence, pending predictions, per-stream statistics) must be
/// reset while the table-level rollups stay monotonic and consistent.
#[test]
fn reopen_of_evicted_stream_mid_forecast_resets_forecast_state() {
    let horizon = 4usize;
    let mut table = DpdBuilder::new()
        .window(8)
        .evict_after(30)
        .forecast(horizon)
        .build_table()
        .unwrap();
    let mut out = Vec::new();

    // Lock and forecast: stream 0 is primed with in-flight predictions
    // (horizon 4 means up to 4 outstanding at any time).
    table.ingest(0, StreamId(0), &periodic(3, 0, 40), &mut out);
    let before = table.forecast_stats(StreamId(0)).unwrap();
    assert!(before.checked > 0, "forecasting was live");
    assert!(before.issued > before.checked, "predictions in flight");
    assert!(table.forecast_confidence(StreamId(0)).unwrap() > 0.9);
    let table_before = table.stats();

    // 100 samples of other traffic put stream 0 far past the watermark.
    table.ingest(40, StreamId(1), &periodic(5, 0, 100), &mut out);

    // Stream 0 returns mid-forecast: its in-flight predictions must not
    // be scored against post-gap samples, its stats must restart, and it
    // must be able to re-lock and forecast again.
    table.ingest(140, StreamId(0), &periodic(3, 1, 2), &mut out);
    let after = table.forecast_stats(StreamId(0)).unwrap();
    assert_eq!(after, Default::default(), "stats restart from zero");
    assert_eq!(table.forecast_confidence(StreamId(0)), Some(0.0));
    assert_eq!(table.locked_period(StreamId(0)), None);
    assert!(table.forecast(StreamId(0), 1).is_none());

    let stats = table.stats();
    assert_eq!(stats.evicted, 1);
    assert_eq!(stats.created, 3, "streams 0, 1, and the re-creation");
    assert!(
        stats.forecast_checked >= table_before.forecast_checked,
        "table rollups are monotonic across evictions"
    );
    // The dropped in-flight predictions are simply gone — not scored:
    // checked grew only by stream 1's post-lock scoring.
    let s1 = table.forecast_stats(StreamId(1)).unwrap();
    assert_eq!(
        stats.forecast_checked,
        table_before.forecast_checked + s1.checked,
        "no stale stream-0 prediction was scored after the eviction"
    );

    // And the revived stream forecasts again after a fresh lock.
    table.ingest(142, StreamId(0), &periodic(3, 3, 30), &mut out);
    assert_eq!(table.locked_period(StreamId(0)), Some(3));
    let revived = table.forecast_stats(StreamId(0)).unwrap();
    assert!(revived.checked > 0);
    assert_eq!(revived.hit_rate(), Some(1.0));
    assert!(table.forecast(StreamId(0), horizon).is_some());
}

/// Event counters and emitted events agree across every lifecycle edge.
#[test]
fn event_counters_stay_consistent_across_evict_close_reopen() {
    let builder = DpdBuilder::new().window(8).evict_after(20).forecast(2);
    let mut table = builder.build_table().unwrap();
    let mut out = Vec::new();
    table.ingest(0, StreamId(3), &periodic(2, 0, 30), &mut out);
    table.ingest(30, StreamId(4), &periodic(3, 0, 60), &mut out); // 3 idles out
    table.ingest(90, StreamId(3), &periodic(2, 0, 30), &mut out); // re-created
    table.close(120, StreamId(3), &mut out);
    table.close(120, StreamId(3), &mut out); // double close: no-op
    table.close_all(120, &mut out);

    let stats = table.stats();
    assert_eq!(stats.events, out.len() as u64, "every event was counted");
    let closes = out
        .iter()
        .filter(|e| matches!(e, MultiStreamEvent::Closed { .. }))
        .count() as u64;
    assert_eq!(stats.closed, closes);
    // Stream 3 closes for real (fresh activity at clock 90..120); stream
    // 4 last sampled at clock 89, so its close at 120 finds it idle past
    // the watermark and evicts silently instead — the second eviction.
    assert_eq!(stats.closed, 1, "only stream 3 was live enough to flush");
    assert_eq!(stats.evicted, 2, "idle-out of 3, close-time evict of 4");
    assert_eq!(stats.created, 3);
    assert_eq!(stats.samples, 120);
    assert_eq!(stats.streams, 0);
}

// ---------------------------------------------------------------------
// Snapshot / eviction interactions. A checkpoint can land on either side
// of a sweep; both orders must converge on the same durable state.

/// Driving identical input into two tables and comparing events, stats
/// and final snapshot bytes — the differential harness for the tests
/// below.
fn drive_and_compare(a: &mut dpd::core::StreamTable, b: &mut dpd::core::StreamTable) {
    let mut ea = Vec::new();
    let mut eb = Vec::new();
    for round in 0u64..6 {
        for s in [0u64, 1, 7] {
            let chunk = periodic(3 + s, round * 11, 11);
            a.ingest(200 + round * 33, StreamId(s), &chunk, &mut ea);
            b.ingest(200 + round * 33, StreamId(s), &chunk, &mut eb);
        }
    }
    a.close_all(500, &mut ea);
    b.close_all(500, &mut eb);
    assert_eq!(ea, eb, "continued runs emit identical events");
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.snapshot(), b.snapshot(), "final states are bit-identical");
}

/// Snapshot-then-evict equals evict-then-snapshot: whether the idle
/// sweep runs before the checkpoint or after the restore, the surviving
/// state — streams, rollups, forecast statistics, and every future
/// event — is identical. (The rollup counters themselves live in the
/// snapshot, so the evicted count agrees too: the sweep happens exactly
/// once on each path, just on different sides of the serialization.)
#[test]
fn snapshot_then_evict_equals_evict_then_snapshot() {
    let builder = DpdBuilder::new().window(8).evict_after(30).forecast(2);
    let seed = |out: &mut Vec<MultiStreamEvent>| {
        let mut t = builder.build_table().unwrap();
        t.ingest(0, StreamId(0), &periodic(3, 0, 40), out); // will idle out
        t.ingest(40, StreamId(1), &periodic(5, 0, 40), out); // stays live
        t
    };
    let mut out = Vec::new();

    // Path A: checkpoint first, sweep after the restore.
    let table_a = seed(&mut out);
    let mut restored_a = dpd::core::StreamTable::restore(&table_a.snapshot()).unwrap();
    assert_eq!(restored_a.sweep(100), 1, "stream 0 idles out after restore");

    // Path B: sweep first, checkpoint the post-sweep state.
    let mut table_b = seed(&mut out);
    assert_eq!(table_b.sweep(100), 1, "stream 0 idles out before snapshot");
    let mut restored_b = dpd::core::StreamTable::restore(&table_b.snapshot()).unwrap();

    assert_eq!(restored_a.stats(), restored_b.stats());
    assert_eq!(restored_a.len(), restored_b.len());
    assert_eq!(
        restored_a.locked_period(StreamId(1)),
        restored_b.locked_period(StreamId(1))
    );
    drive_and_compare(&mut restored_a, &mut restored_b);
}

/// Restoring a table whose stream closed in the middle of an active
/// forecast: the close already scored what it could and flushed the
/// stream, so the restored table must carry the full rollups forward —
/// monotonic across the restore — and behave exactly like the original
/// table that never went through serialization.
#[test]
fn restore_after_close_mid_forecast_keeps_rollups_monotonic() {
    let builder = DpdBuilder::new().window(8).evict_after(200).forecast(4);
    let mut table = builder.build_table().unwrap();
    let mut out = Vec::new();

    // Lock and forecast, then close with predictions still in flight.
    table.ingest(0, StreamId(0), &periodic(3, 0, 40), &mut out);
    let live = table.forecast_stats(StreamId(0)).unwrap();
    assert!(live.issued > live.checked, "predictions in flight at close");
    assert!(table.close(40, StreamId(0), &mut out));
    let closed_stats = table.stats();
    assert!(closed_stats.forecast_checked > 0);
    assert_eq!(closed_stats.closed, 1);

    // The restore is lossless: same rollups, bit-identical re-snapshot.
    let mut restored = dpd::core::StreamTable::restore(&table.snapshot()).unwrap();
    assert_eq!(
        restored.stats(),
        closed_stats,
        "rollups survive the restore"
    );
    assert_eq!(restored.snapshot(), table.snapshot());

    // New traffic only ever grows the monotonic rollups, on both tables
    // identically — the closed stream's dropped in-flight predictions
    // are gone on both sides, never re-scored.
    drive_and_compare(&mut table, &mut restored);
    assert!(restored.stats().forecast_checked >= closed_stats.forecast_checked);
    assert!(restored.stats().closed >= closed_stats.closed);
}

// ---------------------------------------------------------------------
// Tier-transition properties (hot → cold → gone) for the slab store:
// random traffic with idle gaps under eviction + cold retention.

use dpd::core::{StreamTable, StreamTier};
use proptest::collection;
use proptest::prelude::*;

/// `(stream, idle-gap-before-batch, len)` triples from random words. Gaps
/// range over [0, 120): across the hot band, the cold band and beyond.
fn gapped_schedule(words: &[u64], streams: u64) -> Vec<(u64, u64, usize)> {
    words
        .iter()
        .map(|&w| {
            let stream = w % streams;
            let gap = (w >> 8) % 120;
            let len = ((w >> 24) % 30 + 1) as usize;
            (stream, gap, len)
        })
        .collect()
}

proptest! {
    /// Hot→cold→gone transitions keep every rollup monotonic and the tier
    /// invariants intact after every batch.
    #[test]
    fn tier_transitions_preserve_rollup_monotonicity(
        words in collection::vec(any::<u64>(), 1..40),
        horizon in 0usize..3,
        cold_retain in 1u64..80,
    ) {
        let mut b = DpdBuilder::new()
            .window(8)
            .evict_after(24)
            .cold_summary(cold_retain);
        if horizon > 0 {
            b = b.forecast(horizon);
        }
        let mut table = b.build_table().unwrap();
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut prev = table.stats();
        for (stream, gap, len) in gapped_schedule(&words, 4) {
            seq += gap;
            table.ingest(seq, StreamId(stream), &periodic(3 + stream, 0, len), &mut out);
            seq += len as u64;
            let st = table.stats();
            for (name, was, now) in [
                ("created", prev.created, st.created),
                ("samples", prev.samples, st.samples),
                ("events", prev.events, st.events),
                ("evicted", prev.evicted, st.evicted),
                ("closed", prev.closed, st.closed),
                ("demoted", prev.demoted, st.demoted),
                ("promoted", prev.promoted, st.promoted),
                ("forecast_checked", prev.forecast_checked, st.forecast_checked),
                ("forecast_hits", prev.forecast_hits, st.forecast_hits),
            ] {
                prop_assert!(now >= was, "{} went backwards: {} -> {}", name, was, now);
            }
            prop_assert!(st.cold <= st.streams);
            prop_assert!(st.promoted <= st.demoted, "promotions need demotions");
            prop_assert!(
                st.demoted <= st.cold + st.promoted + st.evicted + st.closed,
                "every demotion is cold, promoted, evicted or closed: {:?}", st
            );
            prop_assert_eq!(st.streams, table.len() as u64);
            prev = st;
        }
    }

    /// A cold stream re-promoted on new samples restores its
    /// summary-derived lifetime counters exactly — across the freeze and
    /// across the revival.
    #[test]
    fn cold_repromotion_restores_summary_counters_exactly(
        period in 2u64..7,
        len in 12usize..60,
        cold_gap in 1u64..100,
        horizon in 0usize..3,
    ) {
        let mut b = DpdBuilder::new().window(8).evict_after(24).cold_summary(100);
        if horizon > 0 {
            b = b.forecast(horizon);
        }
        let mut table = b.build_table().unwrap();
        let mut out = Vec::new();
        table.ingest(0, StreamId(0), &periodic(period, 0, len), &mut out);
        let before = table.summary(StreamId(0)).unwrap();
        let last = len as u64 - 1;
        // Sweep inside the cold band: 24 < gap <= 124.
        let clock = last + 25 + cold_gap;
        table.sweep(clock);
        let h = table.resolve(StreamId(0)).unwrap();
        prop_assert_eq!(table.tier_of(h), Some(StreamTier::Cold));
        let frozen = table.summary_of(h).unwrap();
        prop_assert_eq!(frozen.samples, before.samples);
        prop_assert_eq!(frozen.boundaries, before.boundaries);
        prop_assert_eq!(frozen.forecast_checked, before.forecast_checked);
        prop_assert_eq!(frozen.forecast_hits, before.forecast_hits);
        prop_assert_eq!(frozen.period, before.period);
        // Return with one sample, still inside the cold band.
        table.ingest(clock, StreamId(0), &[0], &mut out);
        prop_assert_eq!(
            table.tier_of(table.resolve(StreamId(0)).unwrap()),
            Some(StreamTier::Hot)
        );
        let after = table.summary(StreamId(0)).unwrap();
        prop_assert_eq!(after.samples, before.samples + 1);
        prop_assert_eq!(after.boundaries, before.boundaries);
        prop_assert_eq!(after.forecast_checked, before.forecast_checked);
        prop_assert_eq!(after.forecast_hits, before.forecast_hits);
        let st = table.stats();
        prop_assert_eq!(
            (st.demoted, st.promoted, st.evicted, st.created),
            (1, 1, 0, 1)
        );
    }

    /// Interleaving eager sweeps anywhere in a cold-tier schedule never
    /// changes the event stream, the rollups, or the durable snapshot.
    #[test]
    fn sweep_schedule_is_unobservable_with_cold_tier(
        words in collection::vec(any::<u64>(), 1..30),
        sweep_mask in any::<u32>(),
    ) {
        let builder = DpdBuilder::new()
            .window(8)
            .evict_after(24)
            .cold_summary(60)
            .forecast(1);
        let mut lazy = builder.build_table().unwrap();
        let mut eager = builder.build_table().unwrap();
        let (mut el, mut ee) = (Vec::new(), Vec::new());
        let mut seq = 0u64;
        for (i, (stream, gap, len)) in gapped_schedule(&words, 4).into_iter().enumerate() {
            seq += gap;
            let chunk = periodic(3 + stream, 0, len);
            lazy.ingest(seq, StreamId(stream), &chunk, &mut el);
            eager.ingest(seq, StreamId(stream), &chunk, &mut ee);
            seq += len as u64;
            if sweep_mask & (1 << (i % 32)) != 0 {
                eager.sweep(seq);
            }
        }
        // One final sweep on both sides so the resident tiers agree before
        // the byte-level comparison.
        lazy.sweep(seq);
        eager.sweep(seq);
        lazy.close_all(seq, &mut el);
        eager.close_all(seq, &mut ee);
        prop_assert_eq!(el, ee, "sweeps changed the event stream");
        prop_assert_eq!(lazy.stats(), eager.stats());
        prop_assert_eq!(lazy.snapshot(), eager.snapshot());
    }
}

// ---------------------------------------------------------------------
// Standing-query edges: evictions must exit memberships, stale handles
// must stay inert, and checkpoints taken mid-membership must restore the
// engine bit-identically.

use dpd::core::query::{QueryChange, QueryDelta, QueryId, QuerySpec};

fn drain_deltas(table: &mut StreamTable) -> Vec<QueryDelta> {
    let mut v = Vec::new();
    table.drain_query_deltas(&mut v);
    v
}

/// An eviction — lazy (gap observed on return) or eager (sweep) — exits
/// every membership the evicted incarnation held.
#[test]
fn eviction_exits_standing_query_memberships() {
    let specs = [QuerySpec::PeriodInRange { lo: 2, hi: 5 }];
    let mut table = DpdBuilder::new()
        .window(8)
        .evict_after(30)
        .standing_queries(&specs)
        .build_table()
        .unwrap();
    let mut out = Vec::new();
    table.ingest(0, StreamId(7), &periodic(3, 0, 24), &mut out);
    let deltas = drain_deltas(&mut table);
    assert_eq!(deltas.len(), 1);
    assert_eq!(
        (deltas[0].query, deltas[0].stream, deltas[0].change),
        (QueryId(0), StreamId(7), QueryChange::Enter)
    );
    // Eager path: the sweep that evicts stamps the exit at its own clock.
    assert_eq!(table.sweep(100), 1);
    let deltas = drain_deltas(&mut table);
    assert_eq!(deltas.len(), 1);
    assert_eq!(
        (deltas[0].seq, deltas[0].change),
        (100, QueryChange::Exit),
        "eviction must exit the membership at the sweep clock"
    );
    assert!(table
        .query_engine()
        .unwrap()
        .members(QueryId(0))
        .unwrap()
        .is_empty());

    // Lazy path: the stream returns past the watermark; the stale
    // incarnation exits before the fresh one re-enters.
    let mut table = DpdBuilder::new()
        .window(8)
        .evict_after(30)
        .standing_queries(&specs)
        .build_table()
        .unwrap();
    table.ingest(0, StreamId(7), &periodic(3, 0, 24), &mut out);
    drain_deltas(&mut table);
    table.ingest(200, StreamId(7), &periodic(3, 0, 24), &mut out);
    let deltas = drain_deltas(&mut table);
    assert_eq!(deltas[0].change, QueryChange::Exit, "stale incarnation");
    assert_eq!(deltas[0].seq, 200, "exit at the observing batch's clock");
    assert_eq!(deltas[1].change, QueryChange::Enter, "fresh incarnation");
    assert!(deltas[1].seq > 200, "re-lock happens after the return");
    let st = table.stats();
    assert_eq!((st.query_enters, st.query_exits), (2, 1));
}

/// A handle into an evicted incarnation is rejected without touching the
/// query engine: no deltas, no membership changes, no clock movement.
#[test]
fn stale_handle_ingest_is_inert_for_queries() {
    let specs = [QuerySpec::PeriodInRange { lo: 2, hi: 5 }];
    let mut table = DpdBuilder::new()
        .window(8)
        .evict_after(20)
        .standing_queries(&specs)
        .build_table()
        .unwrap();
    let mut out = Vec::new();
    table.ingest(0, StreamId(1), &periodic(3, 0, 24), &mut out);
    let stale = table.resolve(StreamId(1)).unwrap();
    assert_eq!(table.sweep(100), 1, "incarnation dies under the handle");
    drain_deltas(&mut table);
    let clock = table.query_engine().unwrap().clock();

    assert!(
        !table.ingest_handle(100, stale, &periodic(3, 0, 12), &mut out),
        "stale handle must be rejected"
    );
    assert!(
        drain_deltas(&mut table).is_empty(),
        "no deltas from a reject"
    );
    assert_eq!(table.query_engine().unwrap().clock(), clock);

    // Same rejection once the id is re-created: the handle's generation
    // is stale even though the id is live again.
    table.ingest(100, StreamId(1), &periodic(3, 0, 24), &mut out);
    let enters = drain_deltas(&mut table);
    assert_eq!(enters.len(), 1, "fresh incarnation re-enters from scratch");
    assert!(!table.ingest_handle(124, stale, &periodic(3, 24, 6), &mut out));
    assert!(drain_deltas(&mut table).is_empty());
    assert!(table
        .query_engine()
        .unwrap()
        .is_member(QueryId(0), StreamId(1)));
}

/// A checkpoint taken mid-membership — active memberships and a parked
/// lock-lost deadline in flight — restores bit-identically: re-snapshot
/// equals the original bytes, and the restored table's future delta
/// stream matches the uninterrupted run exactly.
#[test]
fn checkpoint_mid_membership_restores_bit_identically() {
    let specs = [
        QuerySpec::PeriodInRange { lo: 2, hi: 5 },
        QuerySpec::LockLostWithin { window: 40 },
    ];
    let builder = DpdBuilder::new()
        .window(8)
        .evict_after(120)
        .standing_queries(&specs);
    let mut table = builder.build_table().unwrap();
    let mut out = Vec::new();
    // Stream 0 locks (period member), then goes aperiodic: loss at some
    // seq L arms a lock-lost deadline at L + 40 that is still parked when
    // the checkpoint lands.
    table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out);
    let noise: Vec<i64> = (0..10).map(|i| 1000 + i * 17).collect();
    table.ingest(24, StreamId(0), &noise, &mut out);
    table.ingest(34, StreamId(1), &periodic(4, 0, 20), &mut out);
    let prefix = drain_deltas(&mut table);
    assert!(
        prefix
            .iter()
            .any(|d| d.query == QueryId(1) && d.change == QueryChange::Enter),
        "lock-lost membership active at the checkpoint"
    );

    let bytes = table.snapshot();
    let mut restored = StreamTable::restore(&bytes).unwrap();
    assert_eq!(restored.snapshot(), bytes, "re-snapshot is bit-identical");
    assert_eq!(
        restored.query_engine().unwrap().members(QueryId(1)),
        table.query_engine().unwrap().members(QueryId(1))
    );

    // The suffix drives the parked deadline past expiry on both tables;
    // deltas, events and final states must be indistinguishable.
    let (mut eo, mut er) = (Vec::new(), Vec::new());
    for round in 0u64..6 {
        for s in [0u64, 1] {
            let chunk = periodic(3 + s, round * 7, 7);
            table.ingest(54 + round * 14, StreamId(s), &chunk, &mut eo);
            restored.ingest(54 + round * 14, StreamId(s), &chunk, &mut er);
        }
    }
    table.close_all(200, &mut eo);
    restored.close_all(200, &mut er);
    assert_eq!(eo, er, "suffix events diverged after restore");
    let (do_, dr) = (drain_deltas(&mut table), drain_deltas(&mut restored));
    assert_eq!(do_, dr, "suffix deltas diverged after restore");
    assert!(
        do_.iter()
            .any(|d| d.query == QueryId(1) && d.change == QueryChange::Exit),
        "the parked deadline fired in the suffix"
    );
    assert_eq!(table.stats(), restored.stats());
    assert_eq!(table.snapshot(), restored.snapshot());
}

/// A table holding all three tiers at once — a hot stream, a cold
/// summary, and a closed (gone) id — snapshot/restores losslessly: same
/// rollups, same tier membership, bit-identical re-snapshot, and
/// truncated images error instead of panicking.
#[test]
fn snapshot_roundtrips_a_three_tier_table() {
    let builder = DpdBuilder::new()
        .window(8)
        .evict_after(16)
        .cold_summary(200)
        .forecast(2);
    let mut table = builder.build_table().unwrap();
    let mut out = Vec::new();
    table.ingest(0, StreamId(0), &periodic(3, 0, 24), &mut out); // → cold
    table.ingest(24, StreamId(1), &periodic(4, 0, 24), &mut out); // → closed
    table.close(48, StreamId(1), &mut out);
    table.ingest(48, StreamId(2), &periodic(5, 0, 24), &mut out); // stays hot
    table.sweep(72); // stream 0: gap 49 past the watermark, inside cold band
    let st = table.stats();
    assert_eq!((st.streams, st.cold, st.closed), (2, 1, 1));

    let bytes = table.snapshot();
    let mut restored = StreamTable::restore(&bytes).unwrap();
    assert_eq!(restored.stats(), table.stats());
    assert_eq!(restored.snapshot(), bytes, "re-snapshot is bit-identical");
    let h = restored.resolve(StreamId(0)).unwrap();
    assert_eq!(restored.tier_of(h), Some(StreamTier::Cold));
    assert_eq!(restored.summary_of(h).unwrap().period, Some(3));
    let h2 = restored.resolve(StreamId(2)).unwrap();
    assert_eq!(restored.tier_of(h2), Some(StreamTier::Hot));

    for cut in 0..bytes.len() {
        assert!(
            StreamTable::restore(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes restored successfully"
        );
    }
    drive_and_compare(&mut table, &mut restored);
}
