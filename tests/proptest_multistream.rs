//! Property tests: the sharded multi-stream service is observationally
//! identical to the deterministic single-threaded fallback.
//!
//! For any shard count, any stream population, any interleaving of
//! per-stream record batches, any eviction watermark, and any mix of
//! explicit closes, the per-stream event sequences of the sharded
//! [`MultiStreamDpd`] must equal those of the `shards = 0` reference —
//! the central correctness claim of the shard layer (per-stream state is
//! owned by exactly one shard, shard queues are FIFO, and all lifecycle
//! decisions depend only on the stream's samples plus the global sample
//! clock carried with each batch).

use dpd::core::pipeline::DpdBuilder;
use dpd::core::shard::{MultiStreamEvent, StreamId, TableStats};
use dpd::runtime::service::MultiStreamDpd;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One decoded frontend operation.
#[derive(Debug, Clone)]
enum Op {
    /// Ingest a record for `stream`: `len` samples of a periodic pattern
    /// starting at phase `start`, or fresh aperiodic values.
    Ingest {
        stream: u64,
        period: u64,
        start: u64,
        len: usize,
        aperiodic: bool,
    },
    /// Explicitly close `stream`.
    Close { stream: u64 },
}

/// Decode one raw 64-bit word into an operation over `streams` streams.
/// (The vendored proptest shim has no tuple/enum strategies; deriving the
/// structure from plain words keeps cases reproducible.)
fn decode(word: u64, streams: u64) -> Op {
    let stream = word % streams;
    let kind = (word >> 8) % 8;
    if kind == 0 {
        Op::Close { stream }
    } else {
        Op::Ingest {
            stream,
            period: (word >> 16) % 9 + 1,
            start: (word >> 24) % 64,
            len: ((word >> 32) % 40) as usize,
            aperiodic: (word >> 44) & 0b11 == 0,
        }
    }
}

/// Apply the same decoded schedule to a service, interleaving drains so
/// mid-run sink traffic is exercised too, then finish.
fn run(
    ops: &[Op],
    shards: usize,
    window: usize,
    evict_after: u64,
) -> (Vec<MultiStreamEvent>, TableStats) {
    let mut builder = DpdBuilder::new().window(window).shards(shards);
    if evict_after > 0 {
        builder = builder.evict_after(evict_after);
    }
    let mut svc = MultiStreamDpd::from_builder(&builder).unwrap();
    let mut fresh = 0x7F00_0000i64;
    let mut events = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Ingest {
                stream,
                period,
                start,
                len,
                aperiodic,
            } => {
                let samples: Vec<i64> = (0..*len as u64)
                    .map(|k| {
                        if *aperiodic {
                            fresh += 1;
                            fresh
                        } else {
                            0x1000 + (*stream as i64) * 0x100 + ((start + k) % period) as i64
                        }
                    })
                    .collect();
                svc.ingest(&[(StreamId(*stream), &samples)]);
            }
            Op::Close { stream } => svc.close(StreamId(*stream)),
        }
        if i % 7 == 0 {
            events.extend(svc.drain());
        }
    }
    let (tail, snapshot) = svc.finish();
    events.extend(tail);
    (events, snapshot.total())
}

fn by_stream(events: &[MultiStreamEvent]) -> BTreeMap<u64, Vec<MultiStreamEvent>> {
    let mut m: BTreeMap<u64, Vec<MultiStreamEvent>> = BTreeMap::new();
    for &e in events {
        m.entry(e.stream().0).or_default().push(e);
    }
    m
}

/// Feed a generated record schedule one record per `ingest` call.
fn run_schedule(
    schedule: &[(u64, Vec<i64>)],
    shards: usize,
    window: usize,
) -> Vec<MultiStreamEvent> {
    let mut svc =
        MultiStreamDpd::from_builder(&DpdBuilder::new().window(window).shards(shards)).unwrap();
    for (stream, samples) in schedule {
        svc.ingest(&[(StreamId(*stream), samples)]);
    }
    let (events, _) = svc.finish();
    events
}

/// Without eviction, per-stream events depend only on per-stream sample
/// order — so *any* arrival order of the records (not just any shard
/// count) must reproduce the reference, sharded or not.
#[test]
fn adversarial_arrival_orders_match_inline() {
    use dpd::trace::gen::{interleaved_streams, shuffle_preserving_stream_order};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let round_robin = interleaved_streams(12, 5, 8);
    let reference = by_stream(&run_schedule(&round_robin, 0, 8));
    for seed in 0..4u64 {
        let mut shuffled = round_robin.clone();
        shuffle_preserving_stream_order(&mut shuffled, &mut StdRng::seed_from_u64(seed));
        for shards in [0usize, 3] {
            let got = by_stream(&run_schedule(&shuffled, shards, 8));
            assert_eq!(got, reference, "seed={seed} shards={shards}");
        }
    }
}

proptest! {
    /// Arbitrary interleavings + closes, no eviction.
    #[test]
    fn sharded_equals_inline_reference(
        words in collection::vec(any::<u64>(), 5..60),
        streams in 1u64..12,
    ) {
        let ops: Vec<Op> = words.iter().map(|&w| decode(w, streams)).collect();
        let (ref_events, ref_stats) = run(&ops, 0, 8, 0);
        let reference = by_stream(&ref_events);
        for shards in [1usize, 2, 4, 7] {
            let (events, stats) = run(&ops, shards, 8, 0);
            prop_assert_eq!(by_stream(&events), reference.clone(), "shards={}", shards);
            prop_assert_eq!(stats, ref_stats, "shards={}", shards);
        }
    }

    /// Same, with an idle-eviction watermark small enough to trigger
    /// (workers also run periodic memory sweeps in sharded mode).
    #[test]
    fn sharded_equals_inline_with_eviction(
        words in collection::vec(any::<u64>(), 5..60),
        streams in 1u64..10,
        evict in 10u64..120,
    ) {
        let ops: Vec<Op> = words.iter().map(|&w| decode(w, streams)).collect();
        let (ref_events, ref_stats) = run(&ops, 0, 8, evict);
        let reference = by_stream(&ref_events);
        for shards in [1usize, 2, 4, 7] {
            let (events, stats) = run(&ops, shards, 8, evict);
            prop_assert_eq!(
                by_stream(&events), reference.clone(),
                "shards={} evict={}", shards, evict
            );
            prop_assert_eq!(stats, ref_stats, "shards={} evict={}", shards, evict);
        }
    }

    /// Both service modes publish every `TableStats` field through the
    /// registry and read it back. A raw `StreamTable` fed the service's
    /// exact schedule must therefore produce the service's published
    /// totals, whole: tier, creation and forecast counters included.
    #[test]
    fn service_rollups_equal_raw_table(
        words in collection::vec(any::<u64>(), 5..40),
        streams in 1u64..8,
        evict in 10u64..120,
    ) {
        let ops: Vec<Op> = words.iter().map(|&w| decode(w, streams)).collect();
        // Raw reference table, driven with the service's clock semantics
        // (the global clock advances by each batch's length; finish is a
        // final-clock sweep plus close_all).
        let mut table = DpdBuilder::new()
            .window(8)
            .evict_after(evict)
            .build_table()
            .unwrap();
        let mut fresh = 0x7F00_0000i64;
        let mut seq = 0u64;
        let mut sink = Vec::new();
        for op in &ops {
            match op {
                Op::Ingest { stream, period, start, len, aperiodic } => {
                    let samples: Vec<i64> = (0..*len as u64)
                        .map(|k| {
                            if *aperiodic {
                                fresh += 1;
                                fresh
                            } else {
                                0x1000 + (*stream as i64) * 0x100 + ((start + k) % period) as i64
                            }
                        })
                        .collect();
                    table.ingest(seq, StreamId(*stream), &samples, &mut sink);
                    seq += *len as u64;
                }
                Op::Close { stream } => {
                    table.close(seq, StreamId(*stream), &mut sink);
                }
            }
        }
        table.sweep(seq);
        table.close_all(seq, &mut sink);
        let expected = table.stats();
        for shards in [0usize, 3] {
            let (_, stats) = run(&ops, shards, 8, evict);
            prop_assert_eq!(stats, expected, "shards={} evict={}", shards, evict);
        }
    }
}
