//! Standing-query engine scaling: the per-event cost contract.
//!
//! The engine's claim is *O(delta)* evaluation — per-push cost scales
//! with the events the sample produces (usually none), not with the
//! number of registered queries or resident streams. Two families, both
//! on the budget-only tiered table from `table_scale` so the figures are
//! directly comparable with the query-less baseline there:
//!
//! * `push/queries/{1,100,10k}` — steady-state per-push cost into a hot
//!   128-stream working set of a 10k-resident table, with N registered
//!   `period-in` queries that never match the traffic. A steady push on
//!   a locked stream emits no segment event, so the query engine does
//!   constant work (a deadline-heap peek); the three points must stay
//!   flat as the query count grows by four orders of magnitude —
//!   predicate indexing means non-matching queries are never visited.
//! * `push/resident/{10k,1M}` — the `table_scale/push/resident` shape
//!   with a small standing-query set attached: per-push cost must stay
//!   flat from 10k to 1M resident streams (the engine's membership
//!   structures are touched per *event*, never scanned per push).
//!
//! Every point drains the delta queue after warmup and asserts the
//! measured loop produced no deltas — the benches time the non-matching
//! path, not membership churn.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dpd_core::pipeline::DpdBuilder;
use dpd_core::query::QuerySpec;
use dpd_core::shard::{StreamId, StreamTable};
use std::hint::black_box;

const WINDOW: usize = 16;
/// Hot working set shared by every `push` point (cache-resident at all
/// scales, matching `table_scale`).
const WORKING_SET: u64 = 128;
/// Hot-tier headroom the budget reserves beyond the cold population.
const HOT_SLOTS: u64 = 4096;

/// `count` single-period queries far above the benchmark traffic's
/// period (the working set locks at period 4): registered, indexed, and
/// never matching.
fn non_matching_specs(count: usize) -> Vec<QuerySpec> {
    (0..count)
        .map(|i| QuerySpec::PeriodInRange {
            lo: 100 + i,
            hi: 100 + i,
        })
        .collect()
}

/// Budget-only tiered table sized to hold `streams` residents, with
/// `specs` attached (the `table_scale::tiered_table` shape plus queries).
fn tiered_query_table(streams: u64, specs: &[QuerySpec]) -> StreamTable {
    let probe = DpdBuilder::new().window(WINDOW).table_config().unwrap();
    let budget = probe.hot_stream_bytes() * HOT_SLOTS + probe.cold_stream_bytes() * streams;
    DpdBuilder::new()
        .window(WINDOW)
        .memory_budget(budget)
        .cold_summary(64)
        .standing_queries(specs)
        .build_table()
        .unwrap()
}

/// Populate `streams` distinct one-sample streams, then warm a
/// `WORKING_SET`-stream suffix to locked steady state. Returns the table
/// ready for steady-state pushes plus the next global clock.
fn steady_state(streams: u64, specs: &[QuerySpec]) -> (StreamTable, u64) {
    let mut table = tiered_query_table(streams, specs);
    let mut sink = Vec::new();
    let mut seq = 0u64;
    for id in 0..streams {
        table.ingest(seq, StreamId(id), &[id as i64], &mut sink);
        seq += 1;
    }
    let base = streams - WORKING_SET;
    for round in 0..WINDOW as u64 {
        for id in base..streams {
            table.ingest(seq, StreamId(id), &[(round % 4) as i64], &mut sink);
            seq += 1;
        }
    }
    // Warmup locks produced (evaluated, non-matching) events; the timed
    // loops below must start delta-free and stay that way.
    let mut deltas = Vec::new();
    table.drain_query_deltas(&mut deltas);
    assert!(deltas.is_empty(), "non-matching specs produced deltas");
    (table, seq)
}

/// One steady-state push benchmark point over an already-warm table.
fn push_point(
    g: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    mut table: StreamTable,
    seq0: u64,
    streams: u64,
) {
    let base = streams - WORKING_SET;
    let mut seq = seq0;
    let mut next = base;
    let mut sink = Vec::new();
    g.bench_function(label, |b| {
        b.iter(|| {
            table.ingest(
                seq,
                StreamId(next),
                black_box(&[(seq % 4) as i64]),
                &mut sink,
            );
            seq += 1;
            next += 1;
            if next == streams {
                next = base;
            }
            sink.clear();
        })
    });
    let mut deltas = Vec::new();
    table.drain_query_deltas(&mut deltas);
    assert!(deltas.is_empty(), "steady-state pushes produced deltas");
    assert_eq!(
        table.len(),
        streams as usize,
        "push workload lost residents"
    );
}

fn bench_query_count(c: &mut Criterion) {
    let streams = 10_000u64;
    let mut g = c.benchmark_group("query");
    g.throughput(Throughput::Elements(1));
    for (label, count) in [("1", 1usize), ("100", 100), ("10k", 10_000)] {
        let specs = non_matching_specs(count);
        let (table, seq) = steady_state(streams, &specs);
        push_point(
            &mut g,
            &format!("push/queries/{label}"),
            table,
            seq,
            streams,
        );
    }
    g.finish();
}

fn bench_resident_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("query");
    g.throughput(Throughput::Elements(1));
    let specs = non_matching_specs(8);
    for (label, streams) in [("10k", 10_000u64), ("1M", 1_000_000)] {
        let (table, seq) = steady_state(streams, &specs);
        push_point(
            &mut g,
            &format!("push/resident/{label}"),
            table,
            seq,
            streams,
        );
    }
    g.finish();
}

criterion_group!(benches, bench_query_count, bench_resident_scale);
criterion_main!(benches);
