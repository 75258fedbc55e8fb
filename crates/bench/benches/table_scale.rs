//! Million-stream StreamTable scaling: slab-backed handle store under a
//! byte-accounted memory budget.
//!
//! Three shapes, all on the budget-only tiering configuration
//! (`evict_after = 0`, so tier transitions are driven purely by memory
//! pressure, never by idle gaps):
//!
//! * `populate/1M` — build a fresh table and ingest one sample into each
//!   of 1,000,000 distinct streams. The budget is sized to hold a small
//!   hot set plus the whole population as cold compact summaries, so the
//!   clock hand demotes hot → cold as the slab fills but never evicts:
//!   every iteration asserts `len() == 1M`, `accounted_bytes() <= budget`,
//!   and `evicted == 0`. This is the acceptance workload: a million
//!   concurrent keyed streams resident within a configured budget.
//! * `push/resident/{10k,1M}` — per-push cost into a fixed 128-stream
//!   hot working set while 10k (respectively 1M) streams are resident.
//!   Population and working-set warmup happen outside the timer; the
//!   measured figure is one `ingest` of one sample into an already-hot
//!   stream. The working set is sized to stay cache-resident at both
//!   scales so the comparison isolates the table's structural per-push
//!   cost (strips, slot, detector) from last-level-cache capacity
//!   effects. The paper-level claim — per-push cost is flat in the
//!   number of resident streams — is enforced as a hard ratio in the
//!   `table_smoke` CI binary; here the two points are tracked separately
//!   so the gate catches either one regressing.
//! * `resolve/1M` — handle lookup (`StreamId` → `StreamHandle`) against
//!   the million-entry open-addressed index, round-robin over the whole
//!   key population so probes don't stay cache-resident.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dpd_core::pipeline::DpdBuilder;
use dpd_core::shard::{StreamId, StreamTable};
use std::hint::black_box;

const WINDOW: usize = 16;
/// Hot working set shared by both `push/resident` points.
const WORKING_SET: u64 = 128;
/// Hot-tier headroom the budget reserves beyond the cold population.
const HOT_SLOTS: u64 = 4096;

/// Budget-only tiered table sized so `streams` can all stay resident:
/// a small hot set plus everything else as cold compact summaries.
fn tiered_table(streams: u64) -> (StreamTable, u64) {
    let probe = DpdBuilder::new().window(WINDOW).table_config().unwrap();
    let budget = probe.hot_stream_bytes() * HOT_SLOTS + probe.cold_stream_bytes() * streams;
    let table = DpdBuilder::new()
        .window(WINDOW)
        .memory_budget(budget)
        .cold_summary(64)
        .build_table()
        .unwrap();
    (table, budget)
}

/// Ingest one sample into each of `streams` distinct streams, advancing
/// the sample clock by one per push (the frontend's global clock).
fn populate(
    table: &mut StreamTable,
    streams: u64,
    sink: &mut Vec<dpd_core::MultiStreamEvent>,
) -> u64 {
    let mut seq = 0u64;
    for id in 0..streams {
        table.ingest(seq, StreamId(id), &[id as i64], sink);
        seq += 1;
    }
    seq
}

fn bench_populate(c: &mut Criterion) {
    let streams = 1_000_000u64;
    let mut g = c.benchmark_group("table_scale");
    g.sample_size(10);
    g.throughput(Throughput::Elements(streams));
    g.bench_function("populate/1M", |b| {
        b.iter(|| {
            let (mut table, budget) = tiered_table(streams);
            let mut sink = Vec::new();
            populate(&mut table, black_box(streams), &mut sink);
            assert_eq!(table.len(), streams as usize, "population not resident");
            assert!(
                table.accounted_bytes() <= budget,
                "accounted {} exceeds budget {}",
                table.accounted_bytes(),
                budget
            );
            assert_eq!(
                table.stats().evicted,
                0,
                "budget evicted instead of demoting"
            );
            table.len()
        })
    });
    g.finish();
}

fn bench_push(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_scale");
    g.throughput(Throughput::Elements(1));
    for (label, streams) in [("10k", 10_000u64), ("1M", 1_000_000)] {
        let (mut table, _) = tiered_table(streams);
        let mut sink = Vec::new();
        let mut seq = populate(&mut table, streams, &mut sink);
        // Warm the working set into the hot tier (and to a full detector
        // window) outside the timer; pushes below are steady-state.
        let base = streams - WORKING_SET;
        for round in 0..WINDOW as u64 {
            for id in base..streams {
                table.ingest(seq, StreamId(id), &[(round % 4) as i64], &mut sink);
                seq += 1;
            }
        }
        let mut next = base;
        g.bench_function(format!("push/resident/{label}"), |b| {
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
        assert_eq!(
            table.len(),
            streams as usize,
            "push workload lost residents"
        );
    }
    g.finish();
}

fn bench_resolve(c: &mut Criterion) {
    let streams = 1_000_000u64;
    let mut g = c.benchmark_group("table_scale");
    g.throughput(Throughput::Elements(1));
    let (mut table, _) = tiered_table(streams);
    let mut sink = Vec::new();
    populate(&mut table, streams, &mut sink);
    let mut next = 0u64;
    g.bench_function("resolve/1M", |b| {
        b.iter(|| {
            let h = table.resolve(StreamId(black_box(next)));
            next += 1;
            if next == streams {
                next = 0;
            }
            h
        })
    });
    g.finish();
}

criterion_group!(benches, bench_populate, bench_push, bench_resolve);
criterion_main!(benches);
