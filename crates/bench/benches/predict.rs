//! Cost of the online forecasting subsystem (`dpd_core::predict`).
//!
//! Three questions, each with a detector-only control so the *marginal*
//! cost of forecasting is visible:
//!
//! * per-push overhead of a `ForecastingDpd` vs a bare `StreamingDpd`
//!   over the same periodic stream,
//! * cost of materializing a forecast slice by horizon,
//! * multi-stream: a forecasting `StreamTable` vs a plain one over the
//!   same interleaved schedule.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpd_core::pipeline::DpdBuilder;
use dpd_core::shard::{StreamId, StreamTable, TableConfig};
use dpd_trace::gen;
use std::hint::black_box;

fn stream(period: usize, len: usize) -> Vec<i64> {
    (0..len).map(|i| (i % period) as i64 + 0x4000).collect()
}

fn bench_push_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("predict/push");
    let n = 64usize;
    let data = stream(6, 8 * n);
    g.throughput(Throughput::Elements(data.len() as u64));
    g.bench_function("detector_only", |b| {
        b.iter(|| {
            let mut dpd = DpdBuilder::new().window(n).build_detector().unwrap();
            let mut starts = 0u64;
            for &s in &data {
                if dpd.push(black_box(s)).as_return_value() != 0 {
                    starts += 1;
                }
            }
            starts
        })
    });
    for &h in &[1usize, 8] {
        g.bench_with_input(BenchmarkId::new("forecasting/horizon", h), &h, |b, &h| {
            b.iter(|| {
                let mut f = DpdBuilder::new()
                    .window(n)
                    .forecast(h)
                    .build_forecasting()
                    .unwrap();
                for &s in &data {
                    f.push(black_box(s));
                }
                f.predictor().stats().checked
            })
        });
    }
    g.finish();
}

fn bench_forecast_slice(c: &mut Criterion) {
    // Cost of materializing one forecast slice, by horizon. The predictor
    // is primed once outside the measurement loop.
    let mut g = c.benchmark_group("predict/forecast_slice");
    for &h in &[1usize, 16, 256] {
        let mut f = DpdBuilder::new()
            .window(512)
            .forecast(h)
            .build_forecasting()
            .unwrap();
        for &s in &stream(44, 4096) {
            f.push(s);
        }
        assert!(f.forecast(h).is_some(), "must be primed");
        g.throughput(Throughput::Elements(h as u64));
        g.bench_with_input(BenchmarkId::new("horizon", h), &h, |b, &h| {
            b.iter(|| {
                let fc = f.forecast(black_box(h)).unwrap();
                fc.predicted[fc.horizon - 1]
            })
        });
    }
    g.finish();
}

fn bench_table_overhead(c: &mut Criterion) {
    // Keyed multi-stream ingestion with and without per-stream
    // forecasting: 100 interleaved periodic streams, chunked records.
    let mut g = c.benchmark_group("predict/stream_table");
    let schedule = gen::interleaved_streams(100, 64, 4);
    let total: u64 = schedule.iter().map(|(_, r)| r.len() as u64).sum();
    g.throughput(Throughput::Elements(total));
    let run = |config: TableConfig| {
        let mut table = StreamTable::new(config);
        let mut out = Vec::new();
        let mut seq = 0u64;
        for (s, rec) in &schedule {
            table.ingest(seq, StreamId(*s), rec, &mut out);
            seq += rec.len() as u64;
        }
        let t = table.stats();
        (out.len() as u64, t.forecast_checked)
    };
    g.bench_function("detector_only", |b| {
        b.iter(|| {
            run(black_box(
                DpdBuilder::new().window(64).table_config().unwrap(),
            ))
        })
    });
    g.bench_function("forecasting_h1", |b| {
        b.iter(|| {
            run(black_box(
                DpdBuilder::new()
                    .window(64)
                    .forecast(1)
                    .table_config()
                    .unwrap(),
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_push_overhead,
    bench_forecast_slice,
    bench_table_overhead
);
criterion_main!(benches);
