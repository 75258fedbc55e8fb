//! Detector-family comparison: DPD (eq 1/2) vs autocorrelation on the
//! same frames — the quantitative backing for the paper's design choice
//! of a subtract/abs distance over classical estimators in a run-time
//! tool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpd_core::baseline::AutocorrDetector;
use dpd_core::detector::FrameDetector;
use std::hint::black_box;

fn burst_trace(period: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| match i % period {
            p if p < period / 4 => 1.0,
            p if p < 2 * period / 3 => 16.0,
            _ => 8.0,
        })
        .collect()
}

fn bench_frame_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("detectors/frame_analysis");
    for &n in &[128usize, 256] {
        let data = burst_trace(44, 4 * n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("dpd_l1", n), &n, |b, &n| {
            let det = FrameDetector::magnitudes(n, 0.5);
            b.iter(|| det.analyze(black_box(&data)).unwrap().period())
        });
        g.bench_with_input(BenchmarkId::new("autocorr", n), &n, |b, &n| {
            let det = AutocorrDetector::new(n);
            b.iter(|| det.analyze(black_box(&data)).unwrap().period)
        });
    }
    g.finish();
}

fn bench_event_exactness(c: &mut Criterion) {
    // Event streams: only the DPD has a defined, exact answer. Bench its
    // cost for the record (the others simply cannot run here).
    let mut g = c.benchmark_group("detectors/event_frame");
    let data: Vec<i64> = (0..1024).map(|i| (i % 24) as i64).collect();
    for &n in &[128usize, 256] {
        g.bench_with_input(BenchmarkId::new("dpd_event", n), &n, |b, &n| {
            let det = FrameDetector::events(n);
            b.iter(|| det.analyze(black_box(&data)).unwrap().period())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_frame_analysis, bench_event_exactness);
criterion_main!(benches);
