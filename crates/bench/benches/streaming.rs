//! Per-sample cost of the streaming DPD (the Table 3 quantity).
//!
//! The paper reports 0.004–0.112 ms per processed element on a 2001 SGI
//! Origin 2000, scaling with the window size. These benches measure our
//! per-push cost across window sizes, plus the ablation the incremental
//! engine justifies: O(M) incremental update vs recomputing the spectrum
//! from scratch each push.
//!
//! A detector spends its samples in three states, each with its own cost:
//! warming up (the first `N + M` samples after creation), locked, and
//! searching (after every sample, scanning the complete delays for a zero).
//! `streaming/push` mixes warmup and lock on a clean stream;
//! `streaming/warmup` times warmup alone, and `streaming/push_locked` and
//! `streaming/push_searching` an already-warm detector on a clean address
//! loop and on one whose insertions keep it searching, as a wide window
//! over a real address trace does. `streaming/push_distinct` feeds a warm
//! detector a value it has never seen at every sample: the worst case for
//! the symbol codebook wide windows keep, which must hand out and release
//! a code per sample.
//!
//! The pre-warmed and warmup groups run windows 16–1024 including 128 and
//! 512, which bracket the crossover where the detector switches from
//! `i64` history to 16-bit symbol codes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpd_core::incremental::{EngineConfig, IncrementalEngine};
use dpd_core::metric::{direct_distance, EventMetric};
use dpd_core::pipeline::DpdBuilder;
use std::hint::black_box;

fn stream(period: usize, len: usize) -> Vec<i64> {
    (0..len).map(|i| (i % period) as i64 + 0x4000).collect()
}

fn bench_push_per_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming/push");
    for &n in &[16usize, 64, 256, 1024] {
        let data = stream(6, 4 * n);
        g.throughput(Throughput::Elements(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("window", n), &n, |b, &n| {
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
    }
    g.finish();
}

/// Address-like event stream: a loop over `period` distinct 64-byte-aligned
/// addresses, with one extra address inserted at `per_mille` of every
/// thousand positions (seeded LCG). Every insertion breaks the exact match
/// for the next `N + period` samples, so at 1 per mille and wide windows
/// the detector is searching almost always.
fn addresses(period: usize, len: usize, per_mille: u64, seed: u64) -> Vec<i64> {
    let mut state = seed;
    let mut next = 0usize;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if (state >> 33) % 1000 < per_mille {
                0x7f00_0000 + ((state >> 40) % 64) as i64 * 0x40
            } else {
                next += 1;
                0x40_0000 + (next % period) as i64 * 0x40
            }
        })
        .collect()
}

/// Samples timed per iteration of the pre-warmed groups, at every window:
/// about eight insertions at 1 per mille.
const PREWARMED_LEN: usize = 8192;

/// Windows of the pre-warmed and warmup groups.
const WINDOWS: [usize; 6] = [16, 64, 128, 256, 512, 1024];

/// A detector already past its `N + M` warmup, fed `PREWARMED_LEN` more
/// samples of `stream(len)` per iteration.
fn bench_push_prewarmed(c: &mut Criterion, group: &str, stream: impl Fn(usize) -> Vec<i64>) {
    let mut g = c.benchmark_group(group);
    for &n in &WINDOWS {
        let data = stream(2 * n + PREWARMED_LEN);
        let (prefix, timed) = data.split_at(2 * n);
        let mut warm = DpdBuilder::new().window(n).build_detector().unwrap();
        warm.push_slice(prefix);
        g.throughput(Throughput::Elements(timed.len() as u64));
        g.bench_with_input(BenchmarkId::new("window", n), &n, |b, _| {
            b.iter(|| {
                // The clone copies one history buffer; pushing the timed
                // samples costs thousands of times more.
                let mut dpd = warm.clone();
                let mut starts = 0u64;
                for &s in timed {
                    if dpd.push(black_box(s)).as_return_value() != 0 {
                        starts += 1;
                    }
                }
                starts
            })
        });
    }
    g.finish();
}

fn bench_push_locked_per_window(c: &mut Criterion) {
    // A clean loop: the detector stays locked on period 7.
    bench_push_prewarmed(c, "streaming/push_locked", |len| {
        addresses(7, len, 0, 0x5eed)
    });
}

fn bench_push_searching_per_window(c: &mut Criterion) {
    // Apps-like insertions keep wide windows searching.
    bench_push_prewarmed(c, "streaming/push_searching", |len| {
        addresses(7, len, 1, 0x5eed)
    });
}

fn bench_push_distinct_per_window(c: &mut Criterion) {
    // Every sample a new address: the detector never locks, and every
    // sample enters as a new value while the oldest leaves.
    bench_push_prewarmed(c, "streaming/push_distinct", |len| {
        (0..len as i64).map(|i| 0x40_0000 + i * 0x40).collect()
    });
}

fn bench_warmup_per_window(c: &mut Criterion) {
    // A fresh detector fed exactly its N + M warmup samples.
    let mut g = c.benchmark_group("streaming/warmup");
    for &n in &WINDOWS {
        let data = addresses(7, 2 * n, 1, 0x5eed);
        g.throughput(Throughput::Elements(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("window", n), &n, |b, &n| {
            b.iter(|| {
                let mut dpd = DpdBuilder::new().window(n).build_detector().unwrap();
                for &s in &data {
                    dpd.push(black_box(s));
                }
                dpd.locked_period()
            })
        });
    }
    g.finish();
}

fn bench_push_slice_per_window(c: &mut Criterion) {
    // Batch ingestion of the same streams as `streaming/push`.
    let mut g = c.benchmark_group("streaming/push_slice");
    for &n in &[16usize, 64, 256, 1024] {
        let data = stream(6, 4 * n);
        g.throughput(Throughput::Elements(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("window", n), &n, |b, &n| {
            b.iter(|| {
                let mut dpd = DpdBuilder::new().window(n).build_detector().unwrap();
                dpd.push_slice(black_box(&data)).len()
            })
        });
    }
    g.finish();
}

fn bench_engine_batch_vs_single(c: &mut Criterion) {
    // Pure-engine spectrum maintenance: per-sample push vs push_slice.
    let mut g = c.benchmark_group("streaming/engine_ingest");
    let n = 1024usize;
    let data = stream(6, 4 * n);
    g.throughput(Throughput::Elements(data.len() as u64));
    g.bench_function("push_per_sample", |b| {
        b.iter(|| {
            let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(n)).unwrap();
            for &s in &data {
                e.push(black_box(s));
            }
            e.first_zero()
        })
    });
    g.bench_function("push_slice", |b| {
        b.iter(|| {
            let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(n)).unwrap();
            e.push_slice(black_box(&data));
            e.first_zero()
        })
    });
    g.finish();
}

fn bench_capi_replay(c: &mut Criterion) {
    // The exact Table 3 protocol: replay a trace through `DPD()`.
    let mut g = c.benchmark_group("streaming/dpd_capi_replay");
    let data = stream(6, 5402); // swim-sized
    g.throughput(Throughput::Elements(data.len() as u64));
    g.bench_function("swim_sized_window16", |b| {
        b.iter(|| {
            let mut dpd = DpdBuilder::new().window(16).build_capi().unwrap();
            let mut period = 0i32;
            let mut hits = 0u64;
            for &s in &data {
                hits += dpd.dpd(black_box(s), &mut period) as u64;
            }
            hits
        })
    });
    g.bench_function("swim_sized_window16_batch", |b| {
        b.iter(|| {
            let mut dpd = DpdBuilder::new().window(16).build_capi().unwrap();
            dpd.dpd_batch(black_box(&data)).len()
        })
    });
    g.finish();
}

fn bench_incremental_vs_scratch(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming/ablation_incremental_vs_scratch");
    g.sample_size(15);
    let n = 128usize;
    let data = stream(6, 6 * n);
    g.bench_function("incremental_o_m", |b| {
        b.iter(|| {
            let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(n)).unwrap();
            let mut zeros = 0u64;
            for &s in &data {
                e.push(black_box(s));
                if e.first_zero().is_some() {
                    zeros += 1;
                }
            }
            zeros
        })
    });
    g.bench_function("from_scratch_o_nm", |b| {
        b.iter(|| {
            let mut seen: Vec<i64> = Vec::with_capacity(data.len());
            let mut zeros = 0u64;
            for &s in &data {
                seen.push(black_box(s));
                for m in 1..=n {
                    if direct_distance(&EventMetric, &seen, n, m) == Some(0.0) {
                        zeros += 1;
                        break;
                    }
                }
            }
            zeros
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_push_per_window,
    bench_push_locked_per_window,
    bench_push_searching_per_window,
    bench_push_distinct_per_window,
    bench_warmup_per_window,
    bench_push_slice_per_window,
    bench_engine_batch_vs_single,
    bench_capi_replay,
    bench_incremental_vs_scratch
);
criterion_main!(benches);
