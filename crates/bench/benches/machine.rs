//! Substrate benchmarks: virtual machine throughput.
//!
//! The virtual machine is the one execution substrate, so it must be
//! cheap enough that driving 53k loop calls (hydro2d) costs milliseconds;
//! it is also what makes the speedup experiments host-independent.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use par_runtime::machine::{LoopSpec, Machine, MachineConfig};
use std::hint::black_box;

fn bench_machine_run_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine/run_loop");
    let spec = LoopSpec::parallel(1024, 10_000);
    let calls = 10_000u64;
    g.throughput(Throughput::Elements(calls));
    for &cpus in &[1usize, 16] {
        g.bench_with_input(BenchmarkId::new("cpus", cpus), &cpus, |b, &cpus| {
            b.iter(|| {
                let mut m = Machine::new(MachineConfig::default());
                for _ in 0..calls {
                    black_box(m.run_loop(&spec, cpus));
                }
                m.now_ns()
            })
        });
    }
    g.finish();
}

fn bench_machine_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine/cpu_trace_sampling");
    g.sample_size(20);
    let mut m = Machine::new(MachineConfig::default());
    let spec = LoopSpec::parallel(16_000, 10_000);
    for _ in 0..200 {
        m.run_serial(1_000_000);
        m.run_loop(&spec, 16);
    }
    g.bench_function("sample_1ms", |b| {
        b.iter(|| black_box(m.sample_cpu_trace(1_000_000)).len())
    });
    g.finish();
}

criterion_group!(benches, bench_machine_run_loop, bench_machine_sampling);
criterion_main!(benches);
