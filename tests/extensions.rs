//! Integration tests for the extension modules: quantization, dynamic
//! serialization, the autocorrelation baseline and the MPI-style FT
//! variant.

use dpd::apps::ft::{ft_mpi_run, ft_run, PERIOD_MS};
use dpd::core::baseline::AutocorrDetector;
use dpd::core::detector::FrameDetector;
use dpd::trace::quantize;

#[test]
fn quantized_ft_trace_detects_44_with_l1_metric() {
    // Bridge §2's two acquisition models: quantize the sampled CPU trace
    // into level events; the periodicity survives quantization.
    let run = ft_run(20);
    let stream = quantize::quantize_levels(&run.cpu_trace, 16);
    // The magnitude (L1, equation 1) frame detector on the quantized
    // levels still finds m = 44. The exact event metric (equation 2) does
    // not: sampling noise breaks the exact repeats it needs.
    let det = FrameDetector::magnitudes(200, 0.5);
    let as_mag: Vec<f64> = stream.iter().map(|&v| v as f64).collect();
    let report = det.analyze(&as_mag).unwrap();
    assert_eq!(report.period(), Some(PERIOD_MS as usize));
}

#[test]
fn change_events_compress_ft_trace() {
    let run = ft_run(20);
    let changes = quantize::change_events(&run.cpu_trace, 16);
    assert!(changes.len() < run.cpu_trace.len() / 2);
    assert!(changes.len() > 20, "plateaus compressed away entirely?");
}

#[test]
fn autocorrelation_agrees_on_clean_ft_but_may_pick_harmonics() {
    let run = ft_run(20);
    let report = AutocorrDetector::new(200)
        .analyze(&run.cpu_trace.values)
        .unwrap();
    let p = report.period.expect("autocorrelation finds a peak");
    assert_eq!(
        p % PERIOD_MS as usize,
        0,
        "autocorr period {p} is not a multiple of 44"
    );
}

#[test]
fn mpi_ft_matches_shared_memory_ft_periodicity() {
    let shared = ft_run(20);
    let mpi = ft_mpi_run(20, 4);
    let det = FrameDetector::magnitudes(200, 0.5);
    let p_shared = det.analyze(&shared.cpu_trace.values).unwrap().period();
    let p_mpi = det.analyze(&mpi.cpu_trace.values).unwrap().period();
    assert_eq!(p_shared, Some(44));
    assert_eq!(p_mpi, Some(44));
}

#[test]
fn serialization_policy_on_overhead_dominated_loop() {
    use dpd::analyzer::policy::{ExecutionDecision, SerializationPolicy};
    use dpd::analyzer::SelfAnalyzer;
    use dpd::runtime::machine::{LoopSpec, Machine, MachineConfig};

    // A tiny loop whose fork/join overheads exceed its parallel gain.
    let mut machine = Machine::new(MachineConfig {
        fork_overhead_ns: 100_000,
        join_overhead_ns: 100_000,
        ..MachineConfig::default()
    });
    let spec = LoopSpec::parallel(16, 2_000); // 32 µs of work
    let mut sa = SelfAnalyzer::new(8, 1);
    let addrs = [0xA0i64, 0xB0];
    for &(cpus, iters) in &[(1usize, 20usize), (16, 20)] {
        sa.set_cpus(cpus);
        for _ in 0..iters {
            for &a in &addrs {
                sa.on_loop_call(a, machine.now_ns());
                machine.run_loop(&spec, cpus);
            }
        }
    }
    let region = &sa.regions()[0];
    let s = region.speedup(1, 16).unwrap();
    assert!(s < 1.0, "parallel must lose here (S = {s})");
    assert_eq!(
        SerializationPolicy::default().decide(region, 1, 16),
        ExecutionDecision::Serialize
    );
}
