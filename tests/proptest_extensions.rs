//! Property-based tests for the substrate and extension modules.

use dpd::runtime::machine::{LoopSpec, Machine, MachineConfig};
use dpd::runtime::msg::{NetConfig, ProcessGroup};
use dpd::runtime::sched::{AllocationPolicy, Equipartition, PerformanceDriven, SpeedupCurve};
use dpd::trace::quantize;
use dpd::trace::SampledTrace;
use proptest::prelude::*;

proptest! {
    /// Machine cost model: parallel elapsed time never exceeds the serial
    /// time for loops with enough work, and speedup never exceeds p.
    #[test]
    fn machine_speedup_bounds(
        iterations in 64u64..4096,
        cost in 1_000u64..1_000_000,
        cpus in 2usize..16,
        serial_pct in 0u8..100,
    ) {
        let m = Machine::new(MachineConfig::default());
        let spec = LoopSpec {
            iterations,
            cost_per_iter_ns: cost,
            serial_fraction: serial_pct as f64 / 100.0,
        };
        let s = m.predict_speedup(&spec, cpus);
        prop_assert!(s <= cpus as f64 + 1e-9, "S = {} > p = {}", s, cpus);
        prop_assert!(s > 0.0);
    }

    /// Machine cost model is monotone in work: more iterations never take
    /// less time at the same CPU count.
    #[test]
    fn machine_monotone_in_work(
        base in 16u64..2048,
        extra in 1u64..2048,
        cpus in 1usize..16,
    ) {
        let m = Machine::new(MachineConfig::default());
        let spec_a = LoopSpec::parallel(base, 10_000);
        let spec_b = LoopSpec::parallel(base + extra, 10_000);
        prop_assert!(m.predict_loop_ns(&spec_b, cpus) >= m.predict_loop_ns(&spec_a, cpus));
    }

    /// Message substrate: a receive never completes before the send's
    /// injection, and transfer time grows with message size.
    #[test]
    fn msg_recv_after_send(
        bytes in 0u64..1_000_000,
        pre_work in 0u64..1_000_000,
    ) {
        let mut g = ProcessGroup::new(2, 4, NetConfig::default());
        g.machine(0).run_serial(pre_work);
        g.send(0, 1, 1, bytes);
        let send_t = g.machine_ref(0).now_ns();
        g.recv(1, 0, 1).unwrap();
        let recv_t = g.machine_ref(1).now_ns();
        prop_assert!(recv_t >= send_t, "recv at {} before send at {}", recv_t, send_t);
    }

    /// Allocation policies: the allocation never exceeds the machine and
    /// performance-driven never loses to equipartition in total speedup.
    #[test]
    fn policies_sound(
        fracs in proptest::collection::vec(0.0f64..0.95, 1..6),
        cpus in 1usize..32,
    ) {
        let apps: Vec<SpeedupCurve> = fracs
            .iter()
            .map(|&f| SpeedupCurve::amdahl(f, 32))
            .collect();
        for policy in [&Equipartition as &dyn AllocationPolicy, &PerformanceDriven] {
            let alloc = policy.allocate(&apps, cpus);
            prop_assert_eq!(alloc.len(), apps.len());
            prop_assert!(alloc.iter().sum::<usize>() <= cpus);
        }
        let eq = Equipartition.allocate(&apps, cpus);
        let pd = PerformanceDriven.allocate(&apps, cpus);
        let ts = |a: &[usize]| dpd::runtime::sched::total_speedup(&apps, a);
        prop_assert!(ts(&pd) >= ts(&eq) - 1e-9, "PD {:?} lost to EQ {:?}", pd, eq);
    }

    /// Quantization: bin indices are always within range and plateaus never
    /// produce more change events than samples.
    #[test]
    fn quantization_sound(
        values in proptest::collection::vec(-1e6f64..1e6, 1..200),
        levels in 1usize..32,
    ) {
        let t = SampledTrace::from_values("p", 1_000_000, values);
        let q = quantize::quantize_levels(&t, levels);
        prop_assert_eq!(q.len(), t.len());
        for &b in &q {
            prop_assert!((0..levels as i64).contains(&b));
        }
        let changes = quantize::change_events(&t, levels);
        prop_assert!(changes.len() <= t.len());
        if !changes.is_empty() {
            prop_assert_eq!(changes[0].0, 0, "first sample always emits");
        }
    }

    /// Workload simulation conservation: every job finishes exactly once
    /// and makespan equals the last completion.
    #[test]
    fn workload_sim_conservation(
        iters in proptest::collection::vec(1u64..200, 1..5),
    ) {
        use dpd::runtime::workload::{simulate, Job};
        let jobs: Vec<Job> = iters
            .iter()
            .enumerate()
            .map(|(i, &it)| Job {
                name: format!("j{i}"),
                iteration_ns: 1_000_000,
                iterations: it,
                curve: SpeedupCurve::amdahl(0.1, 16),
            })
            .collect();
        let out = simulate(&jobs, 16, &PerformanceDriven);
        prop_assert_eq!(out.completions.len(), jobs.len());
        let last = out.completions.last().unwrap().finish_ns;
        prop_assert!((out.makespan_ns - last).abs() < 1e-6);
        prop_assert!(out.mean_turnaround_ns <= out.makespan_ns + 1e-6);
    }
}
