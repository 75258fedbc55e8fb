//! Active-CPU accounting over virtual time.
//!
//! The paper's Figure 3 plots "the instantaneous number of active CPUs used
//! by a parallel application" sampled every 1 ms. [`CpuTimeline`] is that
//! source here: a step function of the active-CPU count that the simulated
//! [`crate::Machine`] records as it runs, sampled at a fixed rate into the
//! Figure 3 trace.

/// A step function of active-CPU count over virtual time.
#[derive(Debug, Clone, Default)]
pub struct CpuTimeline {
    /// `(time_ns, active_cpus)` transitions, time ascending. The value holds
    /// from its timestamp until the next transition.
    steps: Vec<(u64, u32)>,
}

impl CpuTimeline {
    /// Empty timeline (0 CPUs active from t = 0).
    pub fn new() -> Self {
        CpuTimeline { steps: Vec::new() }
    }

    /// Record that `active` CPUs are busy from `t_ns` on.
    ///
    /// # Panics
    /// Panics if `t_ns` precedes the last recorded transition.
    pub fn set(&mut self, t_ns: u64, active: u32) {
        if let Some(&(last_t, last_v)) = self.steps.last() {
            assert!(t_ns >= last_t, "timeline must advance monotonically");
            if last_v == active {
                return; // no-op transition
            }
            if last_t == t_ns {
                // Overwrite a same-instant transition.
                self.steps.pop();
            }
        }
        self.steps.push((t_ns, active));
    }

    /// Number of recorded transitions.
    pub fn transitions(&self) -> usize {
        self.steps.len()
    }

    /// Active-CPU count at time `t_ns`.
    pub fn at(&self, t_ns: u64) -> u32 {
        match self.steps.binary_search_by_key(&t_ns, |&(t, _)| t) {
            Ok(i) => self.steps[i].1,
            Err(0) => 0,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// End of the timeline: timestamp of the final transition.
    pub fn end_ns(&self) -> u64 {
        self.steps.last().map(|&(t, _)| t).unwrap_or(0)
    }

    /// Sample the timeline at a fixed period, from t = 0 to the end,
    /// producing the Figure 3 style trace.
    pub fn sample(&self, period_ns: u64) -> Vec<f64> {
        assert!(period_ns > 0, "sampling period must be non-zero");
        let end = self.end_ns();
        let n = (end / period_ns) as usize + 1;
        let mut out = Vec::with_capacity(n);
        let mut t = 0u64;
        let mut idx = 0usize;
        while t <= end {
            while idx + 1 < self.steps.len() && self.steps[idx + 1].0 <= t {
                idx += 1;
            }
            let v = if self.steps.is_empty() || self.steps[0].0 > t {
                0
            } else {
                self.steps[idx].1
            };
            out.push(v as f64);
            t += period_ns;
        }
        out
    }

    /// CPU-seconds consumed: the integral of the step function up to its
    /// final transition, in cpu-nanoseconds.
    pub fn cpu_time_ns(&self) -> u128 {
        let mut total: u128 = 0;
        for w in self.steps.windows(2) {
            let (t0, v) = w[0];
            let (t1, _) = w[1];
            total += (t1 - t0) as u128 * v as u128;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_at_lookups() {
        let mut tl = CpuTimeline::new();
        tl.set(0, 1);
        tl.set(100, 16);
        tl.set(200, 1);
        assert_eq!(tl.at(0), 1);
        assert_eq!(tl.at(50), 1);
        assert_eq!(tl.at(100), 16);
        assert_eq!(tl.at(150), 16);
        assert_eq!(tl.at(250), 1);
    }

    #[test]
    fn timeline_before_first_step_is_zero() {
        let mut tl = CpuTimeline::new();
        tl.set(100, 4);
        assert_eq!(tl.at(0), 0);
        assert_eq!(tl.at(99), 0);
    }

    #[test]
    fn timeline_dedupes_noop_transitions() {
        let mut tl = CpuTimeline::new();
        tl.set(0, 2);
        tl.set(50, 2);
        assert_eq!(tl.transitions(), 1);
    }

    #[test]
    fn timeline_same_instant_overwrite() {
        let mut tl = CpuTimeline::new();
        tl.set(0, 2);
        tl.set(10, 4);
        tl.set(10, 8);
        assert_eq!(tl.at(10), 8);
        assert_eq!(tl.transitions(), 2);
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn timeline_rejects_backwards() {
        let mut tl = CpuTimeline::new();
        tl.set(100, 1);
        tl.set(50, 2);
    }

    #[test]
    fn sampling_matches_steps() {
        let mut tl = CpuTimeline::new();
        tl.set(0, 1);
        tl.set(1_000_000, 4); // at 1 ms
        tl.set(3_000_000, 2); // at 3 ms
        let s = tl.sample(1_000_000);
        assert_eq!(s, vec![1.0, 4.0, 4.0, 2.0]);
    }

    #[test]
    fn cpu_time_integral() {
        let mut tl = CpuTimeline::new();
        tl.set(0, 2);
        tl.set(100, 4);
        tl.set(200, 0);
        // 100ns * 2 + 100ns * 4 = 600 cpu-ns
        assert_eq!(tl.cpu_time_ns(), 600);
    }

    #[test]
    fn empty_timeline_samples_single_zero() {
        let tl = CpuTimeline::new();
        assert_eq!(tl.sample(1000), vec![0.0]);
        assert_eq!(tl.cpu_time_ns(), 0);
    }
}
