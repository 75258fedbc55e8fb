//! The SelfAnalyzer mechanism.
//!
//! Implements the run-time flow of the paper's Figure 6: every intercepted
//! parallel-loop call is passed to the DPD; when the DPD signals a period
//! start, the analyzer identifies the parallel region by "the address of the
//! starting function and the length of the period" (§5.1) and closes the
//! timing of the previous iteration. Iteration times are bucketed by the
//! number of CPUs the iteration ran with, so the speedup
//! `S = T(baseline) / T(available)` (§5) falls out directly.

use crate::speedup::speedup;
use ditools::hook::CallObserver;
use ditools::registry::FnAddr;
use dpd_core::capi::Dpd;
use dpd_core::pipeline::DpdBuilder;

/// Timing record for one completed iteration of a region's main loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationRecord {
    /// Iteration start (first loop call of the period), nanoseconds.
    pub start_ns: u64,
    /// Iteration end (first loop call of the next period), nanoseconds.
    pub end_ns: u64,
    /// CPUs allocated to the application during this iteration.
    pub cpus: usize,
}

impl IterationRecord {
    /// Iteration duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A parallel region discovered by the DPD.
///
/// Identified — exactly as in the paper — by the address of the function
/// starting the period and the period length, "assuming that the case of two
/// iterative sequences of values with the same length and same initial
/// function is not a normal case" (§5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// Address of the loop function that starts each period.
    pub start_addr: i64,
    /// Period length in loop calls.
    pub period: usize,
    /// Completed iteration timings.
    pub iterations: Vec<IterationRecord>,
    /// Start time of the currently open iteration, if any.
    open_since: Option<u64>,
}

impl RegionInfo {
    fn new(start_addr: i64, period: usize) -> Self {
        RegionInfo {
            start_addr,
            period,
            iterations: Vec::new(),
            open_since: None,
        }
    }

    /// Mean iteration time over iterations executed with `cpus` CPUs.
    pub fn mean_time_ns(&self, cpus: usize) -> Option<f64> {
        let times: Vec<u64> = self
            .iterations
            .iter()
            .filter(|r| r.cpus == cpus)
            .map(|r| r.duration_ns())
            .collect();
        if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<u64>() as f64 / times.len() as f64)
        }
    }

    /// Number of completed iterations measured with `cpus` CPUs.
    pub fn iterations_with(&self, cpus: usize) -> usize {
        self.iterations.iter().filter(|r| r.cpus == cpus).count()
    }

    /// Speedup of `cpus` relative to `baseline_cpus` from measured means.
    pub fn speedup(&self, baseline_cpus: usize, cpus: usize) -> Option<f64> {
        let tb = self.mean_time_ns(baseline_cpus)?;
        let tp = self.mean_time_ns(cpus)?;
        speedup(tb.round() as u64, tp.round() as u64)
    }

    /// All distinct CPU counts with at least one measured iteration.
    pub fn measured_cpu_counts(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = self.iterations.iter().map(|r| r.cpus).collect();
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    /// Forecast the duration of the region's *next* iteration under a
    /// `cpus`-processor allocation, from the most recent iterations
    /// measured with that allocation.
    ///
    /// The point forecast is the mean of the last (up to)
    /// [`DURATION_FORECAST_DEPTH`] matching iterations — the periodic-
    /// extension assumption of `dpd_core::predict` applied to the
    /// iteration-time stream. Confidence reflects recent stability: it is
    /// `1 - cv` (the coefficient of variation of those durations), clamped
    /// to `[0, 1]` and scaled down while fewer than
    /// [`DURATION_FORECAST_DEPTH`] samples exist. `None` without any
    /// matching iteration.
    pub fn forecast_next_duration_ns(&self, cpus: usize) -> Option<DurationForecast> {
        let recent: Vec<f64> = self
            .iterations
            .iter()
            .rev()
            .filter(|r| r.cpus == cpus)
            .take(DURATION_FORECAST_DEPTH)
            .map(|r| r.duration_ns() as f64)
            .collect();
        if recent.is_empty() {
            return None;
        }
        let n = recent.len() as f64;
        let mean = recent.iter().sum::<f64>() / n;
        let var = recent.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 1.0 };
        let confidence =
            (1.0 - cv).clamp(0.0, 1.0) * (recent.len() as f64 / DURATION_FORECAST_DEPTH as f64);
        Some(DurationForecast {
            predicted_ns: mean,
            confidence,
            samples: recent.len(),
            cpus,
        })
    }
}

/// Iterations consulted by [`RegionInfo::forecast_next_duration_ns`].
pub const DURATION_FORECAST_DEPTH: usize = 8;

/// A forecast of the next iteration's duration (see
/// [`RegionInfo::forecast_next_duration_ns`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationForecast {
    /// Predicted duration of the next iteration, nanoseconds.
    pub predicted_ns: f64,
    /// Stability-derived confidence in `[0, 1]`.
    pub confidence: f64,
    /// Iterations the forecast is based on.
    pub samples: usize,
    /// CPU allocation the forecast assumes.
    pub cpus: usize,
}

/// The SelfAnalyzer: DPD-driven discovery and timing of parallel regions.
///
/// # Examples
/// ```
/// use selfanalyzer::SelfAnalyzer;
///
/// let mut sa = SelfAnalyzer::new(8, 1); // DPD window 8, baseline 1 CPU
/// let loops = [0x400000i64, 0x400040, 0x400080];
/// let mut t = 0u64;
/// // Baseline iterations: each loop call takes 4 µs on 1 CPU.
/// for i in 0..60 {
///     sa.on_loop_call(loops[i % 3], t);
///     t += 4_000;
/// }
/// // More CPUs arrive: iterations now take 1 µs per loop call.
/// sa.set_cpus(4);
/// for i in 0..120 {
///     sa.on_loop_call(loops[i % 3], t);
///     t += 1_000;
/// }
/// let region = &sa.regions()[0];
/// assert_eq!(region.period, 3);
/// let speedup = region.speedup(1, 4).unwrap();
/// assert!(speedup > 3.0 && speedup <= 4.0);
/// ```
#[derive(Debug)]
pub struct SelfAnalyzer {
    dpd: Dpd,
    /// Discovered regions, in discovery order: the paper's
    /// `InitParallelRegion(address, length)` plus iteration timing.
    regions: Vec<RegionInfo>,
    /// Index into `regions` of the region currently being timed.
    active: Option<usize>,
    /// CPUs the application currently holds (set by the runtime/scheduler).
    cpus_now: usize,
    /// Total loop-call events processed.
    events: u64,
}

impl SelfAnalyzer {
    /// Analyzer with the given DPD window and an initial CPU allocation.
    ///
    /// # Panics
    /// Panics when `dpd_window == 0`.
    pub fn new(dpd_window: usize, initial_cpus: usize) -> Self {
        SelfAnalyzer::from_builder(&DpdBuilder::new().window(dpd_window), initial_cpus)
            .expect("invalid DPD window")
    }

    /// Analyzer over an explicit detector builder — the one detector
    /// entry point ([`DpdBuilder`]) carried through to the paper's
    /// SelfAnalyzer integration (Fig. 6).
    pub fn from_builder(
        builder: &DpdBuilder,
        initial_cpus: usize,
    ) -> Result<Self, dpd_core::pipeline::BuildError> {
        Ok(SelfAnalyzer {
            dpd: builder.build_capi()?,
            regions: Vec::new(),
            active: None,
            cpus_now: initial_cpus.max(1),
            events: 0,
        })
    }

    /// Update the CPU allocation (the scheduler may change it between
    /// iterations; the paper's §5 procedure runs one iteration at a baseline
    /// count and later ones at the available count).
    pub fn set_cpus(&mut self, cpus: usize) {
        self.cpus_now = cpus.max(1);
    }

    /// The current CPU allocation used to label iterations.
    pub fn cpus(&self) -> usize {
        self.cpus_now
    }

    /// Handle one intercepted parallel-loop call (the body of the paper's
    /// `DI_event`): feed the DPD; on a period start, close the previous
    /// iteration and open the next one. Returns the period when a period
    /// start was signalled.
    pub fn on_loop_call(&mut self, addr: i64, t_ns: u64) -> Option<usize> {
        self.events += 1;
        let mut period: i32 = 0;
        let start_period = self.dpd.dpd(addr, &mut period);
        if start_period == 0 {
            return None;
        }
        let period = period as usize;
        self.note_period_start(addr, period, t_ns);
        Some(period)
    }

    /// Handle a whole batch of intercepted loop calls at once.
    ///
    /// `addrs[i]` was called at `times_ns[i]`; the two slices must have the
    /// same length. The DPD processes the address stream through its batch
    /// ingestion path and the analyzer applies the region bookkeeping to the
    /// period starts it reports positionally — producing exactly the regions
    /// and iteration timings of per-call [`SelfAnalyzer::on_loop_call`].
    /// Returns the number of period starts observed in the batch.
    ///
    /// # Panics
    /// Panics when `addrs` and `times_ns` have different lengths.
    pub fn on_loop_calls(&mut self, addrs: &[i64], times_ns: &[u64]) -> usize {
        assert_eq!(
            addrs.len(),
            times_ns.len(),
            "addrs/times_ns length mismatch"
        );
        self.events += addrs.len() as u64;
        let detections = self.dpd.dpd_batch(addrs);
        for &(offset, period) in &detections {
            self.note_period_start(addrs[offset], period as usize, times_ns[offset]);
        }
        detections.len()
    }

    /// Record a DPD period start for `(addr, period)` at time `t_ns` under
    /// the current CPU allocation: find or create the region, close the
    /// previously open iteration, open the next one.
    fn note_period_start(&mut self, addr: i64, period: usize, t_ns: u64) {
        let idx = match self
            .regions
            .iter()
            .position(|r| r.start_addr == addr && r.period == period)
        {
            Some(i) => i,
            None => {
                self.regions.push(RegionInfo::new(addr, period));
                self.regions.len() - 1
            }
        };
        // Close the open iteration of whichever region was active.
        if let Some(active) = self.active {
            if let Some(start) = self.regions[active].open_since.take() {
                if t_ns > start {
                    self.regions[active].iterations.push(IterationRecord {
                        start_ns: start,
                        end_ns: t_ns,
                        cpus: self.cpus_now,
                    });
                }
            }
        }
        self.regions[idx].open_since = Some(t_ns);
        self.active = Some(idx);
    }

    /// Discovered regions, in discovery order.
    pub fn regions(&self) -> &[RegionInfo] {
        &self.regions
    }

    /// The region currently being timed.
    pub fn active_region(&self) -> Option<&RegionInfo> {
        self.active.map(|i| &self.regions[i])
    }

    /// Total loop-call events processed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Forecast the duration of the next iteration of the region currently
    /// being timed, under the current CPU allocation. `None` until a
    /// region is active and has measured iterations at this allocation.
    pub fn forecast_next_iteration(&self) -> Option<DurationForecast> {
        self.active_region()?
            .forecast_next_duration_ns(self.cpus_now)
    }

    /// Adjust the DPD window (forwards `DPDWindowSize`).
    pub fn set_dpd_window(&mut self, size: i32) {
        self.dpd.dpd_window_size(size);
    }

    /// Dump every discovered region into one DTB container on `w`.
    ///
    /// Each region becomes one event stream (stream id = discovery index,
    /// name `region@<start_addr>/p<period>`) whose values are the region's
    /// completed iteration durations in nanoseconds — so a recorded run
    /// can be re-analyzed offline (`dpd analyze dump.dtb`, periodicity of
    /// the iteration times themselves) or replayed through the
    /// multi-stream service at wire speed.
    pub fn dump_regions_dtb<W: std::io::Write>(
        &self,
        w: W,
    ) -> Result<(), dpd_trace::dtb::DtbError> {
        let mut writer = dpd_trace::dtb::DtbWriter::new(w)?;
        for (ix, region) in self.regions.iter().enumerate() {
            let name = format!("region@{:#x}/p{}", region.start_addr, region.period);
            writer.declare_events(ix as u64, &name)?;
            let durations: Vec<i64> = region
                .iterations
                .iter()
                .map(|it| it.duration_ns() as i64)
                .collect();
            writer.push_events(ix as u64, &durations)?;
        }
        writer.finish()?;
        Ok(())
    }
}

impl CallObserver for SelfAnalyzer {
    fn on_call(&mut self, addr: FnAddr, t_ns: u64) {
        self.on_loop_call(addr.raw(), t_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the analyzer with a synthetic period-4 loop stream where each
    /// loop call takes `cost` ns; returns the analyzer.
    fn drive(cost: u64, calls: usize, window: usize, cpus: usize) -> SelfAnalyzer {
        let mut sa = SelfAnalyzer::new(window, cpus);
        let addrs = [0x100i64, 0x140, 0x180, 0x1c0];
        let mut t = 0u64;
        for i in 0..calls {
            sa.on_loop_call(addrs[i % 4], t);
            t += cost;
        }
        sa
    }

    #[test]
    fn discovers_region_and_times_iterations() {
        let sa = drive(1_000, 200, 8, 4);
        assert_eq!(sa.regions().len(), 1);
        let r = &sa.regions()[0];
        assert_eq!(r.period, 4);
        assert!(r.iterations.len() > 10);
        // Every iteration is period * cost long.
        for it in &r.iterations {
            assert_eq!(it.duration_ns(), 4_000);
            assert_eq!(it.cpus, 4);
        }
    }

    #[test]
    fn region_identified_by_start_address() {
        let sa = drive(1_000, 200, 8, 4);
        let r = &sa.regions()[0];
        // The period start is wherever the DPD locked; it must be one of the
        // four loop addresses and stay consistent.
        assert!([0x100, 0x140, 0x180, 0x1c0].contains(&r.start_addr));
    }

    #[test]
    fn speedup_from_two_allocations() {
        let mut sa = SelfAnalyzer::new(8, 1);
        let addrs = [0x100i64, 0x140, 0x180];
        let mut t = 0u64;
        // Phase 1: baseline (1 CPU), iterations cost 3 * 4000 ns.
        for i in 0..90 {
            sa.on_loop_call(addrs[i % 3], t);
            t += 4_000;
        }
        // Phase 2: 4 CPUs, iterations cost 3 * 1100 ns.
        sa.set_cpus(4);
        for i in 90..300 {
            sa.on_loop_call(addrs[i % 3], t);
            t += 1_100;
        }
        let r = &sa.regions()[0];
        let s = r.speedup(1, 4).expect("both buckets measured");
        let expected = 4_000.0 / 1_100.0;
        assert!(
            (s - expected).abs() / expected < 0.15,
            "speedup {s}, expected ~{expected}"
        );
        assert_eq!(r.measured_cpu_counts(), vec![1, 4]);
    }

    #[test]
    fn no_region_for_aperiodic_stream() {
        let mut sa = SelfAnalyzer::new(16, 4);
        for i in 0..200i64 {
            sa.on_loop_call(0x1000 + i * 0x40, i as u64 * 100);
        }
        assert!(sa.regions().is_empty());
        assert_eq!(sa.events(), 200);
    }

    #[test]
    fn observer_interface_feeds_analyzer() {
        let mut sa = SelfAnalyzer::new(8, 2);
        let addrs = [FnAddr(0x100), FnAddr(0x140)];
        let mut t = 0u64;
        for i in 0..100 {
            sa.on_call(addrs[i % 2], t);
            t += 500;
        }
        assert_eq!(sa.regions().len(), 1);
        assert_eq!(sa.regions()[0].period, 2);
    }

    #[test]
    fn mean_time_none_for_unmeasured_cpus() {
        let sa = drive(1_000, 100, 8, 4);
        let r = &sa.regions()[0];
        assert!(r.mean_time_ns(4).is_some());
        assert!(r.mean_time_ns(7).is_none());
        assert!(r.speedup(7, 4).is_none());
    }

    #[test]
    fn set_dpd_window_keeps_working() {
        let mut sa = SelfAnalyzer::new(256, 2);
        sa.set_dpd_window(8);
        let addrs = [0x100i64, 0x140];
        let mut t = 0u64;
        for i in 0..60 {
            sa.on_loop_call(addrs[i % 2], t);
            t += 500;
        }
        assert_eq!(sa.regions().len(), 1);
    }

    #[test]
    fn batch_calls_match_per_call_analysis() {
        let addrs_cycle = [0x100i64, 0x140, 0x180];
        let addrs: Vec<i64> = (0..240).map(|i| addrs_cycle[i % 3]).collect();
        let times: Vec<u64> = (0..240).map(|i| i as u64 * 2_500).collect();

        let mut per_call = SelfAnalyzer::new(8, 2);
        for (&a, &t) in addrs.iter().zip(&times) {
            per_call.on_loop_call(a, t);
        }

        let mut batched = SelfAnalyzer::new(8, 2);
        let mut starts = 0;
        for i in (0..addrs.len()).step_by(100) {
            let end = (i + 100).min(addrs.len());
            starts += batched.on_loop_calls(&addrs[i..end], &times[i..end]);
        }

        assert_eq!(batched.events(), per_call.events());
        assert_eq!(batched.regions().len(), per_call.regions().len());
        for (b, p) in batched.regions().iter().zip(per_call.regions()) {
            assert_eq!(b, p);
        }
        assert!(starts > 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn batch_length_mismatch_panics() {
        let mut sa = SelfAnalyzer::new(8, 1);
        sa.on_loop_calls(&[1, 2, 3], &[0, 1]);
    }

    #[test]
    fn dtb_dump_roundtrips_region_durations() {
        let sa = drive(1_000, 200, 8, 4);
        let mut buf = Vec::new();
        sa.dump_regions_dtb(&mut buf).unwrap();
        let (events, sampled) = dpd_trace::dtb::read_all(&buf).unwrap();
        assert!(sampled.is_empty());
        assert_eq!(events.len(), 1);
        let (id, trace) = &events[0];
        assert_eq!(*id, 0, "stream id = discovery index");
        let region = &sa.regions()[0];
        assert_eq!(
            trace.name,
            format!("region@{:#x}/p{}", region.start_addr, region.period)
        );
        let expect: Vec<i64> = region
            .iterations
            .iter()
            .map(|it| it.duration_ns() as i64)
            .collect();
        assert_eq!(trace.values, expect);
    }

    #[test]
    fn dtb_dump_of_empty_book_is_valid_and_empty() {
        let sa = SelfAnalyzer::new(8, 1);
        let mut buf = Vec::new();
        sa.dump_regions_dtb(&mut buf).unwrap();
        let (events, sampled) = dpd_trace::dtb::read_all(&buf).unwrap();
        assert!(events.is_empty() && sampled.is_empty());
    }

    #[test]
    fn forecasts_stable_iteration_durations_with_high_confidence() {
        let sa = drive(1_000, 200, 8, 4);
        let f = sa.forecast_next_iteration().expect("active region");
        assert_eq!(f.predicted_ns, 4_000.0, "4 calls x 1000 ns");
        assert_eq!(f.cpus, 4);
        assert_eq!(f.samples, DURATION_FORECAST_DEPTH);
        assert!(f.confidence > 0.99, "stable stream: {f:?}");
    }

    #[test]
    fn duration_forecast_tracks_allocation_changes() {
        let mut sa = SelfAnalyzer::new(8, 1);
        let addrs = [0x100i64, 0x140, 0x180];
        let mut t = 0u64;
        for i in 0..90 {
            sa.on_loop_call(addrs[i % 3], t);
            t += 4_000;
        }
        sa.set_cpus(4);
        // No iteration measured at 4 CPUs yet: no forecast for the new
        // allocation.
        assert!(sa.forecast_next_iteration().is_none());
        for i in 90..200 {
            sa.on_loop_call(addrs[i % 3], t);
            t += 1_000;
        }
        let f = sa.forecast_next_iteration().unwrap();
        assert_eq!(f.cpus, 4);
        assert!((f.predicted_ns - 3_000.0).abs() < 1e-9);
        // The baseline bucket still forecasts its own allocation: every
        // 1-CPU iteration took 3 calls x 4000 ns.
        let r = &sa.regions()[0];
        let base = r.forecast_next_duration_ns(1).unwrap();
        assert!((base.predicted_ns - 12_000.0).abs() < 1e-9, "{base:?}");
    }

    #[test]
    fn jittery_durations_lower_confidence() {
        let mut sa = SelfAnalyzer::new(8, 2);
        let addrs = [0x100i64, 0x140];
        let mut t = 0u64;
        for i in 0..120 {
            sa.on_loop_call(addrs[i % 2], t);
            // Period-3 call costs against period-2 iterations: whatever
            // the lock anchor's parity, iteration durations flap.
            t += if i % 3 == 0 { 4_500 } else { 500 };
        }
        let f = sa.forecast_next_iteration().unwrap();
        let stable = drive(1_000, 120, 8, 2).forecast_next_iteration().unwrap();
        assert!(
            f.confidence < stable.confidence,
            "jitter {f:?} vs stable {stable:?}"
        );
    }

    #[test]
    fn cpus_floor_at_one() {
        let mut sa = SelfAnalyzer::new(8, 0);
        assert_eq!(sa.cpus(), 1);
        sa.set_cpus(0);
        assert_eq!(sa.cpus(), 1);
    }
}
