//! Wall-clock sampler for live CPU-usage traces.
//!
//! The virtual machine produces Figure-3 traces deterministically; this
//! sampler produces them from *real* executions: a background thread reads
//! the [`CpuUsage`] counter at a fixed wall-clock rate while the thread
//! pool runs actual kernels — the acquisition path the paper used on the
//! Origin 2000 ("the sampling frequency of the CPU usage is set to 1 ms").

use crate::cpustat::CpuUsage;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running sampler; stop it to collect the trace.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
    period: Duration,
}

impl Sampler {
    /// Start sampling `usage` every `period` until stopped. The first
    /// sample is taken at once, so [`Sampler::stop`] always returns at
    /// least one.
    pub fn start(usage: Arc<CpuUsage>, period: Duration) -> Self {
        assert!(!period.is_zero(), "sampling period must be non-zero");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cpu-usage-sampler".into())
            .spawn(move || {
                let mut samples = Vec::new();
                let start = Instant::now();
                let mut tick = 0u64;
                // Sample first, then look at the flag.
                loop {
                    samples.push(usage.active() as f64);
                    tick += 1;
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    // Absolute-deadline pacing avoids cumulative drift.
                    let deadline = start + period * tick as u32;
                    let now = Instant::now();
                    if deadline > now {
                        std::thread::sleep(deadline - now);
                    }
                }
                samples
            })
            .expect("failed to spawn sampler thread");
        Sampler {
            stop,
            handle,
            period,
        }
    }

    /// Stop sampling and return the collected samples together with the
    /// sampling period in nanoseconds.
    pub fn stop(self) -> (Vec<f64>, u64) {
        self.stop.store(true, Ordering::Release);
        let samples = self.handle.join().expect("sampler thread panicked");
        (samples, self.period.as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpustat::ActiveCpu;

    #[test]
    fn collects_samples_while_running() {
        let usage = CpuUsage::new();
        let sampler = Sampler::start(Arc::clone(&usage), Duration::from_micros(200));
        {
            let _a = ActiveCpu::enter(&usage);
            let _b = ActiveCpu::enter(&usage);
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(5));
        let (samples, period_ns) = sampler.stop();
        assert_eq!(period_ns, 200_000);
        assert!(samples.len() >= 20, "only {} samples", samples.len());
        // While two guards were alive, the sampler must have seen activity.
        let max = samples.iter().copied().fold(0.0f64, f64::max);
        assert!(max >= 1.0, "no activity observed: max {max}");
        // After the guards dropped, trailing samples return to zero.
        assert_eq!(*samples.last().unwrap(), 0.0);
    }

    #[test]
    fn stop_immediately_is_safe() {
        let usage = CpuUsage::new();
        let sampler = Sampler::start(usage, Duration::from_millis(1));
        let (samples, _) = sampler.stop();
        // At least the first sample is taken before the stop flag is seen.
        assert!(!samples.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_panics() {
        let usage = CpuUsage::new();
        let _ = Sampler::start(usage, Duration::ZERO);
    }
}
