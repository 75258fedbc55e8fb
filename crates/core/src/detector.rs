//! Frame-based (off-line) periodicity analysis.
//!
//! [`FrameDetector`] computes the full `d(m)` spectrum for the trailing frame
//! of a slice exactly as defined by equations (1)/(2) and extracts the
//! periodicities from it. This is the analysis behind the paper's Figure 4
//! (the d(m) curve of the NAS FT CPU-usage trace with its local minimum at
//! m = 44); the on-line streaming detector lives in [`crate::streaming`].

use crate::metric::{direct_distance, Metric};
use crate::minima::{MinimaPolicy, Minimum};
use crate::spectrum::Spectrum;

/// Result of analysing one frame of data.
#[derive(Debug, Clone)]
pub struct PeriodicityReport {
    /// The full distance spectrum `d(m)`, `m = 1..=M`.
    pub spectrum: Spectrum,
    /// All accepted local minima, delay ascending.
    pub minima: Vec<Minimum>,
    /// The fundamental periodicity (harmonics folded), if any.
    pub fundamental: Option<Minimum>,
}

impl PeriodicityReport {
    /// Convenience: the fundamental period length, if detected.
    pub fn period(&self) -> Option<usize> {
        self.fundamental.map(|m| m.delay)
    }

    /// All detected period lengths after folding harmonics.
    pub fn periods(&self) -> Vec<usize> {
        let delays: Vec<usize> = self.minima.iter().map(|m| m.delay).collect();
        Spectrum::fold_harmonics(&delays)
    }
}

/// Off-line, frame-based periodicity detector.
///
/// # Examples
/// ```
/// use dpd_core::detector::FrameDetector;
///
/// // Event stream (loop addresses) with period 3.
/// let data: Vec<i64> = (0..64).map(|i| [7, 8, 9][i % 3]).collect();
/// let report = FrameDetector::events(16).analyze(&data).unwrap();
/// assert_eq!(report.period(), Some(3));
///
/// // Magnitude stream (sampled values) with period 4.
/// let cpu: Vec<f64> = (0..120).map(|i| [1.0, 8.0, 16.0, 4.0][i % 4]).collect();
/// let report = FrameDetector::magnitudes(32, 0.5).analyze(&cpu).unwrap();
/// assert_eq!(report.period(), Some(4));
/// ```
#[derive(Debug, Clone)]
pub struct FrameDetector<M> {
    metric: M,
    frame: usize,
    m_max: usize,
    policy: MinimaPolicy,
}

impl<M: Clone> FrameDetector<M> {
    /// Create a detector with frame size `n` and maximum delay `m_max`.
    pub fn new(metric: M, n: usize, m_max: usize, policy: MinimaPolicy) -> crate::Result<Self> {
        if n == 0 {
            return Err(crate::DpdError::InvalidWindow(n));
        }
        if m_max == 0 || m_max > n {
            return Err(crate::DpdError::InvalidMaxDelay { m_max, window: n });
        }
        Ok(FrameDetector {
            metric,
            frame: n,
            m_max,
            policy,
        })
    }

    /// Frame size `N`.
    pub fn frame(&self) -> usize {
        self.frame
    }

    /// Maximum candidate delay `M`.
    pub fn m_max(&self) -> usize {
        self.m_max
    }

    /// The minima-acceptance policy in force.
    pub fn policy(&self) -> MinimaPolicy {
        self.policy
    }
}

impl<M: Clone> FrameDetector<M> {
    /// Compute the spectrum for the trailing frame of `data`.
    ///
    /// `d(m)` is marked complete only when `data` contains the full `N + m`
    /// samples needed; shorter prefixes produce partial (excluded) entries.
    /// Errors when even `d(1)` cannot be formed (`data.len() < N + 1`).
    pub fn spectrum<T: Copy>(&self, data: &[T]) -> crate::Result<Spectrum>
    where
        M: Metric<T>,
    {
        if data.len() < self.frame + 1 {
            return Err(crate::DpdError::StreamTooShort {
                needed: self.frame + 1,
                got: data.len(),
            });
        }
        let mut values = Vec::with_capacity(self.m_max);
        let mut pairs = Vec::with_capacity(self.m_max);
        for m in 1..=self.m_max {
            match direct_distance(&self.metric, data, self.frame, m) {
                Some(d) => {
                    values.push(d);
                    pairs.push(self.frame as u32);
                }
                None => {
                    // Not enough history for this delay: partial frame using
                    // whatever pairs exist.
                    let avail = data.len().saturating_sub(m).min(self.frame);
                    if avail == 0 {
                        values.push(f64::INFINITY);
                        pairs.push(0);
                        continue;
                    }
                    let end = data.len();
                    let mut sum = 0.0;
                    for i in (end - avail)..end {
                        sum += self.metric.pair(data[i], data[i - m]);
                    }
                    values.push(self.metric.finalize(sum, avail));
                    pairs.push(avail as u32);
                }
            }
        }
        Ok(Spectrum::from_parts(values, pairs, self.frame))
    }

    /// Analyse the trailing frame of `data` and extract periodicities.
    pub fn analyze<T: Copy>(&self, data: &[T]) -> crate::Result<PeriodicityReport>
    where
        M: Metric<T>,
    {
        let spectrum = self.spectrum(data)?;
        let minima = self.policy.extract(&spectrum);
        let fundamental = self.policy.fundamental(&spectrum);
        Ok(PeriodicityReport {
            spectrum,
            minima,
            fundamental,
        })
    }
}

impl FrameDetector<crate::metric::EventMetric> {
    /// Event-stream detector (equation 2) with the exact-zero policy.
    ///
    /// # Panics
    /// Panics if `n` is zero; [`FrameDetector::new`] reports that as an
    /// error instead.
    pub fn events(n: usize) -> Self {
        FrameDetector::new(crate::metric::EventMetric, n, n, MinimaPolicy::exact())
            .expect("frame size must be non-zero")
    }
}

impl FrameDetector<crate::metric::L1Metric> {
    /// Magnitude-stream detector (equation 1) with a relative-minimum policy.
    ///
    /// # Panics
    /// Panics if `n` is zero; [`FrameDetector::new`] reports that as an
    /// error instead.
    pub fn magnitudes(n: usize, relative_threshold: f64) -> Self {
        FrameDetector::new(
            crate::metric::L1Metric,
            n,
            n,
            MinimaPolicy::relative(relative_threshold),
        )
        .expect("frame size must be non-zero")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::EventMetric;

    #[test]
    fn event_frame_detects_exact_period() {
        let data: Vec<i64> = (0..64).map(|i| [10, 20, 30, 40, 50][i % 5]).collect();
        let det = FrameDetector::events(16);
        let report = det.analyze(&data).unwrap();
        assert_eq!(report.period(), Some(5));
        assert_eq!(report.periods(), vec![5]);
        assert_eq!(report.spectrum.zeros(), vec![5, 10, 15]);
    }

    #[test]
    fn magnitude_frame_detects_noisy_period() {
        // Period-8 sine with small additive deterministic "noise".
        let data: Vec<f64> = (0..200)
            .map(|i| {
                let base = (i as f64 * std::f64::consts::TAU / 8.0).sin() * 10.0;
                let noise = ((i * 7919) % 13) as f64 * 0.05;
                base + noise
            })
            .collect();
        let det = FrameDetector::magnitudes(64, 0.5);
        let report = det.analyze(&data).unwrap();
        assert_eq!(report.period(), Some(8));
    }

    #[test]
    fn aperiodic_stream_yields_no_fundamental() {
        // A strictly increasing ramp has no repeating pattern.
        let data: Vec<i64> = (0..100).collect();
        let det = FrameDetector::events(32);
        let report = det.analyze(&data).unwrap();
        assert_eq!(report.period(), None);
        assert!(report.minima.is_empty());
    }

    #[test]
    fn too_short_slice_errors() {
        let data = [1i64, 2, 3];
        let det = FrameDetector::events(8);
        assert!(matches!(
            det.analyze(&data),
            Err(crate::DpdError::StreamTooShort { .. })
        ));
    }

    #[test]
    fn partial_delays_are_marked_incomplete() {
        // 20 samples, frame 16: only m <= 4 has a full frame.
        let data: Vec<i64> = (0..20).map(|i| [1, 2][i % 2]).collect();
        let det = FrameDetector::events(16);
        let spec = det.spectrum(&data).unwrap();
        assert!(spec.is_complete_at(4));
        assert!(!spec.is_complete_at(5));
        // Even though the stream is 2-periodic, the incomplete zero at higher
        // delays must not be reported as a detection:
        let report = det.analyze(&data).unwrap();
        assert_eq!(report.period(), Some(2));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(FrameDetector::new(EventMetric, 0, 1, MinimaPolicy::exact()).is_err());
        assert!(FrameDetector::new(EventMetric, 4, 0, MinimaPolicy::exact()).is_err());
        assert!(FrameDetector::new(EventMetric, 4, 8, MinimaPolicy::exact()).is_err());
    }

    #[test]
    fn nested_stream_reports_both_periods() {
        // Outer period 12 containing an inner 3-pattern repeated 3 times
        // plus a distinct 3-sample tail: [a b c a b c a b c x y z] repeated.
        let pattern: [i64; 12] = [1, 2, 3, 1, 2, 3, 1, 2, 3, 7, 8, 9];
        let data: Vec<i64> = (0..120).map(|i| pattern[i % 12]).collect();
        let det = FrameDetector::events(48);
        let report = det.analyze(&data).unwrap();
        // Full-window exact zeros exist only at 12, 24, 36, 48 -> fundamental 12.
        assert_eq!(report.period(), Some(12));
    }

    #[test]
    fn l1_detector_sees_amplitude_scaled_stream() {
        let base: Vec<f64> = (0..120).map(|i| [0.0, 4.0, 8.0, 4.0][i % 4]).collect();
        let det = FrameDetector::magnitudes(32, 0.5);
        assert_eq!(det.analyze(&base).unwrap().period(), Some(4));
        let scaled: Vec<f64> = base.iter().map(|v| v * 1000.0).collect();
        assert_eq!(det.analyze(&scaled).unwrap().period(), Some(4));
    }
}
