//! The paper-faithful DPD interface (Table 1).
//!
//! | Interface                            | Description                            |
//! |--------------------------------------|----------------------------------------|
//! | `int DPD (long sample, int *period)` | Periodicity detection and segmentation |
//! | `void DPDWindowSize (int size)`      | Adjust data window size                |
//!
//! [`Dpd`] reproduces these semantics on safe Rust: [`Dpd::dpd`] takes the
//! next sample (e.g. the address of an encapsulated parallel-loop function,
//! §5.1), writes the detected periodicity through `period`, and returns
//! nonzero exactly when the sample starts a period — the condition on which
//! the SelfAnalyzer initialises a parallel region (Fig. 6).

use crate::streaming::{SegmentEvent, StreamingDpd};

/// Default initial window size: "the window size N of the periodicity
/// detector should be set initially to a large value" (§3.1); the paper used
/// sizes up to 1024.
pub const DEFAULT_WINDOW: usize = 1024;

/// The DPD object behind the paper's C-style interface.
#[derive(Debug, Clone)]
pub struct Dpd {
    inner: StreamingDpd<i64, crate::metric::EventMetric>,
}

impl Dpd {
    /// Wrap an assembled detector (the [`crate::pipeline::DpdBuilder`]
    /// hook).
    pub(crate) fn from_detector(inner: StreamingDpd<i64, crate::metric::EventMetric>) -> Self {
        Dpd { inner }
    }

    /// `int DPD(long sample, int *period)` — periodicity detection and
    /// segmentation.
    ///
    /// Feeds `sample` to the detector. When the sample starts a period the
    /// detected periodicity is stored in `*period` and a nonzero value is
    /// returned; otherwise `*period` is left untouched and 0 is returned.
    pub fn dpd(&mut self, sample: i64, period: &mut i32) -> i32 {
        match self.inner.push(sample) {
            SegmentEvent::PeriodStart { period: p, .. } => {
                *period = p as i32;
                1
            }
            _ => 0,
        }
    }

    /// Batch variant of [`Dpd::dpd`]: feed a whole slice of samples.
    ///
    /// Returns `(offset, period)` for every sample that started a period,
    /// where `offset` is the sample's position **within `samples`** — the
    /// positional analogue of the per-sample nonzero return. Feeding the
    /// same stream through `dpd_batch` or sample-by-sample [`Dpd::dpd`]
    /// yields identical detections.
    pub fn dpd_batch(&mut self, samples: &[i64]) -> Vec<(usize, i32)> {
        let base = self.inner.stats().samples;
        self.inner
            .push_slice(samples)
            .into_iter()
            .filter_map(|e| match e {
                SegmentEvent::PeriodStart { period, position } => {
                    Some(((position - base) as usize, period as i32))
                }
                _ => None,
            })
            .collect()
    }

    /// `void DPDWindowSize(int size)` — adjust data window size.
    ///
    /// Sizes `<= 0` are ignored (defensive, like the C original); any active
    /// lock is dropped and re-confirmed under the new window.
    pub fn dpd_window_size(&mut self, size: i32) {
        if size > 0 {
            let _ = self.inner.set_window(size as usize);
        }
    }

    /// Current window size `N`.
    pub fn window(&self) -> usize {
        self.inner.window()
    }

    /// Borrow the underlying streaming detector (for statistics and
    /// diagnostics beyond the paper's minimal interface).
    pub fn inner(&self) -> &StreamingDpd<i64, crate::metric::EventMetric> {
        &self.inner
    }
}

impl Default for Dpd {
    fn default() -> Self {
        crate::pipeline::DpdBuilder::new()
            .build_capi()
            .expect("default window is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DpdBuilder;

    fn capi(window: usize) -> Dpd {
        DpdBuilder::new().window(window).build_capi().unwrap()
    }

    #[test]
    fn table1_contract_periodic_stream() {
        let mut dpd = capi(16);
        let mut period: i32 = 0;
        let mut nonzero_returns = 0;
        for i in 0..200usize {
            let sample = [0x1000i64, 0x2000, 0x3000, 0x4000, 0x5000][i % 5];
            if dpd.dpd(sample, &mut period) != 0 {
                nonzero_returns += 1;
                assert_eq!(period, 5);
            }
        }
        assert!(nonzero_returns > 10);
    }

    #[test]
    fn period_untouched_when_return_is_zero() {
        let mut dpd = capi(16);
        let mut period: i32 = -7;
        // Aperiodic stream: return must stay 0 and period must stay -7.
        for i in 0..100i64 {
            assert_eq!(dpd.dpd(i, &mut period), 0);
        }
        assert_eq!(period, -7);
    }

    #[test]
    fn window_size_adjustment() {
        let mut dpd = DpdBuilder::new().build_capi().unwrap();
        assert_eq!(dpd.window(), DEFAULT_WINDOW);
        dpd.dpd_window_size(64);
        assert_eq!(dpd.window(), 64);
        // Non-positive sizes ignored.
        dpd.dpd_window_size(0);
        dpd.dpd_window_size(-5);
        assert_eq!(dpd.window(), 64);
    }

    #[test]
    fn shrinking_window_enables_faster_relock() {
        let mut dpd = capi(512);
        let mut period = 0;
        // Feed exactly enough of a period-6 stream to lock with N=512:
        // needs 512 + 6 samples.
        let mut first_lock = None;
        for i in 0..1200usize {
            let s = [1i64, 2, 3, 4, 5, 6][i % 6];
            if dpd.dpd(s, &mut period) != 0 && first_lock.is_none() {
                first_lock = Some(i);
            }
        }
        let first_lock = first_lock.expect("must lock");
        assert!(first_lock >= 512, "large window cannot lock before filling");
        // Shrink and verify the detector re-locks much faster.
        dpd.dpd_window_size(12);
        let mut relock = None;
        for i in 0..100usize {
            let s = [1i64, 2, 3, 4, 5, 6][i % 6];
            if dpd.dpd(s, &mut period) != 0 {
                relock = Some(i);
                break;
            }
        }
        assert!(relock.is_some(), "must re-lock after shrink");
        assert!(relock.unwrap() < 40, "small window locks quickly");
    }

    #[test]
    fn dpd_batch_matches_per_sample() {
        let data: Vec<i64> = (0..300)
            .map(|i| [0x1000i64, 0x2000, 0x3000, 0x4000, 0x5000][i % 5])
            .collect();
        let mut single = capi(16);
        let mut period = 0i32;
        let mut expected = Vec::new();
        for (i, &s) in data.iter().enumerate() {
            if single.dpd(s, &mut period) != 0 {
                expected.push((i, period));
            }
        }

        let mut batch = capi(16);
        let mut got = Vec::new();
        for (chunk_idx, chunk) in data.chunks(120).enumerate() {
            for (offset, p) in batch.dpd_batch(chunk) {
                got.push((chunk_idx * 120 + offset, p));
            }
        }
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn dpd_batch_offsets_are_chunk_relative() {
        let mut dpd = capi(8);
        let data: Vec<i64> = (0..40).map(|i| [7i64, 8][i % 2]).collect();
        let first = dpd.dpd_batch(&data);
        assert!(!first.is_empty());
        // A second chunk restarts offsets at 0.
        let second = dpd.dpd_batch(&data[..4]);
        for (offset, p) in second {
            assert!(offset < 4);
            assert_eq!(p, 2);
        }
    }

    #[test]
    fn default_is_new() {
        assert_eq!(Dpd::default().window(), DEFAULT_WINDOW);
    }
}
