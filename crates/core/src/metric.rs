//! The paper's two distance metrics (Figures 1 and 2).
//!
//! Both metrics compare the current data window `x[n]` against the same
//! stream delayed by `m` samples:
//!
//! * [`L1Metric`], equation (1): the per-sample L1 distance averaged over the
//!   window — `d(m) = (1/N) Σ |x[n] - x[n-m]|`. Used for streams whose sample
//!   values carry a *magnitude* (CPU counts, hardware-counter deltas).
//! * [`EventMetric`], equation (2): `d(m) = sign(Σ |x(i) - x(i-m)|)`. Used
//!   for streams whose sample values are *identifiers* (function addresses):
//!   the only meaningful comparison is equality, and `d(m) = 0` holds exactly
//!   when the two windows are identical.
//!
//! The trait is split into a per-pair contribution ([`Metric::pair`]) and a
//! finalization step ([`Metric::finalize`]) so that the incremental engine in
//! [`crate::incremental`] can maintain the running pair-sums for every delay
//! `m` in O(M) per pushed sample.

/// A distance metric between a window and its `m`-delayed copy.
///
/// Implementations must guarantee `pair(a, a) == 0.0` and
/// `pair(a, b) >= 0.0`: the incremental engine relies on a zero pair-sum
/// being equivalent to "all compared pairs were identical".
pub trait Metric<T>: Clone {
    /// Contribution of one aligned sample pair `(x[n], x[n-m])` to the sum.
    fn pair(&self, current: T, delayed: T) -> f64;

    /// Turn the accumulated pair-sum over `n_pairs` pairs into `d(m)`.
    fn finalize(&self, pair_sum: f64, n_pairs: usize) -> f64;

    /// `true` when `d(m) == 0` should be interpreted as an exact periodicity
    /// (event streams) rather than merely a strong minimum.
    fn exact(&self) -> bool;
}

/// Equation (1): windowed, averaged L1 distance for magnitude streams.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct L1Metric;

impl Metric<f64> for L1Metric {
    #[inline]
    fn pair(&self, current: f64, delayed: f64) -> f64 {
        (current - delayed).abs()
    }

    #[inline]
    fn finalize(&self, pair_sum: f64, n_pairs: usize) -> f64 {
        if n_pairs == 0 {
            f64::INFINITY
        } else {
            pair_sum / n_pairs as f64
        }
    }

    #[inline]
    fn exact(&self) -> bool {
        false
    }
}

impl Metric<i64> for L1Metric {
    #[inline]
    fn pair(&self, current: i64, delayed: i64) -> f64 {
        // Use wrapping-free widening: i64 difference can overflow i64 but
        // fits in i128.
        ((current as i128) - (delayed as i128)).unsigned_abs() as f64
    }

    #[inline]
    fn finalize(&self, pair_sum: f64, n_pairs: usize) -> f64 {
        if n_pairs == 0 {
            f64::INFINITY
        } else {
            pair_sum / n_pairs as f64
        }
    }

    #[inline]
    fn exact(&self) -> bool {
        false
    }
}

/// Equation (2): sign-of-mismatch-count metric for event streams.
///
/// The pair contribution is `1.0` for a mismatch and `0.0` for a match, so
/// the pair-sum is the (exactly representable) number of mismatching
/// positions; `finalize` applies `sign()`, collapsing the sum to `0.0` or
/// `1.0` exactly as in the paper's Figure 2.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventMetric;

impl<T: PartialEq + Copy> Metric<T> for EventMetric {
    #[inline]
    fn pair(&self, current: T, delayed: T) -> f64 {
        if current == delayed {
            0.0
        } else {
            1.0
        }
    }

    #[inline]
    fn finalize(&self, pair_sum: f64, n_pairs: usize) -> f64 {
        // No pairs counts as "not periodic" (1.0), like any nonzero sum.
        if n_pairs == 0 || pair_sum > 0.0 {
            1.0
        } else {
            0.0
        }
    }

    #[inline]
    fn exact(&self) -> bool {
        true
    }
}

/// Compute `d(m)` of a slice directly from the definition (no incremental
/// state). The frame is the trailing `n` samples of `data`; the delayed
/// samples `x[n-m]` come from the preceding history inside `data`.
///
/// Returns `None` when `data` is too short to form `n` pairs at delay `m`
/// (i.e. `data.len() < n + m`).
pub fn direct_distance<T: Copy, M: Metric<T>>(
    metric: &M,
    data: &[T],
    n: usize,
    m: usize,
) -> Option<f64> {
    if m == 0 || n == 0 || data.len() < n + m {
        return None;
    }
    let end = data.len();
    let mut sum = 0.0;
    for i in (end - n)..end {
        sum += metric.pair(data[i], data[i - m]);
    }
    Some(metric.finalize(sum, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_pair_is_abs_difference() {
        let m = L1Metric;
        assert_eq!(Metric::<f64>::pair(&m, 3.0, 5.0), 2.0);
        assert_eq!(Metric::<f64>::pair(&m, 5.0, 3.0), 2.0);
        assert_eq!(Metric::<f64>::pair(&m, 4.0, 4.0), 0.0);
    }

    #[test]
    fn l1_i64_pair_handles_extremes() {
        let m = L1Metric;
        let d = Metric::<i64>::pair(&m, i64::MAX, i64::MIN);
        assert!(d > 1.8e19); // 2^64-ish, would overflow i64
    }

    #[test]
    fn l1_finalize_averages() {
        let m = L1Metric;
        assert_eq!(Metric::<f64>::finalize(&m, 10.0, 5), 2.0);
    }

    #[test]
    fn l1_finalize_empty_is_infinite() {
        let m = L1Metric;
        assert_eq!(Metric::<f64>::finalize(&m, 0.0, 0), f64::INFINITY);
    }

    #[test]
    fn event_metric_is_sign() {
        let m = EventMetric;
        assert_eq!(Metric::<i64>::finalize(&m, 0.0, 7), 0.0);
        assert_eq!(Metric::<i64>::finalize(&m, 3.0, 7), 1.0);
    }

    #[test]
    fn event_pair_is_equality_indicator() {
        let m = EventMetric;
        assert_eq!(Metric::<i64>::pair(&m, 42, 42), 0.0);
        assert_eq!(Metric::<i64>::pair(&m, 42, 43), 1.0);
    }

    #[test]
    fn direct_distance_periodic_stream_is_zero() {
        // period 3 stream, long enough for n=6, m=3
        let data: Vec<i64> = (0..12).map(|i| [7, 8, 9][i % 3]).collect();
        let d = direct_distance(&EventMetric, &data, 6, 3).unwrap();
        assert_eq!(d, 0.0);
        // non-period delay must be nonzero
        let d2 = direct_distance(&EventMetric, &data, 6, 2).unwrap();
        assert_eq!(d2, 1.0);
    }

    #[test]
    fn direct_distance_needs_history() {
        let data = [1i64, 2, 3, 1, 2];
        assert!(direct_distance(&EventMetric, &data, 4, 3).is_none());
        assert!(direct_distance(&EventMetric, &data, 0, 1).is_none());
        assert!(direct_distance(&EventMetric, &data, 2, 0).is_none());
    }

    #[test]
    fn direct_distance_l1_matches_hand_computation() {
        // data: [0, 1, 2, 3, 10], frame n=2 (values 3, 10), delay m=2
        // pairs: |3-1| + |10-2| = 10; d = 10/2 = 5
        let data = [0.0, 1.0, 2.0, 3.0, 10.0];
        let d = direct_distance(&L1Metric, &data, 2, 2).unwrap();
        assert_eq!(d, 5.0);
    }
}
