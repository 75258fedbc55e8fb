//! Sample-history windows.
//!
//! The DPD needs access to the last `N + M` samples of the stream: the data
//! window of size `N` plus `M` additional samples of history so that the
//! shifted sequence `x[n - m]` is available for every delay `m <= M`
//! (see paper §3.1 and the memory discussion referencing \[Freitag00\]).
//! Two implementations are provided:
//!
//! * [`RingWindow`] — a classic modulo-indexed ring buffer with O(1) push and
//!   O(1) random access, for callers that only need point lookups.
//! * [`MirroredHistory`] — every sample is written twice, at `buf[i]` and
//!   `buf[i + cap]`, so the trailing `k <= cap` samples are *always available
//!   as one contiguous slice*. This is the backing store of the incremental
//!   engine's hot path: the per-delay update reads plain slices with no
//!   modulo arithmetic and no wraparound branch, which is what lets LLVM
//!   auto-vectorize the spectrum update (see `crate::incremental`).

/// Fixed-capacity ring buffer over the most recent samples of a stream.
///
/// Samples are addressed by *age*: `ago(0)` is the most recently pushed
/// sample, `ago(1)` the one before it, and so on. This matches the index
/// convention of the paper's distance metric, where the current frame is
/// compared against itself shifted `m` samples into the past.
#[derive(Debug, Clone)]
pub struct RingWindow<T> {
    buf: Vec<T>,
    /// Requested retention capacity. Kept explicitly: `Vec::capacity()` is
    /// allowed to over-allocate, and using it as the logical capacity would
    /// silently retain more samples than configured.
    cap: usize,
    /// Index of the slot that will receive the *next* push.
    head: usize,
    /// Number of valid samples stored (saturates at `cap`).
    len: usize,
    /// Total number of samples ever pushed.
    pushed: u64,
}

impl<T: Copy> RingWindow<T> {
    /// Create a window that retains the last `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingWindow capacity must be non-zero");
        RingWindow {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            len: 0,
            pushed: 0,
        }
    }

    /// Retention capacity of the window.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of valid samples currently retained (`<= capacity`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` until the first push.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` once `capacity` samples have been pushed.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// Total number of samples pushed over the lifetime of the window.
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Append a sample, evicting the oldest one if the window is full.
    #[inline]
    pub fn push(&mut self, sample: T) {
        if self.buf.len() < self.cap {
            self.buf.push(sample);
        } else {
            self.buf[self.head] = sample;
        }
        self.head = (self.head + 1) % self.cap;
        if self.len < self.cap {
            self.len += 1;
        }
        self.pushed += 1;
    }

    /// The sample pushed `age` steps ago (`age == 0` is the newest).
    ///
    /// Returns `None` when fewer than `age + 1` samples are retained.
    #[inline]
    pub fn ago(&self, age: usize) -> Option<T> {
        if age >= self.len {
            return None;
        }
        let cap = self.cap;
        // head points at the next write slot; newest element is head-1.
        let idx = (self.head + cap - 1 - age) % cap;
        Some(self.buf[idx])
    }

    /// Like [`RingWindow::ago`] but without the bounds check.
    ///
    /// Panics on the `debug_assert!` in debug builds, or returns stale data
    /// in release builds, if `age >= len`; callers must uphold
    /// `age < self.len()`.
    #[inline]
    pub fn ago_unchecked(&self, age: usize) -> T {
        debug_assert!(age < self.len, "age {age} out of window (len {})", self.len);
        let cap = self.cap;
        let idx = (self.head + cap - 1 - age) % cap;
        self.buf[idx]
    }

    /// Copy the retained samples into a `Vec`, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for age in (0..self.len).rev() {
            out.push(self.ago_unchecked(age));
        }
        out
    }

    /// Drop all retained samples but keep the capacity and push counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
    }

    /// Overwrite the lifetime push counter (snapshot restore only: the
    /// restored window must report the same `pushed()` as the one that was
    /// serialized, even though its contents were re-pushed here).
    pub(crate) fn set_pushed(&mut self, n: u64) {
        self.pushed = n;
    }
}

/// History buffer whose trailing samples are always one contiguous slice.
///
/// Every pushed sample is written twice — at `buf[i]` and `buf[i + cap]` —
/// so for any `k <= len` the most recent `k` samples occupy the contiguous
/// range `buf[head + cap - k .. head + cap]`, oldest first. Point access
/// needs no modulo: the sample pushed `age` steps ago sits at
/// `buf[head + cap - 1 - age]`.
///
/// The double-write costs one extra store per push; in exchange, bulk
/// consumers (the incremental spectrum kernel) read plain slices that the
/// compiler can auto-vectorize, which is worth far more than the store.
#[derive(Debug, Clone)]
pub struct MirroredHistory<T> {
    /// `2 * cap` slots once initialized; empty until the first push (there
    /// is no `T: Default`, so the backing store is materialized from the
    /// first pushed value). A boxed slice, as it never grows in place: one
    /// word smaller than a `Vec` in every engine.
    buf: Box<[T]>,
    cap: usize,
    /// Next write slot, in `0..cap`.
    head: usize,
    /// Number of valid samples retained (saturates at `cap`).
    len: usize,
    /// Total number of samples ever pushed.
    pushed: u64,
}

impl<T: Copy> MirroredHistory<T> {
    /// Create a history retaining the last `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MirroredHistory capacity must be non-zero");
        MirroredHistory {
            buf: Box::default(),
            cap: capacity,
            head: 0,
            len: 0,
            pushed: 0,
        }
    }

    /// Retention capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of valid samples currently retained (`<= capacity`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` until the first push (or after [`MirroredHistory::clear`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` once `capacity` samples are retained.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// Total number of samples pushed over the lifetime of the history.
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Append a sample, evicting the oldest one if the history is full.
    #[inline]
    pub fn push(&mut self, sample: T) {
        if self.buf.is_empty() {
            // Materialize the backing store from the first value pushed.
            self.buf = vec![sample; 2 * self.cap].into_boxed_slice();
        }
        self.buf[self.head] = sample;
        self.buf[self.head + self.cap] = sample;
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        if self.len < self.cap {
            self.len += 1;
        }
        self.pushed += 1;
    }

    /// The most recent `k` retained samples as one contiguous slice, oldest
    /// first (`tail(k)[k - 1]` is the newest sample).
    ///
    /// # Panics
    /// Panics if `k > self.len()`.
    #[inline]
    pub fn tail(&self, k: usize) -> &[T] {
        assert!(k <= self.len, "tail({k}) exceeds retained len {}", self.len);
        if k == 0 {
            return &[];
        }
        let end = self.head + self.cap;
        &self.buf[end - k..end]
    }

    /// All retained samples as one contiguous slice, oldest first.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        self.tail(self.len)
    }

    /// The sample pushed `age` steps ago (`age == 0` is the newest).
    ///
    /// Returns `None` when fewer than `age + 1` samples are retained.
    #[inline]
    pub fn ago(&self, age: usize) -> Option<T> {
        if age >= self.len {
            return None;
        }
        Some(self.buf[self.head + self.cap - 1 - age])
    }

    /// Copy the retained samples into a `Vec`, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }

    /// Drop all retained samples but keep the capacity and push counter.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Overwrite the lifetime push counter (snapshot restore only; see
    /// [`RingWindow::set_pushed`]).
    pub(crate) fn set_pushed(&mut self, n: u64) {
        self.pushed = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window() {
        let w: RingWindow<i64> = RingWindow::new(4);
        assert!(w.is_empty());
        assert!(!w.is_full());
        assert_eq!(w.len(), 0);
        assert_eq!(w.ago(0), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = RingWindow::<i64>::new(0);
    }

    #[test]
    fn push_and_ago_before_full() {
        let mut w = RingWindow::new(4);
        w.push(1i64);
        w.push(2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.ago(0), Some(2));
        assert_eq!(w.ago(1), Some(1));
        assert_eq!(w.ago(2), None);
    }

    #[test]
    fn eviction_after_full() {
        let mut w = RingWindow::new(3);
        for v in 1..=5i64 {
            w.push(v);
        }
        assert!(w.is_full());
        assert_eq!(w.len(), 3);
        assert_eq!(w.ago(0), Some(5));
        assert_eq!(w.ago(1), Some(4));
        assert_eq!(w.ago(2), Some(3));
        assert_eq!(w.ago(3), None);
        assert_eq!(w.pushed(), 5);
    }

    #[test]
    fn to_vec_is_oldest_first() {
        let mut w = RingWindow::new(3);
        for v in [7i64, 8, 9, 10] {
            w.push(v);
        }
        assert_eq!(w.to_vec(), vec![8, 9, 10]);
    }

    #[test]
    fn clear_preserves_capacity_and_counter() {
        let mut w = RingWindow::new(3);
        w.push(1i64);
        w.push(2);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.pushed(), 2);
        w.push(5);
        assert_eq!(w.ago(0), Some(5));
    }

    #[test]
    fn wraparound_many_pushes() {
        let mut w = RingWindow::new(7);
        for v in 0..1000i64 {
            w.push(v);
        }
        for age in 0..7 {
            assert_eq!(w.ago(age), Some(999 - age as i64));
        }
    }

    #[test]
    fn capacity_is_exactly_as_requested() {
        // Vec::with_capacity may over-allocate; the logical capacity must
        // not follow it. 6 is a size where Vec typically rounds up.
        let mut w = RingWindow::new(6);
        assert_eq!(w.capacity(), 6);
        for v in 0..100i64 {
            w.push(v);
        }
        assert_eq!(w.len(), 6);
        assert_eq!(w.to_vec(), (94..100).collect::<Vec<i64>>());
        assert_eq!(w.ago(6), None, "retains exactly 6 samples, not more");
    }

    // --- MirroredHistory ---

    #[test]
    fn mirrored_empty() {
        let h: MirroredHistory<i64> = MirroredHistory::new(4);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.ago(0), None);
        assert_eq!(h.as_slice(), &[] as &[i64]);
        assert_eq!(h.tail(0), &[] as &[i64]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn mirrored_zero_capacity_panics() {
        let _ = MirroredHistory::<i64>::new(0);
    }

    #[test]
    fn mirrored_tail_is_contiguous_after_wraparound() {
        let mut h = MirroredHistory::new(5);
        for v in 0..137i64 {
            h.push(v);
            let len = h.len();
            // The full retained slice is always oldest..newest.
            let expect: Vec<i64> = ((v + 1 - len as i64)..=v).collect();
            assert_eq!(h.as_slice(), &expect[..], "after push {v}");
            // Every tail length agrees with ago().
            for k in 0..=len {
                let t = h.tail(k);
                assert_eq!(t.len(), k);
                for (i, &tv) in t.iter().enumerate() {
                    assert_eq!(Some(tv), h.ago(k - 1 - i));
                }
            }
        }
        assert_eq!(h.pushed(), 137);
    }

    #[test]
    #[should_panic(expected = "exceeds retained")]
    fn mirrored_tail_beyond_len_panics() {
        let mut h = MirroredHistory::new(4);
        h.push(1i64);
        let _ = h.tail(2);
    }

    #[test]
    fn mirrored_matches_ring_window_semantics() {
        let mut ring = RingWindow::new(7);
        let mut mir = MirroredHistory::new(7);
        for v in 0..200i64 {
            ring.push(v * v % 31);
            mir.push(v * v % 31);
            assert_eq!(ring.to_vec(), mir.to_vec());
            assert_eq!(ring.len(), mir.len());
            for age in 0..10 {
                assert_eq!(ring.ago(age), mir.ago(age));
            }
        }
    }

    #[test]
    fn mirrored_clear_keeps_counter() {
        let mut h = MirroredHistory::new(4);
        h.push(1i64);
        h.push(2);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pushed(), 2);
        h.push(9);
        assert_eq!(h.to_vec(), vec![9]);
    }
}
