//! Incremental maintenance of the full `d(m)` spectrum.
//!
//! A naive implementation recomputes equation (1)/(2) from scratch for every
//! delay after each new sample — `O(N * M)` per sample, far too expensive for
//! the "negligible overhead" the paper reports (Table 3: ~4 µs per element on
//! 2001 hardware, including trace handling). [`IncrementalEngine`] instead
//! maintains, for every delay `m`, the running pair-sum
//! `S_m = Σ_{k=0}^{N-1} pair(x[t-k], x[t-k-m])` and updates all of them in
//! `O(M)` per pushed sample:
//!
//! * the newly formed pair `(x[t], x[t-m])` enters the frame,
//! * the pair `(x[t-N], x[t-N-m])` leaves it.
//!
//! # Hot-path layout
//!
//! History lives in a [`MirroredHistory`]: every sample is stored twice so
//! the trailing `N + M + k` samples are always one contiguous slice — no
//! modulo indexing, no wraparound branch. The sums are stored in
//! **descending delay order** (slot `M - m` holds delay `m`), the order in
//! which the delayed samples `x[t-M], …, x[t-1]` sit in history. Every
//! per-sample pass over the delays is then one forward, branch-free loop
//! over zipped slices, which LLVM auto-vectorizes:
//!
//! * **steady state** (once `N + M` samples are retained): every delay
//!   gains one incoming pair and sheds one outgoing pair — one loop over
//!   `sums` zipped with two history slices;
//! * **warmup** (the first `N + M` samples after construction, reset or a
//!   reconfigure): after `t` retained samples, the incoming pair exists
//!   for delays `m <= min(t-1, M)` and an outgoing pair for
//!   `m <= min(t-1-N, M)` — two range loops over contiguous runs of slots;
//! * **the zero test** ([`IncrementalEngine::first_zero`], equation (2)
//!   after every sample): the complete delays `1..=min(len-N, M)` are the
//!   last slots, scanned from delay 1 upwards 16 at a time with a
//!   branch-free compare per chunk.
//!
//! No per-delay pair counts are stored: delay `m` over `len` retained
//! samples always holds `min(len - m, N)` pairs, which is all
//! [`IncrementalEngine::is_complete`], [`IncrementalEngine::distance`] and
//! [`IncrementalEngine::spectrum`] need.
//!
//! [`IncrementalEngine::push_slice`] feeds whole slices: warmup samples go
//! through the per-sample path, after which samples are ingested in
//! cache-sized blocks (history written first, then one fused pass per block)
//! amortizing per-push bookkeeping. Block processing preserves the exact
//! per-accumulator floating-point operation order of sample-by-sample
//! `push` (`+= incoming`, then `-= outgoing`, in stream order), so batch and
//! per-sample ingestion produce **bit-identical** spectra — a property the
//! test suite checks with property tests.
//!
//! For the event metric the pair contributions are exact small integers, so
//! the running sums never drift. For the floating-point L1 metric the engine
//! optionally re-derives all sums from the retained history every
//! `resync_interval` pushes to bound accumulated rounding error; batch
//! ingestion splits blocks at resync boundaries so the resync points are
//! sample-exact.

use crate::metric::Metric;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::spectrum::Spectrum;
use crate::window::MirroredHistory;

/// Block length for steady-state batch ingestion. Sized so the working set
/// (history slice of `N + M + BLOCK` samples plus the `M`-entry sums array)
/// stays cache-resident for the window sizes the paper uses (`N <= 1024`).
const STEADY_BLOCK: usize = 64;

/// Delays per chunk of the [`IncrementalEngine::first_zero`] scan.
const ZERO_SCAN: usize = 16;

/// Configuration of an [`IncrementalEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Frame size `N`: number of pairs summed per delay.
    pub frame: usize,
    /// Largest candidate delay `M` (`0 < M <= N` per the paper §3.1).
    pub m_max: usize,
    /// Recompute the sums from history every this many pushes (`0` = never).
    /// Only useful for inexact metrics; exact metrics never drift.
    pub resync_interval: u64,
}

impl EngineConfig {
    /// The paper's guidance: `M = N` candidates over a window of `N`.
    pub fn square(n: usize) -> Self {
        EngineConfig {
            frame: n,
            m_max: n,
            resync_interval: 0,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> crate::Result<()> {
        if self.frame == 0 {
            return Err(crate::DpdError::InvalidWindow(self.frame));
        }
        if self.m_max == 0 || self.m_max > self.frame {
            return Err(crate::DpdError::InvalidMaxDelay {
                m_max: self.m_max,
                window: self.frame,
            });
        }
        Ok(())
    }

    /// History retention backing this configuration: the frame, the deepest
    /// delayed access, and one steady-state ingestion block.
    fn history_capacity(&self) -> usize {
        self.frame + self.m_max + STEADY_BLOCK
    }
}

/// Pairs summed for delay `m` over `len` retained samples with frame `n`:
/// each sample at least `m` steps younger than the oldest forms one, up to
/// a full frame.
#[inline]
fn pair_count(len: usize, m: usize, n: usize) -> usize {
    len.saturating_sub(m).min(n)
}

/// Bit `i` set when `chunk[i] == 0.0`: one vector compare per chunk.
#[inline]
fn zero_mask(chunk: &[f64; ZERO_SCAN]) -> u32 {
    chunk
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &s)| mask | (u32::from(s == 0.0) << i))
}

/// O(M)-per-sample sliding computation of `d(m)` for all `m <= M`.
#[derive(Debug, Clone)]
pub struct IncrementalEngine<T, M: Metric<T>> {
    metric: M,
    config: EngineConfig,
    /// Last `N + M + STEADY_BLOCK` samples, mirrored for contiguous reads.
    history: MirroredHistory<T>,
    /// Running pair-sums in descending delay order: slot `M - m` holds
    /// delay `m`.
    sums: Vec<f64>,
    /// Total samples pushed.
    pushed: u64,
}

impl<T: Copy, M: Metric<T>> IncrementalEngine<T, M> {
    /// Create an engine with the given metric and configuration.
    pub fn new(metric: M, config: EngineConfig) -> crate::Result<Self> {
        config.validate()?;
        Ok(IncrementalEngine {
            metric,
            history: MirroredHistory::new(config.history_capacity()),
            sums: vec![0.0; config.m_max],
            config,
            pushed: 0,
        })
    }

    /// The engine's configuration.
    #[inline]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Total samples pushed so far.
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Number of samples needed before *all* delays have complete frames:
    /// `N + M` (the frame plus the deepest delayed access).
    #[inline]
    pub fn warmup_len(&self) -> usize {
        self.config.frame + self.config.m_max
    }

    /// `true` once every delay has a full frame of pairs.
    #[inline]
    pub fn is_warm(&self) -> bool {
        self.pushed as usize >= self.warmup_len()
    }

    /// `true` when the *next* push takes the branch-free steady-state path:
    /// every delay both gains an incoming pair and sheds an outgoing one.
    #[inline]
    fn next_push_is_steady(&self) -> bool {
        self.history.len() >= self.warmup_len()
    }

    /// Pairs currently summed for delay `m` (`1 <= m <= M`).
    #[inline]
    fn pairs(&self, m: usize) -> usize {
        pair_count(self.history.len(), m, self.config.frame)
    }

    /// Number of complete delays: exactly `1..=complete_delays()` hold a
    /// full frame of `N` pairs.
    #[inline]
    fn complete_delays(&self) -> usize {
        self.history
            .len()
            .saturating_sub(self.config.frame)
            .min(self.config.m_max)
    }

    /// Push one sample, updating every `d(m)` in O(M).
    #[inline]
    pub fn push(&mut self, sample: T) {
        if self.next_push_is_steady() {
            self.history.push(sample);
            self.pushed += 1;
            self.steady_update(1);
        } else {
            self.warm_push(sample);
        }
        self.maybe_resync();
    }

    /// Push a whole slice of samples, semantically identical to calling
    /// [`IncrementalEngine::push`] for each element — including bit-identical
    /// floating-point sums — but ingested in cache-sized blocks once the
    /// engine is warm.
    pub fn push_slice(&mut self, samples: &[T]) {
        let mut rest = samples;

        // Warmup: per-sample range loops until every delay is complete.
        while !rest.is_empty() && !self.next_push_is_steady() {
            self.warm_push(rest[0]);
            self.maybe_resync();
            rest = &rest[1..];
        }

        // Steady state: blocks, split at resync boundaries so inexact
        // metrics resynchronize at exactly the same stream positions as
        // sample-by-sample ingestion.
        let interval = self.config.resync_interval;
        while !rest.is_empty() {
            let mut block = rest.len().min(STEADY_BLOCK);
            if interval > 0 {
                let until_boundary = interval - (self.pushed % interval);
                block = block.min(until_boundary as usize);
            }
            let (now, later) = rest.split_at(block);
            self.history.extend_from_slice(now);
            self.pushed += block as u64;
            self.steady_update(block);
            if interval > 0 && self.pushed.is_multiple_of(interval) {
                self.resync();
            }
            rest = later;
        }
    }

    /// Warmup-path push, for the first `N + M` samples after construction,
    /// [`IncrementalEngine::reset`] or a reconfigure. With `t` samples
    /// retained after the push, the incoming pair `(x[t], x[t-m])` exists
    /// for `m <= min(t-1, M)` and the outgoing pair `(x[t-N], x[t-N-m])`
    /// for `m <= min(t-1-N, M)`, the delays whose frame was already full.
    /// Both are contiguous runs of slots, so each is one forward loop;
    /// every accumulator still sees `+= incoming` before `-= outgoing`.
    fn warm_push(&mut self, sample: T) {
        let n = self.config.frame;
        let m_max = self.config.m_max;
        self.history.push(sample);
        self.pushed += 1;
        let h = self.history.as_slice();
        let newest = h.len() - 1; // index of x[t]; x[t-m] is h[newest - m]
        let metric = &self.metric;

        let k_in = newest.min(m_max);
        let cur = h[newest];
        for (s, &d) in self.sums[m_max - k_in..]
            .iter_mut()
            .zip(&h[newest - k_in..newest])
        {
            *s += metric.pair(cur, d);
        }

        if let Some(out) = newest.checked_sub(n) {
            // h[out] is x[t-N]; x[t-N-m] is h[out - m].
            let k_out = out.min(m_max);
            let out_cur = h[out];
            for (s, &d) in self.sums[m_max - k_out..]
                .iter_mut()
                .zip(&h[out - k_out..out])
            {
                *s -= metric.pair(out_cur, d);
            }
        }
    }

    /// Steady-state spectrum update for the trailing `block` samples already
    /// written to history. For each sample the per-delay work is a pure
    /// streaming kernel: broadcast the incoming/outgoing anchors, zip the
    /// sums forward with the two history slices holding `x[t-M..t-1]` and
    /// `x[t-N-M..t-N-1]`, accumulate. No branches, no modulo —
    /// auto-vectorizable.
    ///
    /// Per accumulator the operation order is identical to sample-by-sample
    /// ingestion (`+= incoming` then `-= outgoing`, in stream order), so
    /// results are bit-identical to repeated `push`.
    fn steady_update(&mut self, block: usize) {
        let n = self.config.frame;
        let m_max = self.config.m_max;
        let h = self.history.tail(n + m_max + block);
        let metric = &self.metric;
        for i in 0..block {
            // Stream indices within `h`: current sample at n + m_max + i.
            let cur = h[n + m_max + i];
            let out_cur = h[m_max + i];
            // Slot j holds delay m_max - j: delayed[j] == x[t - m] and
            // out_delayed[j] == x[t - N - m].
            let delayed = &h[n + i..n + m_max + i];
            let out_delayed = &h[i..m_max + i];
            for ((s, &d_in), &d_out) in self.sums.iter_mut().zip(delayed).zip(out_delayed) {
                *s += metric.pair(cur, d_in);
                *s -= metric.pair(out_cur, d_out);
            }
        }
    }

    #[inline]
    fn maybe_resync(&mut self) {
        if self.config.resync_interval > 0
            && self.pushed.is_multiple_of(self.config.resync_interval)
        {
            self.resync();
        }
    }

    /// Recompute all running sums from the retained history. Bounds
    /// floating-point drift for inexact metrics; a no-op semantically.
    pub fn resync(&mut self) {
        let n = self.config.frame;
        let m_max = self.config.m_max;
        let h = self.history.as_slice();
        let avail = h.len();
        for m in 1..=m_max {
            // Pairs exist for current ages 0..pairs.
            let mut sum = 0.0;
            for age in 0..pair_count(avail, m, n) {
                sum += self.metric.pair(h[avail - 1 - age], h[avail - 1 - age - m]);
            }
            self.sums[m_max - m] = sum;
        }
    }

    /// Current `d(m)`; `None` for out-of-range `m` or when no pairs exist.
    pub fn distance(&self, m: usize) -> Option<f64> {
        let sum = self.pair_sum(m)?;
        let pairs = self.pairs(m);
        (pairs > 0).then(|| self.metric.finalize(sum, pairs))
    }

    /// `true` when delay `m` currently has a full frame of `N` pairs.
    pub fn is_complete(&self, m: usize) -> bool {
        (1..=self.complete_delays()).contains(&m)
    }

    /// Raw pair-sum at delay `m` (mismatch count for event metrics).
    pub fn pair_sum(&self, m: usize) -> Option<f64> {
        (1..=self.config.m_max)
            .contains(&m)
            .then(|| self.sums[self.config.m_max - m])
    }

    /// Snapshot the current spectrum.
    pub fn spectrum(&self) -> Spectrum {
        let m_max = self.config.m_max;
        let (values, pairs) = (1..=m_max)
            .map(|m| {
                let p = self.pairs(m);
                (self.metric.finalize(self.sums[m_max - m], p), p as u32)
            })
            .unzip();
        Spectrum::from_parts(values, pairs, self.config.frame)
    }

    /// Smallest delay whose full-frame distance is exactly zero, if any.
    ///
    /// For the event metric this is the paper's equation-(2) detection: "if
    /// d(m) = 0, then a periodic pattern with dimension m is detected".
    /// Only the complete delays `1..=min(len - N, M)` qualify; they are the
    /// last slots of `sums`, scanned from delay 1 upwards in chunks of 16
    /// whose zero test is one branch-free compare.
    pub fn first_zero(&self) -> Option<usize> {
        let complete = &self.sums[self.config.m_max - self.complete_delays()..];
        // complete[j] holds delay complete.len() - j.
        let (head, chunks) = complete.as_rchunks::<ZERO_SCAN>();
        for (c, chunk) in chunks.iter().rev().enumerate() {
            let mask = zero_mask(chunk);
            if mask != 0 {
                // chunk[i] holds delay ZERO_SCAN * (c + 1) - i; the highest
                // set bit is the smallest delay.
                let i = (u32::BITS - 1 - mask.leading_zeros()) as usize;
                return Some(ZERO_SCAN * (c + 1) - i);
            }
        }
        head.iter()
            .rposition(|&s| s == 0.0)
            .map(|j| complete.len() - j)
    }

    /// Reconfigure frame size and maximum delay, preserving as much history
    /// as the new capacity allows, and rebuild the sums. O(N*M).
    pub fn reconfigure(&mut self, config: EngineConfig) -> crate::Result<()> {
        config.validate()?;
        self.config = config;
        self.history.resize(config.history_capacity());
        self.sums.resize(config.m_max, 0.0);
        self.resync();
        Ok(())
    }

    /// Forget all history and sums (e.g. after a detected phase change).
    pub fn reset(&mut self) {
        self.history.clear();
        self.sums.fill(0.0);
    }

    /// Return to the exact as-constructed state — including the lifetime
    /// push counters, which [`IncrementalEngine::reset`] deliberately
    /// keeps — while retaining every buffer allocation. An engine after
    /// `reset_fresh` is observably (and serialization-byte) identical to
    /// `IncrementalEngine::new` with the same metric and config; the
    /// stream-table hot-state pool relies on that to recycle detectors
    /// without reallocating.
    pub(crate) fn reset_fresh(&mut self) {
        self.reset();
        self.history.set_pushed(0);
        self.pushed = 0;
    }

    /// Access the retained history, oldest first (test/diagnostic helper).
    pub fn history_vec(&self) -> Vec<T> {
        self.history.to_vec()
    }

    /// The retained sample pushed `age` steps ago (`0` = newest).
    #[inline]
    pub fn history_ago(&self, age: usize) -> Option<T> {
        self.history.ago(age)
    }

    /// Borrow the metric driving this engine.
    #[inline]
    pub fn metric_ref(&self) -> &M {
        &self.metric
    }

    /// Serialize the engine state (not the configuration — the caller owns
    /// that) into `w`. `put` encodes one sample of `T`. The sums are
    /// written in ascending delay order, followed by each delay's pair
    /// count as a varint.
    pub fn snapshot_state(&self, w: &mut SnapshotWriter, put: &impl Fn(&mut SnapshotWriter, T)) {
        w.u64(self.pushed);
        let hist = self.history.as_slice();
        w.u64(hist.len() as u64);
        for &s in hist {
            put(w, s);
        }
        w.u64(self.history.pushed());
        w.u64(self.sums.len() as u64);
        for &s in self.sums.iter().rev() {
            w.f64(s);
        }
        for m in 1..=self.config.m_max {
            w.u64(self.pairs(m) as u64);
        }
    }

    /// Rebuild an engine from [`IncrementalEngine::snapshot_state`] bytes
    /// under a known-valid configuration. The running sums are restored
    /// verbatim — **never** re-derived via [`IncrementalEngine::resync`],
    /// which could differ from the incrementally-maintained values in the
    /// last ulp. Pair counts that disagree with the restored history are
    /// [`SnapshotError::Malformed`].
    pub fn restore_state<'a>(
        metric: M,
        config: EngineConfig,
        r: &mut SnapshotReader<'a>,
        get: &impl Fn(&mut SnapshotReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let mut engine =
            IncrementalEngine::new(metric, config).map_err(|_| SnapshotError::Malformed {
                what: "engine configuration fails validation",
            })?;
        let pushed = r.u64()?;
        let hist_len = r.count(
            config.history_capacity(),
            "history longer than configured capacity",
        )?;
        for _ in 0..hist_len {
            let s = get(r)?;
            engine.history.push(s);
        }
        engine.history.set_pushed(r.u64()?);
        let m_max = r.u64()? as usize;
        if m_max != config.m_max {
            return Err(SnapshotError::Malformed {
                what: "sums length disagrees with configured max delay",
            });
        }
        for s in engine.sums.iter_mut().rev() {
            *s = r.f64()?;
        }
        for m in 1..=m_max {
            if r.u64()? != engine.pairs(m) as u64 {
                return Err(SnapshotError::Malformed {
                    what: "pair count disagrees with the retained history",
                });
            }
        }
        engine.pushed = pushed;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{direct_distance, EventMetric, L1Metric};

    fn feed<T: Copy, M: Metric<T>>(engine: &mut IncrementalEngine<T, M>, data: &[T]) {
        for &s in data {
            engine.push(s);
        }
    }

    #[test]
    fn config_validation() {
        assert!(EngineConfig {
            frame: 0,
            m_max: 1,
            resync_interval: 0
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            frame: 4,
            m_max: 0,
            resync_interval: 0
        }
        .validate()
        .is_err());
        assert!(EngineConfig {
            frame: 4,
            m_max: 5,
            resync_interval: 0
        }
        .validate()
        .is_err());
        assert!(EngineConfig::square(8).validate().is_ok());
    }

    #[test]
    fn periodic_event_stream_zero_at_period() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(8)).unwrap();
        let data: Vec<i64> = (0..32).map(|i| [5, 7, 9, 11][i % 4]).collect();
        feed(&mut e, &data);
        assert!(e.is_warm());
        assert_eq!(e.distance(4), Some(0.0));
        assert_eq!(e.distance(8), Some(0.0)); // harmonic
        assert_eq!(e.distance(3), Some(1.0));
        assert_eq!(e.first_zero(), Some(4));
    }

    #[test]
    fn incremental_matches_direct_for_events() {
        // pseudo-random-ish but deterministic data
        let data: Vec<i64> = (0..200).map(|i| (i * i % 17) as i64).collect();
        let cfg = EngineConfig {
            frame: 16,
            m_max: 12,
            resync_interval: 0,
        };
        let mut e = IncrementalEngine::new(EventMetric, cfg).unwrap();
        for (t, &s) in data.iter().enumerate() {
            e.push(s);
            let seen = &data[..=t];
            for m in 1..=12 {
                if let Some(direct) = direct_distance(&EventMetric, seen, 16, m) {
                    assert_eq!(e.distance(m), Some(direct), "mismatch at t={t} m={m}");
                }
            }
        }
    }

    #[test]
    fn incremental_matches_direct_for_l1() {
        let data: Vec<f64> = (0..150)
            .map(|i| ((i as f64) * 0.7).sin() * 10.0 + (i % 5) as f64)
            .collect();
        let cfg = EngineConfig {
            frame: 20,
            m_max: 15,
            resync_interval: 0,
        };
        let mut e = IncrementalEngine::new(L1Metric, cfg).unwrap();
        for (t, &s) in data.iter().enumerate() {
            e.push(s);
            let seen = &data[..=t];
            for m in 1..=15 {
                if let Some(direct) = direct_distance(&L1Metric, seen, 20, m) {
                    let inc = e.distance(m).unwrap();
                    assert!(
                        (inc - direct).abs() < 1e-9,
                        "drift at t={t} m={m}: {inc} vs {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn resync_is_semantically_noop() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).cos() * 4.0).collect();
        let cfg = EngineConfig {
            frame: 10,
            m_max: 8,
            resync_interval: 0,
        };
        let mut a = IncrementalEngine::new(L1Metric, cfg).unwrap();
        let mut b = IncrementalEngine::new(
            L1Metric,
            EngineConfig {
                resync_interval: 7,
                ..cfg
            },
        )
        .unwrap();
        for &s in &data {
            a.push(s);
            b.push(s);
        }
        for m in 1..=8 {
            let da = a.distance(m).unwrap();
            let db = b.distance(m).unwrap();
            assert!((da - db).abs() < 1e-9, "m={m}: {da} vs {db}");
        }
    }

    #[test]
    fn warmup_accounting() {
        let cfg = EngineConfig {
            frame: 6,
            m_max: 4,
            resync_interval: 0,
        };
        let mut e = IncrementalEngine::new(EventMetric, cfg).unwrap();
        assert_eq!(e.warmup_len(), 10);
        for i in 0..9i64 {
            e.push(i);
            assert!(!e.is_warm());
        }
        e.push(9);
        assert!(e.is_warm());
        for m in 1..=4 {
            assert!(e.is_complete(m), "m={m} incomplete after warmup");
        }
    }

    #[test]
    fn distance_none_before_any_pairs() {
        let cfg = EngineConfig::square(4);
        let mut e = IncrementalEngine::new(EventMetric, cfg).unwrap();
        assert_eq!(e.distance(1), None);
        e.push(1i64);
        assert_eq!(e.distance(1), None); // still no pair: needs 2 samples
        e.push(1);
        assert_eq!(e.distance(1), Some(0.0));
    }

    #[test]
    fn reconfigure_preserves_recent_history() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(16)).unwrap();
        let data: Vec<i64> = (0..64).map(|i| [1, 2, 3][i % 3]).collect();
        feed(&mut e, &data);
        assert_eq!(e.first_zero(), Some(3));
        e.reconfigure(EngineConfig::square(6)).unwrap();
        assert_eq!(e.first_zero(), Some(3), "period survives shrink");
        // and it keeps working for further pushes
        for i in 64..90 {
            e.push([1, 2, 3][i % 3]);
        }
        assert_eq!(e.first_zero(), Some(3));
    }

    #[test]
    fn reset_clears_detection() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(6)).unwrap();
        let data: Vec<i64> = (0..24).map(|i| [1, 2][i % 2]).collect();
        feed(&mut e, &data);
        assert_eq!(e.first_zero(), Some(2));
        e.reset();
        assert_eq!(e.first_zero(), None);
        assert_eq!(e.distance(1), None);
    }

    #[test]
    fn period_larger_than_window_not_detected() {
        // paper §3.1: "if the periodicity m ... is larger than the data
        // window size N, then the pattern and its periodicity cannot be
        // captured by the detector".
        let period = 12usize;
        let data: Vec<i64> = (0..96).map(|i| (i % period) as i64).collect();
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(8)).unwrap();
        feed(&mut e, &data);
        assert_eq!(e.first_zero(), None);
    }

    #[test]
    fn spectrum_snapshot_matches_distances() {
        let data: Vec<i64> = (0..40).map(|i| [4, 5, 6, 7, 8][i % 5]).collect();
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(10)).unwrap();
        feed(&mut e, &data);
        let s = e.spectrum();
        for m in 1..=10 {
            assert_eq!(s.at(m), e.distance(m), "m={m}");
        }
        assert_eq!(s.zeros(), vec![5, 10]);
    }

    // --- batch ingestion ---

    /// Clone-free helper: feed `data` through per-sample pushes into one
    /// engine and through `push_slice` chunks into another, then assert the
    /// observable state matches bit-for-bit.
    fn assert_batch_equivalent<T, M>(metric: M, cfg: EngineConfig, data: &[T], chunks: &[usize])
    where
        T: Copy + std::fmt::Debug + PartialEq,
        M: Metric<T>,
    {
        let mut single = IncrementalEngine::new(metric.clone(), cfg).unwrap();
        let mut batch = IncrementalEngine::new(metric, cfg).unwrap();
        for &s in data {
            single.push(s);
        }
        let mut rest = data;
        let mut it = chunks.iter().copied().cycle();
        while !rest.is_empty() {
            let k = it.next().unwrap().clamp(1, rest.len());
            let (now, later) = rest.split_at(k);
            batch.push_slice(now);
            rest = later;
        }
        assert_eq!(single.pushed(), batch.pushed());
        for m in 1..=cfg.m_max {
            assert_eq!(
                single.pair_sum(m).map(f64::to_bits),
                batch.pair_sum(m).map(f64::to_bits),
                "pair_sum mismatch at m={m}"
            );
            assert_eq!(single.is_complete(m), batch.is_complete(m), "m={m}");
            assert_eq!(
                single.distance(m).map(f64::to_bits),
                batch.distance(m).map(f64::to_bits),
                "distance mismatch at m={m}"
            );
        }
        assert_eq!(single.history_vec(), batch.history_vec());
    }

    #[test]
    fn push_slice_bit_identical_events() {
        let data: Vec<i64> = (0..700).map(|i| (i * 31 % 13) as i64).collect();
        let cfg = EngineConfig {
            frame: 24,
            m_max: 20,
            resync_interval: 0,
        };
        assert_batch_equivalent(EventMetric, cfg, &data, &[1, 7, 64, 3, 200]);
    }

    #[test]
    fn push_slice_bit_identical_l1_with_resync() {
        let data: Vec<f64> = (0..900)
            .map(|i| ((i as f64) * 0.37).sin() * 5.0 + ((i * 7) % 11) as f64 * 0.1)
            .collect();
        let cfg = EngineConfig {
            frame: 32,
            m_max: 24,
            resync_interval: 53,
        };
        assert_batch_equivalent(L1Metric, cfg, &data, &[5, 1, 97, 13]);
    }

    #[test]
    fn push_slice_crossing_warmup_boundary() {
        // One slice covering warmup and steady state in a single call.
        let data: Vec<i64> = (0..300).map(|i| [3, 1, 4, 1, 5][i % 5]).collect();
        let cfg = EngineConfig {
            frame: 40,
            m_max: 40,
            resync_interval: 0,
        };
        assert_batch_equivalent(EventMetric, cfg, &data, &[300]);
    }

    #[test]
    fn push_slice_empty_is_noop() {
        let mut e = IncrementalEngine::new(EventMetric, EngineConfig::square(8)).unwrap();
        e.push_slice(&[]);
        assert_eq!(e.pushed(), 0);
        feed(&mut e, &[1, 2, 1, 2]);
        let before: Vec<Option<f64>> = (1..=8).map(|m| e.pair_sum(m)).collect();
        e.push_slice(&[]);
        let after: Vec<Option<f64>> = (1..=8).map(|m| e.pair_sum(m)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn push_slice_after_reset_replays_warmup() {
        let data: Vec<i64> = (0..60).map(|i| [9, 8, 7][i % 3]).collect();
        let cfg = EngineConfig::square(8);
        let mut e = IncrementalEngine::new(EventMetric, cfg).unwrap();
        e.push_slice(&data);
        assert_eq!(e.first_zero(), Some(3));
        e.reset();
        assert_eq!(e.first_zero(), None);
        e.push_slice(&data);
        assert_eq!(e.first_zero(), Some(3));
    }
}
