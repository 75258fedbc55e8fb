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
//!   last slots, scanned from delay 1 upwards a chunk at a time with a
//!   branch-free compare per chunk.
//!
//! Those loops run over one of two layouts, fixed at construction and
//! re-chosen by [`IncrementalEngine::reconfigure`]:
//!
//! * **values** — the samples themselves and `f64` sums of
//!   [`Metric::pair`]: 24 bytes streamed per delay for `i64` samples. Every
//!   engine a caller constructs directly uses it, and so does every
//!   configuration below the crossover.
//! * **codes** — for the equation-(2) detector over `i64` identifiers that
//!   `dpd-core` builds itself (builder, scale bank, stream table, restore)
//!   when `M >= CODES_FROM` (128). Equation (2) only tests equality, so
//!   history holds a 16-bit code per sample and each delay a 16-bit
//!   mismatch count: 6 bytes per delay, which at `N = M = 1024` is the
//!   traffic the values layout has at `N = 256`. A per-engine codebook
//!   maps each distinct retained value to its code and releases the code
//!   when its last sample leaves history. Counts are exact, so every
//!   observable — sums, spectra, detections, snapshot bytes — is
//!   bit-identical to the values layout; codes never leave the process.
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
use std::hash::{BuildHasher, RandomState};
use std::ops::{AddAssign, SubAssign};

/// Block length for steady-state batch ingestion. Sized so the working set
/// (history slice of `N + M + BLOCK` samples plus the `M`-entry sums array)
/// stays cache-resident for the window sizes the paper uses (`N <= 1024`).
const STEADY_BLOCK: usize = 64;

/// Fewest candidate delays `M` at which an identifier engine keeps codes.
/// Per sample the codebook costs a lookup and the kernel saves 18 of 24
/// bytes per delay, which pays only over enough delays. Paired
/// `streaming` bench medians, ns per pushed sample, values layout → codes
/// (seven alternating runs, 2 vCPUs, AVX-512; the window-64 codes figures
/// come from a build with this constant at 64):
///
/// | window | `push_locked` | `push_searching` |
/// |---|---|---|
/// | 64 | 55.7 → 60.7 | 54.6 → 59.5 |
/// | 128 | 86.4 → 63.4 | 92.2 → 69.2 |
///
/// At 64 codes are 8% slower on both rows; at 128 they are 33–36% faster.
const CODES_FROM: usize = 128;

/// Marks a vacant slot of a [`Codebook`] index and an empty free list, so
/// the live codes, at most the history capacity, must stay below it.
const VACANT: u16 = u16::MAX;

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

/// The equation-(2) pair over codes: `1` for a mismatch.
#[inline]
fn mismatch(current: u16, delayed: u16) -> u16 {
    u16::from(current != delayed)
}

/// The mismatch count an event-metric `sum` over `pairs` pairs stands for:
/// a whole number from `+0.0` to `pairs`. Anything else (negative, `-0.0`,
/// fractional, NaN, too large) no engine could have accumulated.
fn event_count(sum: f64, pairs: usize) -> Option<u16> {
    (sum.is_sign_positive() && sum.fract() == 0.0 && sum <= pairs as f64).then_some(sum as u16)
}

/// Smallest delay whose sum is zero, over `complete`, the sums of the
/// complete delays in descending order (`complete[j]` holds delay
/// `complete.len() - j`), scanned from delay 1 upwards in chunks of `W`.
/// Each chunk's test is an OR of its compares against `S::default()`, a
/// vector reduction (`-0.0` compares equal, so it counts as zero); only
/// the chunk that holds a zero is searched for its position.
fn first_zero_count<const W: usize, S: Copy + Default + PartialEq>(
    complete: &[S],
) -> Option<usize> {
    let zero = S::default();
    let (head, chunks) = complete.as_rchunks::<W>();
    for (c, chunk) in chunks.iter().rev().enumerate() {
        if chunk.iter().fold(false, |found, &s| found | (s == zero)) {
            let i = chunk.iter().rposition(|&s| s == zero).expect("a zero sum");
            return Some(W * (c + 1) - i);
        }
    }
    head.iter()
        .rposition(|&s| s == zero)
        .map(|j| complete.len() - j)
}

/// How the samples of an equation-(2) engine over identifiers map to and
/// from the `i64` keys its [`Codebook`] stores. A generic engine cannot
/// name its sample type, so the code paths that build the `i64` event
/// detector hand one in ([`IDENTIFIERS`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Symbols<T> {
    key: fn(T) -> i64,
    value: fn(i64) -> T,
}

/// The event detector's samples: `i64` identifiers, their own keys.
pub(crate) const IDENTIFIERS: Symbols<i64> = Symbols {
    key: |v| v,
    value: |k| k,
};

/// One layout's state: a mirrored history of `H` and per-delay
/// accumulators `S` in descending delay order (slot `M - m` holds delay
/// `m`). The kernels are generic over the pair contribution so both
/// layouts share one copy of the slot arithmetic.
#[derive(Debug, Clone)]
struct Lanes<H, S> {
    history: MirroredHistory<H>,
    sums: Box<[S]>,
}

impl<H: Copy, S: Copy + Default + AddAssign + SubAssign> Lanes<H, S> {
    fn new(capacity: usize, m_max: usize) -> Self {
        Lanes {
            history: MirroredHistory::new(capacity),
            sums: vec![S::default(); m_max].into_boxed_slice(),
        }
    }

    /// Write one sample to history with `record`, then update the sums:
    /// the steady kernel once `N + M` samples are retained, else warmup.
    #[inline]
    fn push(
        &mut self,
        n: usize,
        record: impl FnOnce(&mut MirroredHistory<H>),
        pair: impl Fn(H, H) -> S,
    ) {
        let steady = self.history.len() >= n + self.sums.len();
        record(&mut self.history);
        if steady {
            self.steady(n, 1, pair);
        } else {
            self.warm(n, pair);
        }
    }

    /// Warmup update after the newest sample was written to history, for
    /// the first `N + M` samples after construction, reset or a
    /// reconfigure. With `t` samples retained, the incoming pair
    /// `(x[t], x[t-m])` exists for `m <= min(t-1, M)` and the outgoing pair
    /// `(x[t-N], x[t-N-m])` for `m <= min(t-1-N, M)`, the delays whose frame
    /// was already full. Both are contiguous runs of slots, so each is one
    /// forward loop; every accumulator still sees `+= incoming` before
    /// `-= outgoing`.
    #[inline]
    fn warm(&mut self, n: usize, pair: impl Fn(H, H) -> S) {
        let m_max = self.sums.len();
        let h = self.history.as_slice();
        let newest = h.len() - 1; // index of x[t]; x[t-m] is h[newest - m]

        let k_in = newest.min(m_max);
        let cur = h[newest];
        for (s, &d) in self.sums[m_max - k_in..]
            .iter_mut()
            .zip(&h[newest - k_in..newest])
        {
            *s += pair(cur, d);
        }

        if let Some(out) = newest.checked_sub(n) {
            // h[out] is x[t-N]; x[t-N-m] is h[out - m].
            let k_out = out.min(m_max);
            let out_cur = h[out];
            for (s, &d) in self.sums[m_max - k_out..]
                .iter_mut()
                .zip(&h[out - k_out..out])
            {
                *s -= pair(out_cur, d);
            }
        }
    }

    /// Steady-state update for the trailing `block` samples already
    /// written to history. For each sample the per-delay work is a pure
    /// streaming kernel: broadcast the incoming/outgoing anchors, zip the
    /// sums forward with the two history slices holding `x[t-M..t-1]` and
    /// `x[t-N-M..t-N-1]`, accumulate. No branches, no modulo —
    /// auto-vectorizable.
    ///
    /// Per accumulator the operation order is identical to sample-by-sample
    /// ingestion (`+= incoming` then `-= outgoing`, in stream order), so
    /// results are bit-identical to repeated `push`.
    #[inline]
    fn steady(&mut self, n: usize, block: usize, pair: impl Fn(H, H) -> S) {
        let m_max = self.sums.len();
        let h = self.history.tail(n + m_max + block);
        for i in 0..block {
            // Stream indices within `h`: current sample at n + m_max + i.
            let cur = h[n + m_max + i];
            let out_cur = h[m_max + i];
            // Slot j holds delay m_max - j: delayed[j] == x[t - m] and
            // out_delayed[j] == x[t - N - m].
            let delayed = &h[n + i..n + m_max + i];
            let out_delayed = &h[i..m_max + i];
            for ((s, &d_in), &d_out) in self.sums.iter_mut().zip(delayed).zip(out_delayed) {
                *s += pair(cur, d_in);
                *s -= pair(out_cur, d_out);
            }
        }
    }

    /// Recompute every sum from the retained history.
    fn resync(&mut self, n: usize, pair: impl Fn(H, H) -> S) {
        let m_max = self.sums.len();
        let h = self.history.as_slice();
        let avail = h.len();
        for m in 1..=m_max {
            // Pairs exist for current ages 0..pairs.
            let mut sum = S::default();
            for age in 0..pair_count(avail, m, n) {
                sum += pair(h[avail - 1 - age], h[avail - 1 - age - m]);
            }
            self.sums[m_max - m] = sum;
        }
    }

    /// Forget the history and zero the sums, keeping both allocations.
    fn clear(&mut self) {
        self.history.clear();
        self.sums.fill(S::default());
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        2 * self.history.capacity() * std::mem::size_of::<H>()
            + self.sums.len() * std::mem::size_of::<S>()
    }
}

/// Maps each distinct value retained by a code-layout engine to a `u16`
/// code.
///
/// A value gets a code when it first enters history and keeps it while any
/// retained sample holds it: `refs` counts those samples, and the code is
/// released, for reuse, when the last one is evicted. The live codes
/// therefore never outnumber the history's capacity (`limit`). Each code's
/// key is stored once, in `keys`; the lookup index is a linear-probing
/// table of codes compared through `keys`, kept at most 3/4 full, so even
/// all-distinct input at `N = M = 1024` needs 10 bytes per code plus a
/// 4096-slot index. Samples come from clients, so the hash is keyed by a
/// random multiplier per codebook: values crafted to share one probe run
/// would otherwise make every lookup walk all live codes.
#[derive(Debug, Clone)]
struct Codebook<T> {
    symbols: Symbols<T>,
    /// Random odd multiplier of [`Codebook::home`].
    multiplier: u64,
    /// Code → key of its value; a released code's entry instead links the
    /// next released code.
    keys: Vec<i64>,
    /// Code → retained samples holding it (0 once released).
    refs: Vec<u16>,
    /// Most recently released code, or [`VACANT`].
    free: u16,
    /// Power-of-two table of live codes ([`VACANT`] marks an empty slot).
    index: Vec<u16>,
    /// `64 - log2(index.len())`: turns a hashed key into a home slot.
    shift: u32,
    /// Live codes.
    live: usize,
    /// The history capacity: the most codes ever live at once.
    limit: usize,
}

/// Slots of a fresh codebook index.
const INDEX_MIN: usize = 16;

impl<T: Copy> Codebook<T> {
    fn new(symbols: Symbols<T>, limit: usize) -> Self {
        Codebook {
            symbols,
            multiplier: RandomState::new().hash_one(limit) | 1,
            keys: Vec::new(),
            refs: Vec::new(),
            free: VACANT,
            index: vec![VACANT; INDEX_MIN],
            shift: u64::BITS - INDEX_MIN.trailing_zeros(),
            live: 0,
            limit,
        }
    }

    /// The value `code` stands for.
    #[inline]
    fn value(&self, code: u16) -> T {
        (self.symbols.value)(self.keys[usize::from(code)])
    }

    /// Append `sample`'s code to `history`, first releasing the code of the
    /// sample a full history evicts (so at most `limit` codes are live).
    #[inline]
    fn record(&mut self, history: &mut MirroredHistory<u16>, sample: T) {
        if history.is_full() {
            let evicted = history.ago(history.capacity() - 1).expect("full history");
            self.release(evicted);
        }
        let code = self.intern((self.symbols.key)(sample));
        history.push(code);
    }

    /// Home slot of `key`: the top bits of `key` times the codebook's odd
    /// multiplier. Multiply-shift with a random multiplier is a universal
    /// hash family, so crafted keys collide no more often than chance, and
    /// like Fibonacci hashing it spreads the arithmetic runs of a trace's
    /// aligned addresses evenly.
    #[inline]
    fn home(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(self.multiplier) >> self.shift) as usize
    }

    /// The code of `key`, counting one more retained sample holding it.
    fn intern(&mut self, key: i64) -> u16 {
        let mask = self.index.len() - 1;
        let mut slot = self.home(key);
        loop {
            let code = self.index[slot];
            if code == VACANT {
                break;
            }
            if self.keys[usize::from(code)] == key {
                self.refs[usize::from(code)] += 1;
                return code;
            }
            slot = (slot + 1) & mask;
        }
        let code = if self.free == VACANT {
            let code = self.keys.len();
            reserve_one(&mut self.keys, self.limit);
            reserve_one(&mut self.refs, self.limit);
            self.keys.push(key);
            self.refs.push(1);
            code as u16
        } else {
            let code = self.free;
            let c = usize::from(code);
            self.free = self.keys[c] as u16;
            self.keys[c] = key;
            self.refs[c] = 1;
            code
        };
        self.live += 1;
        if 4 * self.live > 3 * self.index.len() {
            self.rehash(2 * self.index.len());
        } else {
            self.index[slot] = code;
        }
        code
    }

    /// Count one fewer retained sample holding `code`; release it when none
    /// is left, closing its index slot by backward shift (no tombstones).
    fn release(&mut self, code: u16) {
        let c = usize::from(code);
        self.refs[c] -= 1;
        if self.refs[c] > 0 {
            return;
        }
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.keys[c]);
        while self.index[hole] != code {
            hole = (hole + 1) & mask;
        }
        let mut next = (hole + 1) & mask;
        while self.index[next] != VACANT {
            let moved = self.index[next];
            let home = self.home(self.keys[usize::from(moved)]);
            // `moved` may fill the hole when its probe from `home` passes
            // the hole before reaching `next`.
            if hole.wrapping_sub(home) & mask < next.wrapping_sub(home) & mask {
                self.index[hole] = moved;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.index[hole] = VACANT;
        self.keys[c] = i64::from(self.free);
        self.free = code;
        self.live -= 1;
    }

    /// Rebuild the index with `slots` slots around the live codes.
    fn rehash(&mut self, slots: usize) {
        self.index.clear();
        self.index.resize(slots, VACANT);
        self.shift = u64::BITS - slots.trailing_zeros();
        let mask = slots - 1;
        for (code, _) in self.refs.iter().enumerate().filter(|(_, &r)| r > 0) {
            let mut slot = self.home(self.keys[code]);
            while self.index[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = code as u16;
        }
    }

    /// Release every code, keeping every allocation.
    fn clear(&mut self) {
        self.keys.clear();
        self.refs.clear();
        self.free = VACANT;
        self.index.fill(VACANT);
        self.live = 0;
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.keys.capacity() * 8 + (self.refs.capacity() + self.index.capacity()) * 2
    }
}

/// Room for one more element of `v`, growing by at most doubling and never
/// past `limit` elements, so a codebook's arrays top out at its limit.
fn reserve_one<E>(v: &mut Vec<E>, limit: usize) {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len().max(8).min(limit - v.len()));
    }
}

/// The code layout's history and counts, and the codebook behind them.
#[derive(Debug, Clone)]
struct Codes<T> {
    lanes: Lanes<u16, u16>,
    book: Codebook<T>,
}

/// The engine's history and sums in one of its two layouts (see the
/// module docs).
#[derive(Debug, Clone)]
enum Layout<T> {
    /// Samples and `f64` sums of [`Metric::pair`].
    Values(Lanes<T, f64>),
    /// 16-bit codes and mismatch counts, for an identifier engine. Boxed
    /// so that an engine is no larger than a values-only engine was: the
    /// stream table prices a hot stream by its size.
    Codes(Box<Codes<T>>),
}

impl<T: Copy> Layout<T> {
    /// The empty layout for `config`: codes for an identifier engine at
    /// [`CODES_FROM`] delays or more whose history fits the code space,
    /// values otherwise.
    fn empty(config: EngineConfig, symbols: Option<Symbols<T>>) -> Self {
        let capacity = config.history_capacity();
        match symbols {
            Some(symbols) if config.m_max >= CODES_FROM && capacity <= usize::from(VACANT) => {
                Layout::Codes(Box::new(Codes {
                    lanes: Lanes::new(capacity, config.m_max),
                    book: Codebook::new(symbols, capacity),
                }))
            }
            _ => Layout::Values(Lanes::new(capacity, config.m_max)),
        }
    }

    /// Write one sample to history.
    #[inline]
    fn record(&mut self, sample: T) {
        match self {
            Layout::Values(lanes) => lanes.history.push(sample),
            Layout::Codes(c) => c.book.record(&mut c.lanes.history, sample),
        }
    }

    /// Samples retained.
    #[inline]
    fn len(&self) -> usize {
        match self {
            Layout::Values(lanes) => lanes.history.len(),
            Layout::Codes(c) => c.lanes.history.len(),
        }
    }

    /// The sum in `slot`, as the values layout would hold it: counts
    /// convert exactly.
    #[inline]
    fn sum(&self, slot: usize) -> f64 {
        match self {
            Layout::Values(lanes) => lanes.sums[slot],
            Layout::Codes(c) => f64::from(c.lanes.sums[slot]),
        }
    }

    /// The retained sample pushed `age` steps ago.
    #[inline]
    fn ago(&self, age: usize) -> Option<T> {
        match self {
            Layout::Values(lanes) => lanes.history.ago(age),
            Layout::Codes(c) => c.lanes.history.ago(age).map(|code| c.book.value(code)),
        }
    }

    /// Lifetime pushes into history (and its restore-time setter).
    fn history_pushed(&self) -> u64 {
        match self {
            Layout::Values(lanes) => lanes.history.pushed(),
            Layout::Codes(c) => c.lanes.history.pushed(),
        }
    }

    fn set_history_pushed(&mut self, n: u64) {
        match self {
            Layout::Values(lanes) => lanes.history.set_pushed(n),
            Layout::Codes(c) => c.lanes.history.set_pushed(n),
        }
    }
}

/// O(M)-per-sample sliding computation of `d(m)` for all `m <= M`.
#[derive(Debug, Clone)]
pub struct IncrementalEngine<T, M: Metric<T>> {
    metric: M,
    config: EngineConfig,
    /// Set for an equation-(2) engine over identifiers, which keeps codes
    /// when its configuration is wide; `None` for every other engine.
    symbols: Option<Symbols<T>>,
    /// The last `N + M + STEADY_BLOCK` samples and the running pair-sums.
    layout: Layout<T>,
    /// Total samples pushed.
    pushed: u64,
}

impl<T: Copy, M: Metric<T>> IncrementalEngine<T, M> {
    /// Create an engine with the given metric and configuration.
    pub fn new(metric: M, config: EngineConfig) -> crate::Result<Self> {
        Self::with_symbols(metric, config, None)
    }

    /// [`IncrementalEngine::new`], for an equation-(2) engine over
    /// identifiers when `symbols` is set: `metric` must then be
    /// [`EventMetric`](crate::metric::EventMetric), whose pair is exactly
    /// the mismatch of the keys `symbols` gives.
    pub(crate) fn with_symbols(
        metric: M,
        config: EngineConfig,
        symbols: Option<Symbols<T>>,
    ) -> crate::Result<Self> {
        config.validate()?;
        Ok(IncrementalEngine {
            metric,
            config,
            symbols,
            layout: Layout::empty(config, symbols),
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
        self.layout.len() >= self.warmup_len()
    }

    /// Pairs currently summed for delay `m` (`1 <= m <= M`).
    #[inline]
    fn pairs(&self, m: usize) -> usize {
        pair_count(self.layout.len(), m, self.config.frame)
    }

    /// Number of complete delays: exactly `1..=complete_delays()` hold a
    /// full frame of `N` pairs.
    #[inline]
    fn complete_delays(&self) -> usize {
        self.layout
            .len()
            .saturating_sub(self.config.frame)
            .min(self.config.m_max)
    }

    /// Push one sample, updating every `d(m)` in O(M).
    #[inline]
    pub fn push(&mut self, sample: T) {
        let n = self.config.frame;
        let metric = &self.metric;
        match &mut self.layout {
            Layout::Values(lanes) => {
                lanes.push(n, |h| h.push(sample), |a, b| metric.pair(a, b));
            }
            Layout::Codes(c) => {
                let Codes { lanes, book } = &mut **c;
                lanes.push(n, |h| book.record(h, sample), mismatch);
            }
        }
        self.pushed += 1;
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
            self.push(rest[0]);
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
            for &s in now {
                self.layout.record(s);
            }
            self.pushed += block as u64;
            self.steady_update(block);
            if interval > 0 && self.pushed.is_multiple_of(interval) {
                self.resync();
            }
            rest = later;
        }
    }

    /// Steady-state update for the trailing `block` samples already written
    /// to history.
    fn steady_update(&mut self, block: usize) {
        let n = self.config.frame;
        let metric = &self.metric;
        match &mut self.layout {
            Layout::Values(lanes) => lanes.steady(n, block, |a, b| metric.pair(a, b)),
            Layout::Codes(c) => c.lanes.steady(n, block, mismatch),
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
        let metric = &self.metric;
        match &mut self.layout {
            Layout::Values(lanes) => lanes.resync(n, |a, b| metric.pair(a, b)),
            Layout::Codes(c) => c.lanes.resync(n, mismatch),
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
            .then(|| self.layout.sum(self.config.m_max - m))
    }

    /// Snapshot the current spectrum.
    pub fn spectrum(&self) -> Spectrum {
        let m_max = self.config.m_max;
        let (values, pairs) = (1..=m_max)
            .map(|m| {
                let p = self.pairs(m);
                (
                    self.metric.finalize(self.layout.sum(m_max - m), p),
                    p as u32,
                )
            })
            .unzip();
        Spectrum::from_parts(values, pairs, self.config.frame)
    }

    /// Smallest delay whose full-frame distance is exactly zero, if any.
    ///
    /// For the event metric this is the paper's equation-(2) detection: "if
    /// d(m) = 0, then a periodic pattern with dimension m is detected".
    /// Only the complete delays `1..=min(len - N, M)` qualify; they are the
    /// last slots of the sums, scanned from delay 1 upwards in 64-byte
    /// chunks (16 `f64` sums or 32 counts) whose zero test is one
    /// branch-free reduction.
    pub fn first_zero(&self) -> Option<usize> {
        let from = self.config.m_max - self.complete_delays();
        match &self.layout {
            Layout::Values(lanes) => first_zero_count::<16, _>(&lanes.sums[from..]),
            Layout::Codes(c) => first_zero_count::<32, _>(&c.lanes.sums[from..]),
        }
    }

    /// Reconfigure frame size and maximum delay, preserving as much history
    /// as the new capacity allows, and rebuild the sums. O(N*M). The layout
    /// is chosen afresh for the new configuration.
    pub fn reconfigure(&mut self, config: EngineConfig) -> crate::Result<()> {
        config.validate()?;
        let history = self.history_vec();
        let kept = &history[history.len().saturating_sub(config.history_capacity())..];
        let pushed = self.layout.history_pushed();
        self.config = config;
        self.layout = Layout::empty(config, self.symbols);
        for &s in kept {
            self.layout.record(s);
        }
        self.layout.set_history_pushed(pushed);
        self.resync();
        Ok(())
    }

    /// Forget all history and sums (e.g. after a detected phase change).
    pub fn reset(&mut self) {
        match &mut self.layout {
            Layout::Values(lanes) => lanes.clear(),
            Layout::Codes(c) => {
                c.lanes.clear();
                c.book.clear();
            }
        }
    }

    /// Return to the exact as-constructed state — including the lifetime
    /// push counters, which [`IncrementalEngine::reset`] deliberately
    /// keeps — while retaining every buffer allocation, the codebook's
    /// included. An engine after `reset_fresh` is observably (and
    /// serialization-byte) identical to a new one with the same metric and
    /// config; the stream-table hot-state pool relies on that to recycle
    /// detectors without reallocating.
    pub(crate) fn reset_fresh(&mut self) {
        self.reset();
        self.layout.set_history_pushed(0);
        self.pushed = 0;
    }

    /// Access the retained history, oldest first (test/diagnostic helper).
    pub fn history_vec(&self) -> Vec<T> {
        match &self.layout {
            Layout::Values(lanes) => lanes.history.to_vec(),
            Layout::Codes(c) => {
                let values = c.lanes.history.as_slice().iter();
                values.map(|&code| c.book.value(code)).collect()
            }
        }
    }

    /// The retained sample pushed `age` steps ago (`0` = newest).
    #[inline]
    pub fn history_ago(&self, age: usize) -> Option<T> {
        self.layout.ago(age)
    }

    /// Borrow the metric driving this engine.
    #[inline]
    pub fn metric_ref(&self) -> &M {
        &self.metric
    }

    /// Bytes of heap behind this engine's layout.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.layout {
            Layout::Values(lanes) => lanes.heap_bytes(),
            Layout::Codes(c) => {
                std::mem::size_of::<Codes<T>>() + c.lanes.heap_bytes() + c.book.heap_bytes()
            }
        }
    }

    /// `true` when the engine keeps codes.
    #[cfg(test)]
    pub(crate) fn uses_codes(&self) -> bool {
        matches!(self.layout, Layout::Codes(..))
    }

    /// Serialize the engine state (not the configuration — the caller owns
    /// that) into `w`. `put` encodes one sample of `T`. The sums are
    /// written in ascending delay order, followed by each delay's pair
    /// count as a varint. Both layouts write the same bytes: values, and
    /// counts as `f64`.
    pub fn snapshot_state(&self, w: &mut SnapshotWriter, put: &impl Fn(&mut SnapshotWriter, T)) {
        w.u64(self.pushed);
        w.u64(self.layout.len() as u64);
        match &self.layout {
            Layout::Values(lanes) => lanes.history.as_slice().iter().for_each(|&s| put(w, s)),
            Layout::Codes(c) => {
                let codes = c.lanes.history.as_slice().iter();
                codes.for_each(|&code| put(w, c.book.value(code)));
            }
        }
        w.u64(self.layout.history_pushed());
        w.u64(self.config.m_max as u64);
        for slot in (0..self.config.m_max).rev() {
            w.f64(self.layout.sum(slot));
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
        Self::restore_with(metric, config, None, r, get)
    }

    /// [`IncrementalEngine::restore_state`] for an engine built with
    /// `symbols` (see [`IncrementalEngine::with_symbols`]), whose codebook
    /// is rebuilt from the restored values. An identifier engine's sums
    /// are mismatch counts: one that is not a whole number from 0 to its
    /// delay's pair count is [`SnapshotError::Malformed`].
    pub(crate) fn restore_with<'a>(
        metric: M,
        config: EngineConfig,
        symbols: Option<Symbols<T>>,
        r: &mut SnapshotReader<'a>,
        get: &impl Fn(&mut SnapshotReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let mut engine =
            Self::with_symbols(metric, config, symbols).map_err(|_| SnapshotError::Malformed {
                what: "engine configuration fails validation",
            })?;
        let pushed = r.u64()?;
        let hist_len = r.count(
            config.history_capacity(),
            "history longer than configured capacity",
        )?;
        for _ in 0..hist_len {
            let s = get(r)?;
            engine.layout.record(s);
        }
        engine.layout.set_history_pushed(r.u64()?);
        let m_max = r.u64()? as usize;
        if m_max != config.m_max {
            return Err(SnapshotError::Malformed {
                what: "sums length disagrees with configured max delay",
            });
        }
        for m in 1..=m_max {
            let sum = r.f64()?;
            let count = match symbols {
                Some(_) => event_count(sum, engine.pairs(m)).ok_or(SnapshotError::Malformed {
                    what: "event-metric sum is not a whole count of its delay's pairs",
                })?,
                None => 0,
            };
            match &mut engine.layout {
                Layout::Values(lanes) => lanes.sums[m_max - m] = sum,
                Layout::Codes(c) => c.lanes.sums[m_max - m] = count,
            }
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

#[cfg(test)]
mod code_tests {
    use super::*;
    use crate::metric::{direct_distance, EventMetric};

    fn codes(cfg: EngineConfig) -> IncrementalEngine<i64, EventMetric> {
        IncrementalEngine::with_symbols(EventMetric, cfg, Some(IDENTIFIERS)).unwrap()
    }

    fn values(cfg: EngineConfig) -> IncrementalEngine<i64, EventMetric> {
        IncrementalEngine::new(EventMetric, cfg).unwrap()
    }

    fn snapshot(e: &IncrementalEngine<i64, EventMetric>) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        e.snapshot_state(&mut w, &|w, v| w.i64(v));
        w.into_bytes()
    }

    /// Every observable of the code engine equals the values engine's, bit
    /// for bit, the snapshot bytes included.
    fn assert_same(
        c: &IncrementalEngine<i64, EventMetric>,
        v: &IncrementalEngine<i64, EventMetric>,
    ) {
        assert_eq!(c.config(), v.config());
        assert_eq!(c.pushed(), v.pushed());
        for m in 1..=c.config().m_max {
            assert_eq!(
                c.pair_sum(m).map(f64::to_bits),
                v.pair_sum(m).map(f64::to_bits),
                "m={m}"
            );
            assert_eq!(c.is_complete(m), v.is_complete(m), "m={m}");
        }
        assert_eq!(c.first_zero(), v.first_zero());
        assert_eq!(c.history_ago(0), v.history_ago(0));
        assert_eq!(c.history_vec(), v.history_vec());
        assert_eq!(snapshot(c), snapshot(v));
    }

    /// Period-`p` addresses in stretches of 500 samples, every other one
    /// with extremes and one-off values mixed in (a value every 41 samples
    /// repeats only after leaving retention), so zeros come and go.
    fn mixed(len: usize, p: usize) -> Vec<i64> {
        (0..len)
            .map(|i| match (i / 500 % 2, i % 41) {
                (1, 7) => i64::MIN,
                (1, 19) => i64::MAX,
                (1, 29) => -1 - (i as i64 / 41) % 3 * 10_000,
                _ => 0x40_0000 + (i % p) as i64 * 0x40,
            })
            .collect()
    }

    #[test]
    fn codes_only_for_wide_identifier_engines() {
        assert!(!codes(EngineConfig::square(CODES_FROM - 1)).uses_codes());
        assert!(codes(EngineConfig::square(CODES_FROM)).uses_codes());
        assert!(codes(EngineConfig::square(1024)).uses_codes());
        assert!(!values(EngineConfig::square(1024)).uses_codes());
        // A history of 65,535 samples still fits the code space; one more
        // keeps the values layout.
        let edge = EngineConfig {
            frame: 32_736,
            m_max: 32_735,
            resync_interval: 0,
        };
        assert_eq!(edge.history_capacity(), usize::from(VACANT));
        assert!(codes(edge).uses_codes());
        assert!(!codes(EngineConfig::square(32_736)).uses_codes());
    }

    #[test]
    fn codes_equal_direct_at_every_push() {
        let cfg = EngineConfig {
            frame: 150,
            m_max: 130,
            resync_interval: 0,
        };
        let data = mixed(800, 13);
        let mut e = codes(cfg);
        assert!(e.uses_codes());
        for (t, &s) in data.iter().enumerate() {
            e.push(s);
            let seen = &data[..=t];
            let mut first = None;
            for m in 1..=cfg.m_max {
                let direct = direct_distance(&EventMetric, seen, cfg.frame, m);
                assert_eq!(e.is_complete(m), direct.is_some(), "t={t} m={m}");
                if let Some(d) = direct {
                    assert_eq!(e.distance(m), Some(d), "t={t} m={m}");
                    if d == 0.0 && first.is_none() {
                        first = Some(m);
                    }
                }
            }
            assert_eq!(e.first_zero(), first, "t={t}");
        }
    }

    #[test]
    fn codes_match_values_through_every_operation() {
        let wide = EngineConfig::square(192);
        let narrow = EngineConfig {
            frame: 100,
            m_max: 90,
            resync_interval: 0,
        };
        let data = mixed(3000, 7);
        let (mut c, mut v) = (codes(wide), values(wide));
        let mut rest = &data[..];
        for (step, chunk) in [1usize, 300, 64, 5, 700, 1, 130].iter().cycle().enumerate() {
            if rest.is_empty() {
                break;
            }
            let (now, later) = rest.split_at((*chunk).min(rest.len()));
            if step % 2 == 0 {
                now.iter().for_each(|&s| {
                    c.push(s);
                    v.push(s);
                    assert_eq!(c.first_zero(), v.first_zero());
                });
            } else {
                c.push_slice(now);
                v.push_slice(now);
            }
            rest = later;
            assert_same(&c, &v);
            match step {
                // Shrink across the crossover, then grow back over it.
                2 => {
                    c.reconfigure(narrow).unwrap();
                    v.reconfigure(narrow).unwrap();
                    assert!(!c.uses_codes());
                }
                4 => {
                    c.reconfigure(wide).unwrap();
                    v.reconfigure(wide).unwrap();
                    assert!(c.uses_codes());
                }
                5 => {
                    c.reset();
                    v.reset();
                }
                6 => {
                    let bytes = snapshot(&c);
                    let mut r = SnapshotReader::new(&bytes);
                    c = IncrementalEngine::restore_with(
                        EventMetric,
                        wide,
                        Some(IDENTIFIERS),
                        &mut r,
                        &|r| r.i64(),
                    )
                    .unwrap();
                    r.finish().unwrap();
                    assert!(c.uses_codes());
                }
                8 => {
                    c.reset_fresh();
                    v = values(wide);
                }
                _ => {}
            }
            assert_same(&c, &v);
        }
    }

    #[test]
    fn all_distinct_input_recycles_codes_within_the_history() {
        let cfg = EngineConfig::square(1024);
        let capacity = cfg.history_capacity();
        let mut e = codes(cfg);
        let data: Vec<i64> = (0..10 * capacity as i64).map(|i| i * 0x40).collect();
        e.push_slice(&data);
        let Layout::Codes(c) = &e.layout else {
            panic!("window 1024 keeps codes");
        };
        let book = &c.book;
        assert_eq!(book.live, capacity);
        assert!(book.keys.capacity() <= capacity && book.refs.capacity() <= capacity);
        assert_eq!(book.index.len(), 4096);
        assert_eq!(e.first_zero(), None);
        assert_eq!(e.pair_sum(1), Some(1024.0));
        // Returning values find codes again, and the index stays exact.
        e.push_slice(&data[..3000]);
        let Layout::Codes(c) = &e.layout else {
            unreachable!()
        };
        for &code in c.lanes.history.as_slice() {
            assert_eq!(c.book.refs[usize::from(code)] as usize, 1);
        }
        assert_eq!(
            c.book.index.iter().filter(|&&c| c != VACANT).count(),
            c.book.live
        );
    }

    #[test]
    fn zero_scans_find_the_smallest_zero_delay() {
        for len in [0usize, 1, 31, 32, 33, 95, 130] {
            for zeros in [
                vec![],
                vec![1],
                vec![5, 10, 28],
                vec![31, 32],
                vec![33, 64],
                vec![len],
            ] {
                // Slot j holds delay len - j.
                let counts: Vec<u16> = (0..len)
                    .map(|j| if zeros.contains(&(len - j)) { 0 } else { 3 })
                    .collect();
                let sums: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
                // `-0.0` counts as a zero sum too.
                let signed: Vec<f64> = counts
                    .iter()
                    .map(|&c| if c == 0 { -0.0 } else { f64::from(c) })
                    .collect();
                let smallest = zeros
                    .iter()
                    .copied()
                    .filter(|&d| (1..=len).contains(&d))
                    .min();
                assert_eq!(
                    first_zero_count::<32, _>(&counts),
                    smallest,
                    "{len} {zeros:?}"
                );
                assert_eq!(
                    first_zero_count::<16, _>(&sums),
                    smallest,
                    "{len} {zeros:?}"
                );
                assert_eq!(
                    first_zero_count::<16, _>(&signed),
                    smallest,
                    "{len} {zeros:?}"
                );
            }
        }
    }

    /// Values that stay retained must keep their codes while codes around
    /// them in the index are released and reused: half the samples loop
    /// over 50 values, the other half are each seen once.
    #[test]
    fn live_codes_stay_found_through_release_churn() {
        let cfg = EngineConfig::square(256);
        let (mut c, mut v) = (codes(cfg), values(cfg));
        for i in 0..6000i64 {
            let s = if i % 2 == 0 {
                0x40_0000 + i / 2 % 50 * 0x40
            } else {
                0x7000_0000 + i
            };
            c.push(s);
            v.push(s);
            if i % 50 == 0 {
                assert_same(&c, &v);
            }
        }
        assert_same(&c, &v);
    }

    #[test]
    fn restore_rejects_sums_that_are_not_counts() {
        let cfg = EngineConfig::square(8);
        let mut e = codes(cfg);
        e.push_slice(&[1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 4]);
        for (sum, ok) in [(0.0, true), (-0.0, false), (0.5, false), (-1.0, false)]
            .into_iter()
            .chain([(f64::NAN, false), (f64::INFINITY, false), (9.0, false)])
        {
            let mut w = SnapshotWriter::new();
            e.snapshot_state(&mut w, &|w, v| w.i64(v));
            let mut bytes = w.into_bytes();
            // The sums end 8 varint pair counts (one byte each) before the
            // end; delay 1's is the first of them.
            let at = bytes.len() - 8 - 8 * 8;
            bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
            let restored = IncrementalEngine::restore_with(
                EventMetric,
                cfg,
                Some(IDENTIFIERS),
                &mut SnapshotReader::new(&bytes),
                &|r| r.i64(),
            );
            assert_eq!(restored.is_ok(), ok, "sum {sum}");
        }
    }
}
