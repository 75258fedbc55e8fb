//! Lock-free metrics registry: counters, gauges, log2 histograms.
//!
//! Design constraints, in order:
//!
//! 1. **Allocation-free hot path.** [`Counter::inc`], [`Gauge::set`]
//!    and [`Histogram::record`] are relaxed atomic ops on pre-allocated
//!    cells — no locks, no branches beyond the bucket computation, no
//!    heap traffic. A handle is an `Arc` clone; clone it once at setup
//!    and bump it forever.
//! 2. **One source of truth.** Subsystems register their counters here
//!    instead of keeping private atomic structs; drain-time summaries
//!    (`NetStats`, the service's per-shard `TableStats`) are *read
//!    back* from the registry, so a live scrape and the final drain can
//!    never disagree.
//! 3. **Deterministic exposition.** [`Registry::render`] and
//!    [`Registry::samples`] emit families sorted by name and series
//!    sorted by label set, so golden tests and differential scrapes
//!    are stable across runs.
//!
//! Histograms use 65 fixed log2 buckets: bucket 0 holds the value `0`,
//! bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)` — i.e. a value `v`
//! lands in bucket `64 - v.leading_zeros()` ([`bucket_of`]). The same
//! quantization is used by the DTB self-trace
//! ([`crate::selftrace::log2_bucket`]) so a scraped latency histogram
//! and a self-trace event stream speak the same alphabet.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of fixed histogram buckets (one for zero + one per bit).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log2 bucket index of a value: `0` for `0`, else `64 - leading_zeros`.
///
/// Bucket `i ≥ 1` covers `[2^(i-1), 2^i)`; bucket 64 covers the top
/// half of the `u64` range.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`, as rendered in the `le` label.
///
/// Bucket 0 → `0`; bucket `i ≥ 1` → `2^i - 1` (the largest value that
/// lands in it). Bucket 64's bound is `u64::MAX`.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// What kind of metric a name was registered as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Instantaneous non-negative level.
    Gauge,
    /// Fixed-capacity log2-bucket distribution.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonic counter handle. Cheap to clone; all clones share the cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Publish an absolute value taken from an authoritative monotone
    /// source (e.g. a StreamTable rollup owned by a worker thread).
    ///
    /// This is a plain store: use it only when this handle is the sole
    /// writer and `v` never goes backwards, which is exactly the
    /// mirror-publication pattern used by the service layer.
    #[inline]
    pub fn publish(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }
}

/// An instantaneous gauge handle (non-negative levels).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the level by `n` (saturating is the caller's problem:
    /// levels here track resource counts that never go negative).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log2-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Record one observation. Two relaxed atomic adds (the observation
    /// count is derived from the buckets on the read side, which is
    /// cold); no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.core.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations (sums the bucket array; read-side only).
    pub fn count(&self) -> u64 {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of observations.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (not cumulative).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.core.buckets[i].load(Ordering::Relaxed))
    }
}

enum Cell {
    Scalar(Arc<AtomicU64>),
    Histo(Arc<HistogramCore>),
}

struct Entry {
    /// Full series name, labels included: `dpd_shard_samples_total{shard="0"}`.
    name: String,
    kind: MetricKind,
    help: String,
    cell: Cell,
}

/// The shared registry. Cheap to clone; all clones see the same metrics.
///
/// Registration takes a mutex (setup-time only); recording through the
/// returned handles never does. Registering the same series name twice
/// returns the *same* handle (idempotent), so independent subsystems
/// can meet on a shared series; re-registering a name as a different
/// kind panics — that is a naming-contract bug, not a runtime
/// condition.
#[derive(Clone, Default)]
pub struct Registry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or look up) a monotonic counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        Counter {
            cell: self.scalar(name, MetricKind::Counter, help),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        Gauge {
            cell: self.scalar(name, MetricKind::Gauge, help),
        }
    }

    /// Register (or look up) a log2-bucket histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.cell {
                Cell::Histo(core) if e.kind == MetricKind::Histogram => {
                    return Histogram {
                        core: Arc::clone(core),
                    };
                }
                _ => panic!(
                    "metric `{name}` already registered as {:?}, not Histogram",
                    e.kind
                ),
            }
        }
        let core = Arc::new(HistogramCore::new());
        entries.push(Entry {
            name: name.to_string(),
            kind: MetricKind::Histogram,
            help: help.to_string(),
            cell: Cell::Histo(Arc::clone(&core)),
        });
        Histogram { core }
    }

    fn scalar(&self, name: &str, kind: MetricKind, help: &str) -> Arc<AtomicU64> {
        assert!(
            !name.is_empty() && !name.starts_with('{'),
            "metric name must not be empty"
        );
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match &e.cell {
                Cell::Scalar(cell) if e.kind == kind => return Arc::clone(cell),
                _ => panic!(
                    "metric `{name}` already registered as {:?}, not {kind:?}",
                    e.kind
                ),
            }
        }
        let cell = Arc::new(AtomicU64::new(0));
        entries.push(Entry {
            name: name.to_string(),
            kind,
            help: help.to_string(),
            cell: Cell::Scalar(Arc::clone(&cell)),
        });
        cell
    }

    /// Flat list of every exposition sample, sorted: the exact
    /// `(series, value)` pairs that [`Registry::render`] puts on data
    /// lines, histograms expanded to their `_bucket`/`_sum`/`_count`
    /// series. This is the parse-side ground truth for the round-trip
    /// property test.
    pub fn samples(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for fam in self.families().values() {
            for series in &fam.series {
                series.append_samples(&mut out);
            }
        }
        out
    }

    /// Render the Prometheus-style text exposition page.
    ///
    /// Families are sorted by name; each gets one `# HELP` and one
    /// `# TYPE` line (help text from the family's first registration).
    /// Histogram buckets are cumulative, rendered up to the highest
    /// non-empty bucket plus a final `+Inf`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (family, fam) in self.families() {
            out.push_str("# HELP ");
            out.push_str(&family);
            out.push(' ');
            out.push_str(&fam.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family);
            out.push(' ');
            out.push_str(fam.kind.exposition_name());
            out.push('\n');
            let mut buf = Vec::new();
            for series in &fam.series {
                buf.clear();
                series.append_samples(&mut buf);
                for (name, value) in &buf {
                    out.push_str(name);
                    out.push(' ');
                    out.push_str(&format_value(*value));
                    out.push('\n');
                }
            }
        }
        out
    }

    fn families(&self) -> BTreeMap<String, Family> {
        let entries = self.entries.lock().unwrap();
        let mut map: BTreeMap<String, Family> = BTreeMap::new();
        for e in entries.iter() {
            let (family, labels) = split_series(&e.name);
            let fam = map.entry(family.to_string()).or_insert_with(|| Family {
                kind: e.kind,
                help: e.help.clone(),
                series: Vec::new(),
            });
            assert!(
                fam.kind == e.kind,
                "metric family `{family}` registered with mixed kinds"
            );
            fam.series.push(Series {
                family: family.to_string(),
                labels: labels.map(str::to_string),
                snap: match &e.cell {
                    Cell::Scalar(cell) => Snap::Scalar(cell.load(Ordering::Relaxed)),
                    Cell::Histo(core) => {
                        let buckets: Box<[u64; HISTOGRAM_BUCKETS]> =
                            Box::new(std::array::from_fn(|i| {
                                core.buckets[i].load(Ordering::Relaxed)
                            }));
                        Snap::Histo {
                            count: buckets.iter().sum(),
                            buckets,
                            sum: core.sum.load(Ordering::Relaxed),
                        }
                    }
                },
            });
        }
        for fam in map.values_mut() {
            fam.series.sort_by(|a, b| a.labels.cmp(&b.labels));
        }
        map
    }
}

struct Family {
    kind: MetricKind,
    help: String,
    series: Vec<Series>,
}

enum Snap {
    Scalar(u64),
    // Boxed: 65 buckets would otherwise dwarf the Scalar variant.
    Histo {
        buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
        sum: u64,
        count: u64,
    },
}

struct Series {
    family: String,
    /// Label body without braces, e.g. `shard="0"`, or `None`.
    labels: Option<String>,
    snap: Snap,
}

impl Series {
    fn append_samples(&self, out: &mut Vec<(String, f64)>) {
        match &self.snap {
            Snap::Scalar(v) => out.push((self.series_name(None), *v as f64)),
            Snap::Histo {
                buckets,
                sum,
                count,
            } => {
                let last = buckets.iter().rposition(|&b| b != 0).unwrap_or(0);
                let mut cum = 0u64;
                for (i, b) in buckets.iter().enumerate().take(last + 1) {
                    cum += b;
                    let le = if i >= 64 {
                        "+Inf".to_string()
                    } else {
                        bucket_upper_bound(i).to_string()
                    };
                    out.push((self.series_name(Some(("_bucket", &le))), cum as f64));
                }
                if last < 64 {
                    out.push((self.series_name(Some(("_bucket", "+Inf"))), *count as f64));
                }
                out.push((self.series_name_suffix("_sum"), *sum as f64));
                out.push((self.series_name_suffix("_count"), *count as f64));
            }
        }
    }

    /// Series name with optional `(suffix, le)` for bucket samples.
    fn series_name(&self, bucket: Option<(&str, &str)>) -> String {
        match bucket {
            None => match &self.labels {
                None => self.family.clone(),
                Some(l) => format!("{}{{{}}}", self.family, l),
            },
            Some((suffix, le)) => match &self.labels {
                None => format!("{}{}{{le=\"{}\"}}", self.family, suffix, le),
                Some(l) => {
                    format!("{}{}{{{},le=\"{}\"}}", self.family, suffix, l, le)
                }
            },
        }
    }

    fn series_name_suffix(&self, suffix: &str) -> String {
        match &self.labels {
            None => format!("{}{}", self.family, suffix),
            Some(l) => format!("{}{}{{{}}}", self.family, suffix, l),
        }
    }
}

/// Split a series name into `(family, labels)`:
/// `a{b="c"}` → `("a", Some("b=\"c\""))`, `a` → `("a", None)`.
fn split_series(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        None => (name, None),
        Some(i) => {
            let body = name[i..].strip_prefix('{').unwrap_or("");
            let body = body.strip_suffix('}').unwrap_or(body);
            (&name[..i], Some(body))
        }
    }
}

/// Format a sample value: integers without a fraction, else shortest
/// round-trip `f64` (Rust's `Display` is shortest-round-trip).
fn format_value(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..64usize {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            assert!(lo > bucket_upper_bound(i - 1));
            assert_eq!(hi, bucket_upper_bound(i));
        }
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("t_total", "a counter");
        let g = reg.gauge("t_level", "a gauge");
        c.inc();
        c.add(4);
        g.set(7);
        g.add(3);
        g.sub(2);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 8);
        // Idempotent re-registration shares the cell.
        reg.counter("t_total", "ignored").add(1);
        assert_eq!(c.get(), 6);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("t_total", "a counter");
        reg.gauge("t_total", "oops");
    }

    #[test]
    fn histogram_records_and_renders() {
        let reg = Registry::new();
        let h = reg.histogram("t_ns", "a histogram");
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(5);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 11);
        let page = reg.render();
        assert!(page.contains("# TYPE t_ns histogram"));
        assert!(page.contains("t_ns_bucket{le=\"0\"} 1"));
        assert!(page.contains("t_ns_bucket{le=\"1\"} 2"));
        assert!(page.contains("t_ns_bucket{le=\"3\"} 2"));
        assert!(page.contains("t_ns_bucket{le=\"7\"} 4"));
        assert!(page.contains("t_ns_bucket{le=\"+Inf\"} 4"));
        assert!(page.contains("t_ns_sum 11"));
        assert!(page.contains("t_ns_count 4"));
    }

    #[test]
    fn labeled_series_group_into_one_family() {
        let reg = Registry::new();
        // Registered out of order; exposition must sort.
        reg.counter("t_x_total{shard=\"1\"}", "per-shard").add(10);
        reg.counter("t_x_total{shard=\"0\"}", "per-shard").add(5);
        let page = reg.render();
        let help_count = page.matches("# HELP t_x_total ").count();
        assert_eq!(help_count, 1);
        let s0 = page.find("t_x_total{shard=\"0\"} 5").unwrap();
        let s1 = page.find("t_x_total{shard=\"1\"} 10").unwrap();
        assert!(s0 < s1);
    }
}
