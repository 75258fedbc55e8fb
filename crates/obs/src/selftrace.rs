//! DTB self-tracing: the detector pointed at itself.
//!
//! The paper's premise is online analysis of a *running program's*
//! periodic behavior. This module closes that loop over our own
//! server: each shard's ingest loop reports its iteration wall time,
//! a sampler thread drains those reports every `every_ms` into a DTB
//! event trace (one stream per shard), and `dpd analyze` can then run
//! the periodicity detector on the server's own behavior.
//!
//! Timings are quantized to their log2 bucket ([`log2_bucket`] — the
//! same bucketing as the registry's histograms), which turns noisy
//! nanosecond readings into the small stable alphabet the event-based
//! detector (paper eq. 2) expects: a periodic workload pattern shows
//! up as a periodic bucket sequence.
//!
//! The recording side never blocks and never allocates while the
//! sampler holds the ring: each ring is bounded, and reports that
//! arrive while it is full are counted as dropped rather than queued.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dpd_trace::dtb::DtbWriter;

/// Bound on buffered iteration reports per shard between sampler
/// drains. At the default 100 ms cadence this absorbs ~650k
/// iterations/s/shard before dropping — far above real loop rates.
const RING_CAP: usize = 1 << 16;

/// Log2 bucket of a duration in nanoseconds, as an event value.
///
/// Identical quantization to the registry histograms
/// ([`crate::registry::bucket_of`]): `0` for `0`, else
/// `64 - leading_zeros`. Exposed so tests and docs can speak the same
/// alphabet as the trace.
#[inline]
pub fn log2_bucket(ns: u64) -> i64 {
    (u64::BITS - ns.leading_zeros()) as i64
}

struct Ring {
    values: Mutex<Vec<i64>>,
}

struct TracerInner {
    rings: Vec<Ring>,
    dropped: AtomicU64,
    recorded: AtomicU64,
}

/// Handle held by ingest loops: records one iteration timing per call.
///
/// Cheap to clone; all clones feed the same rings. `record_ns` takes a
/// brief uncontended mutex on the shard's own ring (the sampler holds
/// it only long enough to swap the buffer out), pushes one `i64`, and
/// returns — it never blocks on I/O and never drops work on the floor
/// silently: overflow is counted in [`SelfTracer::dropped`].
#[derive(Clone)]
pub struct SelfTracer {
    inner: Arc<TracerInner>,
}

impl SelfTracer {
    /// A tracer for `shards` ingest loops (shard ids `0..shards`).
    pub fn new(shards: usize) -> Self {
        let rings = (0..shards.max(1))
            .map(|_| Ring {
                values: Mutex::new(Vec::with_capacity(1024)),
            })
            .collect();
        SelfTracer {
            inner: Arc::new(TracerInner {
                rings,
                dropped: AtomicU64::new(0),
                recorded: AtomicU64::new(0),
            }),
        }
    }

    /// Number of shard streams this tracer records.
    pub fn shards(&self) -> usize {
        self.inner.rings.len()
    }

    /// Record one ingest-loop iteration of `ns` nanoseconds on `shard`.
    ///
    /// The stored event value is `log2_bucket(ns)`.
    #[inline]
    pub fn record_ns(&self, shard: usize, ns: u64) {
        self.record_value(shard, log2_bucket(ns));
    }

    /// Record a pre-quantized event value on `shard`. Used by tests to
    /// inject exact periodic patterns; production callers want
    /// [`SelfTracer::record_ns`].
    pub fn record_value(&self, shard: usize, value: i64) {
        let ring = &self.inner.rings[shard % self.inner.rings.len()];
        let mut values = ring.values.lock().unwrap();
        if values.len() >= RING_CAP {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        values.push(value);
        self.inner.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Total iterations recorded (across all shards, since creation).
    pub fn recorded(&self) -> u64 {
        self.inner.recorded.load(Ordering::Relaxed)
    }

    /// Reports dropped because a ring was full between drains.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Take everything buffered for `shard` (swap-out, allocation-free
    /// on the ring side). The sampler thread's read path; public so
    /// embedders without a writer thread can drain rings themselves.
    pub fn drain(&self, shard: usize, into: &mut Vec<i64>) {
        let mut values = self.inner.rings[shard].values.lock().unwrap();
        std::mem::swap(&mut *values, into);
    }

    /// Start the sampler thread writing this tracer's streams to
    /// `path` as a DTB event trace, draining every `every` interval.
    /// Stream `k` is declared as `ingest-loop/shard-K`.
    pub fn start_writer<P: AsRef<Path>>(
        &self,
        path: P,
        every: Duration,
    ) -> io::Result<SelfTraceWriter> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        let mut writer =
            DtbWriter::new(BufWriter::new(file)).map_err(|e| io::Error::other(e.to_string()))?;
        for k in 0..self.shards() {
            writer
                .declare_events(k as u64, &format!("ingest-loop/shard-{k}"))
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let tracer = self.clone();
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("dpd-selftrace".into())
                .spawn(move || sampler_loop(tracer, writer, stop, every))?
        };
        Ok(SelfTraceWriter {
            path,
            stop,
            handle: Some(handle),
        })
    }
}

fn sampler_loop(
    tracer: SelfTracer,
    mut writer: DtbWriter<BufWriter<File>>,
    stop: Arc<AtomicBool>,
    every: Duration,
) {
    let mut scratch: Vec<i64> = Vec::with_capacity(1024);
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        for shard in 0..tracer.shards() {
            scratch.clear();
            tracer.drain(shard, &mut scratch);
            if !scratch.is_empty() {
                let _ = writer.push_events(shard as u64, &scratch);
            }
        }
        // Flush every tick so the file is live-readable mid-run.
        let _ = writer.flush();
        if stopping {
            break;
        }
        std::thread::sleep(every);
    }
    let _ = writer.finish();
}

/// Owns the sampler thread; [`SelfTraceWriter::finish`] performs the
/// final drain and closes the trace file.
pub struct SelfTraceWriter {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl SelfTraceWriter {
    /// The trace file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stop the sampler, drain whatever is still buffered, finalize
    /// the DTB file, and join the thread.
    pub fn finish(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SelfTraceWriter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpd_trace::dtb;

    #[test]
    fn log2_bucket_matches_registry_bucketing() {
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            assert_eq!(log2_bucket(v), crate::registry::bucket_of(v) as i64);
        }
    }

    #[test]
    fn injected_pattern_round_trips_through_dtb() {
        let dir = std::env::temp_dir().join(format!("dpd-obs-st-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("self.dtb");
        let tracer = SelfTracer::new(2);
        let writer = tracer
            .start_writer(&path, Duration::from_millis(5))
            .unwrap();
        let pattern: Vec<i64> = (0..200).map(|i| [10, 10, 14, 10, 18][i % 5]).collect();
        for &v in &pattern {
            tracer.record_value(0, v);
        }
        tracer.record_ns(1, 1000);
        writer.finish();
        assert_eq!(tracer.recorded(), 201);
        assert_eq!(tracer.dropped(), 0);

        let data = std::fs::read(&path).unwrap();
        let (events, _) = dtb::read_all(&data).unwrap();
        assert_eq!(events.len(), 2);
        let (_, s0) = events
            .iter()
            .find(|(_, t)| t.name.ends_with("shard-0"))
            .unwrap();
        assert_eq!(s0.values, pattern);
        let (_, s1) = events
            .iter()
            .find(|(_, t)| t.name.ends_with("shard-1"))
            .unwrap();
        assert_eq!(s1.values, vec![log2_bucket(1000)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overflow_drops_instead_of_growing() {
        let tracer = SelfTracer::new(1);
        for _ in 0..(RING_CAP + 10) {
            tracer.record_value(0, 1);
        }
        assert_eq!(tracer.recorded(), RING_CAP as u64);
        assert_eq!(tracer.dropped(), 10);
    }
}
