//! Property tests for the observability plane (`dpd::obs`).
//!
//! Three contracts under test:
//!
//! 1. **Histogram bucket invariants** — every recorded value lands in
//!    exactly the log2 bucket `bucket_of` names, the bucket population
//!    always sums to the count, and the bucket bounds tile the u64 range
//!    without gaps or overlaps.
//! 2. **Exposition round-trip** — `parse_exposition(registry.render())`
//!    recovers exactly `registry.samples()`, for arbitrary mixes of
//!    counters, gauges and histograms (labeled and not).
//! 3. **Scrape-equals-drain differential** — reading the registry over
//!    the live HTTP endpoint (`dpd::obs::scrape`) yields the very same
//!    samples as draining it in-process; the wire adds nothing and
//!    loses nothing. The same differential is run for the self-tracer:
//!    the DTB file its sampler thread writes carries exactly the values
//!    that were recorded, in order, per shard.

use dpd::obs::{
    bucket_of, bucket_upper_bound, parse_exposition, scrape, MetricsServer, Registry, SelfTracer,
    HISTOGRAM_BUCKETS,
};
use dpd::trace::dtb;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

proptest! {
    /// Invariant 1: bucket placement and tiling.
    #[test]
    fn histogram_bucket_invariants(
        values in collection::vec(0u64..(1u64 << 40), 0..200),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("prop_ns", "bucket invariants");
        let mut expect = vec![0u64; HISTOGRAM_BUCKETS];
        for &v in &values {
            h.record(v);
            let b = bucket_of(v);
            prop_assert!(b < HISTOGRAM_BUCKETS, "bucket index out of range");
            // The value fits under its bucket's bound...
            prop_assert!(v <= bucket_upper_bound(b));
            // ...and does not fit under the previous bucket's bound.
            if b > 0 {
                prop_assert!(v > bucket_upper_bound(b - 1));
            }
            expect[b] += 1;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        let buckets = h.buckets();
        prop_assert_eq!(&buckets[..], &expect[..]);
        prop_assert_eq!(buckets.iter().sum::<u64>(), h.count());
        // Bounds are strictly increasing: the buckets tile the range.
        for b in 1..HISTOGRAM_BUCKETS - 1 {
            prop_assert!(bucket_upper_bound(b - 1) < bucket_upper_bound(b));
        }
        prop_assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    /// Invariant 2: the text page parses back to exactly the samples.
    #[test]
    fn exposition_round_trips(
        counters in collection::vec(0u64..(1u64 << 32), 1..6),
        gauge in 0u64..100_000,
        hist in collection::vec(0u64..(1u64 << 20), 0..50),
    ) {
        let reg = Registry::new();
        for (i, &c) in counters.iter().enumerate() {
            reg.counter(&format!("prop_c_total{{shard=\"{i}\"}}"), "labeled counter")
                .add(c);
        }
        reg.gauge("prop_level", "a gauge").set(gauge);
        let h = reg.histogram("prop_lat_ns", "a histogram");
        for &v in &hist {
            h.record(v);
        }
        let parsed = parse_exposition(&reg.render()).unwrap();
        let expect: BTreeMap<String, f64> = reg.samples().into_iter().collect();
        prop_assert_eq!(parsed.values, expect);
        }

    /// Invariant 3a: one scrape over the wire == one in-process drain.
    #[test]
    fn scrape_equals_drain(
        counters in collection::vec(0u64..(1u64 << 32), 1..6),
        hist in collection::vec(0u64..(1u64 << 24), 1..40),
    ) {
        let reg = Registry::new();
        for (i, &c) in counters.iter().enumerate() {
            reg.counter(&format!("wire_c_total{{shard=\"{i}\"}}"), "labeled counter")
                .add(c);
        }
        let h = reg.histogram("wire_lat_ns", "a histogram");
        for &v in &hist {
            h.record(v);
        }
        let server = MetricsServer::start(reg.clone(), "127.0.0.1:0").unwrap();
        let page = scrape(server.local_addr()).unwrap();
        server.shutdown();
        let over_wire = parse_exposition(&page).unwrap();
        let in_process: BTreeMap<String, f64> = reg.samples().into_iter().collect();
        prop_assert_eq!(over_wire.values, in_process);
    }

    /// Invariant 3b: the self-trace DTB capture carries exactly the
    /// recorded per-shard values, in record order.
    #[test]
    fn self_trace_round_trips(
        shards in 1usize..4,
        values in collection::vec(-5_000i64..5_000, 1..300),
    ) {
        let tracer = SelfTracer::new(shards);
        let dir = std::env::temp_dir().join(format!(
            "dpd-proptest-obs-{}-{shards}-{}",
            std::process::id(),
            values.len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("self.dtb");
        let writer = tracer.start_writer(&path, Duration::from_millis(5)).unwrap();
        let mut expect: Vec<Vec<i64>> = vec![Vec::new(); shards];
        for (i, &v) in values.iter().enumerate() {
            let shard = i % shards;
            tracer.record_value(shard, v);
            expect[shard].push(v);
        }
        writer.finish();
        let data = std::fs::read(&path).unwrap();
        let (events, sampled) = dtb::read_all(&data).unwrap();
        prop_assert!(sampled.is_empty());
        prop_assert_eq!(events.len(), shards);
        for (k, (_, t)) in events.iter().enumerate() {
            prop_assert_eq!(t.name.as_str(), format!("ingest-loop/shard-{k}").as_str());
            prop_assert_eq!(&t.values, &expect[k]);
        }
        prop_assert_eq!(tracer.recorded(), values.len() as u64);
        prop_assert_eq!(tracer.dropped(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
