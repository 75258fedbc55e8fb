//! # dpd-obs — the observability plane of the DPD toolkit
//!
//! Before this crate the stack's runtime state was scattered across
//! ad-hoc structs (`NetStats`' counters, per-shard service rollups,
//! StreamTable rollups, query enter/exit counts) that were only
//! visible at drain time. `dpd_obs` gives the whole workspace one
//! always-on plane:
//!
//! * [`registry`] — a lock-free metrics [`Registry`]: monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-capacity log2-bucket
//!   [`Histogram`]s. Recording is a relaxed atomic add — no locks, no
//!   allocation on the hot path. The registry mutex is touched only at
//!   registration and render time.
//! * [`expose`] — deterministic Prometheus-style text exposition
//!   ([`Registry::render`]) plus the matching parser
//!   ([`parse_exposition`]) used by `dpd stats` and the property
//!   tests.
//! * [`http`] — [`MetricsServer`], a hand-rolled HTTP/1.0 listener
//!   (in the spirit of `dpd serve`'s TCP front-end) that serves the
//!   rendered page at `/metrics`; plus [`scrape`], the matching
//!   minimal client.
//! * [`selftrace`] — [`SelfTracer`], a bounded per-shard ring of
//!   ingest-loop iteration timings drained by a sampler thread into a
//!   DTB self-trace, so `dpd analyze` can run the periodicity
//!   detector on the server's *own* behavior — the paper's
//!   online-self-analysis premise closed over the system itself.
//!
//! The metric name contract is specified in `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod expose;
pub mod http;
pub mod registry;
pub mod selftrace;

pub use expose::{parse_exposition, ParseError, Scrape};
pub use http::{scrape, MetricsServer};
pub use registry::{
    bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, MetricKind, Registry,
    HISTOGRAM_BUCKETS,
};
pub use selftrace::{log2_bucket, SelfTraceWriter, SelfTracer};
