//! Public-API surface golden test.
//!
//! Snapshots the curated export list of `dpd_core` (via the `dpd` facade)
//! and the facade's top-level modules against
//! `tests/fixtures/api_surface.txt`, so accidental public-API breakage —
//! a removed type, a renamed module, a re-export that silently vanishes —
//! fails CI instead of shipping.
//!
//! Two layers of protection:
//!
//! 1. **Existence is checked by the compiler**: every listed path appears
//!    in a `use` item below, so removing or renaming the item breaks this
//!    test's build (no `cargo doc` machinery involved).
//! 2. **The list itself is goldened**: adding or removing an entry changes
//!    the snapshot, which must be re-blessed explicitly with
//!    `DPD_BLESS=1 cargo test --test api_surface` — making API-surface
//!    changes visible in review as a fixture diff.

/// Existence proof: each public item named in the snapshot, imported once.
/// A removal from the public API turns into a compile error right here.
#[allow(unused_imports)]
mod exists {
    mod facade_modules {
        pub use dpd::{analyzer, apps, core, interpose, obs, runtime, trace};
    }
    mod core_modules {
        pub use dpd::core::{
            autotune, baseline, capi, detector, incremental, metric, minima, pipeline, predict,
            query, segmentation, shard, snapshot, spectrum, streaming, window,
        };
    }
    mod core_top_level {
        pub use dpd::core::{
            BuildError, Dpd, DpdBuilder, DpdError, EventMetric, Forecast, ForecastStats,
            ForecastingDpd, FrameDetector, L1Metric, Metric, MultiScaleDpd, MultiStreamEvent,
            PeriodicityReport, PredictConfig, Predictor, Restore, Result, SegmentEvent, Snapshot,
            SnapshotError, Spectrum, StreamHandle, StreamId, StreamSummary, StreamTable,
            StreamTier, StreamingConfig, StreamingDpd, TableConfig,
        };
    }
    mod pipeline_items {
        pub use dpd::core::pipeline::{BuildError, DpdBuilder, ServiceSpec, DEFAULT_SCALES};
    }
    mod shard_items {
        pub use dpd::core::shard::{
            shard_of, MultiStreamEvent, StreamHandle, StreamId, StreamSummary, StreamTable,
            StreamTier, TableConfig, TableStats, MAX_RESIDENT_STREAMS,
        };
    }
    mod snapshot_items {
        pub use dpd::core::snapshot::{
            Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
        };
    }
    mod streaming_items {
        pub use dpd::core::streaming::{
            MultiScaleDpd, MultiScaleEvent, SegmentEvent, StreamStats, StreamingConfig,
            StreamingDpd,
        };
    }
    mod predict_items {
        pub use dpd::core::predict::{
            Forecast, ForecastStats, ForecastingDpd, Observation, PredictConfig, Predictor, Scored,
        };
    }
    mod query_items {
        pub use dpd::core::query::{
            parse_specs, ParseSpecError, QueryChange, QueryDelta, QueryEngine, QueryId, QuerySpec,
            TrackedStream, CONFIDENCE_ALPHA, MAX_QUERY_PERIOD,
        };
    }
    mod query_reexports {
        pub use dpd::core::{QueryChange, QueryDelta, QueryEngine, QueryId, QuerySpec};
    }
    mod service_items {
        pub use dpd::runtime::service::{
            CheckpointError, MultiStreamDpd, ServiceObs, ServiceSnapshot,
        };
    }
    mod obs_items {
        pub use dpd::obs::{
            bucket_of, bucket_upper_bound, log2_bucket, parse_exposition, scrape, Counter, Gauge,
            Histogram, MetricKind, MetricsServer, ParseError, Registry, Scrape, SelfTraceWriter,
            SelfTracer, HISTOGRAM_BUCKETS,
        };
    }
    mod net_items {
        pub use dpd::runtime::net::{
            DpdServer, DurableNet, NetConfig, NetError, NetStats, ServeReport, HANDSHAKE_MAGIC,
            PROTOCOL_VERSION,
        };
    }
    mod analyzer_items {
        pub use dpd::analyzer::{ExecutionEstimator, RegionInfo, SelfAnalyzer};
    }
}

/// The snapshot: one path per line, kept sorted. Existence of every entry
/// is enforced by the `exists` module above; membership is enforced by the
/// golden fixture.
const SURFACE: &[&str] = &[
    "dpd::analyzer",
    "dpd::analyzer::ExecutionEstimator",
    "dpd::analyzer::RegionInfo",
    "dpd::analyzer::SelfAnalyzer",
    "dpd::apps",
    "dpd::core",
    "dpd::core::BuildError",
    "dpd::core::Dpd",
    "dpd::core::DpdBuilder",
    "dpd::core::DpdError",
    "dpd::core::EventMetric",
    "dpd::core::Forecast",
    "dpd::core::ForecastStats",
    "dpd::core::ForecastingDpd",
    "dpd::core::FrameDetector",
    "dpd::core::L1Metric",
    "dpd::core::Metric",
    "dpd::core::MultiScaleDpd",
    "dpd::core::MultiStreamEvent",
    "dpd::core::PeriodicityReport",
    "dpd::core::PredictConfig",
    "dpd::core::Predictor",
    "dpd::core::QueryChange",
    "dpd::core::QueryDelta",
    "dpd::core::QueryEngine",
    "dpd::core::QueryId",
    "dpd::core::QuerySpec",
    "dpd::core::Restore",
    "dpd::core::Result",
    "dpd::core::SegmentEvent",
    "dpd::core::Snapshot",
    "dpd::core::SnapshotError",
    "dpd::core::Spectrum",
    "dpd::core::StreamHandle",
    "dpd::core::StreamId",
    "dpd::core::StreamSummary",
    "dpd::core::StreamTable",
    "dpd::core::StreamTier",
    "dpd::core::StreamingConfig",
    "dpd::core::StreamingDpd",
    "dpd::core::TableConfig",
    "dpd::core::autotune",
    "dpd::core::baseline",
    "dpd::core::capi",
    "dpd::core::detector",
    "dpd::core::incremental",
    "dpd::core::metric",
    "dpd::core::minima",
    "dpd::core::pipeline",
    "dpd::core::pipeline::BuildError",
    "dpd::core::pipeline::DEFAULT_SCALES",
    "dpd::core::pipeline::DpdBuilder",
    "dpd::core::pipeline::ServiceSpec",
    "dpd::core::predict",
    "dpd::core::predict::Observation",
    "dpd::core::predict::Scored",
    "dpd::core::query",
    "dpd::core::query::CONFIDENCE_ALPHA",
    "dpd::core::query::MAX_QUERY_PERIOD",
    "dpd::core::query::ParseSpecError",
    "dpd::core::query::QueryChange",
    "dpd::core::query::QueryDelta",
    "dpd::core::query::QueryEngine",
    "dpd::core::query::QueryId",
    "dpd::core::query::QuerySpec",
    "dpd::core::query::TrackedStream",
    "dpd::core::query::parse_specs",
    "dpd::core::segmentation",
    "dpd::core::shard",
    "dpd::core::shard::MAX_RESIDENT_STREAMS",
    "dpd::core::shard::TableStats",
    "dpd::core::shard::shard_of",
    "dpd::core::snapshot",
    "dpd::core::snapshot::Restore",
    "dpd::core::snapshot::Snapshot",
    "dpd::core::snapshot::SnapshotError",
    "dpd::core::snapshot::SnapshotReader",
    "dpd::core::snapshot::SnapshotWriter",
    "dpd::core::spectrum",
    "dpd::core::streaming",
    "dpd::core::streaming::MultiScaleEvent",
    "dpd::core::streaming::StreamStats",
    "dpd::core::window",
    "dpd::interpose",
    "dpd::obs",
    "dpd::obs::Counter",
    "dpd::obs::Gauge",
    "dpd::obs::HISTOGRAM_BUCKETS",
    "dpd::obs::Histogram",
    "dpd::obs::MetricKind",
    "dpd::obs::MetricsServer",
    "dpd::obs::ParseError",
    "dpd::obs::Registry",
    "dpd::obs::Scrape",
    "dpd::obs::SelfTraceWriter",
    "dpd::obs::SelfTracer",
    "dpd::obs::bucket_of",
    "dpd::obs::bucket_upper_bound",
    "dpd::obs::log2_bucket",
    "dpd::obs::parse_exposition",
    "dpd::obs::scrape",
    "dpd::runtime",
    "dpd::runtime::net::DpdServer",
    "dpd::runtime::net::DurableNet",
    "dpd::runtime::net::HANDSHAKE_MAGIC",
    "dpd::runtime::net::NetConfig",
    "dpd::runtime::net::NetError",
    "dpd::runtime::net::NetStats",
    "dpd::runtime::net::PROTOCOL_VERSION",
    "dpd::runtime::net::ServeReport",
    "dpd::runtime::service::CheckpointError",
    "dpd::runtime::service::MultiStreamDpd",
    "dpd::runtime::service::ServiceObs",
    "dpd::runtime::service::ServiceSnapshot",
    "dpd::trace",
];

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/api_surface.txt"
);

#[test]
fn public_surface_matches_golden_fixture() {
    let mut current: Vec<&str> = SURFACE.to_vec();
    let sorted = {
        let mut s = current.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(current, sorted, "keep SURFACE sorted for stable diffs");
    current.dedup();
    assert_eq!(current.len(), SURFACE.len(), "duplicate SURFACE entries");

    let rendered = format!("{}\n", SURFACE.join("\n"));
    if std::env::var_os("DPD_BLESS").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write api_surface fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!("missing {FIXTURE} ({e}); run DPD_BLESS=1 cargo test --test api_surface")
    });
    assert_eq!(
        rendered, golden,
        "public API surface changed; review the diff and re-bless with \
         DPD_BLESS=1 cargo test --test api_surface"
    );
}
