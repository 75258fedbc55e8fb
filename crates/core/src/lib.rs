//! # dpd-core — Dynamic Periodicity Detector
//!
//! A production-quality implementation of the Dynamic Periodicity Detector
//! (DPD) of Freitag, Corbalan and Labarta, *"A Dynamic Periodicity Detector:
//! Application to Speedup Computation"*, IPDPS 2001.
//!
//! The DPD estimates the periodicity of a data stream obtained from the
//! execution of an application (sequences of parallel-loop call addresses,
//! sampled CPU-usage counts, hardware-counter values, ...). It works on a
//! sliding data window of `N` samples and computes, for every candidate delay
//! `m` with `0 < m < M <= N`, a distance between the window and the window
//! shifted by `m` samples:
//!
//! * **Equation (1)** (magnitude streams):
//!   `d(m) = (1/N) * sum_{n=0}^{N-1} |x[n] - x[n-m]|`
//! * **Equation (2)** (event streams, e.g. function addresses):
//!   `d(m) = sign( sum_{i=0}^{N-1} |x(i) - x(i-m)| )`
//!
//! A (local) minimum of `d(m)` — exactly zero for event streams — indicates
//! that the stream is periodic with period `m`. On top of the raw metric the
//! crate provides:
//!
//! * [`detector::FrameDetector`] — frame-based analysis of a complete slice,
//!   producing a full [`spectrum::Spectrum`] of `d(m)` values (paper Fig. 4),
//! * [`streaming::StreamingDpd`] — the on-line detector with per-sample cost
//!   `O(M)` that performs **segmentation** of the stream into periods (the
//!   semantics of the paper's `int DPD(long sample, int *period)` interface),
//! * [`streaming::MultiScaleDpd`] — a bank of detectors at several window
//!   sizes that finds nested iterative structures (hydro2d/turb3d in the
//!   paper's Table 2),
//! * [`segmentation::Segmenter`] — the stream cut into one segment per
//!   lock, counted in period starts (paper §1, application 1; Fig. 7),
//! * [`predict::Predictor`] / [`predict::ForecastingDpd`] — prediction of
//!   future stream values from the detected period (paper §1,
//!   application 3): allocation-free per-stream forecasts with confidence
//!   scoring and phase-change invalidation (see `docs/PREDICTION.md`),
//! * [`query::QueryEngine`] — delta-evaluated standing queries
//!   (period-in-range, lock-lost-within, confidence thresholds, period
//!   joins) answered incrementally from event deltas (see
//!   `docs/QUERIES.md`),
//! * [`autotune::WindowTuner`] — dynamic adjustment of the window size once a
//!   satisfying periodicity has been found (paper §3.1/§4),
//! * [`snapshot::Snapshot`] / [`snapshot::Restore`] — versioned,
//!   bit-exact serialization of every stack's full state for crash-safe
//!   checkpoint/restore (builder `restore_*` finishers validate the
//!   snapshot against the builder's configuration),
//! * [`capi::Dpd`] — the paper-faithful Table 1 interface.
//!
//! Every one of those stacks is constructed through **one typed entry
//! point**, [`pipeline::DpdBuilder`], which validates option combinations
//! ([`pipeline::BuildError`]); each finisher returns its own stack, which
//! reports through its own `push` return value.
//!
//! ## Quick start
//!
//! ```
//! use dpd_core::pipeline::DpdBuilder;
//! use dpd_core::streaming::SegmentEvent;
//!
//! // A stream of "parallel loop addresses" with period 3: A B C A B C ...
//! let stream = [10i64, 20, 30, 10, 20, 30, 10, 20, 30, 10, 20, 30];
//! let mut dpd = DpdBuilder::new().window(8).build_detector().unwrap();
//! let detected = dpd.push_slice(&stream).iter().find_map(|e| match e {
//!     SegmentEvent::PeriodStart { period, .. } => Some(*period),
//!     _ => None,
//! });
//! assert_eq!(detected, Some(3));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod autotune;
pub mod baseline;
pub mod capi;
pub mod detector;
pub mod incremental;
pub mod metric;
pub mod minima;
pub mod pipeline;
pub mod predict;
pub mod query;
pub mod segmentation;
pub mod shard;
pub mod snapshot;
pub mod spectrum;
pub mod streaming;
pub mod window;

pub use capi::Dpd;
pub use detector::{FrameDetector, PeriodicityReport};
pub use metric::{EventMetric, L1Metric, Metric};
pub use pipeline::{BuildError, DpdBuilder};
pub use predict::{Forecast, ForecastStats, ForecastingDpd, PredictConfig, Predictor};
pub use query::{QueryChange, QueryDelta, QueryEngine, QueryId, QuerySpec};
pub use shard::{
    MultiStreamEvent, StreamHandle, StreamId, StreamSummary, StreamTable, StreamTier, TableConfig,
};
pub use snapshot::{Restore, Snapshot, SnapshotError};
pub use spectrum::Spectrum;
pub use streaming::{MultiScaleDpd, SegmentEvent, StreamingConfig, StreamingDpd};

/// Errors produced by detector construction and reconfiguration.
///
/// `#[non_exhaustive]`: downstream matches must carry a wildcard arm so
/// new diagnostics can be added without a breaking change. Every variant
/// renders a lowercase, period-free [`Display`](core::fmt::Display)
/// message (asserted by a unit test).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpdError {
    /// The requested window size is zero or otherwise unusable.
    InvalidWindow(usize),
    /// The requested maximum delay `M` does not satisfy `0 < M <= N`.
    InvalidMaxDelay {
        /// Requested maximum delay.
        m_max: usize,
        /// Configured window size.
        window: usize,
    },
    /// A slice passed to a frame API was too short for the configuration.
    StreamTooShort {
        /// Number of samples required.
        needed: usize,
        /// Number of samples provided.
        got: usize,
    },
    /// The requested forecast horizon is zero or otherwise unusable.
    InvalidHorizon(usize),
}

impl core::fmt::Display for DpdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DpdError::InvalidWindow(n) => write!(f, "invalid DPD window size: {n}"),
            DpdError::InvalidMaxDelay { m_max, window } => {
                write!(f, "invalid max delay M={m_max} for window N={window}")
            }
            DpdError::StreamTooShort { needed, got } => {
                write!(f, "stream too short: need {needed} samples, got {got}")
            }
            DpdError::InvalidHorizon(h) => write!(f, "invalid forecast horizon: {h}"),
        }
    }
}

impl std::error::Error for DpdError {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, DpdError>;

#[cfg(test)]
mod error_tests {
    use super::DpdError;

    /// Every `DpdError` variant renders a lowercase, period-free message
    /// and is usable as a `std::error::Error`.
    #[test]
    fn every_dpd_error_variant_renders() {
        let variants = vec![
            DpdError::InvalidWindow(0),
            DpdError::InvalidMaxDelay {
                m_max: 9,
                window: 8,
            },
            DpdError::StreamTooShort { needed: 10, got: 3 },
            DpdError::InvalidHorizon(0),
        ];
        for v in variants {
            let msg = v.to_string();
            assert!(!msg.is_empty(), "{v:?} renders empty");
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "{v:?} message must start lowercase: {msg:?}"
            );
            assert!(!msg.ends_with('.'), "{v:?} message ends with a period");
            let err: &dyn std::error::Error = &v;
            assert!(err.source().is_none());
        }
    }
}
