//! # dpd — Dynamic Periodicity Detector toolkit
//!
//! Facade crate re-exporting the whole workspace: a production-quality
//! reproduction of Freitag, Corbalan & Labarta, *"A Dynamic Periodicity
//! Detector: Application to Speedup Computation"* (IPDPS 2001).
//!
//! * [`core`] — the DPD algorithm: metrics, streaming detection,
//!   segmentation, nested periods, prediction, window autotuning.
//! * [`trace`] — event/sampled trace types, generators and I/O.
//! * [`runtime`] — the parallel runtime substrate: the virtual-time
//!   multiprocessor with its CPU-usage accounting, allocation policies,
//!   and the sharded multi-stream DPD service.
//! * [`obs`] — the observability plane: lock-free metrics registry,
//!   Prometheus-style exposition endpoint, and DTB self-tracing (the
//!   detector pointed at the server's own ingest loops).
//! * [`interpose`] — DITools-style call interposition.
//! * [`analyzer`] — the SelfAnalyzer: run-time speedup computation.
//! * [`apps`] — the paper's evaluation workloads (SPECfp95 + NAS FT shapes).
//!
//! A crate-by-crate data-flow tour with a pipeline diagram lives in
//! `docs/ARCHITECTURE.md`; the on-disk trace formats are specified in
//! `docs/FORMAT.md`; the online forecasting subsystem's contract
//! (confidence semantics, phase-change invalidation, MAPE) lives in
//! `docs/PREDICTION.md`.
//!
//! ## Quick start
//!
//! Every detector stack is assembled by one typed entry point,
//! [`core::pipeline::DpdBuilder`]; each finisher returns its own stack,
//! and `push`/`push_slice` return what the stack observed:
//!
//! ```
//! use dpd::core::pipeline::DpdBuilder;
//! use dpd::core::streaming::SegmentEvent;
//!
//! // A period-3 loop-address stream through the event-stream detector.
//! let mut dpd = DpdBuilder::new().window(16).build_detector().unwrap();
//! let stream: Vec<i64> = (0..100).map(|i| [0x400000, 0x400040, 0x400080][i % 3]).collect();
//! let detections: Vec<usize> = dpd
//!     .push_slice(&stream)
//!     .iter()
//!     .filter_map(|e| match e {
//!         SegmentEvent::PeriodStart { period, .. } => Some(*period),
//!         _ => None,
//!     })
//!     .collect();
//! assert!(!detections.is_empty());
//! assert!(detections.iter().all(|&p| p == 3));
//! ```
//!
//! ## Persisting and replaying traces
//!
//! Traces persist in an inspectable text format or the compact DTB binary
//! container ([`trace::dtb`]); readers auto-detect either by magic:
//!
//! ```
//! use dpd::trace::{io, EventTrace};
//!
//! // Persist a period-2 loop-address stream as DTB...
//! let trace = EventTrace::from_values("demo", vec![0x40, 0x80, 0x40, 0x80]);
//! let mut bytes = Vec::new();
//! dpd::trace::dtb::write_events(&trace, &mut bytes).unwrap();
//!
//! // ...and read it back without saying which format it is.
//! let back = io::read_events_auto(&bytes[..]).unwrap();
//! assert_eq!(back, trace);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use ditools as interpose;
pub use dpd_core as core;
pub use dpd_obs as obs;
pub use dpd_trace as trace;
pub use par_runtime as runtime;
pub use selfanalyzer as analyzer;
pub use spec_apps as apps;

/// The README's Rust example, compiled and run as a doctest so it cannot
/// drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
