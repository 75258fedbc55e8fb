//! # dpd-trace — trace substrate for the DPD toolkit
//!
//! The paper's detector consumes *data streams obtained from the execution of
//! applications* (§1): sequences of parallel-loop call addresses, CPU-usage
//! counts sampled at a fixed frequency, hardware-counter values. This crate
//! provides the trace model shared by the whole workspace:
//!
//! * [`event::EventTrace`] — ordered sequences of discrete identifiers
//!   (function addresses); the input of equation (2).
//! * [`sampled::SampledTrace`] — values sampled at a fixed frequency
//!   (instantaneous CPU usage at 1 ms in the paper's Figure 3); the input of
//!   equation (1).
//! * [`gen`] — synthetic stream generators used by tests, property tests and
//!   the calibration/ablation benches (periodic, nested, noisy, aperiodic).
//! * [`io`] — trace persistence: the inspectable line-oriented text format
//!   plus auto-detection between it and the DTB binary container.
//! * [`dtb`] — the DTB binary container: multi-stream, delta-of-delta +
//!   varint encoded, CRC-protected, built for wire-speed replay (see
//!   `docs/FORMAT.md` for the normative spec). Decodable from a resident
//!   slice ([`dtb::DtbReader`]) or incrementally from fragmented wire
//!   input ([`dtb::DtbDecoder`]).
//! * [`pile`] — the append-only, crash-safe segment log (event frames,
//!   checkpoint frames, epoch markers) with torn-tail recovery; the
//!   durability substrate of the multi-stream service (see
//!   `docs/FORMAT.md` §9).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dtb;
pub mod event;
pub mod gen;
pub mod io;
pub mod pile;
pub mod quantize;
pub mod sampled;

pub use event::EventTrace;
pub use sampled::SampledTrace;
