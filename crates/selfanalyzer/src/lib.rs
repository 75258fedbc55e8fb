//! # selfanalyzer — dynamic speedup computation
//!
//! The SelfAnalyzer of the paper (§5, \[Corbalan99\]) "dynamically calculates
//! the speedup achieved by the parallel regions of the applications, and
//! estimates the execution time of the whole application", exploiting the
//! iterative structure of scientific codes: measurements for one iteration
//! of the main loop predict the behaviour of the next ones.
//!
//! Pipeline (paper Fig. 6):
//!
//! 1. the DITools layer intercepts each call to an encapsulated parallel
//!    loop and fires a `DI_event`,
//! 2. the event handler passes the function address to the DPD,
//! 3. when the DPD reports a period start, the SelfAnalyzer identifies a
//!    parallel region by `(starting address, period length)` and times the
//!    iterations it delimits.
//!
//! The speedup is "the relationship between the execution time of one
//! iteration of the main loop, executed with a baseline number of
//! processors, and the execution time of one iteration with the number of
//! available processors" (§5).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analyzer;
pub mod estimate;
pub mod policy;
pub mod report;
pub mod speedup;

pub use analyzer::{DurationForecast, RegionInfo, SelfAnalyzer};
pub use estimate::ExecutionEstimator;
pub use speedup::{efficiency, speedup};
