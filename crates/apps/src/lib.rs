//! # spec-apps — the paper's evaluation workloads
//!
//! The paper evaluates the DPD on five hand-parallelized SPECfp95
//! applications (§6.1) plus the NAS FT benchmark (§3.2). We do not ship the
//! SPEC sources; instead each application is re-created as a cost model:
//! per-loop work on the virtual-time machine, issued in the **exact
//! iterative loop-call structure** the paper reports in Table 2:
//!
//! | app      | stream length | periodicities |
//! |----------|---------------|---------------|
//! | apsi     | 5762          | 6             |
//! | hydro2d  | 53814         | 1, 24, 269    |
//! | swim     | 5402          | 6             |
//! | tomcatv  | 3750          | 5             |
//! | turb3d   | 1580          | 12, 142       |
//!
//! The DPD never observes the applications' arithmetic — only the order and
//! identity of their parallel-loop invocations (equation 2) or their sampled
//! CPU usage (equation 1) — so reproducing the loop structure reproduces the
//! detector's exact input distribution. Applications run on the virtual-time
//! [`par_runtime::Machine`] through the [`ditools`] interposition layer,
//! optionally with the [`selfanalyzer`] attached (paper Fig. 6).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod app;
pub mod apsi;
pub mod ft;
pub mod hydro2d;
pub mod swim;
pub mod tomcatv;
pub mod turb3d;

pub use app::{App, AppRun, RunConfig};

/// All five SPECfp95-shaped applications, Table 2 order.
pub fn spec_apps() -> Vec<Box<dyn App>> {
    vec![
        Box::new(apsi::Apsi),
        Box::new(hydro2d::Hydro2d),
        Box::new(swim::Swim),
        Box::new(tomcatv::Tomcatv),
        Box::new(turb3d::Turb3d),
    ]
}
