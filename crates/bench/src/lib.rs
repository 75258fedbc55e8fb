//! # dpd-bench — experiment harnesses
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index), plus Criterion micro-benchmarks:
//!
//! | target | reproduces |
//! |--------|------------|
//! | `fig3_ft_trace`        | Figure 3 — NAS FT CPU-usage trace |
//! | `fig4_ft_spectrum`     | Figure 4 — d(m) with minimum at m = 44 |
//! | `fig7_segmentation`    | Figure 7 — per-app streams + DPD marks |
//! | `table2_periodicities` | Table 2 — detected periodicities |
//! | `table3_overhead`      | Table 3 — DPD overhead analysis |
//! | `speedup_casestudy`    | §5 — SelfAnalyzer speedup computation |
//! | bench `metric`         | eq (1)/(2) kernel cost |
//! | bench `streaming`      | per-sample DPD cost (Table 3 ablation) |
//! | bench `apps`           | full-trace detection per application |
//! | bench `window_sweep`   | window-size ablation N ∈ {16..1024} |
//! | bench `machine`        | virtual-time machine substrate |
//! | bench `multistream`    | sharded service end-to-end throughput |
//! | bench `trace_io`       | text vs DTB parse/replay throughput |
//! | bench `predict`        | forecasting overhead (push, slice, table) |
//!
//! This library hosts the small shared helpers the binaries use.

#![warn(missing_docs)]

pub mod gate;

use dpd_core::pipeline::{DpdBuilder, DEFAULT_SCALES};
use spec_apps::app::{App, AppRun, RunConfig};

/// Run one application with default settings and analyse its address
/// stream with the default multi-scale bank.
pub fn run_and_detect(app: &dyn App) -> (AppRun, Vec<usize>) {
    let run = app.run(&RunConfig::default());
    let mut bank = DpdBuilder::new()
        .scales(DEFAULT_SCALES)
        .build_multi_scale()
        .expect("default scale set is valid");
    bank.push_slice(&run.addresses.values);
    let periods = bank.detected_periods();
    (run, periods)
}

/// Format a `Vec<usize>` the way the paper prints periodicity sets.
pub fn fmt_periods(p: &[usize]) -> String {
    p.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_matches_paper_style() {
        assert_eq!(fmt_periods(&[1, 24, 269]), "1, 24, 269");
        assert_eq!(fmt_periods(&[6]), "6");
        assert_eq!(fmt_periods(&[]), "");
    }
}
