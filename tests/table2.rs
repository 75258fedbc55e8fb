//! Integration test: full reproduction of the paper's **Table 2**.
//!
//! Each of the five applications is executed on the virtual machine through
//! the DITools interposer; its loop-address stream is analysed by the
//! multi-scale DPD bank; stream lengths and detected periodicity sets must
//! match the paper exactly.

use dpd::apps::app::{App, RunConfig};
use dpd::core::pipeline::{DpdBuilder, DEFAULT_SCALES};

fn detect(app: &dyn App) -> (usize, Vec<usize>) {
    let run = app.run(&RunConfig::default());
    // Batch ingestion path; equivalence with per-sample push is proven by
    // the proptest suite and the per-sample replay in figures.rs.
    let mut bank = DpdBuilder::new()
        .scales(DEFAULT_SCALES)
        .build_multi_scale()
        .unwrap();
    bank.push_slice(&run.addresses.values);
    (run.addresses.len(), bank.detected_periods())
}

#[test]
fn tomcatv_row() {
    let (len, periods) = detect(&dpd::apps::tomcatv::Tomcatv);
    assert_eq!(len, 3750);
    assert_eq!(periods, vec![5]);
}

#[test]
fn swim_row() {
    let (len, periods) = detect(&dpd::apps::swim::Swim);
    assert_eq!(len, 5402);
    assert_eq!(periods, vec![6]);
}

#[test]
fn apsi_row() {
    let (len, periods) = detect(&dpd::apps::apsi::Apsi);
    assert_eq!(len, 5762);
    assert_eq!(periods, vec![6]);
}

#[test]
fn hydro2d_row() {
    let (len, periods) = detect(&dpd::apps::hydro2d::Hydro2d);
    assert_eq!(len, 53814);
    assert_eq!(periods, vec![1, 24, 269]);
}

#[test]
fn turb3d_row() {
    let (len, periods) = detect(&dpd::apps::turb3d::Turb3d);
    assert_eq!(len, 1580);
    assert_eq!(periods, vec![12, 142]);
}

#[test]
fn all_rows_against_declared_expectations() {
    for app in dpd::apps::spec_apps() {
        let (len, periods) = detect(app.as_ref());
        assert_eq!(len, app.expected_stream_len(), "{} length", app.name());
        assert_eq!(periods, app.expected_periods(), "{} periods", app.name());
    }
}
