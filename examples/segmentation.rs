//! Figure 7 / Table 2 in one example: run the five SPECfp95-shaped
//! applications and segment their loop-address streams with the DPD,
//! including the nested hydro2d/turb3d structures.
//!
//! ```sh
//! cargo run --release --example segmentation
//! ```

use dpd::apps::app::RunConfig;
use dpd::core::pipeline::{DpdBuilder, DEFAULT_SCALES};

fn main() {
    for app in dpd::apps::spec_apps() {
        let run = app.run(&RunConfig::default());

        // On-line multi-scale detection (what the paper's tool does).
        let mut bank = DpdBuilder::new()
            .scales(DEFAULT_SCALES)
            .build_multi_scale()
            .expect("default scale set is valid");
        let mut outer_marks = 0u64;
        for &s in &run.addresses.values {
            if bank.push(s).outer_start().is_some() {
                outer_marks += 1;
            }
        }

        println!("{}:", app.name());
        println!("  stream length      : {}", run.addresses.len());
        println!("  paper periodicities: {:?}", app.expected_periods());
        println!("  multi-scale DPD    : {:?}", bank.detected_periods());
        println!("  outer period marks : {outer_marks}");
        println!();
    }
}
