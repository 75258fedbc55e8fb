//! Quickstart: detect, segment and predict on a simple event stream.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dpd::core::pipeline::DpdBuilder;
use dpd::core::segmentation::segment_events;
use dpd::core::streaming::SegmentEvent;

fn main() {
    // A stream of "parallel loop addresses": 4 loops called per iteration
    // of a main loop, 60 iterations.
    let addrs = [0x400000i64, 0x400040, 0x400080, 0x4000c0];
    let stream: Vec<i64> = (0..240).map(|i| addrs[i % 4]).collect();

    // 1. Detection: the builder's event-stream detector reports through
    //    its push return value, like the paper's Table 1 interface.
    println!("== DPD detector ==");
    let mut dpd = DpdBuilder::new().window(16).build_detector().unwrap();
    let first = dpd.push_slice(&stream).into_iter().find_map(|e| match e {
        SegmentEvent::PeriodStart { period, position } => Some((period, position)),
        _ => None,
    });
    let (period, position) = first.expect("period-4 stream must segment");
    println!("first period start at sample {position}, periodicity {period}");

    // 2. Segmentation (paper §1, application 1).
    println!();
    println!("== Segmentation ==");
    let (segments, marks) = segment_events(&stream, 16);
    for seg in &segments {
        println!(
            "segment [{}, {}): period {}, {} periods",
            seg.start, seg.end, seg.period, seg.periods
        );
    }
    println!("{} period-start marks emitted", marks.len());

    // 3. Prediction (paper §1, application 3).
    println!();
    println!("== Prediction ==");
    let mut forecaster = DpdBuilder::new()
        .window(16)
        .forecast(1)
        .build_forecasting()
        .unwrap();
    for &s in &stream {
        forecaster.push(s);
    }
    let hit_rate = forecaster.predictor().stats().hit_rate().unwrap();
    let next = forecaster.forecast(1).expect("locked and primed").predicted[0];
    println!(
        "next sample prediction: {next:#x} (hit rate so far: {:.0}%)",
        hit_rate * 100.0
    );
}
