//! Prediction and execution-time estimation (paper §1 application 3, §5).
//!
//! Locks onto tomcatv's period with the autotuned DPD, predicts upcoming
//! loop addresses with the online forecasting subsystem
//! (`dpd_core::predict`, see docs/PREDICTION.md) and estimates the
//! application's total execution time from the first measured iterations.
//!
//! Like every example in this workspace, it asserts its own expected
//! results, so the CI examples smoke job fails if behavior rots instead
//! of merely checking that the example still compiles.
//!
//! ```sh
//! cargo run --release --example prediction
//! ```

use dpd::analyzer::ExecutionEstimator;
use dpd::apps::app::{App, RunConfig};
use dpd::apps::tomcatv::{Tomcatv, ITERATIONS};
use dpd::core::autotune::{TunedDpd, TunerPolicy};
use dpd::core::pipeline::DpdBuilder;
use dpd::core::streaming::SegmentEvent;

fn main() {
    let run = Tomcatv.run(&RunConfig::default());
    let stream = &run.addresses.values;

    // 1. Lock with the autotuned detector (starts large, shrinks to 2x the
    //    period once confident — paper §3.1 / §4).
    let mut dpd = TunedDpd::new(TunerPolicy::default());
    let mut locked = None;
    let mut boundaries: Vec<u64> = Vec::new();
    for &s in stream {
        if let SegmentEvent::PeriodStart { period, position } = dpd.push(s) {
            locked = Some(period);
            boundaries.push(position);
        }
    }
    let period = locked.expect("tomcatv must lock");
    println!(
        "locked period {period}; window autotuned 1024 -> {} ({} resizes)",
        dpd.window(),
        dpd.resizes()
    );

    // 2. Predict future loop addresses with the online forecasting
    //    subsystem: detector + forecaster in one, with confidence and
    //    forecast-error statistics maintained as the stream advances
    //    (docs/PREDICTION.md).
    let mut forecaster = DpdBuilder::new()
        .window(32)
        .forecast(period)
        .build_forecasting()
        .expect("valid config");
    for &s in stream {
        forecaster.push(s);
    }
    let stats = forecaster.predictor().stats();
    let forecast = forecaster.forecast(period).expect("locked and primed");
    println!(
        "online forecaster: hit-rate {:.1}% over {} checks, confidence {:.2}, \
         next period forecast {:?}",
        stats.hit_rate().unwrap() * 100.0,
        stats.checked,
        forecast.confidence,
        forecast
            .predicted
            .iter()
            .map(|v| format!("{v:#x}"))
            .collect::<Vec<_>>()
    );
    assert_eq!(forecast.period, period, "forecaster agrees with the lock");
    assert!(
        stats.hit_rate().unwrap() > 0.95,
        "forecast hit rate {:?} below the exactly-periodic expectation",
        stats.hit_rate()
    );
    assert!(
        forecast.confidence > 0.9,
        "stable stream must yield high confidence, got {}",
        forecast.confidence
    );
    assert_eq!(stats.invalidations, 0, "no phase change in tomcatv");
    // The forecast is the periodic extension of the last full period.
    assert_eq!(
        forecast.predicted,
        &stream[stream.len() - period..],
        "forecast is not the periodic extension"
    );

    // 3. Estimate total execution time after measuring 10 iterations.
    let iter_time_ns = run.elapsed_ns / ITERATIONS as u64; // true mean
    let mut est = ExecutionEstimator::new().with_total_iterations(ITERATIONS as u64);
    for _ in 0..10 {
        est.record_iteration(iter_time_ns);
    }
    let predicted = est.estimated_total_ns().unwrap();
    let actual = run.elapsed_ns as f64;
    let error = est.estimate_error(run.elapsed_ns).unwrap();
    println!(
        "execution-time estimate after 10/{} iterations: {:.2} s (actual {:.2} s, error {:.2}%)",
        ITERATIONS,
        predicted / 1e9,
        actual / 1e9,
        error * 100.0
    );
    assert!(
        error.abs() < 0.05,
        "estimate from the true mean must land within 5%, got {error}"
    );
}
