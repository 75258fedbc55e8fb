//! Magnitude → event quantization.
//!
//! Paper §2 distinguishes two ways of obtaining a data series: sampling a
//! parameter at fixed frequency, and registering *changes* of the parameter
//! value. This module converts between them: a sampled magnitude trace
//! (CPU counts) becomes an event stream by level quantization and/or
//! change-point extraction — letting the exact equation-(2) detector run on
//! data that arrived as samples.

use crate::sampled::SampledTrace;

/// Quantize each sample into one of `levels` equal-width bins over the
/// trace's [min, max] range, producing an event stream of bin indices.
///
/// Returns an empty vector for an empty trace; a constant trace maps to
/// bin 0.
pub fn quantize_levels(trace: &SampledTrace, levels: usize) -> Vec<i64> {
    assert!(levels > 0, "at least one level required");
    if trace.values.is_empty() {
        return Vec::new();
    }
    let min = trace.values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = trace
        .values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let width = (max - min) / levels as f64;
    trace
        .values
        .iter()
        .map(|&v| {
            if width <= 0.0 {
                0
            } else {
                (((v - min) / width) as usize).min(levels - 1) as i64
            }
        })
        .collect()
}

/// Extract value-change events: one `(position, new_value_bin)` per change
/// of the quantized level — the "register the changes" acquisition model of
/// paper §2. The first sample always emits an event.
pub fn change_events(trace: &SampledTrace, levels: usize) -> Vec<(usize, i64)> {
    let q = quantize_levels(trace, levels);
    let mut out = Vec::new();
    let mut prev: Option<i64> = None;
    for (i, &v) in q.iter().enumerate() {
        if prev != Some(v) {
            out.push((i, v));
            prev = Some(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn quantize_maps_range_to_bins() {
        let t = SampledTrace::from_values("t", MS, vec![0.0, 5.0, 10.0]);
        assert_eq!(quantize_levels(&t, 2), vec![0, 1, 1]);
        assert_eq!(quantize_levels(&t, 10), vec![0, 5, 9]);
    }

    #[test]
    fn constant_trace_is_bin_zero() {
        let t = SampledTrace::from_values("t", MS, vec![4.2; 5]);
        assert_eq!(quantize_levels(&t, 4), vec![0; 5]);
    }

    #[test]
    fn empty_trace_quantizes_empty() {
        let t = SampledTrace::new("t", MS);
        assert!(quantize_levels(&t, 4).is_empty());
        assert!(change_events(&t, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        let t = SampledTrace::new("t", MS);
        let _ = quantize_levels(&t, 0);
    }

    #[test]
    fn change_events_compress_plateaus() {
        let t = SampledTrace::from_values("t", MS, vec![1.0, 1.0, 1.0, 16.0, 16.0, 1.0]);
        let ev = change_events(&t, 16);
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].0, 0);
        assert_eq!(ev[1].0, 3);
        assert_eq!(ev[2].0, 5);
    }

    #[test]
    fn quantized_periodic_trace_detectable_by_event_dpd() {
        // A 6-sample CPU-usage shape, 40 repeats, quantized to events: the
        // exact equation-(2) detector finds period 6 on the sample stream.
        let shape = [1.0, 1.0, 16.0, 16.0, 8.0, 4.0];
        let values: Vec<f64> = (0..240).map(|i| shape[i % 6]).collect();
        let t = SampledTrace::from_values("t", MS, values);
        let stream = quantize_levels(&t, 16);
        use dpd_core::pipeline::DpdBuilder;
        let mut dpd = DpdBuilder::new().window(16).build_detector().unwrap();
        for s in stream {
            dpd.push(s);
        }
        assert_eq!(dpd.stats().detected_periods(), vec![6]);
    }
}
