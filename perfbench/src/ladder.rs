//! The rate ladder's verdict: backlog growth per step and the highest
//! sustainable rate.

/// How fast a step's backlog grew, in samples per second: the lowest
/// backlog of its last quarter minus the lowest of its first quarter,
/// over the time between the quarters. Taking each quarter's trough
/// makes the estimate independent of where a checkpoint's stall falls.
pub fn growth(pts: &[(f64, f64)], secs: f64) -> f64 {
    let trough = |lo: f64, hi: f64| {
        pts.iter()
            .filter(|(t, _)| *t >= lo && *t <= hi)
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min)
    };
    let (first, last) = (trough(0.0, secs / 4.0), trough(0.75 * secs, secs));
    if first.is_finite() && last.is_finite() {
        (last - first) / (0.75 * secs)
    } else {
        0.0
    }
}

/// Backlog growth (as a share of the offered rate) a ladder step may
/// show and still count as sustained.
const GROWTH_LIMIT: f64 = 0.05;

/// The highest ladder rate that meets both the latency limit and the
/// no-growing-backlog rule. Steps are `(rate, p99, growth)`.
///
/// Both quantities only rise with load above the point where the server
/// saturates, so each is smoothed with a non-decreasing least-squares
/// fit before its crossing is placed by linear interpolation between the
/// two steps around it; one lucky or unlucky step cannot move the result
/// by a whole step. The latency fit starts at the step with the lowest
/// p99: the whole ladder is scanned because durable acknowledgements get
/// faster as the rate rises, until checkpoints saturate. The lower of the
/// two crossings is the sustainable rate.
pub fn sustainable(steps: &[(f64, f64, f64)], limit_ms: f64) -> f64 {
    let rates: Vec<f64> = steps.iter().map(|s| s.0).collect();
    let growth: Vec<f64> = steps.iter().map(|s| s.2.max(0.0)).collect();
    let p99: Vec<f64> = steps.iter().map(|s| s.1.min(1e9)).collect();
    let by_backlog = crossing(&rates, &isotonic(&growth), GROWTH_LIMIT);
    let low = (0..p99.len())
        .min_by(|&a, &b| p99[a].total_cmp(&p99[b]))
        .unwrap_or(0);
    let by_latency = crossing(&rates[low..], &isotonic(&p99[low..]), limit_ms);
    by_backlog.min(by_latency)
}

/// Non-decreasing least-squares fit of `y` (pool adjacent violators).
fn isotonic(y: &[f64]) -> Vec<f64> {
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &v in y {
        blocks.push((v, 1));
        while blocks.len() > 1 && blocks[blocks.len() - 2].0 > blocks[blocks.len() - 1].0 {
            let (v2, n2) = blocks.pop().expect("two blocks");
            let (v1, n1) = blocks.pop().expect("two blocks");
            blocks.push((
                (v1 * n1 as f64 + v2 * n2 as f64) / (n1 + n2) as f64,
                n1 + n2,
            ));
        }
    }
    blocks
        .into_iter()
        .flat_map(|(v, n)| std::iter::repeat_n(v, n))
        .collect()
}

/// The rate where a non-decreasing `fit` over `rates` first exceeds
/// `limit`, interpolated linearly; the top rate when it never does, and
/// the lowest rate scaled down by the miss when even that step fails.
fn crossing(rates: &[f64], fit: &[f64], limit: f64) -> f64 {
    match fit.iter().position(|&v| v > limit) {
        None => *rates.last().expect("a ladder step"),
        Some(0) => rates[0] * (limit / fit[0]).min(1.0),
        Some(i) => {
            let f = (limit - fit[i - 1]) / (fit[i] - fit[i - 1]);
            rates[i - 1] + (rates[i] - rates[i - 1]) * f
        }
    }
}
