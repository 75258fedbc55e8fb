//! Million-stream StreamTable CI smoke: residency, budget, RSS ceiling,
//! and per-push flatness — the slab rewrite's acceptance gate, runnable
//! in seconds and loud on failure (nonzero exit, one line per check).
//!
//! Checks, in order:
//!
//! 1. **Residency within budget** — ingest one sample into each of
//!    1,000,000 distinct streams under a budget sized for a small hot set
//!    plus the whole population as cold summaries (`evict_after = 0`:
//!    budget-only tiering). All million must stay resident
//!    (`len() == 1M`, `evicted == 0`) with `accounted_bytes() <= budget`.
//! 2. **Process RSS ceiling** — `VmHWM` from `/proc/self/status` must
//!    stay under `DPD_SMOKE_RSS_MB` (default 2048). This is the
//!    real-memory check backing the accounted-bytes model; the CI script
//!    additionally wraps the run in a hard `ulimit -v` so a runaway
//!    allocation aborts instead of swapping.
//! 3. **Per-push flatness** — the handle-first push path
//!    (`resolve` once, `ingest_handle` per batch — the loop the API
//!    redesign exists for) is timed over an identical 128-stream hot
//!    working set at 10k and at 1M resident streams. The 1M figure must
//!    be within `DPD_SMOKE_RATIO` (default 1.25) of the 10k figure:
//!    per-push cost must not grow with the resident population. The
//!    working set is sized to stay cache-resident at both scales so the
//!    ratio captures the table's structural per-push cost, not
//!    last-level-cache capacity effects. The id-keyed `ingest` path is
//!    measured and reported alongside for context (its hash probe
//!    touches an index that outgrows cache, so it is reported, not
//!    gated).
//!
//! Runs on the release profile; `cargo run -p dpd-bench --release --bin
//! table_smoke`. Exits 0 only if every check passes.

use dpd_core::pipeline::DpdBuilder;
use dpd_core::shard::{StreamId, StreamTable};
use std::time::Instant;

const WINDOW: usize = 16;
const STREAMS: u64 = 1_000_000;
const SMALL: u64 = 10_000;
const WORKING_SET: u64 = 128;
const HOT_SLOTS: u64 = 4096;
/// Timed pushes per repetition; median of `REPS` repetitions is scored.
const PUSHES: u64 = 200_000;
const REPS: usize = 5;

/// `1234567.0` → `"1.23M"`, for human-scale counts in the check lines.
fn format_si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}K", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn tiered_table(streams: u64) -> (StreamTable, u64) {
    let probe = DpdBuilder::new().window(WINDOW).table_config().unwrap();
    let budget = probe.hot_stream_bytes() * HOT_SLOTS + probe.cold_stream_bytes() * streams;
    let table = DpdBuilder::new()
        .window(WINDOW)
        .memory_budget(budget)
        .cold_summary(64)
        .build_table()
        .unwrap();
    (table, budget)
}

/// Peak resident set (`VmHWM`) in MiB, or `None` off-Linux.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct PushCosts {
    handle_ns: f64,
    id_ns: f64,
}

/// Populate `streams` residents, warm a `WORKING_SET`-stream hot set,
/// then time steady-state single-sample pushes through both API paths.
fn measure(streams: u64) -> PushCosts {
    let (mut table, budget) = tiered_table(streams);
    let mut sink = Vec::new();
    let mut seq = 0u64;
    for id in 0..streams {
        table.ingest(seq, StreamId(id), &[id as i64], &mut sink);
        seq += 1;
    }
    assert!(
        table.accounted_bytes() <= budget,
        "populate blew the budget"
    );
    let base = streams - WORKING_SET;
    for round in 0..WINDOW as u64 {
        for id in base..streams {
            table.ingest(seq, StreamId(id), &[(round % 4) as i64], &mut sink);
            seq += 1;
        }
    }
    let handles: Vec<_> = (base..streams)
        .map(|id| table.resolve(StreamId(id)).expect("working set resident"))
        .collect();

    let mut handle_runs = Vec::new();
    let mut id_runs = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        for i in 0..PUSHES {
            let h = handles[(i % WORKING_SET) as usize];
            assert!(table.ingest_handle(seq, h, &[(seq % 4) as i64], &mut sink));
            seq += 1;
        }
        handle_runs.push(start.elapsed().as_nanos() as f64 / PUSHES as f64);
        sink.clear();

        let start = Instant::now();
        for i in 0..PUSHES {
            let id = base + (i % WORKING_SET);
            table.ingest(seq, StreamId(id), &[(seq % 4) as i64], &mut sink);
            seq += 1;
        }
        id_runs.push(start.elapsed().as_nanos() as f64 / PUSHES as f64);
        sink.clear();
    }
    assert_eq!(table.len(), streams as usize, "push phase lost residents");
    handle_runs.sort_by(f64::total_cmp);
    id_runs.sort_by(f64::total_cmp);
    PushCosts {
        handle_ns: handle_runs[REPS / 2],
        id_ns: id_runs[REPS / 2],
    }
}

fn main() {
    let rss_ceiling_mib = env_f64("DPD_SMOKE_RSS_MB", 2048.0);
    let max_ratio = env_f64("DPD_SMOKE_RATIO", 1.25);
    let mut failed = false;

    // Check 1: a million streams resident within the accounted budget.
    let (mut table, budget) = tiered_table(STREAMS);
    let mut sink = Vec::new();
    let start = Instant::now();
    for id in 0..STREAMS {
        table.ingest(id, StreamId(id), &[id as i64], &mut sink);
    }
    let populate_s = start.elapsed().as_secs_f64();
    let stats = table.stats();
    let resident_ok =
        table.len() as u64 == STREAMS && stats.evicted == 0 && table.accounted_bytes() <= budget;
    println!(
        "[{}] residency: {} streams resident ({} hot demoted to cold, {} evicted), \
         accounted {} <= budget {} bytes, populated in {:.2}s ({}/s)",
        if resident_ok { "ok" } else { "FAIL" },
        format_si(table.len() as f64),
        format_si(stats.demoted as f64),
        stats.evicted,
        table.accounted_bytes(),
        budget,
        populate_s,
        format_si(STREAMS as f64 / populate_s),
    );
    failed |= !resident_ok;
    drop(table);

    // Check 2: peak real memory under the CI ceiling.
    match peak_rss_mib() {
        Some(peak) => {
            let ok = peak <= rss_ceiling_mib;
            println!(
                "[{}] rss: peak {:.0} MiB <= ceiling {:.0} MiB",
                if ok { "ok" } else { "FAIL" },
                peak,
                rss_ceiling_mib
            );
            failed |= !ok;
        }
        None => println!("[skip] rss: /proc/self/status unavailable"),
    }

    // Check 3: per-push flatness, 10k residents vs 1M residents.
    let small = measure(SMALL);
    let large = measure(STREAMS);
    let ratio = large.handle_ns / small.handle_ns;
    let flat_ok = ratio <= max_ratio;
    println!(
        "[{}] flatness: handle push {:.0} ns @10k vs {:.0} ns @1M (ratio {:.2} <= {:.2}); \
         id push {:.0} ns @10k vs {:.0} ns @1M (reported only)",
        if flat_ok { "ok" } else { "FAIL" },
        small.handle_ns,
        large.handle_ns,
        ratio,
        max_ratio,
        small.id_ns,
        large.id_ns,
    );
    failed |= !flat_ok;

    if failed {
        eprintln!("table_smoke: FAILED");
        std::process::exit(1);
    }
    println!("table_smoke: all checks passed");
}
