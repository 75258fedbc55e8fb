//! `perfbench`: the served detector measured from outside.
//!
//! ```text
//! perfbench --workload wire_hot|apps_kernel|fleet_durable --seed N --seconds S --trace 0|1
//! ```
//!
//! One run spawns the server under test as its own process
//! (`perfbench serve`, see `server.rs`), drives it over loopback TCP
//! through its phases (`served.rs`, `ladder.rs`) — set-up, nominal-rate
//! open loop alternating with closed-loop bursts, an open-loop rate
//! ladder — checks every output total against an in-process replay of
//! the same input, and prints the end-to-end metrics (`--trace 0`) or,
//! with `--trace 1`, the per-layer metrics and the cost ledger of
//! `layers.rs`. The last line of standard output is one JSON object; the
//! exit code is 0 only for a correct run.

mod ladder;
mod layers;
mod load;
mod probe;
mod served;
mod server;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use workload::{Lap, Workload};

/// Where a run keeps checkpoint files, span files and its cache of
/// reference totals, relative to the directory it runs in.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let name = get("--workload")?;
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload::by_name(name).ok_or(format!("unknown workload {name}"))?,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        server::main(&args[1..]).map(|_| true)
    } else {
        parse_args(&args).and_then(|a| run(&a))
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// Statistics

/// Nearest-rank percentile of an ascending slice.
pub fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

// ---------------------------------------------------------------------------
// Host record

/// Fixed-work host calibration: median ms of three in-process inline
/// replays of a seed-independent corpus. Printed, never used to adjust
/// a metric: it tells a slow host phase from a slow commit.
fn calibrate() -> f64 {
    let corpus = workload::calibration_corpus();
    let builder = dpd_core::pipeline::DpdBuilder::new().window(16).shards(0);
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let mut svc =
                par_runtime::service::MultiStreamDpd::from_builder(&builder).expect("builder");
            let t0 = Instant::now();
            for chunk in 0..(2_000 / 16) {
                let records: Vec<(dpd_core::shard::StreamId, &[i64])> = corpus
                    .iter()
                    .map(|(s, v)| {
                        (
                            dpd_core::shard::StreamId(*s),
                            &v[chunk * 16..(chunk + 1) * 16],
                        )
                    })
                    .collect();
                svc.ingest(&records);
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(svc.finish());
            ms
        })
        .collect();
    median(&runs)
}

/// A key for this build of the benchmark, so a cache made by another
/// build is never reused.
fn build_key() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos() as u64);
            format!("{:x}", workload::hash(&[m.len(), mtime]))
        })
        .unwrap_or_else(|_| "nobuild".into())
}

pub fn parse_totals(text: &str) -> BTreeMap<String, u64> {
    text.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.parse().unwrap_or(u64::MAX)))
        .collect()
}

// ---------------------------------------------------------------------------
// Reference totals and the primed checkpoint

/// Output totals compared between the served run and the reference.
const CHECKED: [&str; 8] = [
    "samples",
    "events",
    "closed",
    "evicted",
    "query_enters",
    "query_exits",
    "forecast_checked",
    "forecast_hits",
];

/// Replay every byte each connection sent through an in-process
/// `MultiStreamDpd` built from the same builder (resumed from the same
/// primed checkpoint on `fleet_durable`) and return its totals. Cached
/// per build, workload, seed and sent byte counts.
fn reference_totals(
    w: &Workload,
    seed: u64,
    laps: &[Lap],
    sent: &[u64],
    primed: Option<&str>,
) -> Result<BTreeMap<String, u64>, String> {
    let counts: Vec<String> = sent.iter().map(u64::to_string).collect();
    let key = format!(
        "{WORK_DIR}/expected-{}-{}-{seed}-{}.txt",
        build_key(),
        w.name,
        counts.join("_")
    );
    if let Ok(text) = std::fs::read_to_string(&key) {
        let cached = parse_totals(&text);
        if cached.len() == CHECKED.len() {
            return Ok(cached);
        }
    }
    let builder = w.builder();
    let mut svc = match primed {
        Some(path) => {
            par_runtime::service::MultiStreamDpd::resume(&builder, path)
                .map_err(|e| format!("reference resume: {e}"))?
                .0
        }
        None => par_runtime::service::MultiStreamDpd::from_builder(&builder)
            .map_err(|e| format!("reference builder: {e}"))?,
    };
    // Quiesce now and then so shard queues stay small; barriers do not
    // change the output.
    let mut since_flush = 0usize;
    for (lap, &bytes) in laps.iter().zip(sent) {
        layers::replay_wire(lap, bytes, 16 * 1024, |records| {
            svc.ingest(records);
            since_flush += records.len();
            if since_flush >= 64 * 1024 {
                svc.flush();
                since_flush = 0;
            }
        })?;
    }
    let t = svc.finish().1.total();
    let values = [
        t.samples,
        t.events,
        t.closed,
        t.evicted,
        t.query_enters,
        t.query_exits,
        t.forecast_checked,
        t.forecast_hits,
    ];
    let totals: BTreeMap<String, u64> = CHECKED
        .iter()
        .zip(values)
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let text: String = totals.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    let _ = std::fs::write(&key, text);
    Ok(totals)
}

/// Prime `fleet_durable`'s checkpoint: ingest the generator's priming
/// frames in-process with the workload's builder, then checkpoint.
fn prime_fleet(w: &Workload, prime: &[(u64, Vec<i64>)], path: &str) -> Result<(), String> {
    let mut svc = par_runtime::service::MultiStreamDpd::from_builder(&w.builder())
        .map_err(|e| format!("prime: {e}"))?;
    for chunk in prime.chunks(512) {
        let records: Vec<(dpd_core::shard::StreamId, &[i64])> = chunk
            .iter()
            .map(|(s, v)| (dpd_core::shard::StreamId(*s), v.as_slice()))
            .collect();
        svc.ingest(&records);
    }
    let marker = dpd_trace::pile::EpochMarker {
        wave: 0,
        samples: svc.samples_ingested(),
        ordinal: 0,
    };
    svc.checkpoint(path, marker)
        .map_err(|e| format!("prime checkpoint: {e}"))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// One run

/// Phase lengths of a run of `seconds`, in whole generator ticks. The
/// nominal phase (cut into one chunk per closed-loop burst) and each
/// ladder step are cut into windows of the workload's `window_ms`;
/// percentiles and CPU are taken per window and the median window is
/// reported, so a host stall that hits a few windows moves no metric.
pub struct Plan {
    tick_s: f64,
    nominal_s: f64,
    step_s: f64,
    /// Windows per nominal chunk and per ladder step.
    chunk_subs: usize,
    step_subs: usize,
    closed_samples: u64,
}

impl Plan {
    fn new(w: &Workload, seconds: f64) -> Plan {
        let tick_s = w.tick_us as f64 / 1e6;
        let ticks = |secs: f64| (secs / tick_s).round().max(1.0) * tick_s;
        let nominal_s = ticks(0.3 * seconds / w.closed_bursts as f64) * w.closed_bursts as f64;
        let step_s = ticks(0.4 * seconds / w.ladder_msps.len() as f64);
        let subs = |secs: f64| ((secs * 1e3 / w.window_ms as f64).round() as usize).max(1);
        Plan {
            tick_s,
            nominal_s,
            step_s,
            chunk_subs: subs(nominal_s / w.closed_bursts as f64),
            step_subs: subs(step_s),
            closed_samples: (w.closed_samples_per_10s as f64 * seconds / 10.0) as u64,
        }
    }

    /// `secs` rounded to whole ticks, at least one.
    fn round(&self, secs: f64) -> f64 {
        (secs / self.tick_s).round().max(1.0) * self.tick_s
    }

    /// Upper bound on the samples a run sends (sizes non-repeating laps).
    fn samples(&self, w: &Workload) -> u64 {
        let open = w.nominal_msps * 1e6 * self.nominal_s
            + w.ladder_msps.iter().sum::<f64>() * 1e6 * self.step_s;
        let bursts = w.closed_bursts as f64 + 1.0;
        let warm = w.nominal_msps * 1e6 * self.nominal_s / w.closed_bursts as f64;
        let tails = w.closed_bursts as f64 * w.nominal_msps * 1e6 * self.tail_s(w);
        (open + warm + tails) as u64
            + self.closed_samples * bursts as u64
            + 2 * w.checkpoint_every
            + 64 * 1024 * w.conns as u64
    }

    /// The unmeasured tail after each nominal chunk: long enough for the
    /// chunk's last durable acknowledgements to come with a checkpoint
    /// taken at the nominal rate.
    fn tail_s(&self, w: &Workload) -> f64 {
        if w.durable() {
            self.round(2.0 * w.checkpoint_every as f64 / (w.nominal_msps * 1e6))
        } else {
            self.round(0.05)
        }
    }

    /// Latency tags: the nominal windows, then each step's windows.
    fn nominal_tags(&self, w: &Workload) -> usize {
        self.chunk_subs * w.closed_bursts
    }

    fn tags(&self, w: &Workload) -> usize {
        self.nominal_tags(w) + self.step_subs * w.ladder_msps.len()
    }
}

/// Everything a run measured.
#[derive(Default)]
pub struct Measured {
    setup_s: Vec<f64>,
    ack_p50_ms: f64,
    ack_p99_ms: f64,
    cpu_ns_per_sample: f64,
    throughput: Vec<f64>,
    sustainable: f64,
    peak_rss_mb: f64,
    offered: u64,
    failed: u64,
    correct: bool,
    pub notes: Vec<String>,
    /// Per-layer readings (printed with `--trace 1`).
    pub layer: Vec<(String, f64, &'static str)>,
}

impl Measured {
    pub fn layer(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |x| x.1)
    }

    pub fn cpu_ns_per_sample(&self) -> f64 {
        self.cpu_ns_per_sample
    }
}

fn run(a: &Args) -> Result<bool, String> {
    let w = a.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let calib_before = calibrate();

    // Inputs, from the seed, before any timing.
    let plan = Plan::new(w, a.seconds);
    let run_dir = format!("{WORK_DIR}/run-{}", std::process::id());
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{run_dir}: {e}"))?;
    let result = (|| {
        let (laps, primed) = if w.name == "fleet_durable" {
            let prime_frames = workload::FLEET_PRIME_SAMPLES / w.frame as u64;
            let (laps, prime) = workload::fleet(w, a.seed, prime_frames, plan.samples(w));
            let path = format!("{run_dir}/primed.ckpt");
            prime_fleet(w, &prime, &path)?;
            (laps, Some(path))
        } else {
            (workload::generate(w, a.seed, plan.samples(w)), None)
        };
        let mut served = served::serve_and_measure(w, &plan, &laps, primed.as_deref(), &run_dir)?;
        let expect = reference_totals(w, a.seed, &laps, &served.sent, primed.as_deref())?;
        served.check(expect);
        if a.trace {
            layers::traced(w, &laps, &served.sent, a.seed, &mut served.measured)?;
        }
        Ok::<_, String>(served.measured)
    })();
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut m = result?;
    let calib_after = calibrate();
    m.layer.push(("host.nproc".into(), nproc as f64, "count"));
    m.layer
        .push(("host.calib_before_ms".into(), calib_before, "ms"));
    m.layer
        .push(("host.calib_after_ms".into(), calib_after, "ms"));

    // Report: every metric by name with its unit, then the JSON line.
    // `ack_p99_ms` and `failed_ratio` are reported with the per-layer
    // rows: the first spreads beyond any allowed bound on a shared 2-CPU
    // host, the second is exactly 0 on every clean run.
    let e2e: Vec<(String, f64, &str)> = [
        ("throughput_msps", median(&m.throughput), "Msamples/s"),
        ("sustainable_msps", m.sustainable, "Msamples/s"),
        ("ack_p50_ms", m.ack_p50_ms, "ms"),
        ("cpu_ns_per_sample", m.cpu_ns_per_sample, "ns"),
        ("setup_s", median(&m.setup_s), "s"),
        ("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u))
    .collect();
    let failed_ratio = m.failed as f64 / m.offered.max(1) as f64;
    m.layer.push(("ack_p99_ms".into(), m.ack_p99_ms, "ms"));
    m.layer.push(("failed_ratio".into(), failed_ratio, "ratio"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={} seconds={} trace={} nproc={nproc} \
         calib_before_ms={calib_before:.3} calib_after_ms={calib_after:.3}",
        w.name, a.seed, a.seconds, a.trace as u8
    );
    let _ = writeln!(out, "  why: {}", w.why);
    let _ = writeln!(
        out,
        "  record: conns={} shards={} window={} frame={} nominal={} Msamples/s \
         ladder={:?} Msamples/s limit={} ms tick={} us window_ms={} checkpoint_every={}",
        w.conns,
        w.shards,
        w.window,
        w.frame,
        w.nominal_msps,
        w.ladder_msps,
        w.limit_ms,
        w.tick_us,
        w.window_ms,
        w.checkpoint_every
    );
    for (name, v, unit) in &e2e {
        let _ = writeln!(out, "  {name:<36} {v:>16.6} {unit}");
    }
    let _ = writeln!(out, "  {:<36} {:>16.6} ms", "ack_p99_ms", m.ack_p99_ms);
    let _ = writeln!(
        out,
        "  {:<36} {failed_ratio:>16.6} ratio ({} of {} samples)",
        "failed_ratio", m.failed, m.offered
    );
    if a.trace {
        for (name, v, unit) in &m.layer {
            let _ = writeln!(out, "  {name:<36} {v:>16.6} {unit}");
        }
    }
    for n in &m.notes {
        let _ = writeln!(out, "  note: {n}");
    }
    print!("{out}");
    let metrics = if a.trace { &m.layer } else { &e2e };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct,
        m.offered,
        m.failed,
        body.join(", ")
    );
    Ok(m.correct)
}
