//! Network commands: `dpd serve` and `dpd loadgen`.
//!
//! `serve` is the DTB-over-TCP ingestion front end: it binds a socket,
//! hands every accepted connection to [`par_runtime::net::DpdServer`]
//! (incremental frame reassembly, bounded buffers, slow-client shedding,
//! optional checkpoint-on-exit durability) and — once the accept limit
//! is reached and every connection has drained — prints a deterministic
//! summary of counts, as the offline `multistream` command does. The
//! events themselves go to `--events FILE` as they are published, or
//! nowhere.
//!
//! `loadgen` is the matching client simulator: it replays a DTB corpus
//! over N concurrent connections, partitioning the corpus's event
//! streams across them, with configurable pacing, fragmentation (down
//! to one-byte writes) and abrupt disconnects, and reports sustained
//! throughput plus ingest-latency percentiles measured off the server's
//! acknowledgement stream.

use crate::cmd::Flags;
use dpd_core::pipeline::DpdBuilder;
use dpd_obs::{MetricsServer, Registry, SelfTracer};
use dpd_trace::dtb::{self, Block, DtbDecoder, DtbWriter};
use dpd_trace::EventTrace;
use par_runtime::net::{DpdServer, DurableNet, NetConfig, HANDSHAKE_MAGIC, PROTOCOL_VERSION};
use par_runtime::service::ServiceObs;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `dpd serve --help` text (golden-file tested).
pub const SERVE_USAGE: &str = "usage: dpd serve [flags]

Serve the multi-stream detector over TCP. Clients speak the DTB
container format as the wire protocol (docs/FORMAT.md \u{a7}11): the server
sends a 6-byte handshake on accept, the client streams DTB bytes, and
the server acknowledges ingested samples with 8-byte cumulative counts.

  --listen ADDR        bind address (default 127.0.0.1:0)
  --port-file FILE     write the bound address to FILE once listening
  --accept N           stop accepting after N connections, then drain
                       and exit (default 0: serve until killed)
  --window W           detector window (default 64)
  --shards S           worker shards; 0 = inline deterministic (default 0)
  --evict-after N      close streams idle for N global samples (default off)
  --query FILE         attach standing queries from a spec file, one per
                       line (docs/QUERIES.md); the summary then reports
                       enter/exit delta counts
  --events FILE        write every detector event to FILE, one line each,
                       as it is published (default: count and drop them)
  --max-conns N        shed connections beyond N open (default 4096)
  --max-frame BYTES    reject frames larger than BYTES (default 1048576)
  --stall-ms T         shed a connection stalled mid-frame for T ms
                       (default 5000)
  --checkpoint FILE    durable mode: checkpoint detector state to FILE
  --checkpoint-every N durable mode: checkpoint every N samples
                       (default 0: only at clean closes and on exit)
  --resume             resume from --checkpoint FILE when it exists
  --metrics ADDR       expose live metrics: serve `GET /metrics`
                       (Prometheus text format) on ADDR; scrape it with
                       `dpd stats` (docs/OBSERVABILITY.md)
  --metrics-port-file FILE  write the bound metrics address to FILE
                       once listening (requires --metrics)
  --self-trace FILE    record per-shard ingest-loop timings to FILE as
                       a DTB event trace while serving; point
                       `dpd analyze FILE` at the server's own pulse
  --self-trace-every-ms N  self-trace sampler drain interval
                       (default 100)
  --timing show|none   wall-clock figures in the summary (default show)
";

/// `dpd loadgen --help` text.
pub const LOADGEN_USAGE: &str = "usage: dpd loadgen CORPUS [flags]

Replay a DTB corpus against `dpd serve` over N concurrent connections.
Event streams are partitioned round-robin across connections, so the
united replay covers every stream exactly once.

  --connect ADDR       server address
  --port-file FILE     read the server address from FILE (poll until
                       it appears; the serve-side --port-file)
  --conns N            concurrent connections (default 1)
  --chunk N            samples per re-encoded DTB frame (default 256)
  --fragment MODE      write sizing: whole | bytes:N | random
                       (default whole; random = 1..=4096-byte writes)
  --seed S             deterministic seed for random fragmentation
                       (default 1)
  --pace-ms T          sleep T ms between writes (default 0)
  --abort-after-bytes B  drop each connection abruptly after B bytes
  --timing show|none   throughput/latency figures (default show)
";

/// `dpd stats --help` text (golden-file tested).
pub const STATS_USAGE: &str = "usage: dpd stats [ADDR] [flags]

Scrape a `dpd serve --metrics` endpoint once and print every series as
a sorted `name value` line — a deterministic, diff-friendly rendering
of the Prometheus text page (docs/OBSERVABILITY.md). ADDR is the
`--metrics` address; omit it and pass --port-file to read the address
a server published with --metrics-port-file.

  --port-file FILE     read ADDR from FILE (poll until it appears)
  --filter PREFIX      only print series whose name starts with PREFIX
  --raw                print the exposition page verbatim instead
                       (HELP/TYPE comments and all)
  --watch SEC          keep scraping every SEC seconds; scrapes are
                       separated by `---` lines
  --count N            stop after N scrapes (default 1; with --watch
                       the default is 5)
";

/// Parse `--timing show|none`.
fn parse_timing(flags: &Flags) -> Result<bool, String> {
    match flags.get("timing").unwrap_or("show") {
        "show" => Ok(true),
        "none" => Ok(false),
        other => Err(format!("unknown --timing {other:?} (show|none)")),
    }
}

/// Atomically publish a bound address to a port file: pollers (loadgen,
/// `dpd stats --port-file`) must never read a half-written address.
fn publish_port_file(pf: &str, addr: &std::net::SocketAddr) -> Result<(), String> {
    let tmp = format!("{pf}.tmp");
    std::fs::write(&tmp, format!("{addr}\n")).map_err(|e| format!("write {tmp}: {e}"))?;
    std::fs::rename(&tmp, pf).map_err(|e| format!("publish {pf}: {e}"))
}

// ---------------------------------------------------------------------------
// dpd serve

/// `dpd serve`: run the DTB-over-TCP ingestion server (see
/// [`SERVE_USAGE`]). With `--accept N` the command is self-terminating:
/// it stops accepting after N connections, waits for every accepted one
/// to finish, then shuts down and prints a deterministic summary.
pub fn serve(flags: &Flags) -> Result<String, String> {
    if flags.has("help") {
        return Ok(SERVE_USAGE.to_string());
    }
    let listen = flags.get("listen").unwrap_or("127.0.0.1:0");
    let accept = flags.get_usize("accept", 0)? as u64;
    let window = flags.get_usize("window", 64)?;
    let shards = flags.get_usize("shards", 0)?;
    let evict_after = flags.get_usize("evict-after", 0)? as u64;
    let timing = parse_timing(flags)?;

    let mut builder = DpdBuilder::new().window(window).shards(shards);
    if evict_after > 0 {
        builder = builder.evict_after(evict_after);
    }
    let queries = match flags.get("query") {
        Some(spec_path) => {
            let text =
                std::fs::read_to_string(spec_path).map_err(|e| format!("read {spec_path}: {e}"))?;
            let specs =
                dpd_core::query::parse_specs(&text).map_err(|e| format!("{spec_path}: {e}"))?;
            builder = builder.standing_queries(&specs);
            specs.len()
        }
        None => 0,
    };
    let mut cfg = NetConfig {
        max_conns: flags.get_usize("max-conns", 4096)?,
        max_frame: flags.get_usize("max-frame", dtb::DEFAULT_MAX_FRAME)?,
        stall_ms: flags.get_usize("stall-ms", 5_000)? as u64,
        accept_limit: accept,
        events: flags.get("events").map(Into::into),
        ..NetConfig::default()
    };
    if let Some(path) = flags.get("checkpoint") {
        cfg.durable = Some(DurableNet {
            path: path.into(),
            every_samples: flags.get_usize("checkpoint-every", 0)? as u64,
            resume: flags.has("resume"),
        });
    } else if flags.has("resume") {
        return Err("--resume requires --checkpoint FILE".into());
    }
    let durable = cfg.durable.is_some();
    let metrics_addr = flags.get("metrics");
    if flags.get("metrics-port-file").is_some() && metrics_addr.is_none() {
        return Err("--metrics-port-file requires --metrics ADDR".into());
    }
    let self_trace = flags.get("self-trace");
    let self_trace_every = flags.get_usize("self-trace-every-ms", 100)?.max(1) as u64;

    // Observability wiring: the service's per-shard rollups and the
    // server's dpd_net_* counters register into one registry, which the
    // optional --metrics endpoint serves live; the optional self-tracer
    // records every ingest-loop timing for the sampler thread to write
    // out as a DTB trace the detector itself can analyze.
    let registry = Registry::new();
    let tracer = self_trace.map(|_| SelfTracer::new(shards.max(1)));
    let obs = ServiceObs {
        registry: registry.clone(),
        self_tracer: tracer.clone(),
    };

    let server = DpdServer::start_observed(&builder, cfg, listen, obs)
        .map_err(|e| format!("serve {listen}: {e}"))?;
    let addr = server.local_addr();
    if let Some(pf) = flags.get("port-file") {
        publish_port_file(pf, &addr)?;
    }
    let metrics = match metrics_addr {
        Some(maddr) => {
            let m = MetricsServer::start(registry.clone(), maddr)
                .map_err(|e| format!("metrics {maddr}: {e}"))?;
            if let Some(pf) = flags.get("metrics-port-file") {
                publish_port_file(pf, &m.local_addr())?;
            }
            Some(m)
        }
        None => None,
    };
    let trace_writer = match (&tracer, self_trace) {
        (Some(t), Some(path)) => Some(
            t.start_writer(path, Duration::from_millis(self_trace_every))
                .map_err(|e| format!("self-trace {path}: {e}"))?,
        ),
        _ => None,
    };

    let start = Instant::now();
    // Self-terminating with an accept limit; otherwise serve until the
    // process is killed (the durable checkpoint cadence is the crash
    // story, exercised by the fault-injection tests).
    while !server.drained() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = server
        .shutdown()
        .map_err(|e| format!("serve shutdown: {e}"))?;
    let elapsed = start.elapsed();

    let mut out = String::new();
    if let Some(m) = report.resumed_from {
        writeln!(
            out,
            "resumed from checkpoint #{} at samples {}",
            m.ordinal, m.samples
        )
        .unwrap();
    }
    let s = report.stats;
    writeln!(
        out,
        "served {} connection(s): {} clean, {} protocol error(s), {} shed, {} disconnected",
        s.accepted,
        s.clean_closes,
        s.protocol_errors,
        s.shed_capacity + s.shed_stalled + s.shed_slow,
        s.disconnected
    )
    .unwrap();
    if timing {
        writeln!(
            out,
            "ingested {} samples in {} frames ({} bytes) in {:.1} ms ({:.2} Msamples/s)",
            s.samples,
            s.frames,
            s.bytes,
            elapsed.as_secs_f64() * 1e3,
            s.samples as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6,
        )
        .unwrap();
    } else {
        writeln!(out, "ingested {} samples in {} frames", s.samples, s.frames).unwrap();
    }
    if s.samples_skipped > 0 {
        writeln!(
            out,
            "note: skipped {} sampled value(s) (serve ingests event streams only)",
            s.samples_skipped
        )
        .unwrap();
    }
    if durable {
        writeln!(out, "checkpoints {}", s.checkpoints).unwrap();
    }
    // Observability epilogue: these lines appear only when the flags
    // were given, so flag-less summaries stay byte-identical.
    if let Some(m) = metrics {
        writeln!(out, "metrics: served {} scrape(s)", m.scrapes()).unwrap();
        m.shutdown();
    }
    if let Some(w) = trace_writer {
        let path = w.path().display().to_string();
        // Final drain + DTB finalize before we report the file.
        w.finish();
        writeln!(out, "self-trace: wrote {path}").unwrap();
    }
    let t = report.snapshot.total();
    writeln!(
        out,
        "shards: {} | events {} | evicted {} | closed {}",
        report.snapshot.shards.len(),
        t.events,
        t.evicted,
        t.closed
    )
    .unwrap();
    // Only when queries are registered, so query-less summaries stay
    // byte-identical to earlier releases.
    if queries > 0 {
        writeln!(
            out,
            "queries: {queries} | enters {} | exits {}",
            t.query_enters, t.query_exits
        )
        .unwrap();
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// dpd stats

/// Poll `path` until it holds a non-empty line (a serve-side port
/// file's atomic publish), returning that line.
fn poll_port_file(path: &str) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("port file {path} did not appear"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `dpd stats [ADDR]`: scrape a `serve --metrics` endpoint and print
/// its series as sorted `name value` lines (see [`STATS_USAGE`]).
pub fn stats(flags: &Flags) -> Result<String, String> {
    if flags.has("help") {
        return Ok(STATS_USAGE.to_string());
    }
    let addr = match flags.positional.first() {
        Some(a) => a.clone(),
        None => match flags.get("port-file") {
            Some(pf) => poll_port_file(pf)?,
            None => return Err("stats expects ADDR or --port-file FILE".into()),
        },
    };
    let watch_secs = flags.get_usize("watch", 0)? as u64;
    let count = flags
        .get_usize("count", if watch_secs > 0 { 5 } else { 1 })?
        .max(1);
    let raw = flags.has("raw");
    let filter = flags.get("filter").unwrap_or("");

    let mut out = String::new();
    for i in 0..count {
        if i > 0 {
            std::thread::sleep(Duration::from_secs(watch_secs));
            writeln!(out, "---").unwrap();
        }
        let page = dpd_obs::scrape(&addr).map_err(|e| format!("scrape {addr}: {e}"))?;
        if raw {
            out.push_str(&page);
            continue;
        }
        let scrape = dpd_obs::parse_exposition(&page).map_err(|e| format!("{addr}: {e}"))?;
        // BTreeMap iteration: already sorted, so the rendering is
        // deterministic for a fixed registry state.
        for (series, value) in &scrape.values {
            if series.starts_with(filter) {
                writeln!(out, "{series} {value}").unwrap();
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// dpd loadgen

/// Client write-size policy.
#[derive(Debug, Clone, Copy)]
enum Fragment {
    /// One `write` per connection payload.
    Whole,
    /// Fixed-size writes.
    Bytes(usize),
    /// Seeded random write sizes in `1..=4096`.
    Random,
}

fn parse_fragment(s: &str) -> Result<Fragment, String> {
    match s {
        "whole" => Ok(Fragment::Whole),
        "random" => Ok(Fragment::Random),
        other => match other.strip_prefix("bytes:").map(str::parse) {
            Some(Ok(n)) if n > 0 => Ok(Fragment::Bytes(n)),
            _ => Err(format!(
                "unknown --fragment {other:?} (whole|bytes:N|random)"
            )),
        },
    }
}

/// splitmix64: the deterministic per-connection fragmentation RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolve the server address from `--connect` or `--port-file`.
fn resolve_addr(flags: &Flags) -> Result<String, String> {
    if let Some(addr) = flags.get("connect") {
        return Ok(addr.to_string());
    }
    let pf = flags
        .get("port-file")
        .ok_or("loadgen requires --connect ADDR or --port-file FILE")?;
    poll_port_file(pf)
}

/// One connection's replay payload: the DTB bytes, the frame boundaries
/// as `(byte_end, cumulative_samples)` pairs, and the sample total.
struct ConnPayload {
    bytes: Vec<u8>,
    bounds: Vec<(usize, u64)>,
    samples: u64,
}

/// Re-encode a connection's share of the corpus as a standalone DTB
/// stream: declarations first, then round-robin frames of `chunk`
/// samples — the arrival pattern of many applications tracing at once.
fn encode_conn(streams: &[(u64, &EventTrace)], chunk: usize) -> Result<ConnPayload, String> {
    let mut w = DtbWriter::with_block_len(Vec::new(), chunk).map_err(|e| e.to_string())?;
    for (id, t) in streams {
        w.declare_events(*id, &t.name).map_err(|e| e.to_string())?;
    }
    let mut offset = 0;
    loop {
        let mut any = false;
        for (id, t) in streams {
            if offset < t.values.len() {
                let end = (offset + chunk).min(t.values.len());
                w.push_events(*id, &t.values[offset..end])
                    .map_err(|e| e.to_string())?;
                any = true;
            }
        }
        if !any {
            break;
        }
        offset += chunk;
    }
    let bytes = w.finish().map_err(|e| e.to_string())?;

    // Recover the frame boundaries from the encoded bytes themselves (the
    // writer may coalesce pushes into blocks): after each decoded events
    // frame, `position()` is the exact byte the server needs to have seen
    // to acknowledge `cum` samples.
    let mut dec = DtbDecoder::new();
    dec.feed(&bytes);
    let mut bounds = Vec::new();
    let mut cum = 0u64;
    loop {
        match dec
            .next_block()
            .map_err(|e| format!("re-encoded corpus: {e}"))?
        {
            None => break,
            Some(Block::Events { values, .. }) => {
                cum += values.len() as u64;
                bounds.push((dec.position(), cum));
            }
            Some(_) => {}
        }
    }
    Ok(ConnPayload {
        bytes,
        bounds,
        samples: cum,
    })
}

/// What one connection worker reports back.
#[derive(Debug, Default)]
struct ConnOutcome {
    sent_samples: u64,
    acked: u64,
    aborted: bool,
    error: Option<String>,
    /// Ingest latency samples: ack arrival minus frame-send completion.
    latencies: Vec<Duration>,
}

/// Tuning of one loadgen connection.
#[derive(Debug, Clone, Copy)]
struct ConnPlan {
    fragment: Fragment,
    seed: u64,
    pace_ms: u64,
    abort_after_bytes: u64,
}

fn connect_with_retry(addr: &str) -> Result<TcpStream, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("connect {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Drive one connection: handshake, fragmented writes, ack accounting.
fn run_conn(addr: &str, payload: &ConnPayload, plan: ConnPlan) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut sock = match connect_with_retry(addr) {
        Ok(s) => s,
        Err(e) => {
            out.error = Some(e);
            return out;
        }
    };
    sock.set_nodelay(true).ok();

    // Handshake: 4-byte magic, version, flags.
    let mut hello = [0u8; 6];
    if let Err(e) = sock.read_exact(&mut hello) {
        out.error = Some(format!("handshake read: {e}"));
        return out;
    }
    if hello[..4] != HANDSHAKE_MAGIC || hello[4] != PROTOCOL_VERSION {
        out.error = Some(format!("unexpected handshake {hello:?}"));
        return out;
    }

    // Ack reader: 8-byte little-endian cumulative sample counts, stamped
    // on arrival for the latency percentiles. Runs until the server
    // closes its side (after the final ack, or on a shed).
    let acks: std::sync::Arc<Mutex<Vec<(u64, Instant)>>> = Default::default();
    let reader = {
        let mut sock = match sock.try_clone() {
            Ok(s) => s,
            Err(e) => {
                out.error = Some(format!("clone socket: {e}"));
                return out;
            }
        };
        let acks = acks.clone();
        std::thread::spawn(move || {
            let mut buf = [0u8; 8];
            while sock.read_exact(&mut buf).is_ok() {
                let v = u64::from_le_bytes(buf);
                acks.lock().unwrap().push((v, Instant::now()));
            }
        })
    };

    // Fragmented writes, recording when each frame finished sending.
    let mut rng = plan.seed;
    let mut send_times: Vec<Option<Instant>> = vec![None; payload.bounds.len()];
    let mut next_bound = 0;
    let mut written = 0usize;
    while written < payload.bytes.len() {
        let rem = payload.bytes.len() - written;
        let mut n = match plan.fragment {
            Fragment::Whole => rem,
            Fragment::Bytes(n) => n.min(rem),
            Fragment::Random => ((splitmix64(&mut rng) % 4096 + 1) as usize).min(rem),
        };
        if plan.abort_after_bytes > 0 {
            // Never overshoot the abort point: the disconnect must land
            // at exactly B bytes, whatever the fragmentation mode.
            n = n.min(
                (plan.abort_after_bytes as usize)
                    .saturating_sub(written)
                    .max(1),
            );
        }
        if let Err(e) = sock.write_all(&payload.bytes[written..written + n]) {
            out.error = Some(format!("write: {e}"));
            break;
        }
        written += n;
        let now = Instant::now();
        while next_bound < payload.bounds.len() && payload.bounds[next_bound].0 <= written {
            send_times[next_bound] = Some(now);
            next_bound += 1;
        }
        if plan.abort_after_bytes > 0 && written as u64 >= plan.abort_after_bytes {
            out.aborted = true;
            break;
        }
        if plan.pace_ms > 0 {
            std::thread::sleep(Duration::from_millis(plan.pace_ms));
        }
    }
    out.sent_samples = payload.bounds[..next_bound]
        .last()
        .map(|&(_, c)| c)
        .unwrap_or(0);

    if out.aborted {
        // Abrupt disconnect: tear down both directions mid-frame.
        sock.shutdown(Shutdown::Both).ok();
    } else {
        // Clean close: half-close the write side and drain the remaining
        // acks until the server closes (it sends the final ack first).
        sock.shutdown(Shutdown::Write).ok();
    }
    drop(sock);
    reader.join().ok();

    let acks = std::mem::take(&mut *acks.lock().unwrap());
    out.acked = acks.iter().map(|&(v, _)| v).max().unwrap_or(0);
    // Match each fully-sent frame to the first ack covering it.
    let mut ai = 0;
    for (i, &(_, cum)) in payload.bounds.iter().enumerate() {
        let Some(sent) = send_times[i] else { break };
        while ai < acks.len() && acks[ai].0 < cum {
            ai += 1;
        }
        if ai == acks.len() {
            break;
        }
        out.latencies
            .push(acks[ai].1.saturating_duration_since(sent));
    }
    out
}

/// A percentile over unsorted latency samples, in milliseconds.
fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

/// `dpd loadgen CORPUS`: replay a DTB corpus against a running server
/// (see [`LOADGEN_USAGE`]).
pub fn loadgen(flags: &Flags) -> Result<String, String> {
    if flags.has("help") {
        return Ok(LOADGEN_USAGE.to_string());
    }
    let corpus = flags
        .positional
        .first()
        .ok_or("loadgen expects a DTB corpus file")?;
    let conns = flags.get_usize("conns", 1)?.max(1);
    let chunk = flags.get_usize("chunk", 256)?.max(1);
    let fragment = parse_fragment(flags.get("fragment").unwrap_or("whole"))?;
    let seed = flags.get_usize("seed", 1)? as u64;
    let pace_ms = flags.get_usize("pace-ms", 0)? as u64;
    let abort_after_bytes = flags.get_usize("abort-after-bytes", 0)? as u64;
    let timing = parse_timing(flags)?;
    let addr = resolve_addr(flags)?;

    let bytes = std::fs::read(corpus).map_err(|e| format!("read {corpus}: {e}"))?;
    let (events, sampled) = dtb::read_all(&bytes).map_err(|e| format!("{corpus}: {e}"))?;
    if events.is_empty() {
        return Err(format!("{corpus}: container holds no event stream"));
    }

    // Round-robin partition: connection i replays streams i, i+N, ...
    // Disjoint per-stream coverage is what makes the server-side output
    // deterministic for any interleaving of the connections.
    let payloads: Vec<ConnPayload> = (0..conns)
        .map(|c| {
            let share: Vec<(u64, &EventTrace)> = events
                .iter()
                .enumerate()
                .filter(|(i, _)| i % conns == c)
                .map(|(_, (id, t))| (*id, t))
                .collect();
            encode_conn(&share, chunk)
        })
        .collect::<Result<_, _>>()?;
    let total: u64 = payloads.iter().map(|p| p.samples).sum();

    let start = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = payloads
            .iter()
            .enumerate()
            .map(|(c, payload)| {
                let addr = addr.as_str();
                let plan = ConnPlan {
                    fragment,
                    seed: seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    pace_ms,
                    abort_after_bytes,
                };
                scope.spawn(move || run_conn(addr, payload, plan))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    let sent: u64 = outcomes.iter().map(|o| o.sent_samples).sum();
    let acked: u64 = outcomes.iter().map(|o| o.acked).sum();
    let aborted = outcomes.iter().filter(|o| o.aborted).count();
    let errors: Vec<&String> = outcomes.iter().filter_map(|o| o.error.as_ref()).collect();

    let mut out = String::new();
    writeln!(
        out,
        "loadgen: {conns} connection(s), {} event stream(s), {total} samples",
        events.len()
    )
    .unwrap();
    if !sampled.is_empty() {
        writeln!(
            out,
            "note: skipped {} sampled stream(s) (loadgen replays event streams only)",
            sampled.len()
        )
        .unwrap();
    }
    writeln!(
        out,
        "sent {sent} samples, acked {acked}; {aborted} aborted, {} error(s)",
        errors.len()
    )
    .unwrap();
    for e in errors.iter().take(5) {
        writeln!(out, "  error: {e}").unwrap();
    }
    if timing {
        let mut lat: Vec<Duration> = outcomes.iter().flat_map(|o| o.latencies.clone()).collect();
        lat.sort();
        writeln!(
            out,
            "sustained {:.2} Msamples/s; ingest latency p50 {:.2} ms, p99 {:.2} ms",
            acked as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6,
            percentile_ms(&lat, 0.50),
            percentile_ms(&lat, 0.99),
        )
        .unwrap();
    }
    Ok(out)
}

/// Shared loopback smoke used by unit and golden tests: serve an
/// `--accept`-bounded server on an ephemeral port in a background
/// thread, run loadgen against it, and return `(serve_out, loadgen_out)`.
#[doc(hidden)]
pub fn loopback_smoke(serve_args: &[String], loadgen_args: &[String]) -> (String, String) {
    let serve_args = serve_args.to_vec();
    let server = std::thread::spawn(move || crate::cmd::dispatch(&serve_args));
    let gen_out = crate::cmd::dispatch(loadgen_args).unwrap_or_else(|e| panic!("loadgen: {e}"));
    let serve_out = server
        .join()
        .unwrap()
        .unwrap_or_else(|e| panic!("serve: {e}"));
    (serve_out, gen_out)
}

/// The lines of a `serve --events` file, stably sorted by the stream id
/// each names: per-stream order is kept, and the result is the same for
/// any connection interleaving. A test helper, like [`loopback_smoke`].
#[doc(hidden)]
pub fn sort_event_lines(text: &str) -> String {
    let stream = |line: &str| -> Option<u64> {
        let rest = line.split("StreamId(").nth(1)?;
        rest.split(')').next()?.parse().ok()
    };
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_by_key(|line| stream(line));
    lines.iter().map(|line| format!("{line}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::dispatch;
    use std::path::Path;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpd-netcmd-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A corpus of three periodic streams in one DTB container.
    fn write_corpus(path: &Path) {
        let mut w = DtbWriter::new(std::fs::File::create(path).unwrap()).unwrap();
        for (id, period) in [(0u64, 3usize), (1, 5), (2, 7)] {
            let values: Vec<i64> = (0..600).map(|i| 0x2000 + (i % period) as i64).collect();
            w.declare_events(id, &format!("s{id}")).unwrap();
            w.push_events(id, &values).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn fragment_parses_and_rejects() {
        assert!(matches!(parse_fragment("whole"), Ok(Fragment::Whole)));
        assert!(matches!(parse_fragment("bytes:7"), Ok(Fragment::Bytes(7))));
        assert!(matches!(parse_fragment("random"), Ok(Fragment::Random)));
        assert!(parse_fragment("bytes:0").is_err());
        assert!(parse_fragment("shards").is_err());
    }

    #[test]
    fn serve_help_is_text() {
        let out = dispatch(&argv("serve --help")).unwrap();
        assert!(out.starts_with("usage: dpd serve"), "{out}");
        let out = dispatch(&argv("loadgen --help")).unwrap();
        assert!(out.starts_with("usage: dpd loadgen"), "{out}");
        let out = dispatch(&argv("stats --help")).unwrap();
        assert!(out.starts_with("usage: dpd stats"), "{out}");
    }

    #[test]
    fn serve_rejects_resume_without_checkpoint() {
        assert!(dispatch(&argv("serve --resume")).is_err());
    }

    #[test]
    fn serve_rejects_metrics_port_file_without_metrics() {
        assert!(dispatch(&argv("serve --metrics-port-file /tmp/x")).is_err());
    }

    #[test]
    fn stats_requires_an_address() {
        assert!(dispatch(&argv("stats")).is_err());
    }

    /// End-to-end observability loopback: serve with a live metrics
    /// endpoint and a self-trace, scrape mid-run with `dpd stats` while
    /// a holder connection keeps the server from draining, then point
    /// `dpd analyze` at the server's own ingest-loop trace.
    #[test]
    fn loopback_metrics_scrape_and_self_trace() {
        let dir = scratch("obs");
        let corpus = dir.join("corpus.dtb");
        write_corpus(&corpus);
        let pf = dir.join("port");
        let mpf = dir.join("metrics-port");
        let st = dir.join("self.dtb");
        let serve_args = argv(&format!(
            "serve --accept 3 --window 16 --port-file {} --metrics 127.0.0.1:0 \
             --metrics-port-file {} --self-trace {} --self-trace-every-ms 10 --timing none",
            pf.display(),
            mpf.display(),
            st.display()
        ));
        let server = std::thread::spawn(move || dispatch(&serve_args));

        // Holder: an accepted connection that stays open (and idle) so
        // the server is still live after loadgen's two conns finish.
        let addr = poll_port_file(pf.to_str().unwrap()).unwrap();
        let mut holder = connect_with_retry(&addr).unwrap();
        let mut hello = [0u8; 6];
        holder.read_exact(&mut hello).unwrap();

        let gen_out = dispatch(&argv(&format!(
            "loadgen {} --conns 2 --port-file {} --timing none",
            corpus.display(),
            pf.display()
        )))
        .unwrap();
        assert!(
            gen_out.contains("sent 1800 samples, acked 1800"),
            "{gen_out}"
        );

        // Scrape mid-run until both loadgen connections show as closed.
        let maddr = poll_port_file(mpf.to_str().unwrap()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let scraped = loop {
            let out = dispatch(&argv(&format!("stats {maddr}"))).unwrap();
            if out.contains("dpd_net_clean_closes_total 2")
                && out.contains("dpd_net_connections_open 1")
            {
                break out;
            }
            assert!(Instant::now() < deadline, "server never settled:\n{out}");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(scraped.contains("dpd_net_samples_total 1800"), "{scraped}");
        assert!(
            scraped.contains("dpd_shard_samples_total{shard=\"0\"} 1800"),
            "{scraped}"
        );
        // --filter narrows, --raw returns the exposition page itself.
        let net_only = dispatch(&argv(&format!("stats {maddr} --filter dpd_net_"))).unwrap();
        assert!(
            net_only.lines().all(|l| l.starts_with("dpd_net_")),
            "{net_only}"
        );
        let raw = dispatch(&argv(&format!("stats {maddr} --raw"))).unwrap();
        assert!(
            raw.contains("# TYPE dpd_net_samples_total counter"),
            "{raw}"
        );

        drop(holder);
        let serve_out = server.join().unwrap().unwrap();
        assert!(
            serve_out.contains("served 3 connection(s): 3 clean"),
            "{serve_out}"
        );
        assert!(serve_out.contains("metrics: served"), "{serve_out}");
        assert!(
            serve_out.contains(&format!("self-trace: wrote {}", st.display())),
            "{serve_out}"
        );

        // The self-trace is a well-formed DTB capture of the server's
        // own ingest loops, readable by the ordinary analyze pipeline.
        let analyzed = dispatch(&argv(&format!("analyze {}", st.display()))).unwrap();
        assert!(analyzed.contains("ingest-loop/shard-0"), "{analyzed}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Differential acceptance check: a self-trace carrying a periodic
    /// ingest pattern is detected by `dpd analyze` at the right period —
    /// the detector pointed at its own pulse.
    #[test]
    fn self_trace_capture_detects_injected_period() {
        let dir = scratch("selftrace");
        let file = dir.join("self.dtb");
        let tracer = SelfTracer::new(1);
        let writer = tracer
            .start_writer(&file, Duration::from_millis(5))
            .unwrap();
        // A period-5 duty cycle in log2-bucket space, e.g. four cheap
        // batches then one expensive flush, repeated.
        let pattern = [10i64, 10, 14, 10, 18];
        for i in 0..600 {
            tracer.record_value(0, pattern[i % pattern.len()]);
        }
        writer.finish();
        let out = dispatch(&argv(&format!("analyze {}", file.display()))).unwrap();
        assert!(out.contains("detected periodicities: [5]"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Loopback smoke across every fragmentation mode: the serve-side
    /// summary and events file are byte-identical (the file once sorted
    /// by stream) regardless of how the client fragments its writes, and
    /// match the corpus totals.
    #[test]
    fn loopback_serve_output_is_fragmentation_invariant() {
        let dir = scratch("frag");
        let corpus = dir.join("corpus.dtb");
        write_corpus(&corpus);
        let mut serve_outs = Vec::new();
        let mut event_files = Vec::new();
        for fragment in ["whole", "bytes:1", "random"] {
            let tag = fragment.replace(':', "-");
            let pf = dir.join(format!("port-{tag}"));
            let events = dir.join(format!("events-{tag}"));
            let (s, g) = loopback_smoke(
                &argv(&format!(
                    "serve --accept 2 --window 16 --port-file {} --events {} --timing none",
                    pf.display(),
                    events.display()
                )),
                &argv(&format!(
                    "loadgen {} --conns 2 --fragment {fragment} --port-file {} --timing none",
                    corpus.display(),
                    pf.display()
                )),
            );
            assert!(g.contains("sent 1800 samples, acked 1800"), "{g}");
            assert!(
                s.contains("served 2 connection(s): 2 clean, 0 protocol error(s)"),
                "{s}"
            );
            assert!(s.contains("ingested 1800 samples"), "{s}");
            serve_outs.push(s);
            event_files.push(sort_event_lines(&std::fs::read_to_string(&events).unwrap()));
        }
        assert_eq!(serve_outs[0], serve_outs[1], "bytes:1 changed the summary");
        assert_eq!(serve_outs[0], serve_outs[2], "random changed the summary");
        // Every event the summary counts is in the file.
        let counted = format!("events {} |", event_files[0].lines().count());
        assert!(serve_outs[0].contains(&counted), "{}", serve_outs[0]);
        assert_eq!(event_files[0], event_files[1], "bytes:1 changed the events");
        assert_eq!(event_files[0], event_files[2], "random changed the events");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An aborted client is a protocol error on its connection only; the
    /// other connections' streams are unaffected.
    #[test]
    fn loopback_abort_sheds_one_connection() {
        let dir = scratch("abort");
        let corpus = dir.join("corpus.dtb");
        write_corpus(&corpus);
        let pf = dir.join("port");
        // Two loadgen runs against one server: a healthy 2-conn replay
        // plus one aborted connection (3 accepted total).
        let serve_args = argv(&format!(
            "serve --accept 3 --window 16 --port-file {} --timing none",
            pf.display()
        ));
        let server = std::thread::spawn(move || dispatch(&serve_args));
        let bad = dispatch(&argv(&format!(
            "loadgen {} --conns 1 --abort-after-bytes 40 --port-file {} --timing none",
            corpus.display(),
            pf.display()
        )))
        .unwrap();
        assert!(bad.contains("1 aborted"), "{bad}");
        let good = dispatch(&argv(&format!(
            "loadgen {} --conns 2 --port-file {} --timing none",
            corpus.display(),
            pf.display()
        )))
        .unwrap();
        assert!(good.contains("sent 1800 samples, acked 1800"), "{good}");
        let s = server.join().unwrap().unwrap();
        assert!(s.contains("served 3 connection(s): 2 clean"), "{s}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
