//! Command parsing and execution.
//!
//! Hand-rolled flag parsing (no CLI dependency): every command takes
//! `--flag value` pairs plus at most one positional trace-file path.

use dpd_core::detector::FrameDetector;
use dpd_core::metric::EventMetric;
use dpd_core::minima::MinimaPolicy;
use dpd_core::pipeline::{DpdBuilder, DEFAULT_SCALES};
use dpd_core::segmentation::Segmenter;
use dpd_core::shard::{MultiStreamEvent, StreamId};
use dpd_trace::io::TraceFormat;
use dpd_trace::pile::{EpochMarker, PileFrame, PileWriter};
use dpd_trace::{dtb, gen, io, EventTrace};
use par_runtime::service::MultiStreamDpd;
use spec_apps::app::RunConfig;
use std::fmt::Write as _;

/// Usage text, carried by the errors for a missing or unknown command.
pub const USAGE: &str = "usage:
  dpd generate --kind periodic|nested|aperiodic|phases [--period P] [--len N] [--format text|dtb] [--streams N] --out FILE
  dpd apps --app tomcatv|swim|apsi|hydro2d|turb3d [--format text|dtb] --out FILE
  dpd convert FILE --out FILE [--to text|dtb]
  dpd analyze FILE [--scales 8,64,512]
  dpd spectrum FILE [--window 128]
  dpd segment FILE [--window 64]
  dpd multistream DIR [--shards 4] [--window 64] [--chunk 256] [--timing show|none]
                  [--evict-after N] [--memory-budget BYTES] [--cold-retain N]
  dpd predict FILE [--window 64] [--horizon 1]
  dpd query FILE --spec FILE [--window 64] [--chunk 256] [--horizon 0]
            [--evict-after N]
  dpd checkpoint DIR --pile FILE [--snap FILE] [--window 64] [--shards 0] [--chunk 256]
                 [--every 8] [--forecast H] [--throttle-ms T]
                 [--evict-after N] [--memory-budget BYTES] [--cold-retain N]
  dpd resume DIR --pile FILE [--snap FILE] [same flags as checkpoint]
  dpd serve [--listen ADDR] [--port-file FILE] [--accept N] [--metrics ADDR]
            [--self-trace FILE] (see serve --help)
  dpd loadgen CORPUS (--connect ADDR | --port-file FILE) [--conns N]
              [--fragment whole|bytes:N|random] (see loadgen --help)
  dpd stats [ADDR] [--port-file FILE] [--filter PREFIX] [--watch SEC]
            (see stats --help)

Trace files are text or DTB binary containers; every reader auto-detects
the format by magic, and a multistream DIR may mix both (a single .dtb
file can carry many streams). `predict` replays every event stream of
FILE through the online forecaster and reports per-stream hit rate and
MAPE at the given horizon (see docs/PREDICTION.md). `checkpoint` is the
durable ingest pipeline: every wave of records is appended to the
crash-safe pile log and fsynced *before* it is ingested, and the full
detector state is checkpointed to the snap file every K waves; after a
crash, `resume` restores the snap, replays the logged-but-uncovered
waves from the pile, and continues — emitting exactly the events an
uninterrupted run would have (see docs/FORMAT.md \u{a7}9).";

/// A parsed flag set: positional args + `--key value` pairs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Flags {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// `--key value` pairs, last occurrence wins.
    pub options: Vec<(String, String)>,
}

/// Flags that take no value (`--help`, `--resume`, `--raw`): presence
/// is the signal, tested with [`Flags::has`].
const BOOL_FLAGS: &[&str] = &["help", "resume", "raw"];

impl Flags {
    /// Parse a raw argument list.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&key) {
                    flags.options.push((key.to_string(), String::new()));
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                flags.options.push((key.to_string(), value.clone()));
            } else {
                flags.positional.push(a.clone());
            }
        }
        Ok(flags)
    }

    /// Whether `--key` was given at all (valueless boolean flags).
    pub fn has(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    /// Last value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parsed numeric flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }
}

/// Execute a command line, returning its stdout text.
pub fn dispatch(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| format!("no command given\n\n{USAGE}"))?;
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "generate" => generate(&flags),
        "apps" => apps(&flags),
        "convert" => convert(&flags),
        "analyze" => analyze(&flags),
        "spectrum" => spectrum(&flags),
        "segment" => segment(&flags),
        "multistream" => multistream(&flags),
        "predict" => predict(&flags),
        "query" => query_cmd(&flags),
        "checkpoint" => checkpoint_cmd(&flags),
        "resume" => resume_cmd(&flags),
        "serve" => crate::netcmd::serve(&flags),
        "loadgen" => crate::netcmd::loadgen(&flags),
        "stats" => crate::netcmd::stats(&flags),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn load_events(flags: &Flags) -> Result<EventTrace, String> {
    let path = flags
        .positional
        .first()
        .ok_or("expected a trace file argument")?;
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    io::read_events_auto(file).map_err(|e| format!("{path}: {e}"))
}

/// Parse `--format` / `--to` into a [`TraceFormat`].
fn parse_format(value: &str) -> Result<TraceFormat, String> {
    match value {
        "text" => Ok(TraceFormat::Text),
        "dtb" => Ok(TraceFormat::Dtb),
        other => Err(format!("unknown trace format {other:?} (text|dtb)")),
    }
}

/// Write an event trace to `path` in the requested format.
fn write_events_as(trace: &EventTrace, path: &str, format: TraceFormat) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let file = std::io::BufWriter::new(file);
    match format {
        TraceFormat::Text => io::write_events(trace, file).map_err(|e| e.to_string()),
        TraceFormat::Dtb => dtb::write_events(trace, file).map_err(|e| e.to_string()),
    }
}

fn generate(flags: &Flags) -> Result<String, String> {
    let kind = flags.get("kind").unwrap_or("periodic");
    let len = flags.get_usize("len", 5000)?;
    let period = flags.get_usize("period", 6)?;
    let out = flags.get("out").ok_or("generate requires --out FILE")?;
    let streams = flags.get_usize("streams", 1)?;
    if streams > 1 {
        // Multi-stream corpus: one DTB container holding `streams`
        // interleaved periodic event streams (periods vary per stream, see
        // `gen::interleaved_stream_period`). This is the corpus shape
        // `dpd loadgen` partitions across connections, so CI smoke scripts
        // can build a many-connection workload with the CLI alone.
        if parse_format(flags.get("format").unwrap_or("dtb"))? != TraceFormat::Dtb {
            return Err(
                "--streams N > 1 requires --format dtb (one container, many streams)".into(),
            );
        }
        let chunk = 64usize.min(len.max(1));
        let schedule = gen::interleaved_streams(streams as u64, chunk, len.div_ceil(chunk).max(1));
        let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
        let mut w =
            dtb::DtbWriter::new(std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
        for s in 0..streams as u64 {
            w.declare_events(s, &format!("s{s}"))
                .map_err(|e| e.to_string())?;
        }
        let mut total = 0usize;
        for (id, rec) in &schedule {
            w.push_events(*id, rec).map_err(|e| e.to_string())?;
            total += rec.len();
        }
        w.finish().map_err(|e| e.to_string())?;
        return Ok(format!(
            "wrote {streams} event streams ({total} samples) to {out}\n"
        ));
    }
    let values = match kind {
        "periodic" => {
            if period == 0 {
                return Err("--period must be positive".into());
            }
            let pattern: Vec<i64> = (0..period).map(|i| 0x1000 + i as i64).collect();
            gen::periodic_events(&pattern, len)
        }
        "nested" => gen::nested_events(5, 10, 11, len.div_ceil(115).max(1)).0,
        "aperiodic" => gen::aperiodic_events(len),
        "phases" => {
            // Three segments with structurally disjoint alphabets: period
            // P, then 2P+1, then P+1 — an injected-phase-change corpus for
            // evaluating forecast invalidation (docs/PREDICTION.md).
            if period == 0 {
                return Err("--period must be positive".into());
            }
            let third = (len / 3).max(1);
            gen::phase_change_events(&[
                (period, third),
                (2 * period + 1, third),
                (period + 1, len.saturating_sub(2 * third)),
            ])
        }
        other => return Err(format!("unknown --kind {other:?}")),
    };
    let trace = EventTrace::from_values(kind, values);
    let format = parse_format(flags.get("format").unwrap_or("text"))?;
    write_events_as(&trace, out, format)?;
    Ok(format!("wrote {} events to {out}\n", trace.len()))
}

fn apps(flags: &Flags) -> Result<String, String> {
    let name = flags.get("app").ok_or("apps requires --app NAME")?;
    let out = flags.get("out").ok_or("apps requires --out FILE")?;
    let format = parse_format(flags.get("format").unwrap_or("text"))?;
    let app = spec_apps::spec_apps()
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| format!("unknown app {name:?}"))?;
    let run = app.run(&RunConfig::default());
    write_events_as(&run.addresses, out, format)?;
    Ok(format!(
        "ran {name}: {} loop-call events written to {out}\n",
        run.addresses.len()
    ))
}

/// `dpd convert IN --out OUT [--to text|dtb]`: transcode a trace file
/// between the text format and the DTB binary container. The input format
/// is auto-detected; `--to` defaults to the *other* format. DTB stream ids
/// are preserved on DTB output (text input becomes stream 0). A
/// multi-stream DTB container converts to text only when it holds exactly
/// one stream (the text format is single-stream by construction).
fn convert(flags: &Flags) -> Result<String, String> {
    let path = flags
        .positional
        .first()
        .ok_or("convert expects an input trace file")?;
    let out = flags.get("out").ok_or("convert requires --out FILE")?;
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let from = io::detect_format(&bytes)
        .ok_or_else(|| format!("{path}: neither a text trace nor a DTB container"))?;
    let to = match flags.get("to") {
        Some(v) => parse_format(v)?,
        None => match from {
            TraceFormat::Text => TraceFormat::Dtb,
            TraceFormat::Dtb => TraceFormat::Text,
        },
    };

    // Decode every stream the input holds, keeping stream ids.
    let (events, sampled): dtb::DtbStreams = match from {
        TraceFormat::Dtb => dtb::read_all(&bytes).map_err(|e| format!("{path}: {e}"))?,
        TraceFormat::Text => match io::read_events(&bytes[..]) {
            Ok(t) => (vec![(0, t)], Vec::new()),
            Err(io::TraceIoError::WrongKind { .. }) => {
                let s = io::read_sampled(&bytes[..]).map_err(|e| format!("{path}: {e}"))?;
                (Vec::new(), vec![(0, s)])
            }
            Err(e) => return Err(format!("{path}: {e}")),
        },
    };
    let values: usize = events.iter().map(|(_, t)| t.len()).sum::<usize>()
        + sampled.iter().map(|(_, t)| t.len()).sum::<usize>();

    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let file = std::io::BufWriter::new(file);
    match to {
        TraceFormat::Dtb => {
            let mut w = dtb::DtbWriter::new(file).map_err(|e| e.to_string())?;
            for (id, t) in &events {
                w.declare_events(*id, &t.name).map_err(|e| e.to_string())?;
                w.push_events(*id, &t.values).map_err(|e| e.to_string())?;
            }
            for (id, t) in &sampled {
                w.declare_sampled(*id, &t.name, t.sample_period_ns)
                    .map_err(|e| e.to_string())?;
                w.push_samples(*id, &t.values).map_err(|e| e.to_string())?;
            }
            w.finish().map_err(|e| e.to_string())?;
        }
        TraceFormat::Text => match (events.as_slice(), sampled.as_slice()) {
            ([(_, t)], []) => io::write_events(t, file).map_err(|e| e.to_string())?,
            ([], [(_, s)]) => io::write_sampled(s, file).map_err(|e| e.to_string())?,
            _ => {
                return Err(format!(
                    "{path} holds {} event + {} sampled streams; the text format \
                     is single-stream — convert streams individually",
                    events.len(),
                    sampled.len()
                ))
            }
        },
    }
    let (from_s, to_s) = (fmt_name(from), fmt_name(to));
    Ok(format!(
        "converted {} stream(s), {values} values: {from_s} -> {to_s}, wrote {out}\n",
        events.len() + sampled.len()
    ))
}

fn fmt_name(f: TraceFormat) -> &'static str {
    match f {
        TraceFormat::Text => "text",
        TraceFormat::Dtb => "dtb",
    }
}

fn analyze(flags: &Flags) -> Result<String, String> {
    let trace = load_events(flags)?;
    let scales: Vec<usize> = match flags.get("scales") {
        None => DEFAULT_SCALES.to_vec(),
        Some(s) => s
            .split(',')
            .map(|p| p.trim().parse().map_err(|_| format!("bad scale {p:?}")))
            .collect::<Result<_, _>>()?,
    };
    let mut bank = DpdBuilder::new()
        .scales(&scales)
        .build_multi_scale()
        .map_err(|e| format!("invalid scales: {e}"))?;
    bank.push_slice(&trace.values);
    let mut out = String::new();
    writeln!(out, "trace {:?}: {} events", trace.name, trace.len()).unwrap();
    writeln!(out, "detected periodicities: {:?}", bank.detected_periods()).unwrap();
    for dpd in bank.scales() {
        let st = dpd.stats();
        writeln!(
            out,
            "  window {:4}: periods {:?}, {} boundaries, {} losses",
            dpd.window(),
            st.detected_periods(),
            st.boundaries,
            st.losses
        )
        .unwrap();
    }
    Ok(out)
}

fn spectrum(flags: &Flags) -> Result<String, String> {
    let trace = load_events(flags)?;
    let window = flags.get_usize("window", 128)?;
    let det = FrameDetector::new(EventMetric, window, window, MinimaPolicy::exact())
        .map_err(|e| e.to_string())?;
    let report = det
        .analyze(&trace.values)
        .map_err(|e| format!("analysis failed: {e}"))?;
    let mut out = String::new();
    writeln!(out, "d(m) over the trailing {window}-sample frame:").unwrap();
    out.push_str(&report.spectrum.ascii_chart(50));
    writeln!(out, "zeros (exact periods): {:?}", report.spectrum.zeros()).unwrap();
    writeln!(out, "fundamental: {:?}", report.period()).unwrap();
    Ok(out)
}

fn segment(flags: &Flags) -> Result<String, String> {
    let trace = load_events(flags)?;
    let window = flags.get_usize("window", 64)?;
    let mut dpd = DpdBuilder::new()
        .window(window)
        .build_detector()
        .map_err(|e| e.to_string())?;
    let mut seg = Segmenter::new();
    for event in dpd.push_slice(&trace.values) {
        seg.observe(event);
    }
    let marks = seg.marks().to_vec();
    let segments = seg.finish();
    let mut out = String::new();
    writeln!(
        out,
        "{} segments, {} period-start marks (window {window}):",
        segments.len(),
        marks.len()
    )
    .unwrap();
    for s in &segments {
        writeln!(
            out,
            "  [{:>8}, {:>8})  period {:>5}  {:>6} periods",
            s.start, s.end, s.period, s.periods
        )
        .unwrap();
    }
    Ok(out)
}

/// Every event stream of one trace file, in stable order: declaration
/// order for a DTB container, the single stream of a text trace
/// otherwise. Sampled streams are not replayable by the event-ingesting
/// commands, so they are counted and reported, not silently dropped.
/// Returns the streams plus the skipped sampled-stream count.
fn read_event_streams(path: &std::path::Path) -> Result<(Vec<EventTrace>, usize), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    match io::detect_format(&bytes) {
        Some(TraceFormat::Dtb) => {
            let (events, sampled) =
                dtb::read_all(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            if events.is_empty() {
                return Err(format!(
                    "{}: container holds no event stream",
                    path.display()
                ));
            }
            Ok((events.into_iter().map(|(_, t)| t).collect(), sampled.len()))
        }
        _ => {
            let trace =
                io::read_events(&bytes[..]).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((vec![trace], 0))
        }
    }
}

/// Load every event stream of a directory of trace files: the files in
/// name order, so stream ids are stable, each expanded by
/// [`read_event_streams`]. Returns the traces plus the skipped
/// sampled-stream count.
fn load_dir_traces(dir: &str) -> Result<(Vec<EventTrace>, usize), String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read dir {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no trace files in {dir}"));
    }
    let mut traces = Vec::with_capacity(paths.len());
    let mut skipped_sampled = 0usize;
    for p in &paths {
        let (streams, skipped) = read_event_streams(p)?;
        traces.extend(streams);
        skipped_sampled += skipped;
    }
    Ok((traces, skipped_sampled))
}

/// Round-robin wave `wave`: the next `chunk` samples of every trace that
/// has any left, tagged with the trace's index as its stream id — the
/// arrival pattern of many applications tracing at once. Empty once
/// every trace is exhausted.
fn wave_slices(traces: &[EventTrace], wave: usize, chunk: usize) -> Vec<(StreamId, &[i64])> {
    let offset = wave * chunk;
    traces
        .iter()
        .enumerate()
        .filter(|(_, t)| offset < t.values.len())
        .map(|(s, t)| {
            let end = (offset + chunk).min(t.values.len());
            (StreamId(s as u64), &t.values[offset..end])
        })
        .collect()
}

/// Replay `traces` into `svc` wave by wave until every trace is exhausted.
fn replay_waves(svc: &mut MultiStreamDpd, traces: &[EventTrace], chunk: usize) {
    for w in 0.. {
        let records = wave_slices(traces, w, chunk);
        if records.is_empty() {
            return;
        }
        svc.ingest(&records);
    }
}

/// The keyed-table flags `--memory-budget`, `--cold-retain` and
/// `--evict-after` applied to `builder`. Each defaults to 0, which the
/// builder reads as off.
fn table_flags(builder: DpdBuilder, flags: &Flags) -> Result<DpdBuilder, String> {
    Ok(builder
        .memory_budget(flags.get_usize("memory-budget", 0)? as u64)
        .cold_summary(flags.get_usize("cold-retain", 0)? as u64)
        .evict_after(flags.get_usize("evict-after", 0)? as u64))
}

fn multistream(flags: &Flags) -> Result<String, String> {
    let dir = flags
        .positional
        .first()
        .ok_or("multistream expects a directory of trace files")?;
    let shards = flags.get_usize("shards", 4)?;
    let window = flags.get_usize("window", 64)?;
    let chunk = flags.get_usize("chunk", 256)?.max(1);
    // Table-scale options (defaults off, keeping golden output stable):
    // a per-shard accounted-byte budget and a cold-summary retention
    // window (global samples past the eviction watermark).
    let builder = table_flags(DpdBuilder::new().window(window).shards(shards), flags)?;
    let tiered = flags.get_usize("memory-budget", 0)? > 0 || flags.get_usize("cold-retain", 0)? > 0;
    // `--timing none` suppresses the wall-clock figures so the output is
    // byte-stable (golden-file tests, diffable logs).
    let timing = match flags.get("timing").unwrap_or("show") {
        "show" => true,
        "none" => false,
        other => return Err(format!("unknown --timing {other:?} (show|none)")),
    };

    let (traces, skipped_sampled) = load_dir_traces(dir)?;

    // Replay all traces concurrently in round-robin waves.
    let mut svc = MultiStreamDpd::from_builder(&builder)
        .map_err(|e| format!("invalid multistream configuration: {e}"))?;
    let total: usize = traces.iter().map(|t| t.len()).sum();
    let start = std::time::Instant::now();
    replay_waves(&mut svc, &traces, chunk);
    let (events, snapshot) = svc.finish();
    let elapsed = start.elapsed();

    let mut out = String::new();
    let mode = if shards == 0 {
        "inline".to_string()
    } else {
        format!("{shards} shard(s)")
    };
    if timing {
        writeln!(
            out,
            "replayed {} streams ({} samples) over {mode} in {:.1} ms ({:.2} Msamples/s)",
            traces.len(),
            total,
            elapsed.as_secs_f64() * 1e3,
            total as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6,
        )
        .unwrap();
    } else {
        writeln!(
            out,
            "replayed {} streams ({} samples) over {mode}",
            traces.len(),
            total,
        )
        .unwrap();
    }
    if skipped_sampled > 0 {
        writeln!(
            out,
            "note: skipped {skipped_sampled} sampled stream(s) in .dtb containers \
             (multistream replays event streams only)"
        )
        .unwrap();
    }
    for e in &events {
        if let MultiStreamEvent::Closed {
            stream,
            samples,
            period,
        } = e
        {
            let name = &traces[stream.0 as usize].name;
            match period {
                Some(p) => writeln!(
                    out,
                    "  {name:<24} {samples:>8} samples  period {p} at close"
                )
                .unwrap(),
                None => {
                    writeln!(out, "  {name:<24} {samples:>8} samples  no lock at close").unwrap()
                }
            }
        }
    }
    let t = snapshot.total();
    writeln!(
        out,
        "shards: {} | events {} | evicted {} | closed {}",
        snapshot.shards.len(),
        t.events,
        t.evicted,
        t.closed
    )
    .unwrap();
    // Tier traffic only exists (and is only printed) when the new
    // table-scale options are in play, so default output stays stable.
    if tiered {
        writeln!(
            out,
            "tiers: cold {} | demoted {} | promoted {}",
            t.cold, t.demoted, t.promoted
        )
        .unwrap();
    }
    Ok(out)
}

/// Format an optional rate as a fixed-width percentage, `n/a` when absent.
fn fmt_pct(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{:.1}%", r * 100.0),
        None => "n/a".to_string(),
    }
}

/// `dpd predict FILE [--window W] [--horizon H]`: replay every event
/// stream of the trace through [`ForecastingDpd`], scoring the H-step-ahead
/// forecast at each sample, and report per-stream accuracy. Output is
/// deliberately deterministic (stable stream order, no wall-clock figures)
/// so it can be golden-file tested.
fn predict(flags: &Flags) -> Result<String, String> {
    let path = flags
        .positional
        .first()
        .ok_or("predict expects a trace file argument")?;
    let window = flags.get_usize("window", 64)?;
    let horizon = flags.get_usize("horizon", 1)?;
    if horizon == 0 {
        return Err("--horizon must be positive".into());
    }
    let (streams, skipped_sampled) = read_event_streams(path.as_ref())?;

    let mut out = String::new();
    writeln!(
        out,
        "forecast replay: horizon {horizon}, window {window}, {} stream(s)",
        streams.len()
    )
    .unwrap();
    if skipped_sampled > 0 {
        writeln!(
            out,
            "note: skipped {skipped_sampled} sampled stream(s) \
             (predict replays event streams only)"
        )
        .unwrap();
    }
    let mut checked_total = 0u64;
    let mut hits_total = 0u64;
    for trace in &streams {
        let mut f = DpdBuilder::new()
            .window(window)
            .forecast(horizon)
            .build_forecasting()
            .map_err(|e| format!("invalid predict configuration: {e}"))?;
        for &s in &trace.values {
            f.push(s);
        }
        let stats = f.predictor().stats();
        checked_total += stats.checked;
        hits_total += stats.hits;
        let period = match f.predictor().period() {
            Some(p) => format!("period {p}"),
            None => "no lock".to_string(),
        };
        writeln!(
            out,
            "  {:<24} {:>8} samples  checked {:>6}  hit-rate {:>6}  MAPE {:>6}  invalidated {}  {} at end",
            trace.name,
            trace.len(),
            stats.checked,
            fmt_pct(stats.hit_rate()),
            fmt_pct(stats.mape()),
            stats.invalidations,
            period,
        )
        .unwrap();
    }
    let total_rate = (checked_total > 0).then(|| hits_total as f64 / checked_total as f64);
    writeln!(
        out,
        "total: checked {checked_total}  hit-rate {}",
        fmt_pct(total_rate)
    )
    .unwrap();
    Ok(out)
}

/// `dpd query FILE --spec FILE`: replay every event stream of the trace
/// through the deterministic inline service with the spec file's standing
/// queries attached, and print the full delta log. One query per spec
/// line — `period-in LO HI`, `lock-lost-within N`, `confidence-at-least
/// T`, `period-join TOL` — with `#` comments (see docs/QUERIES.md).
/// Output is deliberately deterministic (inline mode, stable stream
/// order, no wall-clock figures) so it can be golden-file tested.
fn query_cmd(flags: &Flags) -> Result<String, String> {
    let path = flags
        .positional
        .first()
        .ok_or("query expects a trace file argument")?;
    let spec_path = flags.get("spec").ok_or("query requires --spec FILE")?;
    let window = flags.get_usize("window", 64)?;
    let chunk = flags.get_usize("chunk", 256)?.max(1);
    let horizon = flags.get_usize("horizon", 0)?;
    let evict_after = flags.get_usize("evict-after", 0)? as u64;

    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("read {spec_path}: {e}"))?;
    let specs =
        dpd_core::query::parse_specs(&spec_text).map_err(|e| format!("{spec_path}: {e}"))?;
    if specs.is_empty() {
        return Err(format!("{spec_path}: spec file declares no queries"));
    }

    let (streams, skipped_sampled) = read_event_streams(path.as_ref())?;

    let mut builder = DpdBuilder::new()
        .window(window)
        .standing_queries(&specs)
        .evict_after(evict_after)
        .shards(0);
    if horizon > 0 {
        builder = builder.forecast(horizon);
    }
    let mut svc = MultiStreamDpd::from_builder(&builder)
        .map_err(|e| format!("invalid query configuration: {e}"))?;

    let mut out = String::new();
    let total: usize = streams.iter().map(|t| t.len()).sum();
    writeln!(
        out,
        "standing queries: {} quer{} over {} stream(s) ({} samples), window {window}",
        specs.len(),
        if specs.len() == 1 { "y" } else { "ies" },
        streams.len(),
        total,
    )
    .unwrap();
    if skipped_sampled > 0 {
        writeln!(
            out,
            "note: skipped {skipped_sampled} sampled stream(s) \
             (query replays event streams only)"
        )
        .unwrap();
    }
    for (i, spec) in specs.iter().enumerate() {
        writeln!(out, "  query#{i} {spec}").unwrap();
    }
    for (s, t) in streams.iter().enumerate() {
        writeln!(out, "  stream#{s} = {} ({} samples)", t.name, t.len()).unwrap();
    }

    // The same round-robin arrival pattern as `multistream`.
    replay_waves(&mut svc, &streams, chunk);

    // Replay deltas first: memberships at end-of-replay fold out of them
    // (Enter/Exit strictly alternate per (query, stream) pair), then the
    // close wave exits whatever is still resident.
    let replay = svc.drain_query_deltas();
    let mut members: Vec<Vec<u64>> = vec![Vec::new(); specs.len()];
    for d in &replay {
        let m = &mut members[d.query.0 as usize];
        match d.change {
            dpd_core::query::QueryChange::Enter => m.push(d.stream.0),
            dpd_core::query::QueryChange::Exit => m.retain(|&s| s != d.stream.0),
        }
    }
    writeln!(out, "delta log:").unwrap();
    for d in &replay {
        writeln!(out, "{d}").unwrap();
    }
    writeln!(out, "members at end of replay:").unwrap();
    for (i, m) in members.iter_mut().enumerate() {
        m.sort_unstable();
        let list = if m.is_empty() {
            "(none)".to_string()
        } else {
            m.iter()
                .map(|s| format!("stream#{s}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        writeln!(out, "  query#{i}: {list}").unwrap();
    }
    let (_events, tail, snapshot) = svc.finish_with_deltas();
    writeln!(out, "close wave:").unwrap();
    for d in &tail {
        writeln!(out, "{d}").unwrap();
    }
    let t = snapshot.total();
    writeln!(
        out,
        "deltas: {} | enters {} | exits {}",
        t.query_enters + t.query_exits,
        t.query_enters,
        t.query_exits
    )
    .unwrap();
    Ok(out)
}

// ---------------------------------------------------------------------------
// Durable ingest: `dpd checkpoint` / `dpd resume`.

/// Flags shared by `checkpoint` and `resume`.
struct DurableOpts {
    dir: String,
    pile: String,
    snap: String,
    /// The service builder both commands construct — `resume` validates
    /// the snap file against exactly this configuration (including the
    /// table-scale budget/tier options, which are part of the v2 snapshot
    /// body).
    builder: DpdBuilder,
    chunk: usize,
    every: usize,
    throttle_ms: u64,
}

impl DurableOpts {
    fn parse(cmd: &str, flags: &Flags) -> Result<DurableOpts, String> {
        let dir = flags
            .positional
            .first()
            .ok_or_else(|| format!("{cmd} expects a directory of trace files"))?
            .clone();
        let pile = flags
            .get("pile")
            .ok_or_else(|| format!("{cmd} requires --pile FILE"))?
            .to_string();
        let snap = flags
            .get("snap")
            .map(str::to_string)
            .unwrap_or_else(|| format!("{pile}.snap"));
        let mut builder = DpdBuilder::new()
            .window(flags.get_usize("window", 64)?)
            .shards(flags.get_usize("shards", 0)?);
        let chunk = flags.get_usize("chunk", 256)?.max(1);
        let every = flags.get_usize("every", 8)?.max(1);
        // `forecast(0)` is an error, not "off".
        let horizon = flags.get_usize("forecast", 0)?;
        if horizon > 0 {
            builder = builder.forecast(horizon);
        }
        Ok(DurableOpts {
            dir,
            pile,
            snap,
            builder: table_flags(builder, flags)?,
            chunk,
            every,
            throttle_ms: flags.get_usize("throttle-ms", 0)? as u64,
        })
    }
}

/// Print a drained event batch, sorted by stream id (stable, so the
/// per-stream order the service guarantees is preserved): with a flush
/// before every drain this makes the output deterministic for any shard
/// count, which is what lets a resumed run be diffed against an
/// uninterrupted one.
fn print_events(out: &mut String, mut events: Vec<MultiStreamEvent>) {
    events.sort_by_key(|e| e.stream().0);
    for e in &events {
        writeln!(out, "  {e:?}").unwrap();
    }
}

/// The round-robin records of one wave, in pile-frame form.
fn wave_records(traces: &[EventTrace], wave: usize, chunk: usize) -> Vec<(u64, Vec<i64>)> {
    wave_slices(traces, wave, chunk)
        .into_iter()
        .map(|(s, v)| (s.0, v.to_vec()))
        .collect()
}

/// Checkpoint the service to the snap file and append the epoch marker to
/// the pile (in that order: the snap is the authority; the epoch is the
/// pile-side statement that earlier frames are covered).
fn take_checkpoint(
    out: &mut String,
    svc: &mut MultiStreamDpd,
    pile: &mut PileWriter<std::fs::File>,
    snap: &str,
    marker: EpochMarker,
) -> Result<(), String> {
    let pending = svc
        .checkpoint(snap, marker)
        .map_err(|e| format!("checkpoint {snap}: {e}"))?;
    print_events(out, pending);
    pile.epoch(marker)
        .and_then(|()| pile.sync())
        .map_err(|e| format!("pile epoch: {e}"))?;
    writeln!(
        out,
        "checkpoint #{} wave {} samples {}",
        marker.ordinal, marker.wave, marker.samples
    )
    .unwrap();
    Ok(())
}

/// Ingest one wave (already durably logged), print its events, and
/// checkpoint on the every-K boundary. The cadence depends only on the
/// absolute wave index, so a resumed run checkpoints at exactly the same
/// points as an uninterrupted one.
fn apply_wave(
    out: &mut String,
    svc: &mut MultiStreamDpd,
    pile: &mut PileWriter<std::fs::File>,
    opts: &DurableOpts,
    wave: usize,
    records: &[(u64, Vec<i64>)],
) -> Result<(), String> {
    let recs: Vec<(StreamId, &[i64])> = records
        .iter()
        .map(|(s, v)| (StreamId(*s), v.as_slice()))
        .collect();
    svc.ingest(&recs);
    svc.flush();
    print_events(out, svc.drain());
    if (wave + 1).is_multiple_of(opts.every) {
        let marker = EpochMarker {
            wave: wave as u64 + 1,
            samples: svc.samples_ingested(),
            ordinal: ((wave + 1) / opts.every) as u64,
        };
        take_checkpoint(out, svc, pile, &opts.snap, marker)?;
    }
    Ok(())
}

/// Drive waves from the source directory, write-ahead: each wave is
/// appended to the pile and fsynced *before* it is ingested, so a crash
/// at any point loses no acknowledged work. Returns the wave count.
fn run_waves(
    out: &mut String,
    svc: &mut MultiStreamDpd,
    pile: &mut PileWriter<std::fs::File>,
    opts: &DurableOpts,
    traces: &[EventTrace],
    start_wave: usize,
) -> Result<usize, String> {
    let mut wave = start_wave;
    loop {
        let records = wave_records(traces, wave, opts.chunk);
        if records.is_empty() {
            return Ok(wave);
        }
        pile.events(wave as u64, &records)
            .and_then(|()| pile.sync())
            .map_err(|e| format!("pile append: {e}"))?;
        apply_wave(out, svc, pile, opts, wave, &records)?;
        if opts.throttle_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(opts.throttle_ms));
        }
        wave += 1;
    }
}

/// Final checkpoint (when the last wave was not on a boundary), close
/// every stream, and summarize.
fn finish_run(
    out: &mut String,
    mut svc: MultiStreamDpd,
    pile: &mut PileWriter<std::fs::File>,
    opts: &DurableOpts,
    waves: usize,
) -> Result<(), String> {
    if !waves.is_multiple_of(opts.every) {
        let marker = EpochMarker {
            wave: waves as u64,
            samples: svc.samples_ingested(),
            ordinal: (waves / opts.every) as u64 + 1,
        };
        take_checkpoint(out, &mut svc, pile, &opts.snap, marker)?;
    }
    let (events, snap) = svc.finish();
    print_events(out, events);
    let t = snap.total();
    writeln!(
        out,
        "done: {} samples, {} events, {} closed",
        t.samples, t.events, t.closed
    )
    .unwrap();
    Ok(())
}

/// `dpd checkpoint DIR --pile FILE [--snap FILE] ...`: the durable ingest
/// pipeline. Refuses a pile that already holds frames — that is a crashed
/// run, and continuing it is `dpd resume`'s job.
fn checkpoint_cmd(flags: &Flags) -> Result<String, String> {
    let opts = DurableOpts::parse("checkpoint", flags)?;
    let (traces, _) = load_dir_traces(&opts.dir)?;
    let mut svc = MultiStreamDpd::from_builder(&opts.builder)
        .map_err(|e| format!("invalid checkpoint configuration: {e}"))?;
    let (mut pile, rec) =
        PileWriter::open(&opts.pile).map_err(|e| format!("open pile {}: {e}", opts.pile))?;
    if !rec.frames.is_empty() {
        return Err(format!(
            "pile {} already holds {} frame(s); continue it with `dpd resume`",
            opts.pile,
            rec.frames.len()
        ));
    }
    let mut out = String::new();
    writeln!(
        out,
        "ingesting {} streams in waves of {} (checkpoint every {} waves)",
        traces.len(),
        opts.chunk,
        opts.every
    )
    .unwrap();
    let waves = run_waves(&mut out, &mut svc, &mut pile, &opts, &traces, 0)?;
    finish_run(&mut out, svc, &mut pile, &opts, waves)?;
    Ok(out)
}

/// `dpd resume DIR --pile FILE [--snap FILE] ...`: crash recovery. Opens
/// the pile (truncating any torn tail), restores the service from the
/// snap file, replays the logged waves the checkpoint does not cover, and
/// continues ingesting from the source directory. The emitted event
/// stream is bit-identical to the suffix an uninterrupted `dpd
/// checkpoint` run would have produced from the same point.
fn resume_cmd(flags: &Flags) -> Result<String, String> {
    let opts = DurableOpts::parse("resume", flags)?;
    let (traces, _) = load_dir_traces(&opts.dir)?;
    let (mut pile, rec) =
        PileWriter::open(&opts.pile).map_err(|e| format!("open pile {}: {e}", opts.pile))?;
    let (mut svc, marker) = MultiStreamDpd::resume(&opts.builder, &opts.snap)
        .map_err(|e| format!("resume {}: {e}", opts.snap))?;
    let mut out = String::new();
    writeln!(
        out,
        "resumed from checkpoint #{} at wave {}, samples {}",
        marker.ordinal, marker.wave, marker.samples
    )
    .unwrap();
    // Replay the write-ahead frames the checkpoint does not cover: logged
    // (durable) waves whose effects were lost with the crashed process.
    let mut next_wave = marker.wave as usize;
    type LoggedWave = (u64, Vec<(u64, Vec<i64>)>);
    let replay: Vec<LoggedWave> = rec
        .frames
        .into_iter()
        .filter_map(|f| match f {
            PileFrame::Events { wave, records } if wave >= marker.wave => Some((wave, records)),
            _ => None,
        })
        .collect();
    for (wave, records) in replay {
        apply_wave(
            &mut out,
            &mut svc,
            &mut pile,
            &opts,
            wave as usize,
            &records,
        )?;
        next_wave = wave as usize + 1;
    }
    let waves = run_waves(&mut out, &mut svc, &mut pile, &opts, &traces, next_wave)?;
    finish_run(&mut out, svc, &mut pile, &opts, waves)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_positional_and_options() {
        let f = Flags::parse(&argv("file.txt --window 64 --kind nested")).unwrap();
        assert_eq!(f.positional, vec!["file.txt"]);
        assert_eq!(f.get("window"), Some("64"));
        assert_eq!(f.get("kind"), Some("nested"));
        assert_eq!(f.get("missing"), None);
    }

    #[test]
    fn flags_last_occurrence_wins() {
        let f = Flags::parse(&argv("--window 8 --window 16")).unwrap();
        assert_eq!(f.get_usize("window", 0).unwrap(), 16);
    }

    #[test]
    fn flags_missing_value_errors() {
        assert!(Flags::parse(&argv("--window")).is_err());
    }

    #[test]
    fn flags_bad_number_errors() {
        let f = Flags::parse(&argv("--window abc")).unwrap();
        assert!(f.get_usize("window", 0).is_err());
    }

    #[test]
    fn dispatch_unknown_command() {
        assert!(dispatch(&argv("frobnicate")).is_err());
        assert!(dispatch(&[]).is_err());
    }

    /// Only a missing or unknown command carries the usage text; a value
    /// error stays one line, so `main` prints it unburied.
    #[test]
    fn only_command_errors_carry_usage() {
        for err in [
            dispatch(&[]).unwrap_err(),
            dispatch(&argv("frobnicate")).unwrap_err(),
        ] {
            assert!(err.contains("usage:"), "{err}");
        }
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/traces/single.trace"
        );
        let args: Vec<String> = vec![
            "segment".into(),
            fixture.into(),
            "--window".into(),
            "0".into(),
        ];
        let err = dispatch(&args).unwrap_err();
        assert_eq!(err, "invalid DPD window size: 0");
    }

    #[test]
    fn generate_analyze_roundtrip() {
        let dir = std::env::temp_dir().join("dpd-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("periodic.trace");
        let path_s = path.to_str().unwrap().to_string();

        let out = dispatch(&argv(&format!(
            "generate --kind periodic --period 7 --len 2000 --out {path_s}"
        )))
        .unwrap();
        assert!(out.contains("2000 events"));

        let out = dispatch(&argv(&format!("analyze {path_s}"))).unwrap();
        assert!(out.contains("detected periodicities: [7]"), "{out}");

        let out = dispatch(&argv(&format!("spectrum {path_s} --window 32"))).unwrap();
        assert!(out.contains("fundamental: Some(7)"), "{out}");

        let out = dispatch(&argv(&format!("segment {path_s} --window 16"))).unwrap();
        assert!(out.contains("period     7"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_nested_analyzes_as_nested() {
        let dir = std::env::temp_dir().join("dpd-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nested.trace");
        let path_s = path.to_str().unwrap().to_string();
        dispatch(&argv(&format!(
            "generate --kind nested --len 4000 --out {path_s}"
        )))
        .unwrap();
        let out = dispatch(&argv(&format!("analyze {path_s} --scales 8,64,512"))).unwrap();
        // nested_events(5, 10, 11, _): outer period 115, inner 10.
        assert!(out.contains("[10, 115]"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn segment_and_spectrum_reject_window_zero() {
        let dir = std::env::temp_dir().join("dpd-cli-window-zero-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.trace");
        let path_s = path.to_str().unwrap().to_string();
        dispatch(&argv(&format!(
            "generate --kind periodic --period 7 --len 400 --out {path_s}"
        )))
        .unwrap();
        for cmd in ["segment", "spectrum"] {
            let err = dispatch(&argv(&format!("{cmd} {path_s} --window 0"))).unwrap_err();
            assert!(err.contains("invalid DPD window size: 0"), "{cmd}: {err}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_requires_out() {
        assert!(dispatch(&argv("generate --kind periodic")).is_err());
    }

    #[test]
    fn analyze_missing_file_errors() {
        assert!(dispatch(&argv("analyze /nonexistent/path.trace")).is_err());
    }

    #[test]
    fn multistream_replays_directory() {
        let dir = std::env::temp_dir().join("dpd-cli-multistream-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, period) in [("a", 3usize), ("b", 5), ("c", 7)] {
            let path = dir.join(format!("{name}.trace"));
            dispatch(&argv(&format!(
                "generate --kind periodic --period {period} --len 3000 --out {}",
                path.to_str().unwrap()
            )))
            .unwrap();
        }
        for shards in [0usize, 3] {
            let out = dispatch(&argv(&format!(
                "multistream {} --shards {shards} --window 16 --chunk 128",
                dir.to_str().unwrap()
            )))
            .unwrap();
            assert!(out.contains("replayed 3 streams (9000 samples)"), "{out}");
            assert!(out.contains("period 3 at close"), "{out}");
            assert!(out.contains("period 5 at close"), "{out}");
            assert!(out.contains("period 7 at close"), "{out}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_roundtrips_text_dtb_text_bit_identically() {
        let dir = std::env::temp_dir().join("dpd-cli-convert-test");
        std::fs::create_dir_all(&dir).unwrap();
        for kind in ["periodic", "nested", "aperiodic"] {
            let text1 = dir.join(format!("{kind}.trace"));
            let bin = dir.join(format!("{kind}.dtb"));
            let text2 = dir.join(format!("{kind}.back.trace"));
            let (t1, b, t2) = (
                text1.to_str().unwrap().to_string(),
                bin.to_str().unwrap().to_string(),
                text2.to_str().unwrap().to_string(),
            );
            dispatch(&argv(&format!(
                "generate --kind {kind} --len 3000 --out {t1}"
            )))
            .unwrap();
            let out = dispatch(&argv(&format!("convert {t1} --out {b}"))).unwrap();
            assert!(out.contains("text -> dtb"), "{out}");
            let out = dispatch(&argv(&format!("convert {b} --out {t2}"))).unwrap();
            assert!(out.contains("dtb -> text"), "{out}");
            assert_eq!(
                std::fs::read(&text1).unwrap(),
                std::fs::read(&text2).unwrap(),
                "{kind}: text -> dtb -> text not bit-identical"
            );
            // The binary file is the smaller artifact on periodic streams.
            if kind == "periodic" {
                assert!(
                    std::fs::metadata(&bin).unwrap().len()
                        < std::fs::metadata(&text1).unwrap().len()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_dtb_analyzes_like_text() {
        let dir = std::env::temp_dir().join("dpd-cli-dtb-analyze-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.dtb");
        let p = path.to_str().unwrap().to_string();
        dispatch(&argv(&format!(
            "generate --kind periodic --period 7 --len 2000 --format dtb --out {p}"
        )))
        .unwrap();
        let out = dispatch(&argv(&format!("analyze {p}"))).unwrap();
        assert!(out.contains("detected periodicities: [7]"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multistream_replays_dtb_container() {
        use dpd_trace::dtb::DtbWriter;
        let dir = std::env::temp_dir().join("dpd-cli-multistream-dtb-test");
        std::fs::create_dir_all(&dir).unwrap();
        // One container holding all three streams (vs three text files).
        let file = std::fs::File::create(dir.join("all.dtb")).unwrap();
        let mut w = DtbWriter::new(file).unwrap();
        for (id, (name, period)) in [("a", 3usize), ("b", 5), ("c", 7)].iter().enumerate() {
            let pattern: Vec<i64> = (0..*period).map(|i| 0x1000 + i as i64).collect();
            w.declare_events(id as u64, name).unwrap();
            w.push_events(id as u64, &gen::periodic_events(&pattern, 3000))
                .unwrap();
        }
        w.finish().unwrap();
        for shards in [0usize, 3] {
            let out = dispatch(&argv(&format!(
                "multistream {} --shards {shards} --window 16 --chunk 128",
                dir.to_str().unwrap()
            )))
            .unwrap();
            assert!(out.contains("replayed 3 streams (9000 samples)"), "{out}");
            for period in [3, 5, 7] {
                assert!(out.contains(&format!("period {period} at close")), "{out}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_dtb_to_dtb_preserves_stream_ids() {
        use dpd_trace::dtb::{DtbReader, DtbWriter};
        let dir = std::env::temp_dir().join("dpd-cli-convert-ids");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("src.dtb");
        let dst = dir.join("dst.dtb");
        let mut w = DtbWriter::new(std::fs::File::create(&src).unwrap()).unwrap();
        for id in [17u64, 42] {
            w.declare_events(id, &format!("s{id}")).unwrap();
            w.push_events(id, &[1, 2, 3]).unwrap();
        }
        w.finish().unwrap();
        dispatch(&argv(&format!(
            "convert {} --to dtb --out {}",
            src.to_str().unwrap(),
            dst.to_str().unwrap()
        )))
        .unwrap();
        let bytes = std::fs::read(&dst).unwrap();
        let mut r = DtbReader::new(&bytes).unwrap();
        while r.next_block().is_some() {}
        assert_eq!(r.stream_ids(), vec![17, 42], "stream ids renumbered");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multistream_reports_skipped_sampled_streams() {
        use dpd_trace::dtb::DtbWriter;
        let dir = std::env::temp_dir().join("dpd-cli-multistream-sampled");
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = DtbWriter::new(std::fs::File::create(dir.join("mix.dtb")).unwrap()).unwrap();
        w.declare_events(0, "e").unwrap();
        w.push_events(0, &gen::periodic_events(&[1, 2, 3], 600))
            .unwrap();
        w.declare_sampled(1, "cpu", 1_000_000).unwrap();
        w.push_samples(1, &[1.0, 2.0, 4.0]).unwrap();
        w.finish().unwrap();
        let out = dispatch(&argv(&format!(
            "multistream {} --shards 0 --window 8",
            dir.to_str().unwrap()
        )))
        .unwrap();
        assert!(out.contains("replayed 1 streams (600 samples)"), "{out}");
        assert!(out.contains("skipped 1 sampled stream(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_rejects_unknown_format() {
        let dir = std::env::temp_dir().join("dpd-cli-convert-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk");
        std::fs::write(&path, b"not a trace at all").unwrap();
        let err = dispatch(&argv(&format!(
            "convert {} --out /tmp/x.dtb",
            path.to_str().unwrap()
        )))
        .unwrap_err();
        assert!(
            err.contains("neither a text trace nor a DTB container"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multistream_empty_dir_errors() {
        let dir = std::env::temp_dir().join("dpd-cli-multistream-empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(dispatch(&argv(&format!("multistream {}", dir.to_str().unwrap()))).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_periodic_corpus_hits_after_warmup() {
        let dir = std::env::temp_dir().join("dpd-cli-predict-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.trace");
        let p = path.to_str().unwrap().to_string();
        dispatch(&argv(&format!(
            "generate --kind periodic --period 6 --len 4000 --out {p}"
        )))
        .unwrap();
        let out = dispatch(&argv(&format!("predict {p} --window 16 --horizon 1"))).unwrap();
        assert!(out.contains("hit-rate 100.0%"), "{out}");
        assert!(out.contains("invalidated 0"), "{out}");
        assert!(out.contains("period 6 at end"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_phase_changes_invalidate_without_stale_scoring() {
        let dir = std::env::temp_dir().join("dpd-cli-predict-phases");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("phases.trace");
        let p = path.to_str().unwrap().to_string();
        dispatch(&argv(&format!(
            "generate --kind phases --period 4 --len 6000 --out {p}"
        )))
        .unwrap();
        for horizon in [1usize, 4] {
            let out = dispatch(&argv(&format!(
                "predict {p} --window 32 --horizon {horizon}"
            )))
            .unwrap();
            // Phase changes must invalidate standing forecasts...
            assert!(!out.contains("invalidated 0"), "h={horizon}: {out}");
            // ...and with stale predictions dropped unscored, every scored
            // one on this exactly periodic corpus is a hit.
            assert!(out.contains("hit-rate 100.0%"), "h={horizon}: {out}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_dtb_container_reports_every_stream() {
        use dpd_trace::dtb::DtbWriter;
        let dir = std::env::temp_dir().join("dpd-cli-predict-dtb");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("all.dtb");
        let mut w = DtbWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
        for (id, (name, period)) in [("a", 3usize), ("b", 5)].iter().enumerate() {
            let pattern: Vec<i64> = (0..*period).map(|i| 0x1000 + i as i64).collect();
            w.declare_events(id as u64, name).unwrap();
            w.push_events(id as u64, &gen::periodic_events(&pattern, 2000))
                .unwrap();
        }
        w.finish().unwrap();
        let out = dispatch(&argv(&format!(
            "predict {} --window 16 --horizon 2",
            path.to_str().unwrap()
        )))
        .unwrap();
        assert!(out.contains("2 stream(s)"), "{out}");
        assert!(out.contains("period 3 at end"), "{out}");
        assert!(out.contains("period 5 at end"), "{out}");
        assert!(out.contains("total: checked"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_reports_skipped_sampled_streams() {
        use dpd_trace::dtb::DtbWriter;
        let dir = std::env::temp_dir().join("dpd-cli-predict-sampled");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mix.dtb");
        let mut w = DtbWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
        w.declare_events(0, "e").unwrap();
        w.push_events(0, &gen::periodic_events(&[1, 2, 3], 600))
            .unwrap();
        w.declare_sampled(1, "cpu", 1_000_000).unwrap();
        w.push_samples(1, &[1.0, 2.0, 4.0]).unwrap();
        w.finish().unwrap();
        let out = dispatch(&argv(&format!(
            "predict {} --window 8",
            path.to_str().unwrap()
        )))
        .unwrap();
        assert!(out.contains("1 stream(s)"), "{out}");
        assert!(out.contains("skipped 1 sampled stream(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_rejects_bad_flags() {
        assert!(dispatch(&argv("predict /nonexistent.trace")).is_err());
        let dir = std::env::temp_dir().join("dpd-cli-predict-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.trace");
        let p = path.to_str().unwrap().to_string();
        dispatch(&argv(&format!(
            "generate --kind periodic --period 3 --len 300 --out {p}"
        )))
        .unwrap();
        assert!(dispatch(&argv(&format!("predict {p} --horizon 0"))).is_err());
        assert!(dispatch(&argv(&format!("predict {p} --window 0"))).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multistream_timing_none_is_deterministic() {
        let dir = std::env::temp_dir().join("dpd-cli-multistream-timing");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.trace");
        dispatch(&argv(&format!(
            "generate --kind periodic --period 3 --len 900 --out {}",
            path.to_str().unwrap()
        )))
        .unwrap();
        let cmd = format!(
            "multistream {} --shards 0 --window 16 --timing none",
            dir.to_str().unwrap()
        );
        let a = dispatch(&argv(&cmd)).unwrap();
        let b = dispatch(&argv(&cmd)).unwrap();
        assert_eq!(a, b, "byte-stable output expected");
        assert!(
            a.contains("replayed 1 streams (900 samples) over inline\n"),
            "{a}"
        );
        assert!(!a.contains("Msamples/s"), "{a}");
        assert!(dispatch(&argv(&format!(
            "multistream {} --timing sometimes",
            dir.to_str().unwrap()
        )))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_phases_analyzes_all_periods() {
        let dir = std::env::temp_dir().join("dpd-cli-phases-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("phases.trace");
        let p = path.to_str().unwrap().to_string();
        let out = dispatch(&argv(&format!(
            "generate --kind phases --period 3 --len 3000 --out {p}"
        )))
        .unwrap();
        assert!(out.contains("3000 events"), "{out}");
        let out = dispatch(&argv(&format!("analyze {p} --scales 16"))).unwrap();
        // Segments carry periods 3, 7 and 4.
        assert!(
            out.contains('3') && out.contains('7') && out.contains('4'),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apps_unknown_name_errors() {
        assert!(dispatch(&argv("apps --app nosuch --out /tmp/x.trace")).is_err());
    }

    /// Fresh directory of periodic source traces for durable-ingest tests.
    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpd-cli-durable-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        for (name, period) in [("a", 3usize), ("b", 5), ("c", 7)] {
            dispatch(&argv(&format!(
                "generate --kind periodic --period {period} --len 2000 --out {}",
                dir.join("src")
                    .join(format!("{name}.trace"))
                    .to_str()
                    .unwrap()
            )))
            .unwrap();
        }
        dir
    }

    #[test]
    fn checkpoint_writes_pile_and_snap_then_resume_continues() {
        let dir = durable_dir("roundtrip");
        let src = dir.join("src").to_str().unwrap().to_string();
        let pile = dir.join("events.pile").to_str().unwrap().to_string();
        let out = dispatch(&argv(&format!(
            "checkpoint {src} --pile {pile} --window 16 --chunk 128 --every 4"
        )))
        .unwrap();
        assert!(out.contains("checkpoint #1 wave 4"), "{out}");
        assert!(out.contains("done: 6000 samples"), "{out}");
        assert!(std::path::Path::new(&format!("{pile}.snap")).exists());

        // A completed run resumes cleanly: nothing to replay, totals match.
        let resumed = dispatch(&argv(&format!(
            "resume {src} --pile {pile} --window 16 --chunk 128 --every 4"
        )))
        .unwrap();
        assert!(
            resumed.contains("resumed from checkpoint #4 at wave 16"),
            "{resumed}"
        );
        assert!(resumed.contains("done: 6000 samples"), "{resumed}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Resuming from a mid-run checkpoint replays the logged waves and
    /// emits exactly the oracle's post-checkpoint output suffix.
    #[test]
    fn resume_suffix_matches_uninterrupted_run() {
        let dir = durable_dir("suffix");
        let src = dir.join("src").to_str().unwrap().to_string();

        // Oracle: one uninterrupted run.
        let oracle_pile = dir.join("oracle.pile").to_str().unwrap().to_string();
        let oracle = dispatch(&argv(&format!(
            "checkpoint {src} --pile {oracle_pile} --window 16 --chunk 128 --every 4"
        )))
        .unwrap();

        // "Crashed" run: same ingest, but stop after checkpoint #2 by
        // rebuilding its on-disk state — log all 8 waves (write-ahead),
        // but snapshot only through wave 8. The extra logged waves model
        // work durably logged but lost with the crashed process.
        let pile = dir.join("crashed.pile").to_str().unwrap().to_string();
        {
            use dpd_core::pipeline::DpdBuilder;
            let (traces, _) = load_dir_traces(&src).unwrap();
            let opts_builder = DpdBuilder::new().window(16).shards(0);
            let mut svc = MultiStreamDpd::from_builder(&opts_builder).unwrap();
            let (mut p, _) = PileWriter::open(&pile).unwrap();
            for wave in 0..10usize {
                let records = wave_records(&traces, wave, 128);
                p.events(wave as u64, &records).unwrap();
                p.sync().unwrap();
                if wave < 8 {
                    let recs: Vec<(StreamId, &[i64])> = records
                        .iter()
                        .map(|(s, v)| (StreamId(*s), v.as_slice()))
                        .collect();
                    svc.ingest(&recs);
                    svc.drain();
                }
                if wave == 3 || wave == 7 {
                    let marker = EpochMarker {
                        wave: wave as u64 + 1,
                        samples: svc.samples_ingested(),
                        ordinal: (wave as u64 + 1) / 4,
                    };
                    svc.checkpoint(format!("{pile}.snap"), marker).unwrap();
                    p.epoch(marker).unwrap();
                    p.sync().unwrap();
                }
            }
        }

        let resumed = dispatch(&argv(&format!(
            "resume {src} --pile {pile} --window 16 --chunk 128 --every 4"
        )))
        .unwrap();
        let header = "resumed from checkpoint #2 at wave 8, samples 3072\n";
        assert!(resumed.starts_with(header), "{resumed}");
        let suffix = &resumed[header.len()..];
        let anchor = "checkpoint #2 wave 8 samples 3072\n";
        let pos = oracle.find(anchor).expect("oracle took checkpoint #2") + anchor.len();
        assert_eq!(
            &oracle[pos..],
            suffix,
            "resumed output diverges from the uninterrupted run"
        );
        // Both runs end on bit-identical final snapshots.
        assert_eq!(
            std::fs::read(format!("{oracle_pile}.snap")).unwrap(),
            std::fs::read(format!("{pile}.snap")).unwrap(),
            "final snap files differ"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_refuses_used_pile_and_resume_needs_snap() {
        let dir = durable_dir("guards");
        let src = dir.join("src").to_str().unwrap().to_string();
        let pile = dir.join("events.pile").to_str().unwrap().to_string();
        dispatch(&argv(&format!(
            "checkpoint {src} --pile {pile} --window 16 --chunk 128"
        )))
        .unwrap();
        let err = dispatch(&argv(&format!(
            "checkpoint {src} --pile {pile} --window 16 --chunk 128"
        )))
        .unwrap_err();
        assert!(err.contains("dpd resume"), "{err}");

        let fresh = dir.join("fresh.pile").to_str().unwrap().to_string();
        let err = dispatch(&argv(&format!("resume {src} --pile {fresh}"))).unwrap_err();
        assert!(err.contains("resume"), "{err}");

        // A mismatched builder is rejected, not silently accepted.
        let err = dispatch(&argv(&format!(
            "resume {src} --pile {pile} --window 32 --chunk 128 --every 4"
        )))
        .unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_period_rejected() {
        assert!(dispatch(&argv("generate --kind periodic --period 0 --out /tmp/x")).is_err());
    }
}
