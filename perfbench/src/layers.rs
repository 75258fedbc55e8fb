//! The traced run's in-process half: the same generated input replayed
//! one layer at a time through each layer's public calls, every call
//! timed inside a span, and the ledger that sets the layers' summed cost
//! against the served cost.
//!
//! Spans are `(name, start, end, parent)`; each layer has one root span
//! and one child span per `CALLS_PER_SPAN` public calls (timing every
//! single call would cost more than the calls themselves). They are kept
//! in memory and written to `.perfbench/spans-WORKLOAD-SEED.tsv` at the
//! end.

use crate::workload::{self, cyclic_slices, Lap, Workload};
use crate::{Measured, WORK_DIR};
use dpd_core::metric::EventMetric;
use dpd_core::predict::ForecastingDpd;
use dpd_core::query::QuerySpec;
use dpd_core::shard::{MultiStreamEvent, StreamId, StreamTable};
use dpd_core::streaming::StreamingDpd;
use dpd_trace::dtb::{Block, DtbDecoder};
use par_runtime::service::MultiStreamDpd;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Decode the first `bytes` bytes of a connection's cyclic replay in
/// `chunk`-byte feeds and hand each feed's decoded events to `ingest` as
/// one batch — the server's `drain_decoder` batching.
pub fn replay_wire(
    lap: &Lap,
    bytes: u64,
    chunk: usize,
    mut ingest: impl FnMut(&[(StreamId, &[i64])]),
) -> Result<(), String> {
    let mut dec = DtbDecoder::new();
    let mut batch: Vec<(StreamId, Vec<i64>)> = Vec::new();
    let mut at = 0u64;
    while at < bytes {
        let end = (at + chunk as u64).min(bytes);
        for piece in cyclic_slices(lap, at, end) {
            dec.feed(piece);
        }
        at = end;
        while let Some(block) = dec
            .next_block()
            .map_err(|e| format!("replay decode: {e}"))?
        {
            if let Block::Events { stream, values } = block {
                batch.push((StreamId(stream), values.to_vec()));
            }
        }
        if !batch.is_empty() {
            let records: Vec<(StreamId, &[i64])> =
                batch.iter().map(|(s, v)| (*s, v.as_slice())).collect();
            ingest(&records);
            batch.clear();
        }
    }
    Ok(())
}

/// One decoded read's worth of records.
type Batch = Vec<(StreamId, Vec<i64>)>;

/// Public calls covered by one child span.
const CALLS_PER_SPAN: u64 = 1024;

struct Span {
    name: &'static str,
    parent: usize,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
    samples: u64,
}

/// In-memory span recorder.
struct Spans {
    base: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

/// An open layer: its root span and the child span being filled.
struct Layer {
    root: usize,
    child: Option<usize>,
    child_calls: u64,
    /// Time inside the layer's calls, ns (the sum of the timed calls).
    busy_ns: u64,
    samples: u64,
    /// The span the latest call was recorded in.
    last: usize,
}

impl Spans {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> Layer {
        let t = self.now();
        self.spans.push(Span {
            name,
            parent: usize::MAX,
            start_ns: t,
            end_ns: t,
            calls: 0,
            samples: 0,
        });
        Layer {
            root: self.spans.len() - 1,
            child: None,
            child_calls: 0,
            busy_ns: 0,
            samples: 0,
            last: self.spans.len() - 1,
        }
    }

    /// Time `f`, one public call on `samples` samples, inside `layer`.
    fn call<R>(&mut self, layer: &mut Layer, samples: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            layer.samples += samples;
            return f();
        }
        if layer.child.is_none() {
            let t = self.now();
            let name = self.spans[layer.root].name;
            self.spans.push(Span {
                name,
                parent: layer.root,
                start_ns: t,
                end_ns: t,
                calls: 0,
                samples: 0,
            });
            layer.child = Some(self.spans.len() - 1);
            layer.child_calls = 0;
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        layer.busy_ns += ns;
        layer.samples += samples;
        let c = layer.child.expect("opened above");
        layer.last = c;
        self.spans[c].calls += 1;
        self.spans[c].samples += samples;
        layer.child_calls += 1;
        if layer.child_calls == CALLS_PER_SPAN {
            self.spans[c].end_ns = self.now();
            layer.child = None;
        }
        r
    }

    /// Credit samples to the latest call, when only the call itself
    /// could count them.
    fn credit(&mut self, layer: &mut Layer, samples: u64) {
        layer.samples += samples;
        self.spans[layer.last].samples += samples;
    }

    fn close(&mut self, layer: Layer) -> Layer {
        let t = self.now();
        if let Some(c) = layer.child {
            self.spans[c].end_ns = t;
        }
        let root = &mut self.spans[layer.root];
        root.end_ns = t;
        root.samples = layer.samples;
        layer
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tcalls\tsamples\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == usize::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.calls, s.samples
            )
            .expect("string write");
        }
        std::fs::write(path, out)
    }
}

impl Layer {
    /// Whole-layer wall time per sample (root span), ns.
    fn wall_ns_per_sample(&self, spans: &Spans) -> f64 {
        let s = &spans.spans[self.root];
        (s.end_ns - s.start_ns) as f64 / self.samples.max(1) as f64
    }

    /// Time inside the layer's timed calls per sample, ns.
    fn busy_ns_per_sample(&self) -> f64 {
        self.busy_ns as f64 / self.samples.max(1) as f64
    }
}

/// Samples replayed in-process per workload (a prefix of what was sent).
fn replay_budget(w: &Workload) -> u64 {
    match w.name {
        "wire_hot" => 4_000_000,
        "apps_kernel" => 400_000,
        _ => 1_000_000,
    }
}

/// Distinct streams the per-stream detector layers keep at once; records
/// of further streams are skipped there (a million detectors would not
/// fit in memory).
const STREAM_CAP: usize = 20_000;

pub fn traced(
    w: &Workload,
    laps: &[Lap],
    sent: &[u64],
    seed: u64,
    m: &mut Measured,
) -> Result<(), String> {
    let mut spans = Spans {
        base: Instant::now(),
        spans: Vec::new(),
        enabled: true,
    };
    let per_conn = replay_budget(w) / laps.len() as u64;
    // The generator's write size at the nominal rate, in bytes.
    let tick_samples = w.nominal_msps * 1e6 / w.conns as f64 * w.tick_us as f64 / 1e6;

    // dtb: decode each connection's bytes at its write sizes.
    let mut dtb = spans.open("dtb.decode");
    let mut batches: Vec<Vec<Batch>> = Vec::new();
    for (lap, &limit) in laps.iter().zip(sent) {
        let bytes_per_sample = lap.bytes.len() as f64 / lap.samples.max(1) as f64;
        let write = ((tick_samples * bytes_per_sample) as usize).max(64);
        let mut dec = DtbDecoder::new();
        let mut samples = 0u64;
        let mut at = 0u64;
        let mut conn_batches = Vec::new();
        while samples < per_conn && at < limit {
            let end = (at + write as u64).min(limit);
            let pieces = cyclic_slices(lap, at, end);
            at = end;
            let mut batch = Vec::new();
            let decoded = spans.call(&mut dtb, 0, || -> Result<u64, String> {
                for p in &pieces {
                    dec.feed(p);
                }
                let mut got = 0u64;
                while let Some(b) = dec.next_block().map_err(|e| format!("decode: {e}"))? {
                    if let Block::Events { stream, values } = b {
                        got += values.len() as u64;
                        batch.push((StreamId(stream), values.to_vec()));
                    }
                }
                Ok(got)
            })?;
            spans.credit(&mut dtb, decoded);
            samples += decoded;
            if !batch.is_empty() {
                conn_batches.push(batch);
            }
        }
        batches.push(conn_batches);
    }
    let dtb = spans.close(dtb);
    // The server sees the connections' batches interleaved.
    let mut order: Vec<Batch> = Vec::new();
    let longest = batches.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for conn in batches.iter_mut() {
            if let Some(b) = conn.get_mut(i) {
                order.push(std::mem::take(b));
            }
        }
    }
    drop(batches);
    let total: u64 = order
        .iter()
        .flat_map(|b| b.iter().map(|(_, v)| v.len() as u64))
        .sum();

    // service: MultiStreamDpd::ingest on the decoded batches — with the
    // workload's builder (admission cost, traced and untraced), inline
    // and sharded (whole replay, flushed).
    let service_pass = |spans: &mut Spans,
                        name: &'static str,
                        builder: &dpd_core::pipeline::DpdBuilder|
     -> Result<(Layer, MultiStreamDpd), String> {
        let mut svc = MultiStreamDpd::from_builder(builder).map_err(|e| format!("{name}: {e}"))?;
        let mut layer = spans.open(name);
        for b in &order {
            let records: Vec<(StreamId, &[i64])> =
                b.iter().map(|(s, v)| (*s, v.as_slice())).collect();
            let n = records.iter().map(|r| r.1.len() as u64).sum();
            spans.call(&mut layer, n, || svc.ingest(&records));
        }
        svc.flush();
        Ok((spans.close(layer), svc))
    };
    let builder = w.builder();
    spans.enabled = false;
    let (untraced, svc) = service_pass(&mut spans, "service.admit.untraced", &builder)?;
    drop(svc);
    spans.enabled = true;
    let (admit, mut svc) = service_pass(&mut spans, "service.admit", &builder)?;
    let untraced_ns = untraced.wall_ns_per_sample(&spans);
    let traced_ns = admit.wall_ns_per_sample(&spans);

    // snapshot + pile: checkpoint the replayed service and resume it.
    let dir = format!("{WORK_DIR}/trace-{}", std::process::id());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/replay.ckpt");
    let marker = dpd_trace::pile::EpochMarker {
        wave: 1,
        samples: svc.samples_ingested(),
        ordinal: 1,
    };
    let mut ck = spans.open("snapshot.checkpoint");
    spans
        .call(&mut ck, 0, || svc.checkpoint(&path, marker))
        .map_err(|e| format!("checkpoint: {e}"))?;
    let ck = spans.close(ck);
    let ckpt_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    drop(svc);
    let mut rs = spans.open("snapshot.restore");
    let resumed = spans.call(&mut rs, 0, || MultiStreamDpd::resume(&builder, &path));
    let rs = spans.close(rs);
    let (resumed, _) = resumed.map_err(|e| format!("resume: {e}"))?;
    drop(resumed);
    let _ = std::fs::remove_dir_all(&dir);

    let (inline, svc) = service_pass(&mut spans, "service.inline", &builder.clone().shards(0))?;
    drop(svc);
    let (sharded, svc) = service_pass(&mut spans, "service.sharded", &builder.clone().shards(2))?;
    drop(svc);

    // shard: StreamTable::ingest on one table built the way every shard
    // builds its own; resolve per record afterwards. query: the same
    // table with and without the standing queries.
    let spec = builder.service_spec().map_err(|e| e.to_string())?;
    let table_pass = |spans: &mut Spans,
                      name: &'static str,
                      queries: Vec<QuerySpec>|
     -> (Layer, StreamTable, u64) {
        let mut table = StreamTable::new(spec.table);
        table.attach_queries(queries);
        let mut out: Vec<MultiStreamEvent> = Vec::new();
        let mut deltas = Vec::new();
        let mut delta_count = 0u64;
        let mut seq = 0u64;
        let mut since_sweep = 0u64;
        let mut layer = spans.open(name);
        for b in &order {
            for (s, v) in b {
                let n = v.len() as u64;
                spans.call(&mut layer, n, || table.ingest(seq, *s, v, &mut out));
                seq += n;
                since_sweep += n;
            }
            if spec.sweep_every > 0 && since_sweep >= spec.sweep_every {
                table.sweep(seq);
                since_sweep = 0;
            }
            out.clear();
            table.drain_query_deltas(&mut deltas);
            delta_count += deltas.len() as u64;
            deltas.clear();
        }
        (spans.close(layer), table, delta_count)
    };
    let (table_layer, table, _) = table_pass(&mut spans, "shard.ingest", spec.queries.clone());
    let stats = table.stats();
    let accounted = table.accounted_bytes();
    let mut res = spans.open("shard.resolve");
    for b in &order {
        for (s, _) in b {
            spans.call(&mut res, 0, || std::hint::black_box(table.resolve(*s)));
            spans.credit(&mut res, 1);
        }
    }
    let res = spans.close(res);
    drop(table);
    let (with_q, _, deltas) = table_pass(&mut spans, "query.with", w.query_specs());
    let (without_q, _, _) = table_pass(&mut spans, "query.without", Vec::new());

    // streaming (+ incremental): one StreamingDpd per stream, push_slice
    // per record; predict: ForecastingDpd per stream, push per sample.
    let mut detectors: HashMap<StreamId, StreamingDpd<i64, EventMetric>> = HashMap::new();
    let stream_builder = dpd_core::pipeline::DpdBuilder::new().window(w.window);
    let mut st = spans.open("streaming.push_slice");
    let mut events = 0u64;
    for b in &order {
        for (s, v) in b {
            if !detectors.contains_key(s) {
                if detectors.len() >= STREAM_CAP {
                    continue;
                }
                detectors.insert(
                    *s,
                    stream_builder.build_detector().map_err(|e| e.to_string())?,
                );
            }
            let d = detectors.get_mut(s).expect("inserted");
            events += spans
                .call(&mut st, v.len() as u64, || d.push_slice(v))
                .len() as u64;
        }
    }
    let st = spans.close(st);
    drop(detectors);
    let fb = stream_builder.forecast(workload::HORIZON);
    let mut fcs: HashMap<StreamId, ForecastingDpd> = HashMap::new();
    let mut pr = spans.open("predict.push");
    for b in &order {
        for (s, v) in b {
            if !fcs.contains_key(s) {
                if fcs.len() >= STREAM_CAP {
                    continue;
                }
                fcs.insert(*s, fb.build_forecasting().map_err(|e| e.to_string())?);
            }
            let f = fcs.get_mut(s).expect("inserted");
            spans.call(&mut pr, v.len() as u64, || {
                for &x in v {
                    std::hint::black_box(f.push(x));
                }
            });
        }
    }
    let pr = spans.close(pr);
    let (checked, hits) = fcs.values().fold((0u64, 0u64), |(c, h), f| {
        let s = f.predictor().stats();
        (c + s.checked, h + s.hits)
    });
    drop(fcs);

    let span_path = format!("{WORK_DIR}/spans-{}-{seed}.tsv", w.name);
    spans
        .write(&span_path)
        .map_err(|e| format!("{span_path}: {e}"))?;

    // The readings, and the ledger against the served cost.
    let ksamples = total.max(1) as f64 / 1e3;
    let decode = dtb.busy_ns_per_sample();
    let admit_ns = admit.busy_ns_per_sample();
    let table_ns = table_layer.busy_ns_per_sample();
    let served = m.cpu_ns_per_sample();
    // Stages on the served path: decode and admission on the connection
    // thread, table ingest on the shard workers (inside admission when
    // inline), and on durable workloads one checkpoint per
    // `checkpoint_every` samples.
    let durability = if w.durable() {
        ck.busy_ns as f64 / w.checkpoint_every as f64
    } else {
        0.0
    };
    let stage_sum = decode + admit_ns + if w.shards > 0 { table_ns } else { 0.0 } + durability;
    let conn_cpu = m.layer("net.conn_cpu_ns_per_sample");
    let readings: [(&str, f64, &'static str); 25] = [
        ("dtb.decode_ns_per_sample", decode, "ns"),
        ("net.self_ns_per_sample", conn_cpu - decode - admit_ns, "ns"),
        ("service.admit_ns_per_sample", admit_ns, "ns"),
        (
            "service.inline_replay_ns_per_sample",
            inline.wall_ns_per_sample(&spans),
            "ns",
        ),
        (
            "service.sharded_replay_ns_per_sample",
            sharded.wall_ns_per_sample(&spans),
            "ns",
        ),
        ("shard.ingest_ns_per_sample", table_ns, "ns"),
        (
            "shard.resolve_ns_per_record",
            res.busy_ns_per_sample(),
            "ns",
        ),
        (
            "shard.created_per_ksample",
            stats.created as f64 / ksamples,
            "count",
        ),
        (
            "shard.evicted_per_ksample",
            stats.evicted as f64 / ksamples,
            "count",
        ),
        (
            "shard.demoted_per_ksample",
            stats.demoted as f64 / ksamples,
            "count",
        ),
        (
            "shard.accounted_mb",
            accounted as f64 / (1 << 20) as f64,
            "MiB",
        ),
        (
            "streaming.push_ns_per_sample",
            st.busy_ns_per_sample(),
            "ns",
        ),
        (
            "streaming.events_per_ksample",
            events as f64 * 1e3 / st.samples.max(1) as f64,
            "count",
        ),
        (
            "predict.push_ns_per_sample",
            pr.busy_ns_per_sample() - st.busy_ns_per_sample(),
            "ns",
        ),
        (
            "predict.hits_per_checked",
            hits as f64 / checked.max(1) as f64,
            "ratio",
        ),
        (
            "query.ns_per_sample",
            with_q.busy_ns_per_sample() - without_q.busy_ns_per_sample(),
            "ns",
        ),
        (
            "query.deltas_per_ksample",
            deltas as f64 / ksamples,
            "count",
        ),
        ("snapshot.checkpoint_ms", ck.busy_ns as f64 / 1e6, "ms"),
        (
            "snapshot.checkpoint_mb",
            ckpt_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        ("snapshot.restore_ms", rs.busy_ns as f64 / 1e6, "ms"),
        ("ledger.served_cpu_ns_per_sample", served, "ns"),
        ("ledger.stage_sum_ns_per_sample", stage_sum, "ns"),
        ("ledger.unexplained_ns_per_sample", served - stage_sum, "ns"),
        (
            "ledger.tracing_overhead_pct",
            (traced_ns - untraced_ns) / untraced_ns * 100.0,
            "%",
        ),
        ("ledger.replayed_samples", total as f64, "count"),
    ];
    for (name, v, unit) in readings {
        m.layer.push((name.to_string(), v, unit));
    }
    m.notes.push(format!("spans written to {span_path}"));
    Ok(())
}
