//! A served run: the server process, set-up, the nominal-rate chunks and
//! closed-loop bursts, the rate ladder, and what the output check needs.

use crate::ladder::{growth, sustainable};
use crate::load::{self, Conn, Segment};
use crate::workload::{Lap, Workload};
use crate::{median, parse_totals, pct, probe, sorted, Measured, Plan};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned server. Dropping it kills the process and waits for it.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    net: String,
    metrics: String,
}

impl Server {
    fn spawn(w: &Workload, checkpoint: Option<&str>) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--workload", w.name]);
        if let Some(path) = checkpoint {
            cmd.args(["--checkpoint", path]);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            stdin,
            stdout,
            net: String::new(),
            metrics: String::new(),
        };
        // Blocks until the server listens: no polling in the set-up time.
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["ready", net, metrics] => {
                server.net = net.to_string();
                server.metrics = metrics.to_string();
                Ok(server)
            }
            _ => Err(format!("server did not start: {line:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a clean shutdown and return the `totals` line's fields.
    fn stop(mut self) -> Result<BTreeMap<String, u64>, String> {
        let _ = writeln!(self.stdin, "stop");
        let _ = self.stdin.flush();
        let mut line = String::new();
        let read = self.stdout.read_line(&mut line);
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        read.map_err(|e| format!("server stdout: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        let rest = line
            .strip_prefix("totals ")
            .ok_or(format!("server printed {line:?}"))?;
        Ok(parse_totals(rest))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A no-op once `stop` has reaped the process.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Latencies of one tag over all connections, ascending, with every
/// unacknowledged frame counted as infinitely late.
fn tag_latencies(conns: &[Conn], tag: usize) -> Vec<f64> {
    sorted(
        conns
            .iter()
            .flat_map(|c| {
                let unacked = (0..c.unacked[tag]).map(|_| f64::INFINITY);
                c.latencies[tag].iter().copied().chain(unacked)
            })
            .collect(),
    )
}

/// A served run's measurements plus what the output check needs.
pub struct Served {
    pub measured: Measured,
    /// Bytes each connection sent.
    pub sent: Vec<u64>,
    totals: BTreeMap<String, u64>,
    conn_errors: usize,
}

impl Served {
    /// The output check and failure accounting, in samples: every
    /// offered sample acknowledged and counted by `dpd_net_samples_total`,
    /// no protocol error, shed or disconnect, and the reference's totals.
    pub fn check(&mut self, expect: BTreeMap<String, u64>) {
        let m = &mut self.measured;
        let get = |k: &str| self.totals.get(k).copied();
        let mut ok = m.failed == 0 && self.conn_errors == 0;
        for k in ["protocol_errors", "shed", "disconnected"] {
            if get(k) != Some(0) {
                m.notes.push(format!("server reported {k}={:?}", get(k)));
                ok = false;
            }
        }
        if get("net_samples") != Some(m.offered) {
            m.notes.push(format!(
                "dpd_net_samples_total {:?} != offered {}",
                get("net_samples"),
                m.offered
            ));
            ok = false;
        }
        for (k, v) in &expect {
            if get(k) != Some(*v) {
                m.notes
                    .push(format!("total {k}: served {:?}, reference {v}", get(k)));
                ok = false;
            }
        }
        m.correct = ok;
    }
}

pub fn serve_and_measure(
    w: &Workload,
    plan: &Plan,
    laps: &[Lap],
    primed: Option<&str>,
    run_dir: &str,
) -> Result<Served, String> {
    let mut m = Measured::default();
    let ckpt = format!("{run_dir}/server.ckpt");
    let ckpt_arg = primed.map(|_| ckpt.as_str());

    // Phase 1: set-up, timed from spawn to the first handshake, several
    // times (each from the same primed checkpoint); the last server
    // stays up.
    let mut kept = None;
    for _ in 0..w.setup_spawns {
        if let Some(p) = primed {
            std::fs::copy(p, &ckpt).map_err(|e| format!("copy checkpoint: {e}"))?;
        }
        let t0 = Instant::now();
        let server = Server::spawn(w, ckpt_arg)?;
        let (conn, at) = Conn::open(&server.net, plan.tags(w))?;
        m.setup_s.push(at.duration_since(t0).as_secs_f64());
        kept = Some((server, conn));
    }
    let (server, first) = kept.expect("at least one spawn");
    let mut conns = vec![first];
    for _ in 1..w.conns {
        conns.push(Conn::open(&server.net, plan.tags(w))?.0);
    }
    drive(w, plan, laps, &server, &mut conns, &mut m)?;

    // Shutdown: peak RSS first, then close the load connections (reading
    // their final acknowledgements), then stop the server for its totals.
    m.peak_rss_mb = probe::peak_rss_mb(server.pid());
    std::thread::scope(|s| {
        for c in conns.iter_mut() {
            s.spawn(move || c.close(Duration::from_secs(60)));
        }
    });
    let totals = server.stop()?;
    m.offered = conns.iter().map(|c| c.cursor.samples).sum();
    m.failed = conns.iter().map(Conn::unacked_samples).sum();
    let errors: Vec<&String> = conns.iter().filter_map(|c| c.error.as_ref()).collect();
    for e in &errors {
        m.notes.push(format!("connection error: {e}"));
    }
    Ok(Served {
        conn_errors: errors.len(),
        measured: m,
        sent: conns.iter().map(|c| c.written).collect(),
        totals,
    })
}

/// One open-loop stretch: back-to-back segments from `start`, with the
/// processed-samples series this thread scraped meanwhile.
struct OpenLoop {
    start: Instant,
    /// `(rate over all connections, seconds)` per segment.
    segments: Vec<(f64, f64)>,
    /// `(scrape time, samples processed since the stretch began)`.
    processed: Vec<(Instant, u64)>,
}

impl OpenLoop {
    /// Samples due by `t` on the schedule, over all connections.
    fn due(&self, t: Instant) -> f64 {
        let mut from = self.start;
        let mut total = 0.0;
        for &(rate, secs) in &self.segments {
            let end = from + Duration::from_secs_f64(secs);
            if t.min(end) > from {
                total += rate * t.min(end).duration_since(from).as_secs_f64();
            }
            from = end;
        }
        total
    }

    /// `(seconds since from, backlog)` points scraped in `[from, to]`.
    fn backlog(&self, from: Instant, to: Instant) -> Vec<(f64, f64)> {
        self.processed
            .iter()
            .filter(|(t, _)| *t >= from && *t <= to)
            .map(|(t, p)| {
                (
                    t.duration_since(from).as_secs_f64(),
                    self.due(*t) - *p as f64,
                )
            })
            .collect()
    }
}

/// The context `drive` shares with its phases.
struct Drive<'a> {
    w: &'a Workload,
    laps: &'a [Lap],
    server: &'a Server,
    tick: Duration,
    /// Samples processed before the first phase (the primed state).
    base: u64,
    started: Instant,
    scrape_ms: Vec<f64>,
    queue_max: u64,
}

impl Drive<'_> {
    fn offered(conns: &[Conn]) -> u64 {
        conns.iter().map(|c| c.cursor.samples).sum()
    }

    /// Run `segments` on every connection from a moment from now, reading
    /// the server's per-thread CPU at each of `edges` (offsets in seconds)
    /// and scraping `/metrics` every 20 ms.
    fn open_loop(
        &mut self,
        conns: &mut [Conn],
        segments: &[Segment],
        edges: &[f64],
        linger: Duration,
    ) -> Result<(OpenLoop, Vec<BTreeMap<String, probe::Sched>>), String> {
        let start = Instant::now() + Duration::from_millis(20);
        let secs: f64 = segments.iter().map(|s| s.secs).sum();
        let end = start + Duration::from_secs_f64(secs) + LINGER;
        let edges: Vec<Instant> = edges
            .iter()
            .map(|&e| start + Duration::from_secs_f64(e))
            .collect();
        let before = Self::offered(conns);
        let base = self.base + before;
        let (pid, metrics, laps, tick) = (
            self.server.pid(),
            &self.server.metrics,
            self.laps,
            self.tick,
        );
        let mut processed = Vec::new();
        let mut sched = Vec::new();
        std::thread::scope(|s| -> Result<(), String> {
            // Connections tick out of phase, like independent clients.
            let n = conns.len() as u32;
            for (i, (c, lap)) in conns.iter_mut().zip(laps).enumerate() {
                let start = start + tick * i as u32 / n;
                s.spawn(move || c.open_loop(lap, segments, start, tick, linger));
            }
            let mut next_scrape = start;
            while Instant::now() < end {
                let edge = edges.get(sched.len()).copied();
                if edge.is_some_and(|e| Instant::now() >= e) {
                    sched.push(probe::threads(pid));
                    continue;
                }
                if Instant::now() >= next_scrape {
                    let page = probe::scrape(metrics)?;
                    self.scrape_ms.push(page.took_ms);
                    self.queue_max = self.queue_max.max(page.sum("dpd_shard_queue_depth"));
                    processed.push((page.at, page.processed().saturating_sub(base)));
                    next_scrape += Duration::from_millis(20);
                }
                sleep_until(edge.map_or(next_scrape, |e| e.min(next_scrape)));
            }
            Ok(())
        })?;
        if let Some(e) = conns.iter().find_map(|c| c.error.clone()) {
            return Err(format!("open loop: {e}"));
        }
        let segments = segments
            .iter()
            .map(|s| (s.rate * self.w.conns as f64, s.secs))
            .collect();
        Ok((
            OpenLoop {
                start,
                segments,
                processed,
            },
            sched,
        ))
    }

    /// One closed-loop burst of `samples` per connection; returns its
    /// throughput in Msamples/s, from the first byte sent until `/metrics`
    /// shows every sample processed, and the per-shard processed counts.
    fn burst(
        &mut self,
        conns: &mut [Conn],
        samples: u64,
        window: u64,
    ) -> Result<(f64, Vec<u64>), String> {
        let before = Self::offered(conns);
        let target = self.base + before + samples * conns.len() as u64;
        let (metrics, laps) = (&self.server.metrics, self.laps);
        let (mut scrape_ms, mut queue_max) = (Vec::new(), 0);
        let (first, done, shards) = std::thread::scope(|s| -> Result<_, String> {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(laps)
                .map(|(c, lap)| s.spawn(move || c.closed_loop(lap, samples, window)))
                .collect();
            let deadline = Instant::now() + Duration::from_secs(90);
            let (done, shards) = loop {
                let page = probe::scrape(metrics)?;
                scrape_ms.push(page.took_ms);
                queue_max = queue_max.max(page.sum("dpd_shard_queue_depth"));
                if page.processed() >= target {
                    break (page.at, page.per_shard("dpd_shard_samples_total"));
                }
                if Instant::now() > deadline {
                    return Err("closed loop: processing did not finish".to_string());
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            let first = handles
                .into_iter()
                .map(|h| h.join().expect("load thread"))
                .min()
                .expect("a connection");
            Ok((first, done, shards))
        })?;
        self.scrape_ms.extend(scrape_ms);
        self.queue_max = self.queue_max.max(queue_max);
        if let Some(e) = conns.iter().find_map(|c| c.error.clone()) {
            return Err(format!("closed loop: {e}"));
        }
        let sent = Self::offered(conns) - before;
        Ok((
            sent as f64 / done.duration_since(first).as_secs_f64() / 1e6,
            shards,
        ))
    }
}

/// How long a load thread keeps reading acknowledgements after its last
/// write of a nominal chunk (whose unmeasured tail covers the rest).
const LINGER: Duration = Duration::from_millis(50);

/// Phases 2-4 against a running server, after an unmeasured warm-up.
/// The nominal-rate phase is cut
/// into one chunk per closed-loop burst, chunk and burst alternating, so
/// its windows sample the host over the whole run; each chunk ends in an
/// unmeasured tail at the same rate, long enough that durable
/// acknowledgements of its last frames arrive with a checkpoint taken at
/// that rate. The rate ladder runs last, its steps back to back.
fn drive(
    w: &Workload,
    plan: &Plan,
    laps: &[Lap],
    server: &Server,
    conns: &mut [Conn],
    m: &mut Measured,
) -> Result<(), String> {
    let mut d = Drive {
        w,
        laps,
        server,
        tick: Duration::from_micros(w.tick_us),
        base: probe::scrape(&server.metrics)?.processed(),
        started: Instant::now(),
        scrape_ms: Vec::new(),
        queue_max: 0,
    };
    let per_conn = |msps: f64| msps * 1e6 / w.conns as f64;
    let window = (256 * 1024).max(2 * w.checkpoint_every);
    let closed_per_conn = plan.closed_samples / w.conns as u64;
    let tail_s = plan.tail_s(w);
    let chunk_s = plan.nominal_s / w.closed_bursts as f64;
    let subs = plan.chunk_subs;
    let edges: Vec<f64> = (0..=subs)
        .map(|j| chunk_s * j as f64 / subs as f64)
        .collect();
    let total_cpu = |t: &BTreeMap<String, probe::Sched>| t.values().map(|s| s.cpu_ns).sum::<u64>();

    // Warm-up, unmeasured: one chunk at the nominal rate and one burst,
    // so first-touch allocation and cold caches stay out of the metrics.
    let warm = Segment {
        rate: per_conn(w.nominal_msps),
        secs: chunk_s,
        tag: load::UNMEASURED,
        subs: 1,
    };
    d.open_loop(conns, &[warm], &[], LINGER)?;
    d.burst(conns, closed_per_conn, window)?;

    // Nominal chunks and closed-loop bursts.
    let (mut cpu, mut p50s, mut p99s, mut backlog_ms) = (vec![], vec![], vec![], vec![]);
    let (mut conn_d, mut worker_d) = (probe::Sched::default(), probe::Sched::default());
    let mut nominal_samples = 0u64;
    let mut skew = Vec::new();
    for k in 0..w.closed_bursts {
        let tag0 = k * subs;
        let segments = [
            Segment {
                rate: per_conn(w.nominal_msps),
                secs: chunk_s,
                tag: tag0,
                subs,
            },
            Segment {
                rate: per_conn(w.nominal_msps),
                secs: tail_s,
                tag: load::UNMEASURED,
                subs: 1,
            },
        ];
        let (open, sched) = d.open_loop(conns, &segments, &edges, LINGER)?;
        for (j, t) in (tag0..tag0 + subs).enumerate() {
            let samples: u64 = conns.iter().map(|c| c.tag_samples[t]).sum();
            let ns = total_cpu(&sched[j + 1]).saturating_sub(total_cpu(&sched[j]));
            cpu.push(ns as f64 / samples.max(1) as f64);
            nominal_samples += samples;
        }
        let (s0, s1) = (&sched[0], &sched[subs]);
        let add = |acc: &mut probe::Sched, s: probe::Sched| {
            acc.cpu_ns += s.cpu_ns;
            acc.wait_ns += s.wait_ns;
        };
        add(&mut conn_d, probe::delta(s0, s1, "dpd-net-conn"));
        // Inline, the shard loop runs on the connection threads.
        let worker = if w.shards > 0 {
            "dpd-shard-"
        } else {
            "dpd-net-conn"
        };
        add(&mut worker_d, probe::delta(s0, s1, worker));
        let chunk_end = open.start + Duration::from_secs_f64(chunk_s);
        for (_, b) in open.backlog(open.start, chunk_end) {
            backlog_ms.push(b.max(0.0) / (w.nominal_msps * 1e3));
        }
        let (msps, shards) = d.burst(conns, closed_per_conn, window)?;
        m.throughput.push(msps);
        skew.push(shards);
    }
    for t in 0..subs * w.closed_bursts {
        let lat = tag_latencies(conns, t);
        p50s.push(pct(&lat, 0.50));
        p99s.push(pct(&lat, 0.99));
    }
    m.cpu_ns_per_sample = median(&cpu);
    m.ack_p50_ms = median(&p50s);
    m.ack_p99_ms = median(&p99s);
    let fmt = |v: Vec<f64>| {
        let v: Vec<String> = sorted(v).iter().map(|x| format!("{x:.3}")).collect();
        v.join(" ")
    };
    m.notes.push(format!(
        "nominal windows, sorted: ack_p99_ms [{}] cpu_ns_per_sample [{}]; bursts Msamples/s [{}]",
        fmt(p99s),
        fmt(cpu),
        fmt(m.throughput.clone())
    ));

    // The ladder, then (durable) one checkpoint's worth more so its last
    // frames are acknowledged; per step the median window's p99 and the
    // backlog growth.
    let tag0 = plan.nominal_tags(w);
    let segments: Vec<Segment> = w
        .ladder_msps
        .iter()
        .enumerate()
        .map(|(i, &r)| Segment {
            rate: per_conn(r),
            secs: plan.step_s,
            tag: tag0 + plan.step_subs * i,
            subs: plan.step_subs,
        })
        .collect();
    // Overloaded steps leave a backlog: keep reading acknowledgements
    // until every frame is covered (durable: the flush below covers them).
    let linger = if w.durable() {
        Duration::ZERO
    } else {
        Duration::from_secs(30)
    };
    let (ladder, _) = d.open_loop(conns, &segments, &[], linger)?;
    if w.durable() {
        std::thread::scope(|s| {
            for (c, lap) in conns.iter_mut().zip(laps) {
                s.spawn(move || c.closed_loop(lap, w.checkpoint_every, window));
            }
        });
    }
    wait_processed(&server.metrics, d.base + Drive::offered(conns))?;
    let mut steps = Vec::new();
    for (i, &r) in w.ladder_msps.iter().enumerate() {
        let from = ladder.start + Duration::from_secs_f64(plan.step_s * i as f64);
        let to = from + Duration::from_secs_f64(plan.step_s);
        let t0 = tag0 + plan.step_subs * i;
        let p99 = median(
            &(t0..t0 + plan.step_subs)
                .map(|t| pct(&tag_latencies(conns, t), 0.99))
                .collect::<Vec<_>>(),
        );
        let g = growth(&ladder.backlog(from, to), plan.step_s) / (r * 1e6);
        steps.push((r, p99, g));
        m.notes.push(format!(
            "ladder {r} Msamples/s: ack_p99 {p99:.3} ms, backlog growth {g:.4} of rate"
        ));
    }
    m.sustainable = sustainable(&steps, w.limit_ms);

    // Layer readings only the served run has.
    let late: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.late_ms.iter().copied())
        .collect();
    let gen_cpu: u64 = conns.iter().map(|c| c.gen_cpu_ns).sum();
    let gen_wall: u64 = conns.iter().map(|c| c.gen_wall_ns).sum();
    let skew: Vec<f64> = skew
        .iter()
        .map(|v| {
            let max = v.iter().copied().max().unwrap_or(0) as f64;
            let mean = v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
            max / mean.max(1.0)
        })
        .collect();
    let page = probe::scrape(&server.metrics)?;
    let per_sample = |ns: u64| ns as f64 / nominal_samples.max(1) as f64;
    let wait_share = |s: probe::Sched| s.wait_ns as f64 / (s.wait_ns + s.cpu_ns).max(1) as f64;
    let wall = d.started.elapsed().as_nanos() as f64 * w.shards.max(1) as f64;
    let l = &mut m.layer;
    l.push(("gen.late_ms_p99".into(), pct(&sorted(late), 0.99), "ms"));
    l.push((
        "gen.cpu_share".into(),
        gen_cpu as f64 / gen_wall.max(1) as f64,
        "ratio",
    ));
    l.push(("obs.scrape_ms".into(), median(&d.scrape_ms), "ms"));
    l.push((
        "service.backlog_ms_p99".into(),
        pct(&sorted(backlog_ms), 0.99),
        "ms",
    ));
    l.push((
        "service.queue_depth_max".into(),
        d.queue_max as f64,
        "count",
    ));
    l.push(("service.shard_skew".into(), median(&skew), "ratio"));
    l.push((
        "net.conn_cpu_ns_per_sample".into(),
        per_sample(conn_d.cpu_ns),
        "ns",
    ));
    l.push((
        "net.conn_runq_wait_share".into(),
        wait_share(conn_d),
        "ratio",
    ));
    l.push((
        "shard.worker_cpu_ns_per_sample".into(),
        per_sample(worker_d.cpu_ns),
        "ns",
    ));
    l.push((
        "shard.worker_runq_wait_share".into(),
        wait_share(worker_d),
        "ratio",
    ));
    l.push((
        "shard.worker_busy_share".into(),
        page.sum("dpd_ingest_loop_nanoseconds_sum") as f64 / wall,
        "ratio",
    ));
    l.push((
        "dtb.wire_bytes_per_sample".into(),
        page.sum("dpd_net_bytes_total") as f64 / Drive::offered(conns).max(1) as f64,
        "bytes",
    ));
    Ok(())
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Poll `/metrics` until the shards have processed `target` samples.
fn wait_processed(addr: &str, target: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(90);
    while probe::scrape(addr)?.processed() < target {
        if Instant::now() > deadline {
            return Err(format!("server did not process {target} samples in time"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}
