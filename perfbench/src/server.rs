//! The server under test, run as its own process (`perfbench serve`).
//!
//! It makes the calls `dpd serve` makes — `DpdServer::start_observed`
//! with the workload's builder and `NetConfig::default()` (plus the
//! durable policy `fleet_durable` needs), and `MetricsServer::start` on
//! the same registry — but at exit it reports only totals instead of
//! sorting and formatting every retained event.
//!
//! Protocol on stdio: once both sockets listen it prints
//! `ready NET_ADDR METRICS_ADDR`; on `stop` (or end of input) it shuts
//! down and prints one `totals key=value ...` line.

use crate::workload;
use dpd_obs::{MetricsServer, Registry};
use par_runtime::net::{DpdServer, DurableNet, NetConfig};
use par_runtime::service::ServiceObs;
use std::io::{BufRead, Write};

pub fn main(args: &[String]) -> Result<(), String> {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let name = get("--workload").ok_or("serve needs --workload")?;
    let w = workload::by_name(&name).ok_or(format!("unknown workload {name}"))?;
    let mut cfg = NetConfig::default();
    if let Some(path) = get("--checkpoint") {
        cfg.durable = Some(DurableNet {
            path: path.into(),
            every_samples: w.checkpoint_every,
            resume: true,
        });
    }
    let registry = Registry::new();
    let obs = ServiceObs {
        registry: registry.clone(),
        self_tracer: None,
    };
    let server = DpdServer::start_observed(&w.builder(), cfg, "127.0.0.1:0", obs)
        .map_err(|e| format!("serve: {e}"))?;
    let metrics =
        MetricsServer::start(registry, "127.0.0.1:0").map_err(|e| format!("metrics: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "ready {} {}",
        server.local_addr(),
        metrics.local_addr()
    )
    .and_then(|_| out.flush())
    .map_err(|e| format!("stdout: {e}"))?;

    for line in std::io::stdin().lock().lines() {
        if line.map(|l| l.trim() == "stop").unwrap_or(true) {
            break;
        }
    }
    let report = server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    metrics.shutdown();
    let t = report.snapshot.total();
    let s = report.stats;
    writeln!(
        out,
        "totals samples={} events={} closed={} evicted={} query_enters={} query_exits={} \
         forecast_checked={} forecast_hits={} net_samples={} protocol_errors={} shed={} \
         disconnected={} retained_events={}",
        t.samples,
        t.events,
        t.closed,
        t.evicted,
        t.query_enters,
        t.query_exits,
        t.forecast_checked,
        t.forecast_hits,
        s.samples,
        s.protocol_errors,
        s.shed_capacity + s.shed_stalled + s.shed_slow,
        s.disconnected,
        report.events.len(),
    )
    .and_then(|_| out.flush())
    .map_err(|e| format!("stdout: {e}"))
}
