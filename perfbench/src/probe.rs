//! Sampling the server from outside: `/proc/PID` and its `/metrics`
//! endpoint.

use std::collections::BTreeMap;
use std::time::Instant;

/// `VmHWM` of a process in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Per-thread scheduler counters: on-CPU and run-queue wait, ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

/// `/proc/PID/task/*/schedstat`, summed per thread name.
pub fn threads(pid: u32) -> BTreeMap<String, Sched> {
    let mut out: BTreeMap<String, Sched> = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for entry in dir.flatten() {
        let p = entry.path();
        let name = std::fs::read_to_string(p.join("comm")).unwrap_or_default();
        let stat = std::fs::read_to_string(p.join("schedstat")).unwrap_or_default();
        let mut f = stat
            .split_whitespace()
            .map(|v| v.parse::<u64>().unwrap_or(0));
        let s = out.entry(name.trim().to_string()).or_default();
        s.cpu_ns += f.next().unwrap_or(0);
        s.wait_ns += f.next().unwrap_or(0);
    }
    out
}

/// On-CPU ns of the calling thread.
pub fn self_thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Differences of per-thread counters between two samples, summed over
/// thread names starting with `prefix`.
pub fn delta(a: &BTreeMap<String, Sched>, b: &BTreeMap<String, Sched>, prefix: &str) -> Sched {
    let sum = |m: &BTreeMap<String, Sched>| {
        m.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold(Sched::default(), |acc, (_, s)| Sched {
                cpu_ns: acc.cpu_ns + s.cpu_ns,
                wait_ns: acc.wait_ns + s.wait_ns,
            })
    };
    let (x, y) = (sum(a), sum(b));
    Sched {
        cpu_ns: y.cpu_ns.saturating_sub(x.cpu_ns),
        wait_ns: y.wait_ns.saturating_sub(x.wait_ns),
    }
}

/// One parsed `/metrics` page and the time it was taken.
#[derive(Debug, Clone)]
pub struct Page {
    pub at: Instant,
    pub took_ms: f64,
    pub scrape: dpd_obs::Scrape,
}

impl Page {
    pub fn sum(&self, family: &str) -> u64 {
        self.scrape.sum_family(family) as u64
    }

    /// Per-shard values of a labelled family, in shard order.
    pub fn per_shard(&self, family: &str) -> Vec<u64> {
        let prefix = format!("{family}{{");
        self.scrape
            .values
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| *v as u64)
            .collect()
    }

    /// Samples processed by the detector shards.
    pub fn processed(&self) -> u64 {
        self.sum("dpd_shard_samples_total")
    }
}

/// One `GET /metrics`.
pub fn scrape(addr: &str) -> Result<Page, String> {
    let t0 = Instant::now();
    let body = dpd_obs::scrape(addr).map_err(|e| format!("scrape {addr}: {e}"))?;
    let took = t0.elapsed();
    let scrape = dpd_obs::parse_exposition(&body).map_err(|e| format!("{addr}: {e}"))?;
    Ok(Page {
        at: t0 + took / 2,
        took_ms: took.as_secs_f64() * 1e3,
        scrape,
    })
}
