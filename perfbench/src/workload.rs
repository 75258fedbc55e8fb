//! The three served workloads: their fixed parameters, the detector
//! configuration the server and the in-process replays share, and the
//! seeded input generators.
//!
//! Every input is generated from the seed before any timing starts and
//! handed to the server only as DTB bytes. A connection's input is a
//! *lap*: one DTB container whose events frames are replayed in order;
//! when a run needs more frames than one lap holds, the lap repeats (the
//! decoder accepts interior headers and identical re-declarations).

use dpd_core::pipeline::DpdBuilder;
use dpd_core::query::QuerySpec;
use dpd_trace::dtb::{Block, DtbDecoder, DtbWriter};
use std::collections::HashMap;

/// Fixed parameters of one workload. Rates are total samples per second
/// across all connections.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shards: usize,
    pub window: usize,
    pub conns: usize,
    /// Samples per events frame.
    pub frame: usize,
    /// Open-loop nominal rate, Msamples/s.
    pub nominal_msps: f64,
    /// Open-loop rate ladder, Msamples/s, ascending.
    pub ladder_msps: &'static [f64],
    /// `ack_p99_ms` limit a ladder step must meet.
    pub limit_ms: f64,
    /// Closed-loop bursts per run and samples per burst (per 10 s of
    /// `--seconds`).
    pub closed_bursts: usize,
    pub closed_samples_per_10s: u64,
    /// Open-loop write interval in microseconds.
    pub tick_us: u64,
    /// Length of the windows open-loop percentiles and CPU are taken
    /// over, in milliseconds (each holds at least a thousand frames).
    pub window_ms: u64,
    /// Durable checkpoint cadence in samples (`0`: not durable).
    pub checkpoint_every: u64,
    /// Server spawns timed in set-up (median reported).
    pub setup_spawns: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wire_hot",
        why: "10k periodic streams in short frames, 2 shards, window 16: decode, the connection read/copy/lock path, routing and shard queues carry the cost",
        shards: 2,
        window: 16,
        conns: 2,
        frame: 16,
        nominal_msps: 4.0,
        ladder_msps: &[2.0, 4.0, 5.5, 6.25, 7.0, 7.75, 8.5, 9.25, 10.0, 11.0, 12.5],
        limit_ms: 10.0,
        closed_bursts: 7,
        closed_samples_per_10s: 3_000_000,
        tick_us: 250,
        window_ms: 25,
        checkpoint_every: 0,
        setup_spawns: 21,
    },
    Workload {
        name: "apps_kernel",
        why: "Table 3 address traces as 300 app instances, inline, window 1024: the incremental metric kernel does nearly all the work",
        shards: 0,
        window: 1024,
        conns: 2,
        frame: 16,
        nominal_msps: 0.1,
        ladder_msps: &[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.6, 0.7, 0.85],
        limit_ms: 50.0,
        closed_bursts: 5,
        closed_samples_per_10s: 300_000,
        tick_us: 4000,
        window_ms: 500,
        checkpoint_every: 0,
        setup_spawns: 21,
    },
    Workload {
        name: "fleet_durable",
        why: "1M Zipf-skewed stream ids with churn, 2 shards, forecasts, four standing queries, memory budget and durable checkpoints; resumes a primed checkpoint",
        shards: 2,
        window: 64,
        conns: 1,
        frame: 16,
        nominal_msps: 0.5,
        ladder_msps: &[0.5, 0.7, 0.85, 1.0, 1.1, 1.2, 1.3, 1.4, 1.55, 1.7, 2.0],
        limit_ms: 250.0,
        closed_bursts: 5,
        closed_samples_per_10s: 1_000_000,
        tick_us: 500,
        window_ms: 1000,
        checkpoint_every: 100_000,
        setup_spawns: 7,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `fleet_durable`'s stream-id space, memory budget and watermark.
const FLEET_IDS: u64 = 1_000_000;
const FLEET_BUDGET: u64 = 24 << 20;
const FLEET_EVICT_AFTER: u64 = 400_000;
/// Samples ingested in-process to prime the checkpoint the server resumes.
pub const FLEET_PRIME_SAMPLES: u64 = 2_000_000;
/// Forecast horizon of `fleet_durable`, and of the traced run's
/// predictor layer on every workload.
pub const HORIZON: usize = 4;
/// One standing query of each kind. `fleet_durable` serves all four; the
/// traced run's query layer attaches them to the other workloads' tables
/// too, minus the confidence query, which needs a forecaster.
const QUERIES: &str =
    "period-in 4 12\nlock-lost-within 5000\nperiod-join 0\nconfidence-at-least 0.5\n";

impl Workload {
    /// The detector service configuration: the builder the server, the
    /// reference replay and the traced replays all use.
    pub fn builder(&self) -> DpdBuilder {
        let b = DpdBuilder::new().window(self.window).shards(self.shards);
        if self.name != "fleet_durable" {
            return b;
        }
        b.forecast(HORIZON)
            .memory_budget(FLEET_BUDGET)
            .evict_after(FLEET_EVICT_AFTER)
            .standing_queries(&self.query_specs())
    }

    /// The standing queries the traced run's query layer measures.
    pub fn query_specs(&self) -> Vec<QuerySpec> {
        let mut specs = dpd_core::query::parse_specs(QUERIES).expect("query specs parse");
        if self.name != "fleet_durable" {
            specs.pop();
        }
        specs
    }

    pub fn durable(&self) -> bool {
        self.checkpoint_every > 0
    }
}

// ---------------------------------------------------------------------------
// Seeded randomness

/// splitmix64 step.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless hash of a tuple of words.
pub fn hash(words: &[u64]) -> u64 {
    let mut s = 0x5EED_5EED_5EED_5EED_u64;
    for &w in words {
        s ^= w;
        mix(&mut s);
    }
    mix(&mut s)
}

fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// Laps

/// One events frame of a lap.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// Byte offset just past the frame within the lap (so the frame's
    /// bytes, with any declarations before it, end here).
    pub end: usize,
    pub samples: u32,
}

/// One connection's input: a DTB container and its events frames.
#[derive(Debug, Default)]
pub struct Lap {
    pub bytes: Vec<u8>,
    pub frames: Vec<Frame>,
    pub samples: u64,
}

impl Lap {
    /// Encode `records` (stream, values) in order, one events frame per
    /// record, declaring each stream just before its first frame.
    fn encode(frame: usize, records: impl Iterator<Item = (u64, Vec<i64>)>) -> Lap {
        let mut w = DtbWriter::with_block_len(Vec::new(), frame).expect("vec writer");
        let mut declared = std::collections::HashSet::new();
        for (stream, values) in records {
            debug_assert_eq!(values.len(), frame);
            if declared.insert(stream) {
                w.declare_events(stream, "").expect("declare");
            }
            w.push_events(stream, &values).expect("push");
        }
        let bytes = w.finish().expect("finish");
        Lap::index(bytes)
    }

    /// Recover the events-frame boundaries from the encoded bytes.
    pub fn index(bytes: Vec<u8>) -> Lap {
        let mut dec = DtbDecoder::new();
        dec.feed(&bytes);
        let mut frames = Vec::new();
        let mut samples = 0u64;
        while let Some(block) = dec.next_block().expect("generated lap decodes") {
            if let Block::Events { values, .. } = block {
                let n = values.len() as u32;
                samples += n as u64;
                frames.push(Frame {
                    end: dec.position(),
                    samples: n,
                });
            }
        }
        Lap {
            bytes,
            frames,
            samples,
        }
    }
}

/// A position in a connection's endless replay of its lap.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor {
    /// Frames handed out so far (across laps).
    pub frames: u64,
    /// Bytes handed out so far (across laps).
    pub bytes: u64,
    /// Samples handed out so far.
    pub samples: u64,
}

impl Cursor {
    /// Advance past the next frame; returns its sample count.
    pub fn advance(&mut self, lap: &Lap) -> u32 {
        let n = lap.frames.len() as u64;
        let idx = (self.frames % n) as usize;
        let lap_no = self.frames / n;
        let f = lap.frames[idx];
        self.frames += 1;
        self.bytes = lap_no * lap.bytes.len() as u64 + f.end as u64;
        if idx + 1 == n as usize {
            // The lap's tail (nothing after the last events frame in a
            // generated lap, but keep the invariant exact).
            self.bytes = (lap_no + 1) * lap.bytes.len() as u64;
        }
        self.samples += f.samples as u64;
        f.samples
    }
}

/// The bytes of the cyclic replay in `[from, to)` as at most a few slices.
pub fn cyclic_slices(lap: &Lap, from: u64, to: u64) -> Vec<&[u8]> {
    let len = lap.bytes.len() as u64;
    let mut out = Vec::new();
    let mut at = from;
    while at < to {
        let off = (at % len) as usize;
        let end = ((to - at) as usize).min(lap.bytes.len() - off) + off;
        out.push(&lap.bytes[off..end]);
        at += (end - off) as u64;
    }
    out
}

// ---------------------------------------------------------------------------
// Generators

/// Generate every connection's lap for `w`, sized so a run of
/// `run_samples` total samples fits in one lap where the workload has no
/// natural lap. `fleet_durable` also needs priming frames: see [`fleet`].
pub fn generate(w: &Workload, seed: u64, run_samples: u64) -> Vec<Lap> {
    match w.name {
        "wire_hot" => wire_hot(w, seed),
        "apps_kernel" => apps_kernel(w, seed, run_samples),
        other => unreachable!("{other} is generated by `fleet`"),
    }
}

/// Periods whose multiples tile `WIRE_LAP` exactly, so a repeated lap
/// continues every periodic stream without a phase jump.
const WIRE_PERIODS: [u64; 21] = [
    2, 3, 4, 6, 7, 8, 9, 12, 14, 16, 18, 21, 24, 28, 36, 42, 48, 56, 63, 72, 84,
];
/// Samples per stream per lap (2^4 * 3^2 * 7).
const WIRE_LAP: usize = 1008;
const WIRE_STREAMS: u64 = 10_000;

/// About 10k seeded periodic streams in short frames, a seeded share of
/// them noisy; streams alternate between the connections.
fn wire_hot(w: &Workload, seed: u64) -> Vec<Lap> {
    let mut rng = hash(&[seed, 1]);
    let noisy_share = 0.1 + 0.2 * unit(&mut rng);
    let streams: Vec<(u64, Vec<i64>)> = (0..WIRE_STREAMS)
        .map(|i| {
            let mut r = hash(&[seed, 2, i]);
            let id = mix(&mut r) >> 24;
            let p = WIRE_PERIODS[(mix(&mut r) % WIRE_PERIODS.len() as u64) as usize];
            let base = 0x40_0000 + (mix(&mut r) % 0x10_0000) as i64 * 16;
            let pattern: Vec<i64> = (0..p)
                .map(|_| base + (mix(&mut r) % 4096) as i64 * 8)
                .collect();
            let noisy = unit(&mut r) < noisy_share;
            let values = (0..WIRE_LAP)
                .map(|k| {
                    if noisy && unit(&mut r) < 0.1 {
                        base + (mix(&mut r) % 65536) as i64 * 8
                    } else {
                        pattern[k % p as usize]
                    }
                })
                .collect();
            (id, values)
        })
        .collect();
    (0..w.conns)
        .map(|c| {
            let mine: Vec<&(u64, Vec<i64>)> = streams.iter().skip(c).step_by(w.conns).collect();
            let rounds = WIRE_LAP / w.frame;
            let records = (0..rounds).flat_map(|r| {
                mine.iter()
                    .map(move |(id, v)| (*id, v[r * w.frame..(r + 1) * w.frame].to_vec()))
            });
            Lap::encode(w.frame, records)
        })
        .collect()
}

/// A few hundred seeded instances of the five Table 3 address traces:
/// seeded rotations, address offsets and sparse insertions.
fn apps_kernel(w: &Workload, seed: u64, run_samples: u64) -> Vec<Lap> {
    let traces: Vec<Vec<i64>> = spec_apps::spec_apps()
        .iter()
        .map(|app| {
            app.run(&spec_apps::RunConfig {
                cpus: 1,
                ..spec_apps::RunConfig::default()
            })
            .addresses
            .values
        })
        .collect();
    const INSTANCES: u64 = 300;
    let per_conn = run_samples.div_ceil(w.conns as u64);
    let per_instance = (per_conn * w.conns as u64)
        .div_ceil(INSTANCES)
        .next_multiple_of(w.frame as u64) as usize;
    let instances: Vec<(u64, Vec<i64>)> = (0..INSTANCES)
        .map(|i| {
            let mut r = hash(&[seed, 3, i]);
            let id = mix(&mut r) >> 24;
            let t = &traces[(mix(&mut r) % traces.len() as u64) as usize];
            let rot = (mix(&mut r) % t.len() as u64) as usize;
            let offset = (mix(&mut r) % 4096) as i64 * 0x1_0000;
            let mut values = Vec::with_capacity(per_instance);
            let mut k = rot;
            while values.len() < per_instance {
                if unit(&mut r) < 0.001 {
                    values.push(offset + 0x7000_0000 + (mix(&mut r) % 4096) as i64 * 8);
                } else {
                    values.push(t[k % t.len()] + offset);
                    k += 1;
                }
            }
            (id, values)
        })
        .collect();
    (0..w.conns)
        .map(|c| {
            let mine: Vec<&(u64, Vec<i64>)> = instances.iter().skip(c).step_by(w.conns).collect();
            let rounds = per_instance / w.frame;
            let records = (0..rounds).flat_map(|r| {
                mine.iter()
                    .map(move |(id, v)| (*id, v[r * w.frame..(r + 1) * w.frame].to_vec()))
            });
            Lap::encode(w.frame, records)
        })
        .collect()
}

/// Per-stream generator state of the fleet.
struct FleetStream {
    pos: u64,
}

/// `fleet_durable`: stream ids drawn from a million with Zipf(1) skew;
/// the popularity ranking rotates (churn: the hottest stream retires
/// every `CHURN_FRAMES` frames) and every stream changes phase every
/// `PHASE_SAMPLES` of its own samples. `skip_frames` frames of the same
/// endless sequence are generated first and returned as the priming
/// records (ingested in-process before the server starts).
pub fn fleet(
    w: &Workload,
    seed: u64,
    skip_frames: u64,
    run_samples: u64,
) -> (Vec<Lap>, Vec<(u64, Vec<i64>)>) {
    const CHURN_FRAMES: u64 = 2_000;
    const PHASE_SAMPLES: u64 = 4_096;
    let mut rng = hash(&[seed, 4]);
    let mut state: HashMap<u64, FleetStream> = HashMap::new();
    let ln_n = ((FLEET_IDS + 1) as f64).ln();
    let frame = w.frame as u64;
    let mut next = |g: u64, rng: &mut u64| -> (u64, Vec<i64>) {
        let rank = ((unit(rng) * ln_n).exp() as u64)
            .saturating_sub(1)
            .min(FLEET_IDS - 1);
        let slot = (rank + g / CHURN_FRAMES) % FLEET_IDS;
        let id = hash(&[seed, 5, slot]) >> 24;
        let st = state.entry(id).or_insert(FleetStream { pos: 0 });
        let mut values = Vec::with_capacity(w.frame);
        for _ in 0..frame {
            let epoch = st.pos / PHASE_SAMPLES;
            let h = hash(&[seed, 6, id, epoch]);
            let p = 2 + h % 23;
            let stride = 8 * (1 + (h >> 8) % 16) as i64;
            let base = 0x1000_0000 + ((id % 0x10_0000) as i64) * 4096;
            if unit(rng) < 0.02 {
                values.push(base + 0x800 + (mix(rng) % 64) as i64 * 8);
            } else {
                values.push(base + ((st.pos % p) as i64) * stride);
            }
            st.pos += 1;
        }
        (id, values)
    };
    let prime: Vec<(u64, Vec<i64>)> = (0..skip_frames).map(|g| next(g, &mut rng)).collect();
    let frames = run_samples.div_ceil(frame);
    let records: Vec<(u64, Vec<i64>)> = (skip_frames..skip_frames + frames)
        .map(|g| next(g, &mut rng))
        .collect();
    (vec![Lap::encode(w.frame, records.into_iter())], prime)
}

/// The fixed corpus of the host calibration replay: 256 periodic
/// streams, 2,000 samples each, independent of the seed.
pub fn calibration_corpus() -> Vec<(u64, Vec<i64>)> {
    (0..256u64)
        .map(|s| {
            let p = 3 + s % 29;
            let values = (0..2_000u64)
                .map(|k| (0x1000 + s * 0x100 + k % p) as i64)
                .collect();
            (s, values)
        })
        .collect()
}
