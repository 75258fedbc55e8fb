//! # par-runtime — parallel runtime substrate
//!
//! The paper's environment is the NANOS runtime executing MPI/OpenMP
//! applications on a 16-CPU SGI Origin 2000 (§3.2). This crate rebuilds the
//! pieces of that environment the DPD and SelfAnalyzer observe:
//!
//! * [`pool::ThreadPool`] + [`loops`] — a real work-sharing thread pool with
//!   `parallel_for` (static / dynamic / guided scheduling), exercising the
//!   same code paths under actual OS threads;
//! * [`cpustat`] — instantaneous active-CPU accounting and a fixed-rate
//!   sampler, producing the kind of trace shown in the paper's Figure 3;
//! * [`vclock`] + [`machine`] — a discrete-event *virtual-time*
//!   multiprocessor: configurable CPU count, fork/join overheads and an
//!   Amdahl-style cost model. Experiments that need 16 CPUs' worth of
//!   speedup run here deterministically regardless of the host machine;
//! * [`sched`] — processor-allocation policies (equipartition and the
//!   performance-driven policy of \[Corbalan2000\] that consumes the
//!   SelfAnalyzer's speedup estimates);
//! * [`service`] — the sharded multi-stream DPD service: parallel
//!   ingestion of thousands of concurrent streams over per-shard worker
//!   threads, with a deterministic single-threaded fallback, plus durable
//!   crash-safe state via [`service::MultiStreamDpd::checkpoint`] /
//!   [`service::MultiStreamDpd::resume`];
//! * [`net`] — the DTB-over-TCP ingestion front-end: a hand-rolled
//!   thread-per-connection server ([`net::DpdServer`]) with incremental
//!   frame reassembly, bounded per-connection buffers, slow-client
//!   shedding and checkpoint-on-exit durability.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cpustat;
pub mod loops;
pub mod machine;
pub mod msg;
pub mod net;
pub mod pool;
pub mod sampler;
pub mod sched;
pub mod service;
mod sync;
pub mod vclock;
pub mod workload;

pub use cpustat::{CpuTimeline, CpuUsage};
pub use machine::{LoopSpec, Machine, MachineConfig, VirtualSpan};
pub use pool::ThreadPool;
pub use service::{CheckpointError, MultiStreamDpd, ServiceSnapshot};
pub use vclock::VirtualClock;
