//! # par-runtime — parallel runtime substrate
//!
//! The paper's environment is the NANOS runtime executing MPI/OpenMP
//! applications on a 16-CPU SGI Origin 2000 (§3.2). This crate rebuilds the
//! pieces of that environment the DPD and SelfAnalyzer observe:
//!
//! * [`vclock`] + [`machine`] — a discrete-event *virtual-time*
//!   multiprocessor: configurable CPU count, fork/join overheads and an
//!   Amdahl-style cost model. It is the one execution substrate: every
//!   application and experiment runs here, deterministically and with 16
//!   CPUs' worth of speedup regardless of the host machine;
//! * [`cpustat`] — the machine's active-CPU step function, sampled at a
//!   fixed rate into the kind of trace shown in the paper's Figure 3;
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
pub mod machine;
pub mod msg;
pub mod net;
pub mod sched;
pub mod service;
mod sync;
pub mod vclock;
pub mod workload;

pub use cpustat::CpuTimeline;
pub use machine::{LoopSpec, Machine, MachineConfig, VirtualSpan};
pub use service::{CheckpointError, MultiStreamDpd, ServiceSnapshot};
pub use vclock::VirtualClock;
