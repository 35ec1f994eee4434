//! Processor timing models for the ELSQ reproduction.
//!
//! Two microarchitectures from the paper are modeled by a single
//! cycle-accounting pipeline ([`pipeline::Processor`]):
//!
//! * the **conventional out-of-order processor** (MIPS R10000 style, 64-entry
//!   ROB) obtained by disabling the Memory Processor — the paper's OoO-64
//!   baseline, optionally with SVW load re-execution;
//! * the **FMC (Flexible MultiCore)** large-window processor: a Cache
//!   Processor identical to the OoO core plus up to 16 in-order Memory
//!   Engines that receive miss-dependent instructions via Virtual-ROB style
//!   migration, giving an effective window of ~2000 instructions. The FMC can
//!   run with the idealized central LSQ or with the Epoch-based LSQ in any of
//!   its configurations.
//!
//! The pipeline is trace-driven for data (workload generators provide
//! addresses and branch outcomes) and execution-driven for timing: fetch,
//! rename/dispatch, issue, memory access, migration, commit and recovery are
//! all modeled with explicit structural resources (ROB and LSQ occupancy,
//! issue and cache ports, commit bandwidth, epoch/Memory-Engine capacity,
//! CP↔MP network latencies).
//!
//! # Example
//!
//! ```
//! use elsq_cpu::config::{CpuConfig, LsqKind};
//! use elsq_cpu::pipeline::Processor;
//! use elsq_workload::streaming::StreamingFp;
//!
//! // Conventional OoO-64 baseline on a small streaming workload.
//! let config = CpuConfig::ooo64();
//! let mut cpu = Processor::new(config);
//! let mut workload = StreamingFp::swim_like(1);
//! let result = cpu.run(&mut workload, 20_000);
//! assert!(result.ipc() > 0.05 && result.ipc() < 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub(crate) mod lsq_driver;
pub mod pipeline;
pub mod result;

pub use config::{CpuConfig, FmcConfig, LsqKind, SvwParams};
pub use pipeline::Processor;
pub use result::{Histogram, SimResult};
