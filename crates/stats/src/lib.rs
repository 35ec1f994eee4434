//! Statistics, access counters, energy model and report formatting for the
//! ELSQ simulator.
//!
//! The paper's evaluation (Sections 5 and 6) reports three kinds of numbers:
//!
//! * IPC / speed-ups (collected by the processor models in `elsq-cpu`),
//! * structure access counts normalized to 100 million committed
//!   instructions ([`counters::LsqAccessCounters`], Table 2),
//! * per-access read energies estimated with CACTI ([`energy`], Section 6).
//!
//! This crate provides the shared bookkeeping types so every LSQ and CPU
//! model counts events the same way, plus small plain-text/CSV table
//! renderers ([`report`]) used by the experiment binaries to print rows in
//! the same layout as the paper's tables and figures.
//!
//! # Example
//!
//! ```
//! use elsq_stats::counters::LsqAccessCounters;
//!
//! let mut c = LsqAccessCounters::default();
//! c.hl_sq_searches += 270;
//! c.ert_lookups += 275;
//! let per_100m = c.scaled_per_100m(1_000);
//! assert_eq!(per_100m.hl_sq_searches, 27_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod counters;
pub mod diff;
pub mod energy;
pub mod report;
pub mod sampling;

pub use canon::{canonical_hash, canonical_hash_of, hash_hex};
pub use counters::{LsqAccessCounters, SimCounters};
pub use diff::{degraded_cells, diff_reports, DiffOutcome};
pub use energy::{EnergyModel, StructureKind, StructureSpec};
pub use report::{Cell, ExperimentParams, Report, Table};
pub use sampling::{SamplePeriod, SamplingSpec, SamplingStats, WindowSample};
