//! Synthetic ISA for the ELSQ (Epoch-based Load/Store Queue) simulator.
//!
//! The simulator that accompanies the paper *"A Two-Level Load/Store Queue
//! Based on Execution Locality"* (ISCA 2008) is trace driven for data and
//! execution driven for timing: workload generators emit a stream of
//! [`DynInst`] dynamic instructions carrying explicit register dependences,
//! memory addresses and branch outcomes, while the processor models in
//! `elsq-cpu` compute cycle-level timing for that stream.
//!
//! This crate defines the common vocabulary shared by every other crate:
//!
//! * [`ArchReg`] / [`RegClass`] — architectural registers (32 integer +
//!   32 floating point, MIPS/Alpha style),
//! * [`Op`] and [`OpClass`] — operation kinds with execution latencies,
//! * [`DynInst`] — a single dynamic instruction,
//! * [`MemAccess`] and [`BranchInfo`] — memory and control-flow payloads,
//! * [`TraceSource`] — the interface workload generators implement, together
//!   with the [`trace::VecTrace`] helper used throughout the test suites,
//! * [`etrc`] — the compressed `.etrc` on-disk trace format (writer, reader
//!   and the [`FileTrace`] replay source) and [`wrongpath`] — the seeded
//!   wrong-path synthesizer whose spec the format records for exact replay,
//! * [`SharedStream`] / [`SharedCursor`] — a captured correct-path stream
//!   fanned out read-only to many pipeline instances (batched sweeps).
//!
//! # Example
//!
//! ```
//! use elsq_isa::{DynInst, InstBuilder, ArchReg, RegClass, TraceSource};
//! use elsq_isa::trace::VecTrace;
//!
//! let r1 = ArchReg::int(1);
//! let r2 = ArchReg::int(2);
//! let load = InstBuilder::load(0x1000, 0x8000_0000, 8)
//!     .dst(r1)
//!     .src(r2)
//!     .build();
//! assert!(load.is_load());
//!
//! let mut trace = VecTrace::new(vec![load]);
//! let inst = trace.next_inst().expect("one instruction");
//! assert_eq!(inst.mem.unwrap().addr, 0x8000_0000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod etrc;
pub mod inst;
pub mod op;
pub mod reg;
pub mod shared;
mod tape;
pub mod trace;
pub mod wrongpath;

pub use etrc::FileTrace;
pub use inst::{BranchInfo, DynInst, InstBuilder, MemAccess};
pub use op::{Op, OpClass};
pub use reg::{ArchReg, RegClass, NUM_ARCH_REGS_PER_CLASS};
pub use shared::{SharedCursor, SharedStream};
pub use trace::TraceSource;
pub use wrongpath::{WrongPathSpec, WrongPathSynth};
