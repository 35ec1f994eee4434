//! The `elsq-lab` command line for the ELSQ reproduction.
//!
//! * `src/bin/elsq_lab.rs` — the single `elsq-lab` binary. It lists and
//!   runs registered experiments by id (`cargo run --release -p elsq-bench
//!   --bin elsq-lab -- run --all --quick`), replacing the former ten
//!   one-shot figure binaries.
//! * [`cli`] — argument parsing and execution behind the binary, exposed as
//!   plain functions so the unit tests drive the full pipeline in-process.
//!
//! Simulator speed is measured by the repository benchmark in `perfbench/`
//! (see `perfbench/README.md`), which drives these same functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod diff;
pub mod trace;
