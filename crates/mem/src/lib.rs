//! Cache hierarchy and memory latency models for the ELSQ simulator.
//!
//! The paper's default memory subsystem (Table 1) is:
//!
//! * L1 data cache: 32 KB, 4-way, 32-byte lines, 1-cycle latency, 2 ports,
//! * L2 cache: 2 MB, 4-way, 10-cycle latency,
//! * main memory: 400 cycles.
//!
//! This crate provides:
//!
//! * [`cache::SetAssocCache`] — a set-associative cache with LRU replacement
//!   and **line locking** (required by the line-based Epoch Resolution
//!   Table of Section 3.4: lines referenced by low-locality memory
//!   instructions must stay resident until their epoch commits),
//! * [`hierarchy::MemoryHierarchy`] — a two-level hierarchy returning the
//!   access latency and the level that serviced each access, which the
//!   processor models use both for timing and for classifying instructions
//!   as high- or low-locality,
//! * [`ports::PortSchedule`] — cache port arbitration (2 read/write ports by
//!   default), and [`ports::InOrderPort`] for ports whose grants never go
//!   backwards (commit, the in-order Memory Engines).
//!
//! # Example
//!
//! ```
//! use elsq_mem::hierarchy::{MemoryHierarchy, HierarchyConfig, ServiceLevel};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
//! let first = mem.access(0x1_0000, false);
//! assert_eq!(first.level, ServiceLevel::Memory);     // cold miss
//! let second = mem.access(0x1_0000, false);
//! assert_eq!(second.level, ServiceLevel::L1);        // now cached
//! assert!(second.latency < first.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod ports;

pub use cache::{CacheConfig, LockOutcome, SetAssocCache};
pub use hierarchy::{AccessOutcome, HierarchyConfig, MemoryHierarchy, ServiceLevel};
pub use ports::PortSchedule;
