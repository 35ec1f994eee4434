//! # Epoch-based Load/Store Queue (ELSQ)
//!
//! This crate implements the primary contribution of *"A Two-Level Load/Store
//! Queue Based on Execution Locality"* (ISCA 2008): a load/store queue for
//! kilo-instruction-window processors that partitions in-flight memory
//! operations by **execution locality** rather than by address.
//!
//! ## Structure
//!
//! * `HlLsq`, private to [`elsq::Elsq`] — the small, fast **high-locality**
//!   LSQ attached to the Cache Processor; sized like a conventional LSQ (32
//!   loads / 24 stores by default).
//! * [`epoch::Epoch`] and [`ll::LlLsq`] — the **low-locality** LSQ, banked by
//!   age into *epochs*; each epoch maps one-to-one onto an FMC Memory Engine.
//! * [`ert`] — the **Epoch Resolution Table**, the global-disambiguation
//!   filter, in both the **line-based** variant (bit-vectors attached to L1
//!   lines, requiring line locking) and the **hash-based** (Bloom filter)
//!   variant.
//! * [`sqm::StoreQueueMirror`] — the replica of the low-locality store queues
//!   placed next to the ERT so high-locality loads can forward from
//!   low-locality stores without a network round-trip.
//! * [`disambig`] — the restricted disambiguation models (Restricted SAC /
//!   LAC / SAC+LAC) of Section 3.3.
//! * [`ssbf::StoreSequenceBloomFilter`] and [`svw`] — load re-execution with
//!   Store Vulnerability Windows, the competing approach evaluated in
//!   Sections 3.5 and 5.6.
//! * [`central::CentralLsq`] — conventional CAM-based central LSQs (finite
//!   and idealized unlimited), the baselines of Figure 7.
//! * [`elsq::Elsq`] — the coordinator that ties HL, LL, ERT and SQM together
//!   and is driven by the FMC processor model in `elsq-cpu`.
//!
//! ## Example
//!
//! ```
//! use elsq_core::config::ElsqConfig;
//! use elsq_core::elsq::Elsq;
//! use elsq_core::queue::MemOpKind;
//! use elsq_isa::MemAccess;
//!
//! let mut lsq = Elsq::new(ElsqConfig::default());
//! // A store enters the high-locality queue at decode, computes its address,
//! // and a younger load forwards from it.
//! lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
//! lsq.allocate_hl(MemOpKind::Load, 2).unwrap();
//! lsq.hl_store_address_ready(1, MemAccess::new(0x100, 8), 10);
//! let out = lsq.issue_hl_load(2, MemAccess::new(0x100, 8), 12);
//! assert_eq!(out.forward.map(|f| f.store_seq), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod central;
pub mod config;
pub mod disambig;
pub mod elsq;
pub mod epoch;
pub mod ert;
pub(crate) mod fxhash;
pub(crate) mod hl;
pub mod ll;
pub mod queue;
pub mod sqm;
pub mod ssbf;
pub mod svw;

pub use config::{ElsqConfig, ErtKind, ReexecMode};
pub use disambig::DisambiguationModel;
pub use elsq::Elsq;
pub use ert::EpochMask;
pub use queue::{MemOpKind, QueueFullError};
