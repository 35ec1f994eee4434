//! Quickstart: drive the Epoch-based Load/Store Queue directly, then run a
//! small end-to-end simulation comparing it against a conventional 64-entry
//! ROB processor.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p elsq --example quickstart
//! ```

use elsq_core::config::ElsqConfig;
use elsq_core::elsq::Elsq;
use elsq_core::queue::MemOpKind;
use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_isa::MemAccess;
use elsq_workload::streaming::StreamingFp;

fn main() {
    // ------------------------------------------------------------------
    // 1. The ELSQ as a library: allocate, migrate, forward.
    // ------------------------------------------------------------------
    let mut lsq = Elsq::new(ElsqConfig::default());

    // A store enters the high-locality LSQ at decode and resolves its address.
    lsq.allocate_hl(MemOpKind::Store, 1)
        .expect("HL-SQ has room");
    lsq.hl_store_address_ready(1, MemAccess::new(0x1000, 8), 10);

    // An L2 miss opens an epoch and the store migrates to the low-locality
    // LSQ (one epoch per FMC Memory Engine).
    let _bank = lsq.open_epoch(1).expect("a free epoch bank");
    lsq.migrate_to_ll(MemOpKind::Store, 1, None)
        .expect("migration succeeds");

    // A younger high-locality load to the same address forwards from the
    // migrated store through the Epoch Resolution Table + Store Queue Mirror,
    // without a network round-trip.
    lsq.allocate_hl(MemOpKind::Load, 2).expect("HL-LQ has room");
    let outcome = lsq.issue_hl_load(2, MemAccess::new(0x1000, 8), 25);
    println!(
        "forwarded from {:?} (+{} cycles)",
        outcome.forward, outcome.extra_latency
    );
    println!("ELSQ counters after the exchange: {:#?}\n", lsq.counters());

    // ------------------------------------------------------------------
    // 2. End-to-end: OoO-64 vs FMC + ELSQ on a streaming FP workload.
    // ------------------------------------------------------------------
    let commits = 40_000;
    let mut baseline_workload = StreamingFp::swim_like(7);
    let baseline = Processor::new(CpuConfig::ooo64()).run(&mut baseline_workload, commits);
    let mut elsq_workload = StreamingFp::swim_like(7);
    let elsq = Processor::new(CpuConfig::fmc_hash(true)).run(&mut elsq_workload, commits);

    println!("OoO-64 (conventional LSQ) : IPC {:.3}", baseline.ipc());
    println!("FMC + ELSQ (hash ERT+SQM) : IPC {:.3}", elsq.ipc());
    println!(
        "speed-up                  : {:.2}x",
        elsq.ipc() / baseline.ipc()
    );
    println!(
        "epochs allocated {} | ERT lookups {} | local forwards {} | remote forwards {}",
        elsq.sim.epochs_allocated,
        elsq.lsq.ert_lookups,
        elsq.lsq.local_forwards,
        elsq.lsq.global_forwards
    );
}
