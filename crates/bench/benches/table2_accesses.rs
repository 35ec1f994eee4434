//! `cargo bench` target regenerating Table 2 and the energy report at
//! reduced size.

use elsq_workload::suite::WorkloadClass;

fn main() {
    let start = std::time::Instant::now();
    let params = elsq_bench::bench_params();
    let ctx = elsq_sim::RunCtx::from_env();
    for class in [WorkloadClass::Fp, WorkloadClass::Int] {
        println!(
            "{}",
            elsq_sim::experiments::table2::run(&ctx, class, &params)
        );
        println!(
            "{}",
            elsq_sim::experiments::energy::run(&ctx, class, &params)
        );
    }
    println!("table2_accesses: regenerated in {:.2?}", start.elapsed());
}
