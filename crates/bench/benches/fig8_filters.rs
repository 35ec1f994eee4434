//! `cargo bench` target regenerating Figure 8 (a, b, c) at reduced size.

use elsq_workload::suite::WorkloadClass;

fn main() {
    let start = std::time::Instant::now();
    let params = elsq_bench::bench_params();
    let ctx = elsq_sim::RunCtx::from_env();
    println!(
        "{}",
        elsq_sim::experiments::fig8::run_accuracy(&ctx, &params)
    );
    for class in [WorkloadClass::Fp, WorkloadClass::Int] {
        println!(
            "{}",
            elsq_sim::experiments::fig8::run_cache_sensitivity(&ctx, class, &params)
        );
    }
    println!("fig8_filters: regenerated in {:.2?}", start.elapsed());
}
