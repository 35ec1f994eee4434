//! `cargo bench` target regenerating Figure 7 at reduced size.

fn main() {
    let start = std::time::Instant::now();
    let table = elsq_sim::experiments::fig7::run(
        &elsq_sim::RunCtx::from_env(),
        &elsq_bench::bench_params(),
    );
    println!("{table}");
    println!("fig7_speedup: regenerated in {:.2?}", start.elapsed());
}
