//! `cargo bench` target regenerating Figure 10 at reduced size.

fn main() {
    let start = std::time::Instant::now();
    let table = elsq_sim::experiments::fig10::run(
        &elsq_sim::RunCtx::from_env(),
        &elsq_bench::bench_params(),
    );
    println!("{table}");
    println!("fig10_svw: regenerated in {:.2?}", start.elapsed());
}
