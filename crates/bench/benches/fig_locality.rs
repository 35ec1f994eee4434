//! `cargo bench` target regenerating the Figure 1 summary at reduced size.

fn main() {
    let start = std::time::Instant::now();
    let table = elsq_sim::experiments::fig1::run(
        &elsq_sim::RunCtx::from_env(),
        &elsq_bench::bench_params(),
    );
    println!("{table}");
    println!("fig_locality: regenerated in {:.2?}", start.elapsed());
}
