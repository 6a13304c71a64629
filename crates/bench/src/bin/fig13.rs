//! Reproduces Figure 13. Usage: `cargo run --release -p dcf-bench --bin fig13`
fn main() {
    let (report, art, _) = dcf_bench::fig13::run(120, 1.0);
    println!("{}", report.render());
    println!("Stream timeline ('#' = busy):\n{art}");
}
