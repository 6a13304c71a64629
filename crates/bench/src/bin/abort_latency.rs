//! Abort latency: how long a timed-out run keeps the runtime busy.
//!
//! `cargo run --release -p dcf-bench --bin abort_latency [samples]`

fn main() {
    let samples = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    let report = dcf_bench::abort::run(samples);
    println!("{}", report.render());
}
