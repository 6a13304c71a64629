//! Replica scaling on the serving tier.
//!
//! Usage: `cargo run --release -p dcf-bench --bin serve_batching`
//!
//! 32 closed-loop clients against 1 and 4 p2c-routed batching replicas of
//! a simulated-GPU model. Exits nonzero unless the multi-replica
//! configuration beats single-replica throughput — the CI gate on the
//! replica router actually routing.
fn main() {
    let (report, cases) = dcf_bench::serve_batching::run_replicated(&[32], &[1, 4], 6);
    println!("{}", report.render());
    let rate = |replicas: usize| {
        cases.iter().find(|c| c.replicas == replicas).expect("gate case present").reqs_per_sec
    };
    let (single, multi) = (rate(1), rate(4));
    if multi <= single {
        eprintln!(
            "GATE FAIL: 4 replicas at {multi:.0} req/s did not beat 1 replica at \
             {single:.0} req/s on the 32-client workload"
        );
        std::process::exit(1);
    }
    println!(
        "gate ok: 32 clients, 4 replicas {multi:.0} req/s > 1 replica {single:.0} req/s \
         ({:.2}x)",
        multi / single
    );
}
