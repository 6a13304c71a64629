//! Graph-size effect of in-graph function sharing.
//!
//! Usage: `cargo run --release -p dcf-bench --bin functions`
//!
//! Builds an 8-layer LSTM stack as 8 `Call`s of one shared cell body and
//! fully inlined, and exits nonzero unless the shared-function build
//! compiles strictly fewer nodes than the inlined one — the CI gate that
//! `Call` sites actually share one body instead of being expanded at
//! build time.
fn main() {
    let (report, cases) = dcf_bench::functions::run(&[8]);
    println!("{}", report.render());
    let c = &cases[0];
    if c.call_nodes >= c.inline_nodes {
        eprintln!(
            "GATE FAIL: 8-layer call build at {} nodes did not undercut the inlined build at \
             {} nodes",
            c.call_nodes, c.inline_nodes
        );
        std::process::exit(1);
    }
    println!(
        "gate ok: 8 layers, call build {} nodes < inline {} nodes ({:.2}x smaller)",
        c.call_nodes,
        c.inline_nodes,
        c.inline_nodes as f64 / c.call_nodes as f64
    );
}
