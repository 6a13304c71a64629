//! Streaming decode throughput: continuous batching vs stop-the-world.
//!
//! Usage: `cargo run --release -p dcf-bench --bin serve_streaming`
//!
//! 8 closed-loop clients decode variable-length sequences through the
//! stateful LSTM decode step, once with `dcf-serve`'s continuous batching
//! (streams join/retire between iterations) and once gang-decoding
//! stop-the-world cohorts. Exits nonzero unless continuous batching beats
//! stop-the-world steady-state streams/s — the CI gate on
//! between-iteration admission actually paying off.
fn main() {
    let (report, cases) = dcf_bench::serve_streaming::run(&[8], 4);
    println!("{}", report.render());
    let rate = |mode: &str| {
        cases.iter().find(|c| c.mode == mode).expect("gate case present").streams_per_sec
    };
    let (stw, cont) = (rate("stop_the_world"), rate("continuous"));
    if cont <= stw {
        eprintln!(
            "GATE FAIL: continuous batching at {cont:.1} streams/s did not beat \
             stop-the-world re-batching at {stw:.1} streams/s on the 8-client workload"
        );
        std::process::exit(1);
    }
    println!(
        "gate ok: continuous {cont:.1} streams/s > stop-the-world {stw:.1} streams/s ({:.2}x)",
        cont / stw
    );
}
