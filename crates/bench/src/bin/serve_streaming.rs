//! Streaming decode throughput: continuous batching vs stop-the-world.
//!
//! Usage: `cargo run --release -p dcf-bench --bin serve_streaming [--quick | --smoke]`
//!
//! N closed-loop clients decode variable-length sequences through the
//! stateful LSTM decode step; the sweep contrasts `dcf-serve`'s
//! continuous batching (streams join/retire between iterations) against
//! gang-decoding stop-the-world cohorts, merging the cases into
//! `BENCH_serve.json` at the repo root.
//!
//! `--smoke` runs one short comparison and exits nonzero unless
//! continuous batching beats stop-the-world steady-state streams/s —
//! the CI gate on between-iteration admission actually paying off.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let smoke = std::env::args().any(|a| a == "--smoke");

    if smoke {
        let (report, cases) = dcf_bench::serve_streaming::run(&[8], 4, false);
        println!("{}", report.render());
        let rate = |mode: &str| {
            cases.iter().find(|c| c.mode == mode).expect("smoke case present").streams_per_sec
        };
        let (stw, cont) = (rate("stop_the_world"), rate("continuous"));
        if cont <= stw {
            eprintln!(
                "SMOKE FAIL: continuous batching at {cont:.1} streams/s did not beat \
                 stop-the-world re-batching at {stw:.1} streams/s on the 8-client workload"
            );
            std::process::exit(1);
        }
        println!(
            "smoke ok: continuous {cont:.1} streams/s > stop-the-world {stw:.1} streams/s \
             ({:.2}x)",
            cont / stw
        );
        return;
    }

    let clients: &[usize] = if quick { &[8] } else { &[4, 8, 16] };
    let streams_per_client = if quick { 4 } else { 8 };
    let (report, _cases) = dcf_bench::serve_streaming::run(clients, streams_per_client, true);
    println!("{}", report.render());
}
