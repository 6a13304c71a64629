//! Runs every experiment and prints EXPERIMENTS.md-ready output.
//!
//! Usage: `cargo run --release -p dcf-bench --bin reproduce [--quick]`
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    eprintln!("[1/8] Figure 11 (distributed loop scaling)...");
    let machines: &[usize] = if quick { &[1, 4, 16] } else { &[1, 2, 4, 8, 16, 32, 64] };
    println!("{}", dcf_bench::fig11::run(machines, if quick { 100 } else { 400 }).render());
    eprintln!("[2/8] Figure 12 (parallel-iterations knob)...");
    let knobs: &[usize] = if quick { &[1, 8, 32] } else { &[1, 2, 4, 8, 16, 32] };
    println!("{}", dcf_bench::fig12::run(knobs, if quick { 32 } else { 128 }).render());
    eprintln!("[3/8] Table 1 (memory swapping)...");
    let lens: &[usize] = &[100, 200, 500, 600, 700, 900, 1000];
    println!("{}", dcf_bench::table1::run(lens, if quick { 0.05 } else { 0.2 }).render());
    eprintln!("[4/8] Figure 13 (stream overlap timeline)...");
    let (r13, art, _) = dcf_bench::fig13::run(if quick { 60 } else { 120 }, 1.0);
    println!("{}", r13.render());
    println!("Stream timeline ('#' = busy):\n```\n{art}```\n");
    eprintln!("[5/8] Figure 14 (dynamic vs static unrolling)...");
    let batches: &[usize] = &[64, 128, 256, 512];
    let (seq, ts) = if quick { (50, 0.2) } else { (200, 0.5) };
    println!("{}", dcf_bench::fig14::run(batches, seq, ts).render());
    eprintln!("[6/8] Figure 15 (model parallelism)...");
    let gpus: &[usize] = if quick { &[1, 4, 8] } else { &[1, 2, 3, 4, 5, 6, 7, 8] };
    let steps: &[usize] = if quick { &[50] } else { &[50, 100, 200] };
    println!("{}", dcf_bench::fig15::run(gpus, steps, 4.0).render());
    eprintln!("[7/8] Section 6.5 (DQN)...");
    let dispatches: &[u64] = if quick { &[500] } else { &[0, 200, 500, 1000, 2000] };
    println!("{}", dcf_bench::sec65::run(dispatches, if quick { 200 } else { 400 }).render());
    eprintln!("[8/8] Abort latency (timed-out runs)...");
    println!("{}", dcf_bench::abort::run(if quick { 3 } else { 5 }).render());
    eprintln!("done.");
}
