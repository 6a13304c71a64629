//! A private `Session` over a served model's own graph, stepped directly at
//! batch 1 and batch 8: what a batch costs once it has been assembled, with
//! no queue, router or scatter around it. The serve workloads subtract it
//! from what a client sees to find the serving tier's own share.

use crate::layers::{read_compile, read_step};
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::TraceLog;
use dcf::exec::ExecutorOptions;
use dcf::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

pub struct Direct {
    /// Median ms of one untraced step at batch 1 and at batch 8.
    pub b1_ms: f64,
    pub b8_ms: f64,
}

/// Median ms of `runs` steps of `sess`, and the activations one step runs.
fn step_ms(
    sess: &Session,
    options: &RunOptions,
    feeds: &HashMap<String, Tensor>,
    fetches: &[TensorRef],
    runs: usize,
) -> (f64, u64, Instant, RunMetadata) {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let (result, meta) = sess.run(options, feeds, fetches);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        result.expect("direct step");
        last = Some((t0, meta));
    }
    let (started, meta) = last.expect("at least one run");
    (median(&times), meta.ops_executed, started, meta)
}

/// Measures the graph `build` makes, as `ModelSpec::local` would run it
/// (one CPU, `SessionOptions::functional()`). `feeds(sess, rows)` makes one
/// batch of `rows` rows. Fills the `graph.*`, `runtime.*`, `exec.*` and
/// `trace.overhead_ratio` values and records the traced steps into `log`.
pub fn measure(
    build: &dyn Fn(&mut GraphBuilder) -> Vec<TensorRef>,
    feeds: &dyn Fn(&Session, usize) -> HashMap<String, Tensor>,
    log: &mut TraceLog,
    v: &mut Values,
) -> Direct {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let open = |workers: usize| {
        let mut g = GraphBuilder::new();
        let t0 = Instant::now();
        let fetches = build(&mut g);
        let (build_ms, nodes) = (ms(t0), g.graph().len());
        let options = SessionOptions {
            executor: ExecutorOptions { workers, ..Default::default() },
            ..SessionOptions::functional()
        };
        let t0 = Instant::now();
        let sess =
            Session::new(g.finish().expect("graph validates"), Cluster::single_cpu(), options)
                .expect("direct session builds");
        (sess, fetches, build_ms, nodes, ms(t0))
    };

    // The first open compiles; the `workers: 1` twin's hits the cache, which
    // is keyed by graph and cluster and not by executor options.
    let (sess, fetches, build_ms, nodes, cold_ms) = open(ExecutorOptions::default().workers);
    let (twin, _, _, _, cached_ms) = open(1);
    v.insert("graph.build_ms", build_ms);
    v.insert("graph.nodes", nodes as f64);
    v.insert("runtime.session_new_cold_ms", cold_ms);
    v.insert("runtime.session_new_cached_ms", cached_ms);
    read_compile(&sess, &twin, v);

    let plain = RunOptions::default();
    let traced = RunOptions::traced(TraceLevel::Full);
    let (one, eight, eight_twin) = (feeds(&sess, 1), feeds(&sess, 8), feeds(&twin, 8));
    step_ms(&sess, &plain, &eight, &fetches, 20); // warm-up
    let (b1_ms, ..) = step_ms(&sess, &plain, &one, &fetches, 200);
    let (b8_ms, ops, ..) = step_ms(&sess, &plain, &eight, &fetches, 200);
    let (b8_w1_ms, ..) = step_ms(&twin, &plain, &eight_twin, &fetches, 200);
    let (b8_traced_ms, _, started, meta) = step_ms(&sess, &traced, &eight, &fetches, 50);
    v.insert("exec.ops_per_step", ops as f64);
    v.insert("exec.activation_ns", b8_ms * 1e6 / ops as f64);
    v.insert("exec.activation_ns_w1", b8_w1_ms * 1e6 / ops as f64);
    v.insert("exec.handoff_ratio", b8_ms / b8_w1_ms);
    v.insert("trace.overhead_ratio", b8_traced_ms / b8_ms);

    let stats = meta.step_stats.as_ref().expect("a traced run returns step stats");
    log.span("direct Session::run B=8", 0, None, started, started + meta.wall, String::new());
    log.step(started, "direct B=8", stats);
    read_step(stats, meta.wall.as_secs_f64() * 1e6, v);
    let (_, _, started, meta) = step_ms(&sess, &traced, &one, &fetches, 1);
    log.span("direct Session::run B=1", 1, None, started, started + meta.wall, String::new());
    log.step(started, "direct B=1", meta.step_stats.as_ref().expect("traced"));
    Direct { b1_ms, b8_ms }
}
