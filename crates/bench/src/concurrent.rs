//! Concurrent-steps serving throughput: N client threads on one session.
//!
//! The multi-client serving scenario the cross-step isolation fix enables:
//! every client thread issues `run` calls against one shared `Session`
//! (each computing a while-loop gradient, so stacks and gradient arrays
//! are live per step), and we report aggregate steps/sec plus per-step
//! latency percentiles. Before the fix this workload was simply incorrect
//! — one step's teardown wiped every step's backprop state — so there is
//! no "before" number to compare against; the benchmark tracks how
//! throughput scales with client count and what admission limiting costs.
//!
//! Writes `BENCH_serve.json` at the repo root for tracking across PRs.

use crate::Report;
use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
use dcf_runtime::{Session, SessionOptions};
use dcf_tensor::TensorRng;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// One measured serving configuration.
#[derive(Clone, Debug)]
pub struct ServeCase {
    /// Case name, e.g. `"clients4"`.
    pub name: String,
    /// Client threads driving the session.
    pub clients: usize,
    /// Total steps completed across all clients.
    pub total_steps: usize,
    /// Aggregate throughput, steps per second.
    pub steps_per_sec: f64,
    /// Median per-step latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-step latency, milliseconds.
    pub p99_ms: f64,
}

/// The while-loop gradient workload: 4 iterations of `tanh(x·w)`, loss
/// `sum(out²)`, fetching `d loss / d w`. Loop gradients keep stacks and
/// gradient arrays live for the whole step, so concurrent steps genuinely
/// contend on the resource manager.
fn serving_graph() -> (GraphBuilder, TensorRef) {
    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(11);
    let w = g.variable("w", rng.uniform(&[8, 8], -0.5, 0.5));
    let x = g.constant(rng.uniform(&[4, 8], -1.0, 1.0));
    let i0 = g.scalar_i64(0);
    let lim = g.scalar_i64(4);
    let outs = g
        .while_loop(
            &[i0, x],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let z = g.matmul(v[1], w)?;
                let y = g.tanh(z)?;
                Ok(vec![g.add(v[0], one)?, y])
            },
            WhileOptions::default(),
        )
        .expect("loop builds");
    let sq = g.square(outs[1]).expect("square");
    let loss = g.reduce_sum(sq).expect("loss");
    let grads = dcf_autodiff::gradients(&mut g, loss, &[w]).expect("gradients");
    (g, grads[0])
}

/// Runs `runs_per_client` steps from each of `clients` threads against one
/// shared session and returns the measured case.
fn drive(
    name: &str,
    session: &Session,
    grad: TensorRef,
    clients: usize,
    runs_per_client: usize,
) -> ServeCase {
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(clients * runs_per_client));
    let baseline = session.eval(&HashMap::new(), &[grad]).expect("warmup run").remove(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let latencies = &latencies;
            let baseline = &baseline;
            scope.spawn(move || {
                let mut local = Vec::with_capacity(runs_per_client);
                for _ in 0..runs_per_client {
                    let t = Instant::now();
                    let out = session.eval(&HashMap::new(), &[grad]).expect("serving step");
                    local.push(t.elapsed().as_nanos() as f64);
                    assert!(
                        out[0].allclose(baseline, 0.0),
                        "concurrent step diverged from serial baseline"
                    );
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut ns = latencies.into_inner().unwrap();
    ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let total_steps = clients * runs_per_client;
    ServeCase {
        name: name.to_string(),
        clients,
        total_steps,
        steps_per_sec: total_steps as f64 / wall,
        p50_ms: crate::percentile_ms(&ns, 0.50),
        p99_ms: crate::percentile_ms(&ns, 0.99),
    }
}

/// Runs the client-count sweep (plus an admission-limited case) and
/// returns the report; also writes `BENCH_serve.json` at the repo root.
pub fn run(client_counts: &[usize], runs_per_client: usize) -> Report {
    let mut cases = Vec::new();

    let (g, grad) = serving_graph();
    let sess = Session::local(g.finish().expect("graph validates")).expect("session builds");
    for &clients in client_counts {
        cases.push(drive(&format!("clients{clients}"), &sess, grad, clients, runs_per_client));
    }

    // The same workload with admission capped at 2: queueing shows up in
    // the latency tail, throughput approaches the 2-client figure.
    if let Some(&max_clients) = client_counts.iter().max() {
        if max_clients > 2 {
            let (g, grad) = serving_graph();
            let sess = Session::new(
                g.finish().expect("graph validates"),
                dcf_runtime::Cluster::single_cpu(),
                SessionOptions::functional().with_max_concurrent_steps(2),
            )
            .expect("session builds");
            cases.push(drive(
                &format!("clients{max_clients}_admit2"),
                &sess,
                grad,
                max_clients,
                runs_per_client,
            ));
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let entries: Vec<(String, String)> = cases
        .iter()
        .map(|c| {
            let obj = format!(
                "{{\"name\": \"{}\", \"clients\": {}, \"total_steps\": {}, \
                 \"steps_per_sec\": {:.1}, \"p50_ms\": {}, \"p99_ms\": {}}}",
                c.name,
                c.clients,
                c.total_steps,
                c.steps_per_sec,
                crate::json_ms(c.p50_ms),
                crate::json_ms(c.p99_ms)
            );
            (c.name.clone(), obj)
        })
        .collect();
    crate::merge_bench_json(path, &entries);

    let mut report = Report::new(
        "Concurrent steps: multi-client serving on one session",
        &["case", "clients", "steps", "steps/s", "p50", "p99"],
    );
    for c in &cases {
        report.row(vec![
            c.name.clone(),
            c.clients.to_string(),
            c.total_steps.to_string(),
            format!("{:.0}", c.steps_per_sec),
            format!("{:.2} ms", c.p50_ms),
            format!("{:.2} ms", c.p99_ms),
        ]);
    }
    report.note(format!(
        "each step computes a 4-iteration while-loop gradient (stack-backed \
         backprop state live per step); {runs_per_client} steps per client; \
         every result checked bit-identical against a serial baseline"
    ));
    report.note("admit2 = same workload under max_concurrent_steps = 2 (FIFO admission)");
    report
}
