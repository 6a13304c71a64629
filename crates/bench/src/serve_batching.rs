//! Dynamic batching vs. per-request steps at equal client counts.
//!
//! The serving question the `dcf-serve` frontend exists to answer: given N
//! closed-loop clients each issuing single-example requests against one
//! shared session, is it better to run N concurrent one-row steps (the PR 4
//! serving mode) or to coalesce them into one batched step per round? Each
//! loop iteration of a dynamic model pays fixed scheduling cost — frame
//! setup, tagged-token bookkeeping, cross-op wakeups — that is independent
//! of the batch dimension, so batching amortizes exactly the overhead the
//! paper attributes to dynamic control flow.
//!
//! Every batched response is checked bit-identical against that client's
//! private baseline run, so the speedup is measured on a correct scatter.
//!
//! Merges its cases into `BENCH_serve.json` (alongside the
//! `concurrent_steps` entries) at the repo root.

use crate::Report;
use dcf_device::DeviceProfile;
use dcf_graph::{Graph, GraphBuilder, WhileOptions};
use dcf_runtime::{Cluster, Session};
use dcf_serve::{BatchPolicy, Batcher, ModelRegistry, ModelSignature, ModelSpec, Request};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One measured serving configuration.
#[derive(Clone, Debug)]
pub struct BatchingCase {
    /// Case name, e.g. `"serve_batched_c8"`.
    pub name: String,
    /// `"batched"`, `"unbatched"`, or `"replicated"`.
    pub mode: &'static str,
    /// Client threads driving the model.
    pub clients: usize,
    /// Serving replicas behind the router (1 for the single-batcher
    /// modes).
    pub replicas: usize,
    /// Requests completed across all clients.
    pub total_requests: usize,
    /// Aggregate throughput, requests per second.
    pub reqs_per_sec: f64,
    /// Median per-request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency, milliseconds.
    pub p99_ms: f64,
    /// Average rows per issued step (1.0 for unbatched).
    pub mean_batch_rows: f64,
}

/// The served model: six while-loop iterations of `y = tanh(y · W)` on
/// `x: [B, 8]`. Row-independent (batch-linear), and dominated by
/// per-iteration control-flow overhead at B this small — the regime where
/// batching pays.
fn served_model() -> (Graph, ModelSignature) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", DType::F32);
    let w = g.constant(TensorRng::new(23).uniform(&[8, 8], -0.5, 0.5));
    let i0 = g.scalar_i64(0);
    let lim = g.scalar_i64(6);
    let outs = g
        .while_loop(
            &[i0, x],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let h = g.matmul(v[1], w)?;
                let h = g.tanh(h)?;
                Ok(vec![g.add(v[0], one)?, h])
            },
            WhileOptions::default(),
        )
        .expect("loop builds");
    let sig = ModelSignature::new().feed("x", DType::F32, &[8]).fetch(outs[1]);
    (g.finish().expect("graph validates"), sig)
}

/// One single-example feed per client, deterministic in the client index.
fn client_feed(client: usize) -> HashMap<String, Tensor> {
    let mut rng = TensorRng::new(0xBA7C + client as u64);
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), rng.uniform(&[1, 8], -1.0, 1.0));
    feeds
}

fn case_from(
    name: String,
    mode: &'static str,
    clients: usize,
    replicas: usize,
    mut ns: Vec<f64>,
    wall: f64,
    mean_batch_rows: f64,
) -> BatchingCase {
    ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    BatchingCase {
        name,
        mode,
        clients,
        replicas,
        total_requests: ns.len(),
        reqs_per_sec: ns.len() as f64 / wall,
        p50_ms: crate::percentile_ms(&ns, 0.50),
        p99_ms: crate::percentile_ms(&ns, 0.99),
        mean_batch_rows,
    }
}

/// N clients, each running its own one-row step on the shared session
/// (concurrent steps, no batching).
fn drive_unbatched(clients: usize, requests_per_client: usize) -> BatchingCase {
    let (graph, sig) = served_model();
    let session = Session::local(graph).expect("session builds");
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(clients * requests_per_client));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let latencies = &latencies;
            let session = &session;
            let fetches = &sig.fetches;
            scope.spawn(move || {
                let feeds = client_feed(client);
                let mut local = Vec::with_capacity(requests_per_client);
                for _ in 0..requests_per_client {
                    let t = Instant::now();
                    session.eval(&feeds, fetches).expect("unbatched step");
                    local.push(t.elapsed().as_nanos() as f64);
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let ns = latencies.into_inner().unwrap();
    case_from(format!("serve_unbatched_c{clients}"), "unbatched", clients, 1, ns, wall, 1.0)
}

/// N clients submitting through one [`Batcher`]; each response is checked
/// bit-identical against the client's private baseline.
fn drive_batched(clients: usize, requests_per_client: usize) -> BatchingCase {
    let (graph, sig) = served_model();
    let session = Arc::new(Session::local(graph).expect("session builds"));
    let baselines: Vec<Tensor> = (0..clients)
        .map(|c| session.eval(&client_feed(c), &sig.fetches).expect("baseline")[0].clone())
        .collect();
    let batcher = Batcher::new(
        "bench",
        session,
        sig,
        BatchPolicy {
            max_batch_size: clients.max(2),
            max_queue_delay: Duration::from_micros(500),
            ..BatchPolicy::default()
        },
    )
    .expect("batcher builds");
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(clients * requests_per_client));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (client, baseline) in baselines.iter().enumerate() {
            let latencies = &latencies;
            let batcher = &batcher;
            scope.spawn(move || {
                let feeds = client_feed(client);
                let mut local = Vec::with_capacity(requests_per_client);
                for _ in 0..requests_per_client {
                    let t = Instant::now();
                    let resp = batcher.run(Request::new(feeds.clone())).expect("batched request");
                    local.push(t.elapsed().as_nanos() as f64);
                    assert!(
                        resp.outputs[0].value_eq(baseline),
                        "batched slice diverged from private baseline"
                    );
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let ns = latencies.into_inner().unwrap();
    let mean_batch_rows = batcher.snapshot().mean_batch_rows;
    case_from(format!("serve_batched_c{clients}"), "batched", clients, 1, ns, wall, mean_batch_rows)
}

/// Max rows per batched step in the replica sweep. Deliberately far below
/// the client count: once a round's queue exceeds one batch, a lone
/// batcher must run the steps back to back, while N replicas run them
/// concurrently — the contrast the sweep measures.
const REPLICA_SWEEP_BATCH: usize = 3;

/// The simulated accelerator the replica sweep serves on. Two properties
/// matter:
///
/// * kernel durations are **slept**, not computed — so N forked-cluster
///   replicas overlap their steps even on a single host core (real host
///   compute stays a tiny [B,8] matmul);
/// * per-kernel cost is **row-proportional** (low modeled FLOP/s and
///   memory bandwidth relative to the model's shapes), so a step's cost
///   tracks the rows it carries. Throughput then measures rows processed
///   per second — the quantity replicas multiply — rather than rewarding
///   whichever configuration happens to pack fuller batches.
///
/// Every modeled duration clears the stream's 100µs spin threshold
/// (launch overhead alone is 150µs), so waiting never burns the core.
fn sweep_accelerator() -> DeviceProfile {
    DeviceProfile {
        name: "sim-accel",
        is_gpu: true,
        flops: 3.2e5,
        mem_bandwidth: 2.0e6,
        copy_bandwidth: 1.0e9,
        launch_overhead: Duration::from_micros(150),
        memory_capacity: 12 << 30,
        shape_scale: 1,
        time_scale: 1.0,
    }
}

/// Spec for the replica sweep: the same loop model on one
/// [`sweep_accelerator`] device per replica (forked clusters).
fn replicated_spec(replicas: usize) -> ModelSpec {
    let (graph, sig) = served_model();
    let mut cluster = Cluster::new();
    cluster.add_device(0, sweep_accelerator());
    let mut spec = ModelSpec::local(graph, sig)
        .with_policy(BatchPolicy {
            max_batch_size: REPLICA_SWEEP_BATCH,
            max_queue_delay: Duration::from_millis(1),
            ..BatchPolicy::default()
        })
        .with_replicas(replicas);
    spec.cluster = cluster;
    spec
}

/// N closed-loop clients against a `ReplicaSet` of `replicas` batching
/// replicas behind one [`dcf_serve::ModelHandle`]; every response is
/// checked bit-identical against the client's private single-replica
/// baseline.
fn drive_replicated(
    clients: usize,
    replicas: usize,
    requests_per_client: usize,
    baselines: &[Tensor],
) -> BatchingCase {
    let registry = ModelRegistry::new();
    let handle = registry.register("bench", replicated_spec(replicas)).expect("spec registers");
    // Instantiate the replica set (and pay the shared compile) before the
    // clock starts.
    handle.serve(Request::new(client_feed(0))).expect("warmup");

    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(clients * requests_per_client));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (client, baseline) in baselines.iter().enumerate().take(clients) {
            let latencies = &latencies;
            let handle = &handle;
            scope.spawn(move || {
                let feeds = client_feed(client);
                let mut local = Vec::with_capacity(requests_per_client);
                for _ in 0..requests_per_client {
                    let t = Instant::now();
                    let resp = handle.serve(Request::new(feeds.clone())).expect("routed request");
                    local.push(t.elapsed().as_nanos() as f64);
                    assert!(
                        resp.outputs[0].value_eq(baseline),
                        "replicated slice diverged from single-replica baseline"
                    );
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let ns = latencies.into_inner().unwrap();
    let mean_batch_rows = handle.metrics().aggregate.mean_batch_rows;
    case_from(
        format!("serve_replicated_c{clients}_r{replicas}"),
        "replicated",
        clients,
        replicas,
        ns,
        wall,
        mean_batch_rows,
    )
}

/// Runs the replica-scaling sweep: for each client count, N closed-loop
/// clients drive the same GPU-profile model behind 1/2/4/8 routed
/// replicas. With `write_json`, merges the cases into `BENCH_serve.json`;
/// the CI smoke gate passes `false` so a short gate run never clobbers
/// the committed full-sweep numbers. Returns the cases alongside the
/// rendered report.
pub fn run_replicated(
    client_counts: &[usize],
    replica_counts: &[usize],
    requests_per_client: usize,
    write_json: bool,
) -> (Report, Vec<BatchingCase>) {
    let mut cases = Vec::new();
    for &clients in client_counts {
        // Per-client reference outputs from a private single-replica
        // session on the same simulated hardware.
        let (graph, sig) = served_model();
        let mut cluster = Cluster::new();
        cluster.add_device(0, sweep_accelerator());
        let reference = Session::new(graph, cluster, dcf_runtime::SessionOptions::functional())
            .expect("reference session builds");
        let baselines: Vec<Tensor> = (0..clients)
            .map(|c| reference.eval(&client_feed(c), &sig.fetches).expect("baseline")[0].clone())
            .collect();
        drop(reference);
        for &replicas in replica_counts {
            cases.push(drive_replicated(clients, replicas, requests_per_client, &baselines));
        }
    }
    if write_json {
        write_cases(&cases);
    }

    let mut report = Report::new(
        "Replica router: closed-loop clients vs 1/2/4/8 batching replicas",
        &["case", "clients", "replicas", "requests", "req/s", "p50", "p99", "rows/step"],
    );
    for c in &cases {
        report.row(vec![
            c.name.clone(),
            c.clients.to_string(),
            c.replicas.to_string(),
            c.total_requests.to_string(),
            format!("{:.0}", c.reqs_per_sec),
            format!("{:.2} ms", c.p50_ms),
            format!("{:.2} ms", c.p99_ms),
            format!("{:.1}", c.mean_batch_rows),
        ]);
    }
    report.note(format!(
        "served model: 6 while-loop iterations of tanh(x·W) on [B,8] on a simulated \
         accelerator with row-proportional slept kernel costs; max_batch_size \
         {REPLICA_SWEEP_BATCH}; {requests_per_client} requests per closed-loop client; \
         p2c-routed ModelHandle; every response checked bit-identical against a \
         single-replica baseline"
    ));
    (report, cases)
}

/// Merges cases into `BENCH_serve.json` at the repo root (by name: a
/// re-run replaces its own entries and leaves everything else).
fn write_cases(cases: &[BatchingCase]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let entries: Vec<(String, String)> = cases
        .iter()
        .map(|c| {
            let obj = format!(
                "{{\"name\": \"{}\", \"mode\": \"{}\", \"clients\": {}, \"replicas\": {}, \
                 \"total_requests\": {}, \"reqs_per_sec\": {:.1}, \"p50_ms\": {}, \
                 \"p99_ms\": {}, \"mean_batch_rows\": {:.2}}}",
                c.name,
                c.mode,
                c.clients,
                c.replicas,
                c.total_requests,
                c.reqs_per_sec,
                crate::json_ms(c.p50_ms),
                crate::json_ms(c.p99_ms),
                c.mean_batch_rows
            );
            (c.name.clone(), obj)
        })
        .collect();
    crate::merge_bench_json(path, &entries);
}

/// Runs the batched-vs-unbatched sweep and returns the report; merges the
/// cases into `BENCH_serve.json` at the repo root.
pub fn run(client_counts: &[usize], requests_per_client: usize) -> Report {
    let mut cases = Vec::new();
    for &clients in client_counts {
        cases.push(drive_unbatched(clients, requests_per_client));
        cases.push(drive_batched(clients, requests_per_client));
    }

    write_cases(&cases);

    let mut report = Report::new(
        "Dynamic batching: coalesced vs per-request steps, one shared session",
        &["case", "clients", "requests", "req/s", "p50", "p99", "rows/step"],
    );
    for c in &cases {
        report.row(vec![
            c.name.clone(),
            c.clients.to_string(),
            c.total_requests.to_string(),
            format!("{:.0}", c.reqs_per_sec),
            format!("{:.2} ms", c.p50_ms),
            format!("{:.2} ms", c.p99_ms),
            format!("{:.1}", c.mean_batch_rows),
        ]);
    }
    report.note(format!(
        "served model: 6 while-loop iterations of tanh(x·W) on [B,8]; \
         {requests_per_client} single-example requests per closed-loop client; \
         every batched response checked bit-identical against a private run"
    ));
    report.note(
        "batched = dcf-serve Batcher (max_batch_size = clients, 500µs linger); \
         unbatched = each client runs its own one-row step concurrently",
    );
    report
}
