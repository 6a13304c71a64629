//! Continuous batching vs. stop-the-world re-batching on streaming decode.
//!
//! The streaming question continuous batching exists to answer: N
//! closed-loop clients each decode variable-length sequences through a
//! stateful LSTM step (hidden state lives in per-stream slots on the
//! server). Two ways to share the step across clients:
//!
//! * **continuous** — streams join and retire *between* decode
//!   iterations: the batcher gathers one row per live stream each
//!   iteration, a finishing stream's row is backfilled by a joining one,
//!   and nobody waits for a cohort boundary (the `dcf-serve` streaming
//!   path, driven through `ModelHandle::open_stream`);
//! * **stop-the-world** — the pre-streaming strategy: admit a cohort of
//!   streams, gang-decode them in lockstep for `max(len)` iterations
//!   (finished streams ride along as dead rows), and only then re-batch
//!   the next cohort.
//!
//! Per decode iteration the session pays a fixed dispatch cost that is
//! nearly independent of the batch dimension at these shapes, so
//! steady-state streams/s tracks how few iterations each strategy needs
//! for the same useful rows: continuous does ~`Σ len / occupancy`,
//! stop-the-world does ~`Σ max(cohort len)` plus admission stalls. Both
//! drivers check one stream per run bit-identical against the batch-1
//! reference decode, so the speedup is measured on correct outputs.

use crate::Report;
use dcf_device::DeviceProfile;
use dcf_graph::{Graph, GraphBuilder};
use dcf_ml::{decode_reference_model, decode_step_model};
use dcf_runtime::{Cluster, Session, SessionOptions};
use dcf_serve::{ModelRegistry, ModelSignature, ModelSpec, StreamSpec};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const INPUT: usize = 3;
const HIDDEN: usize = 8;
const OUTPUT: usize = 4;
const WEIGHT_SEED: u64 = 0x5EED;

/// One measured streaming configuration.
#[derive(Clone, Debug)]
pub struct StreamingCase {
    /// Case name, e.g. `"stream_continuous_c8"`.
    pub name: String,
    /// `"continuous"` or `"stop_the_world"`.
    pub mode: &'static str,
    /// Concurrent closed-loop stream clients.
    pub clients: usize,
    /// Streams decoded to completion across all clients.
    pub total_streams: usize,
    /// Total decode rows (sum of stream lengths).
    pub total_rows: usize,
    /// Steady-state throughput, completed streams per second.
    pub streams_per_sec: f64,
    /// Useful decode rows per second.
    pub rows_per_sec: f64,
    /// Batched decode iterations issued (`Session::run` calls).
    pub iterations: u64,
    /// Mean useful rows per iteration (dead cohort rows excluded).
    pub mean_iteration_rows: f64,
}

/// Deterministic variable stream lengths: 3..=20 steps, mean ≈ 11.5.
/// The spread is the point — stop-the-world pays `max(len)` iterations
/// per cohort while continuous batching pays ~`mean(len)`.
fn stream_len(stream: usize) -> usize {
    3 + (stream * 11) % 18
}

fn stream_seq(stream: usize) -> Tensor {
    TensorRng::new(0x57AB + stream as u64).uniform(&[stream_len(stream), INPUT], -1.0, 1.0)
}

fn decode_graph() -> (Graph, dcf_ml::DecodeStepModel) {
    let mut g = GraphBuilder::new();
    let m = decode_step_model(&mut g, INPUT, HIDDEN, OUTPUT, WEIGHT_SEED).expect("decode step");
    (g.finish().expect("graph validates"), m)
}

/// The simulated accelerator both modes decode on. Kernel durations are
/// **slept**, not computed, and the modeled FLOP/s are low relative to
/// the step's shapes, so an iteration's cost is row-proportional — a
/// dead cohort row in the stop-the-world baseline costs real (modeled)
/// accelerator time, which is precisely the waste continuous batching
/// exists to eliminate. Host compute stays a tiny `[B,3]` LSTM step, so
/// the comparison is insensitive to host scheduling noise.
fn streaming_accelerator() -> DeviceProfile {
    DeviceProfile {
        name: "sim-accel",
        is_gpu: true,
        flops: 2.0e6,
        mem_bandwidth: 1.0e9,
        copy_bandwidth: 1.0e9,
        launch_overhead: Duration::from_micros(30),
        memory_capacity: 12 << 30,
        shape_scale: 1,
        time_scale: 1.0,
    }
}

fn accel_cluster() -> Cluster {
    let mut c = Cluster::new();
    c.add_device(0, streaming_accelerator());
    c
}

/// Batch-1 reference outputs for `stream`, from a private same-seeded
/// full-sequence decode.
fn reference_outputs(stream: usize) -> Tensor {
    let steps = stream_len(stream);
    let mut g = GraphBuilder::new();
    let y = decode_reference_model(&mut g, INPUT, HIDDEN, OUTPUT, WEIGHT_SEED, steps)
        .expect("reference decode");
    let sess = Session::local(g.finish().expect("graph validates")).expect("session builds");
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), stream_seq(stream));
    sess.eval(&feeds, &[y]).expect("reference run").remove(0)
}

/// N closed-loop clients over `ModelHandle::open_stream`: each opens a
/// sticky stream, submits its whole sequence, waits, and moves on to the
/// next stream index. Stream 0 is checked bit-identical to its reference.
fn drive_continuous(clients: usize, total_streams: usize) -> StreamingCase {
    let (graph, m) = decode_graph();
    let sig = ModelSignature::new().feed(&m.x_feed, DType::F32, &[INPUT]).fetch(m.y);
    let mut spec = StreamSpec::new(&m.slots_feed)
        .with_max_streams(clients.max(2))
        .with_iteration_rows(clients.max(2))
        .with_iteration_delay(Duration::from_micros(100));
    for (cell, dims) in &m.state_cells {
        spec = spec.with_cell(cell, dims);
    }
    for &w in &m.writes {
        spec = spec.with_state_fetch(w);
    }
    let registry = ModelRegistry::new();
    let mut model = ModelSpec::local(graph, sig).with_stream(spec);
    model.cluster = accel_cluster();
    let handle = registry.register("stream_bench", model).expect("spec registers");
    let want0 = reference_outputs(0);
    let x_feed = m.x_feed.clone();

    // Instantiate the replica and pay the one-time compile before the
    // clock starts: one throwaway stream decodes a short sequence.
    {
        let s = handle.open_stream().expect("warmup stream");
        let mut feeds = HashMap::new();
        feeds.insert(x_feed.clone(), stream_seq(0));
        s.send(feeds).expect("warmup decode");
    }
    let warmup = handle.metrics().aggregate.stream_iterations;

    let next = std::sync::atomic::AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (handle, next, want0, x_feed) = (&handle, &next, &want0, &x_feed);
            scope.spawn(move || loop {
                let stream = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if stream >= total_streams {
                    return;
                }
                let s = handle.open_stream().expect("open stream");
                let mut feeds = HashMap::new();
                feeds.insert(x_feed.clone(), stream_seq(stream));
                let resp = s.send(feeds).expect("stream decode");
                if stream == 0 {
                    assert!(
                        resp.outputs[0].value_eq(want0),
                        "continuous batching diverged from the batch-1 reference"
                    );
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    let a = handle.metrics().aggregate;
    let total_rows: usize = (0..total_streams).map(stream_len).sum();
    StreamingCase {
        name: format!("stream_continuous_c{clients}"),
        mode: "continuous",
        clients,
        total_streams,
        total_rows,
        streams_per_sec: total_streams as f64 / wall,
        rows_per_sec: total_rows as f64 / wall,
        iterations: a.stream_iterations - warmup,
        mean_iteration_rows: a.mean_iteration_rows,
    }
}

/// The baseline: cohorts of up to `clients` streams are admitted together
/// and gang-decoded in lockstep for `max(len)` iterations on one session;
/// finished streams keep occupying their row (their last input is re-fed
/// and the output discarded) until the whole cohort retires.
fn drive_stop_the_world(clients: usize, total_streams: usize) -> StreamingCase {
    let (graph, m) = decode_graph();
    let sess =
        Session::new(graph, accel_cluster(), SessionOptions::functional()).expect("session builds");
    let mut fetches = vec![m.y];
    fetches.extend(m.writes.iter().copied());
    let want0 = reference_outputs(0);

    // Pay the one-time compile before the clock starts: one throwaway
    // single-stream step.
    {
        let resources = sess.resources();
        let id = resources.stream_create();
        for (cell, dims) in &m.state_cells {
            let mut shape = vec![1];
            shape.extend(dims.iter().copied());
            resources
                .stream_init_cell(id, cell, Tensor::zeros(DType::F32, &shape))
                .expect("warmup state init");
        }
        let mut feeds = HashMap::new();
        feeds.insert(m.x_feed.clone(), TensorRng::new(1).uniform(&[1, INPUT], -1.0, 1.0));
        feeds.insert(
            m.slots_feed.clone(),
            Tensor::from_vec_i64(vec![id as i64], &[1]).expect("warmup slots"),
        );
        sess.eval(&feeds, &fetches).expect("warmup step");
        resources.stream_drop(id);
    }

    let mut iterations = 0u64;
    let mut useful_rows = 0u64;
    let t0 = Instant::now();
    let mut admitted = 0usize;
    while admitted < total_streams {
        let cohort: Vec<usize> = (admitted..(admitted + clients).min(total_streams)).collect();
        admitted += cohort.len();
        // Stop-the-world admission: allocate every cohort member's state
        // up front; nothing new joins until the cohort finishes.
        let resources = sess.resources();
        let slots: Vec<u64> = cohort
            .iter()
            .map(|_| {
                let id = resources.stream_create();
                for (cell, dims) in &m.state_cells {
                    let mut shape = vec![1];
                    shape.extend(dims.iter().copied());
                    resources
                        .stream_init_cell(id, cell, Tensor::zeros(DType::F32, &shape))
                        .expect("state init");
                }
                id
            })
            .collect();
        let rows: Vec<Vec<Tensor>> = cohort
            .iter()
            .map(|&s| stream_seq(s).split0(&vec![1; stream_len(s)]).expect("split rows"))
            .collect();
        let max_len = cohort.iter().map(|&s| stream_len(s)).max().expect("nonempty cohort");
        let slots_t =
            Tensor::from_vec_i64(slots.iter().map(|&s| s as i64).collect(), &[slots.len()])
                .expect("slots tensor");
        let mut outputs: Vec<Vec<Tensor>> = vec![Vec::new(); cohort.len()];
        for t in 0..max_len {
            // Finished streams ride along as dead rows — the cost of
            // re-batching only at cohort boundaries.
            let x = Tensor::concat0(
                &rows
                    .iter()
                    .map(|r| r.get(t).unwrap_or_else(|| r.last().expect("nonempty")).clone())
                    .collect::<Vec<_>>(),
            )
            .expect("batch rows");
            let mut feeds = HashMap::new();
            feeds.insert(m.x_feed.clone(), x);
            feeds.insert(m.slots_feed.clone(), slots_t.clone());
            let out = sess.eval(&feeds, &fetches).expect("gang decode step");
            iterations += 1;
            let y_rows = out[0].split0(&vec![1; cohort.len()]).expect("scatter");
            for (i, row) in y_rows.into_iter().enumerate() {
                if t < rows[i].len() {
                    outputs[i].push(row);
                    useful_rows += 1;
                }
            }
        }
        for id in slots {
            resources.stream_drop(id);
        }
        if cohort.contains(&0) {
            let have = Tensor::concat0(&outputs[0]).expect("concat outputs");
            assert!(
                have.value_eq(&want0),
                "stop-the-world baseline diverged from the batch-1 reference"
            );
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    let total_rows: usize = (0..total_streams).map(stream_len).sum();
    StreamingCase {
        name: format!("stream_stw_c{clients}"),
        mode: "stop_the_world",
        clients,
        total_streams,
        total_rows,
        streams_per_sec: total_streams as f64 / wall,
        rows_per_sec: total_rows as f64 / wall,
        iterations,
        mean_iteration_rows: useful_rows as f64 / iterations as f64,
    }
}

/// Runs the continuous-vs-stop-the-world comparison for each client count
/// and returns the cases alongside the rendered report.
pub fn run(client_counts: &[usize], streams_per_client: usize) -> (Report, Vec<StreamingCase>) {
    let mut cases = Vec::new();
    for &clients in client_counts {
        let total = clients * streams_per_client;
        cases.push(drive_stop_the_world(clients, total));
        cases.push(drive_continuous(clients, total));
    }

    let mut report = Report::new(
        "Streaming decode: continuous batching vs stop-the-world re-batching",
        &["case", "clients", "streams", "rows", "streams/s", "rows/s", "iters", "rows/iter"],
    );
    for c in &cases {
        report.row(vec![
            c.name.clone(),
            c.clients.to_string(),
            c.total_streams.to_string(),
            c.total_rows.to_string(),
            format!("{:.1}", c.streams_per_sec),
            format!("{:.0}", c.rows_per_sec),
            c.iterations.to_string(),
            format!("{:.1}", c.mean_iteration_rows),
        ]);
    }
    report.note(format!(
        "decode step: LSTM ({INPUT}->{HIDDEN}->{OUTPUT}) over per-stream state slots, on a \
         simulated accelerator with row-proportional slept kernel costs (dead cohort rows \
         cost modeled time); stream lengths 3..=20 steps (deterministic per index, mean \
         ~11.5); closed-loop clients; continuous = ModelHandle::open_stream through the \
         streaming worker, stop-the-world = gang-decode cohorts of `clients` streams \
         for max(len) lockstep iterations; both modes checked bit-identical against \
         a batch-1 reference decode"
    ));
    (report, cases)
}
