//! Executor stress tests (satellite of the hot-path overhaul).
//!
//! Meant to be run in release mode (`cargo test --release --test
//! stress_executor`); the iteration counts shrink automatically under
//! debug builds so plain `cargo test -q` stays fast. Covers:
//!
//! * nested while loops over randomized iteration counts, run at
//!   `workers` = 1 / 2 / 8, asserting **value-identical** results and an
//!   **identical `ops_executed` count** (a double-scheduled node would
//!   inflate the counter at higher worker counts);
//! * concurrent `Session::run` calls on sessions sharing one
//!   `ResourceManager`, asserting no deadlock and correct values.
//! * who runs an activation: a step's partitions, all driven by the thread
//!   that called `Session::run`, under one deadline.

use dcf_device::{Device, DeviceId, DeviceProfile, NodeStats, StepStatsCollector, TraceLevel};
use dcf_exec::{
    ExecError, ExecGraph, Executor, ExecutorOptions, InMemoryRendezvous, ResourceManager,
};
use dcf_graph::{Graph, GraphBuilder, TensorRef, WhileOptions};
use dcf_runtime::{Cluster, OptLevel, RunOptions, Session, SessionOptions};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(debug_assertions)]
const SEEDS: u64 = 3;
#[cfg(not(debug_assertions))]
const SEEDS: u64 = 12;

#[cfg(debug_assertions)]
const MAX_TRIPS: i64 = 8;
#[cfg(not(debug_assertions))]
const MAX_TRIPS: i64 = 40;

/// A doubly nested loop with randomized trip counts and a varying window:
/// outer runs `outer` trips; each trip spawns a child frame running
/// `inner` trips, each adding `outer_index + 1` into the accumulator.
/// Expected fetch: `inner * outer * (outer + 1) / 2`.
fn nested_graph(outer: i64, inner: i64, parallel: usize) -> (Graph, TensorRef) {
    let mut g = GraphBuilder::new();
    let i0 = g.scalar_i64(0);
    let acc0 = g.scalar_i64(0);
    let olim = g.scalar_i64(outer);
    let ilim = g.scalar_i64(inner);
    let outs = g
        .while_loop(
            &[i0, acc0],
            |g, v| g.less(v[0], olim),
            |g, v| {
                let one = g.scalar_i64(1);
                let next_i = g.add(v[0], one)?;
                let j0 = g.scalar_i64(0);
                let inner_outs = g.while_loop(
                    &[j0, v[1]],
                    |g, w| g.less(w[0], ilim),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        // `next_i` is a loop constant of the inner frame.
                        Ok(vec![g.add(w[0], one)?, g.add(w[1], next_i)?])
                    },
                    WhileOptions { parallel_iterations: parallel, ..Default::default() },
                )?;
                Ok(vec![next_i, inner_outs[1]])
            },
            WhileOptions { parallel_iterations: parallel, ..Default::default() },
        )
        .expect("nested while_loop should build");
    (g.finish().expect("graph should validate"), outs[1])
}

fn executor_for(graph: Graph, workers: usize) -> Executor {
    let eg = ExecGraph::local(Arc::new(graph));
    let device = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
    Executor::new(
        eg,
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions { workers, ..Default::default() },
    )
}

/// Randomized nested loops must produce bit-identical values and identical
/// activation counts regardless of the worker count.
#[test]
fn nested_loops_identical_across_worker_counts() {
    let mut rng = TensorRng::new(0xdcf_57e5);
    for _ in 0..SEEDS {
        let outer = 1 + rng.sample_index(MAX_TRIPS as usize) as i64;
        let inner = 1 + rng.sample_index(MAX_TRIPS as usize) as i64;
        let parallel = 1 + rng.sample_index(32);
        let expected = inner * outer * (outer + 1) / 2;

        let mut reference: Option<(i64, u64)> = None;
        for workers in [1usize, 2, 8] {
            let (graph, fetch) = nested_graph(outer, inner, parallel);
            let exec = executor_for(graph, workers);
            // Several runs per executor: reuse must not corrupt state.
            for _ in 0..3 {
                let out = exec.run(&HashMap::new(), &[fetch]).unwrap_or_else(|e| {
                    panic!("outer={outer} inner={inner} workers={workers}: {e}")
                });
                let got = out.values[0].scalar_as_i64().expect("i64 fetch");
                assert_eq!(
                    got, expected,
                    "outer={outer} inner={inner} parallel={parallel} workers={workers}"
                );
                match reference {
                    None => reference = Some((got, out.ops_executed)),
                    Some((v, ops)) => {
                        assert_eq!(got, v, "value diverged at workers={workers}");
                        assert_eq!(
                            out.ops_executed, ops,
                            "activation count diverged at workers={workers} \
                             (double-schedule or lost op)"
                        );
                    }
                }
            }
        }
    }
}

/// Many sessions sharing one `ResourceManager`, each run concurrently from
/// its own thread several times. Exercises the executor's run setup and
/// teardown under contention; a deadlock here hangs the test.
#[test]
fn concurrent_sessions_share_resources() {
    let resources = ResourceManager::new();
    let rounds = if cfg!(debug_assertions) { 3 } else { 10 };
    let sessions: Vec<(Session, TensorRef, i64)> = (0..4)
        .map(|k| {
            let outer = 3 + k as i64;
            let inner = 4;
            let (graph, fetch) = nested_graph(outer, inner, 8);
            let mut options = SessionOptions::functional();
            options.executor.workers = 4;
            let sess =
                Session::new_shared(graph, Cluster::single_cpu(), options, resources.clone())
                    .expect("session should build");
            (sess, fetch, inner * outer * (outer + 1) / 2)
        })
        .collect();

    std::thread::scope(|scope| {
        for (sess, fetch, expected) in &sessions {
            scope.spawn(move || {
                for _ in 0..rounds {
                    let out = sess
                        .eval(&HashMap::new(), std::slice::from_ref(fetch))
                        .expect("concurrent run should succeed");
                    assert_eq!(out[0].scalar_as_i64().expect("i64 fetch"), *expected);
                }
            });
        }
    });
}

/// The `loop_ctrl` shape: `outer` × `inner` nested loops whose inner body
/// holds a `cond` taken for the first half of the inner trips.
fn loop_cond_graph(outer: i64, inner: i64) -> (Graph, TensorRef) {
    let mut g = GraphBuilder::new();
    let (i0, acc0) = (g.scalar_i64(0), g.scalar_i64(0));
    let (olim, ilim, half) = (g.scalar_i64(outer), g.scalar_i64(inner), g.scalar_i64(inner / 2));
    let (taken, untaken) = (g.scalar_i64(3), g.scalar_i64(5));
    let outs = g
        .while_loop(
            &[i0, acc0],
            |g, v| g.less(v[0], olim),
            |g, v| {
                let j0 = g.scalar_i64(0);
                let inner_outs = g.while_loop(
                    &[j0, v[1]],
                    |g, w| g.less(w[0], ilim),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        let first_half = g.less(w[0], half)?;
                        let acc = g.cond(
                            first_half,
                            |g| Ok(vec![g.add(w[1], taken)?]),
                            |g| Ok(vec![g.add(w[1], untaken)?]),
                        )?;
                        Ok(vec![g.add(w[0], one)?, acc[0]])
                    },
                    WhileOptions::default(),
                )?;
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?, inner_outs[1]])
            },
            WhileOptions::default(),
        )
        .expect("nested while_loop should build");
    (g.finish().expect("graph should validate"), outs[1])
}

/// A CPU-only step is driven by the thread that called `Session::run`:
/// every activation of a nested loop + cond runs on that one thread (no
/// pool worker sees any), a second step from the same thread lands on the
/// same thread, and a step from another thread on that other thread. The
/// activation count is the graph's closed form, so nothing ran twice and
/// nothing was skipped on the way.
#[test]
fn cpu_step_runs_every_activation_on_the_calling_thread() {
    let (outer, inner) = (6, 8);
    let (graph, fetch) = loop_cond_graph(outer, inner);
    // Unoptimized, so the count below is the builder's graph: a live outer
    // trip costs 49 activations plus 24 per inner trip; the outer loop's
    // dead exit wave still spins the inner counter (its constants and `j0`
    // are live), 15 per inner trip; 77 are outside both loops.
    let expected_ops = (outer * (24 * inner + 49) + 15 * inner + 77) as u64;
    let options = SessionOptions::functional().with_optimization(OptLevel::None);
    let sess = Session::new(graph, Cluster::single_cpu(), options).expect("session should build");
    let sess = &sess;

    let traced_step = move || {
        let (out, meta) =
            sess.run(&RunOptions::traced(TraceLevel::Software), &HashMap::new(), &[fetch]);
        let out = out.expect("run should succeed");
        assert_eq!(out[0].scalar_as_i64().expect("i64 fetch"), outer * (inner / 2) * (3 + 5));
        assert_eq!(meta.ops_executed, expected_ops);
        let stats = meta.step_stats.expect("traced run reports stats");
        let nodes = &stats.devices[0].node_stats;
        assert_eq!(nodes.len() as u64, expected_ops, "one record per activation");
        let workers: HashSet<u32> = nodes.iter().map(|n| n.worker).collect();
        assert_eq!(workers.len(), 1, "activations spread over threads: {workers:?}");
        workers.into_iter().next().expect("one worker")
    };
    let here = traced_step();
    assert_eq!(traced_step(), here, "same caller, same thread");
    let elsewhere = std::thread::scope(|scope| scope.spawn(traced_step).join().expect("no panic"));
    assert_ne!(elsewhere, here, "the step must follow its caller, not stick to a pool worker");
}

/// The collector's ordinal for the calling thread: what
/// `NodeStats::worker` reads for an activation run here.
fn calling_thread_worker() -> u32 {
    let probe = StepStatsCollector::new(TraceLevel::Software);
    let dev = probe.register_device("probe");
    probe.record_node(
        dev,
        NodeStats {
            node: "probe".into(),
            frame: String::new(),
            iter: 0,
            worker: 0,
            scheduled_us: 0,
            start_us: 0,
            end_us: 0,
            is_dead: false,
        },
    );
    probe.finish().devices[0].node_stats[0].worker
}

/// A `Recv` whose value is still in flight on the modeled network is
/// completed by its partition's driving thread once the transfer has
/// elapsed — not by a timer thread, not by a pool worker. One thread, the
/// one that called `Session::run`, drives every partition of a step: with
/// a cross-machine hop in every iteration of a two-machine loop, both
/// machines' activations all run on the calling thread.
#[test]
fn in_flight_recv_completes_on_its_partitions_own_thread() {
    let trips = 32;
    let mut g = GraphBuilder::new();
    let zero = g.scalar_i64(0);
    let lim = g.scalar_i64(trips);
    let outs = g
        .while_loop(
            &[zero],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let next = g.with_device("/machine:1/cpu:0", |g| g.add(v[0], one))?;
                Ok(vec![next])
            },
            WhileOptions::default(),
        )
        .expect("loop with a remote body builds");
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::cpu());
    cluster.add_device(1, DeviceProfile::cpu());
    // The default network model: 25 µs a cross-machine hop.
    let sess =
        Session::new(g.finish().expect("graph validates"), cluster, SessionOptions::default())
            .expect("session should build");
    let (out, meta) =
        sess.run(&RunOptions::traced(TraceLevel::Software), &HashMap::new(), &[outs[0]]);
    assert_eq!(out.expect("run should succeed")[0].scalar_as_i64().expect("i64 fetch"), trips);
    let stats = meta.step_stats.expect("traced run reports stats");
    let threads: Vec<HashSet<u32>> =
        stats.devices.iter().map(|d| d.node_stats.iter().map(|n| n.worker).collect()).collect();
    assert_eq!(threads.len(), 2, "one entry per machine");
    let caller = HashSet::from([calling_thread_worker()]);
    for (dev, workers) in threads.iter().enumerate() {
        assert_eq!(workers, &caller, "machine {dev}'s activations left the calling thread");
    }
    assert!(sess.quiescent_step(meta.step));
}

/// One deadline covers every partition of a step, and the thread that
/// drives them all keeps it while it waits out their network hops: a
/// two-machine loop of a million trips, two 25 µs hops each, given 20 ms
/// fails with `DeadlineExceeded` at once, leaves the session quiescent,
/// and the same session then runs a short loop to the right count.
#[test]
fn a_two_machine_step_stops_at_its_deadline() {
    let mut g = GraphBuilder::new();
    let zero = g.scalar_i64(0);
    let lim = g.placeholder("n", DType::I64);
    let outs = g
        .while_loop(
            &[zero],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.with_device("/machine:1/cpu:0", |g| g.add(v[0], one))?])
            },
            WhileOptions::default(),
        )
        .expect("loop with a remote body builds");
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::cpu());
    cluster.add_device(1, DeviceProfile::cpu());
    let sess =
        Session::new(g.finish().expect("graph validates"), cluster, SessionOptions::default())
            .expect("session should build");
    let trips = |n: i64| HashMap::from([("n".to_string(), Tensor::scalar_i64(n))]);

    let budget = RunOptions::default().with_timeout(Duration::from_millis(20));
    let t0 = Instant::now();
    let (out, meta) = sess.run(&budget, &trips(1_000_000), &[outs[0]]);
    let waited = t0.elapsed();
    assert!(
        matches!(out, Err(ExecError::DeadlineExceeded { .. })),
        "expected DeadlineExceeded, got {out:?}"
    );
    assert!(waited < Duration::from_millis(50), "abort took {waited:?}");
    assert!(sess.quiescent(), "the aborted step left network state behind");
    assert!(sess.quiescent_step(meta.step));

    let out = sess.eval(&trips(7), &[outs[0]]).expect("a short step after the abort runs");
    assert_eq!(out[0].scalar_as_i64().expect("i64 fetch"), 7);
    assert!(sess.quiescent());
}

/// Two partitions on one machine exchange a value with no modeled delay:
/// the `Send` fires the second partition's `Recv` callback inside the
/// first partition's activation, after the first partition has little
/// left to do. The completion must reach the peer's activations all the
/// same (the step's driving thread takes it, and it is never dropped with
/// the sender's finished run): the step completes, with the peer's long
/// loop result, and leaves nothing behind.
#[test]
fn peer_activations_left_on_a_finished_partitions_thread_still_run() {
    let trips = if cfg!(debug_assertions) { 200 } else { 2_000 };
    let mut g = GraphBuilder::new();
    // Partition 0: a short loop, long enough for the
    // peer's `Recv` to be registered first, then the send — and nothing
    // after it.
    let zero = g.scalar_i64(0);
    let warm = count_up(&mut g, zero, 50);
    // Partition 1: everything downstream of the received value.
    let fetch = g.with_device("/machine:0/cpu:1", |g| {
        let received = g.identity(warm).expect("identity builds");
        count_up(g, received, 50 + trips)
    });
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::cpu());
    cluster.add_device(0, DeviceProfile::cpu());
    let sess = Session::new(
        g.finish().expect("graph should validate"),
        cluster,
        SessionOptions::functional(),
    )
    .expect("session should build");
    for _ in 0..5 {
        let (out, meta) = sess.run(&RunOptions::default(), &HashMap::new(), &[fetch]);
        let out = out.expect("two-partition step should complete");
        assert_eq!(out[0].scalar_as_i64().expect("i64 fetch"), 50 + trips);
        assert!(sess.quiescent_step(meta.step), "step {} leaked state", meta.step);
    }
    assert!(sess.quiescent());
}

/// Counts `from` up to `to` in a loop on the builder's current device.
fn count_up(g: &mut GraphBuilder, from: TensorRef, to: i64) -> TensorRef {
    let lim = g.scalar_i64(to);
    let outs = g
        .while_loop(
            &[from],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            WhileOptions::default(),
        )
        .expect("counting loop builds");
    outs[0]
}
