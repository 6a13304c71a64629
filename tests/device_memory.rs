//! End-to-end tests for device-memory accounting.
//!
//! Device memory is charged one way: every materialized `f32` output of
//! 64 B or more on a GPU-profile device opens its own charge against the
//! device allocator when its kernel is launched, and the charge is released
//! when its last token drops: memory follows the stream, so a later kernel
//! may reuse the buffer at once. These tests pin down the user-visible
//! guarantees:
//!
//! 1. A step whose per-token peak fits the device completes, and every
//!    charge is returned exactly once (no leaks, no over-frees).
//! 2. Concurrent client steps each charge their own tokens: the allocation
//!    count is the per-step count times the number of steps.
//! 3. Kernels on the compute clock cost their modeled time, no less and
//!    not much more, and a step's memory is back when it returns.
//! 4. A buffer is free once the host drops it, however far the compute
//!    clock runs ahead of its last reader.
//! 5. Swap copies hold device memory for their modeled duration.
//! 6. A timed-out GPU step returns at once with its memory back, and the
//!    session stays usable.

use dcf::autodiff::gradients;
use dcf::ml::{static_rnn, LstmCell};
use dcf::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Charges can be returned from executor teardown a beat after `eval`
/// returns; wait for the allocator to drain before asserting on `in_use`.
fn drain(alloc: &dcf::device::TrackingAllocator) {
    for _ in 0..200 {
        if alloc.in_use() == 0 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// A chain of `depth` matmuls off a statically-shaped placeholder. The
/// placeholder root keeps the constant folder away and matmuls are never
/// fused, so every link is a charged compute output.
fn chain_graph(depth: usize) -> (dcf::graph::Graph, Vec<TensorRef>) {
    let mut b = GraphBuilder::new();
    let x = b.placeholder_shaped("x", DType::F32, &[32, 32]);
    let w = b.constant(Tensor::ones(&[32, 32]));
    let mut cur = x;
    let mut fetches = Vec::new();
    for _ in 0..depth {
        cur = b.matmul(cur, w).unwrap();
        fetches.push(cur);
    }
    (b.finish().unwrap(), fetches)
}

fn feed() -> HashMap<String, Tensor> {
    let data: Vec<f32> = (0..32 * 32).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::from_vec_f32(data, &[32, 32]).unwrap());
    feeds
}

/// A statically unrolled LSTM training step (forward, gradients, SGD),
/// built as Figure 14 builds it: 512 modeled hidden units at shape scale
/// 32, sequence length 20, modeled batch 512, on a K40 cut down to 512 MiB.
/// Its per-token peak is under 300 MiB, so the step must fit; a whole-step
/// up-front region reservation of the kind a static memory plan takes
/// would not.
#[test]
fn unrolled_lstm_step_fits_a_device_its_per_token_peak_fits() {
    const SCALE: usize = 32;
    let (seq_len, hidden, batch) = (20, 512 / SCALE, 512 / SCALE);
    let capacity = 512 << 20;
    let profile = DeviceProfile::gpu_k40()
        .with_shape_scale(SCALE)
        .with_time_scale(0.0)
        .with_memory_capacity(capacity);
    let mut cluster = Cluster::new();
    cluster.add_device(0, profile);
    let device = cluster.devices()[0].clone();

    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(23);
    let cell = LstmCell::new(&mut g, "lstm", hidden, hidden, &mut rng);
    let x = g.constant(rng.uniform(&[seq_len, batch, hidden], -1.0, 1.0));
    let h0 = g.constant(Tensor::zeros(DType::F32, &[batch, hidden]));
    let c0 = g.constant(Tensor::zeros(DType::F32, &[batch, hidden]));
    let rnn = static_rnn(&mut g, &cell, x, h0, c0, seq_len).unwrap();
    let sq = g.square(rnn.outputs).unwrap();
    let loss = g.reduce_mean(sq).unwrap();
    let grads = gradients(&mut g, loss, &cell.params()).unwrap();
    let lr = g.scalar_f32(1e-4);
    let mut fetches = vec![loss];
    for (p, grad) in cell.params().into_iter().zip(grads) {
        let scaled = g.mul(grad, lr).unwrap();
        fetches.push(g.assign_sub(p, scaled).unwrap());
    }
    let sess = Session::new(g.finish().unwrap(), cluster, SessionOptions::default()).unwrap();

    let out = sess.eval(&HashMap::new(), &fetches).expect("the step fits the device");
    assert!(out[0].scalar_as_f32().unwrap().is_finite());
    let alloc = device.allocator();
    assert!(alloc.peak() <= capacity, "peak {} B over capacity {capacity} B", alloc.peak());
    assert_eq!(alloc.failed_allocs(), 0);
    drain(alloc);
    assert_eq!(alloc.in_use(), 0, "all charges must be returned");
    assert_eq!(alloc.over_frees(), 0, "accounting must balance");
}

#[test]
fn concurrent_steps_charge_their_own_tokens() {
    let (graph, fetches) = chain_graph(6);
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_time_scale(0.0));
    let sess = Arc::new(Session::new(graph, cluster, SessionOptions::functional()).unwrap());
    let last = *fetches.last().unwrap();

    // Calibrate the deterministic per-step allocation count with one
    // sequential step (synchronous kernels make this stable).
    sess.eval(&feed(), &[last]).unwrap();
    let alloc = sess.cluster().devices()[0].allocator();
    let per_step = alloc.total_allocs();
    assert!(per_step >= 6, "every link of the chain opens a charge, got {per_step}");

    let threads = 4;
    let steps_per_thread = 5;
    let expected = sess.eval(&feed(), &[last]).unwrap();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let sess = Arc::clone(&sess);
            let expected = &expected;
            s.spawn(move || {
                for _ in 0..steps_per_thread {
                    let out = sess.eval(&feed(), &[last]).unwrap();
                    assert!(out[0].value_eq(&expected[0]), "concurrent step diverged");
                }
            });
        }
    });

    let total_steps = 2 + threads * steps_per_thread;
    assert_eq!(
        alloc.total_allocs(),
        per_step * total_steps as u64,
        "each step must charge its own tokens, never share another step's"
    );
    drain(alloc);
    assert_eq!(alloc.in_use(), 0, "all charges must be returned");
    assert_eq!(alloc.over_frees(), 0);
}

/// On a time-scale-1 K40 the host launches a matmul chain ahead of the
/// compute clock, and the step then waits for the clock: never less than
/// the modeled kernel time (no free lunch from running ahead), little more,
/// and every buffer is free the moment `eval` returns. The upper bound is
/// on the median round: the step's last wait is a timed sleep, and a
/// shared machine oversleeps a few-ms sleep by several ms about once in a
/// hundred.
#[test]
fn a_clocked_chain_costs_its_modeled_time_and_returns_its_memory() {
    const DEPTH: usize = 6;
    let (graph, fetches) = chain_graph(DEPTH);
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_shape_scale(32));
    let sess = Session::new(graph, cluster, SessionOptions::default()).unwrap();
    let device = sess.cluster().devices()[0].clone();
    let cm = device.cost_model();
    let modeled = cm.duration(cm.matmul_cost(32, 32, 32)) * DEPTH as u32;
    assert!(modeled >= Duration::from_millis(2), "modeled chain too short: {modeled:?}");
    let last = *fetches.last().unwrap();
    let feeds = feed();
    let mut walls = Vec::new();
    for round in 0..20 {
        let t0 = Instant::now();
        sess.eval(&feeds, &[last]).unwrap();
        let wall = t0.elapsed();
        assert!(wall >= modeled, "round {round}: {wall:?} undercuts the modeled {modeled:?}");
        assert_eq!(device.allocator().in_use(), 0, "round {round}: memory still held");
        walls.push(wall);
    }
    walls.sort();
    let median = walls[walls.len() / 2];
    assert!(
        median <= modeled.mul_f64(1.1) + Duration::from_millis(2),
        "median {median:?} for {modeled:?} of modeled kernels (rounds {walls:?})"
    );
    assert_eq!(device.allocator().over_frees(), 0);
}

/// The host runs a matmul chain ahead of the compute clock and drops each
/// link once the next one is launched. The link is free then, not at the
/// modeled end of the kernel that reads it: stream order puts any reuse
/// after that kernel. So the step peaks at the weight plus two links,
/// however long the chain.
#[test]
fn a_chain_ahead_of_the_clock_holds_two_links_not_the_chain() {
    const DEPTH: usize = 12;
    let link = (32 * 32) * (32 * 32) * 4;
    let (graph, fetches) = chain_graph(DEPTH);
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_shape_scale(32));
    let sess = Session::new(graph, cluster, SessionOptions::default()).unwrap();
    let alloc = sess.cluster().devices()[0].allocator().clone();
    let last = *fetches.last().unwrap();
    let feeds = feed();
    sess.eval(&feeds, &[last]).unwrap();
    alloc.reset();
    sess.eval(&feeds, &[last]).unwrap();
    let peak = alloc.peak();
    assert!(peak <= 3 * link, "peak {peak} B is over the weight plus two links, {} B", 3 * link);
    assert_eq!(alloc.total_allocs(), DEPTH as u64 + 2, "the feed, the weight and each link");
    assert_eq!(alloc.in_use(), 0, "memory still held on return");
    assert_eq!(alloc.over_frees(), 0);
}

/// A swap-out's source buffer stays charged until its D2H copy ends, and
/// a swap-in's destination is charged from the moment the H2D copy is
/// issued: sampled in the middle of each 50 ms modeled copy.
#[test]
fn swap_copies_hold_device_memory_for_their_modeled_duration() {
    const SCALE: usize = 256;
    const DIM: usize = 48;
    let bytes = (DIM * SCALE) * (DIM * SCALE) * 4;
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_shape_scale(SCALE));
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::ones(&[DIM, DIM]));
    let ix = b.scalar_i64(0);
    let stack = b.stack_create(ix, true).unwrap();
    let push = b.stack_push(stack, ix, x).unwrap();
    let pop = b.stack_pop(stack, ix, DType::F32).unwrap();
    b.add_control_input(pop.node, push.node);
    let options = SessionOptions {
        executor: dcf::exec::ExecutorOptions { swap_threshold: 0.0, ..Default::default() },
        ..Default::default()
    };
    let sess = Session::new(b.finish().unwrap(), cluster, options).unwrap();
    let device = sess.cluster().devices()[0].clone();
    let copy = device.cost_model().copy_duration(bytes);
    assert!(copy >= Duration::from_millis(20), "copy too short to sample: {copy:?}");

    let alloc = device.allocator().clone();
    let sampler = std::thread::spawn(move || {
        std::thread::sleep(copy / 2);
        let during_d2h = alloc.in_use();
        std::thread::sleep(copy);
        (during_d2h, alloc.in_use())
    });
    let out = sess.eval(&HashMap::new(), &[pop]).unwrap();
    let (during_d2h, during_h2d) = sampler.join().unwrap();
    assert!(out[0].value_eq(&Tensor::ones(&[DIM, DIM])), "swap round trip changed the value");
    assert_eq!(during_d2h, 2 * bytes, "mid-D2H: the source and the issued swap-in are charged");
    assert_eq!(during_h2d, bytes, "mid-H2D: the swap-in destination is charged");
    assert_eq!(device.allocator().in_use(), 0);
    assert_eq!(device.allocator().over_frees(), 0);
}

/// `while i < n: x = x · w` on a K40 whose matmuls are modeled at ~32 ms.
fn gpu_loop() -> (Session, TensorRef, Tensor, Tensor) {
    let mut b = GraphBuilder::new();
    let n = b.placeholder("n", DType::I64);
    let w_value =
        Tensor::from_vec_f32((0..64).map(|k| (k % 5) as f32 * 0.05).collect(), &[8, 8]).unwrap();
    let w = b.constant(w_value.clone());
    let i0 = b.scalar_i64(0);
    let x0 = b.constant(Tensor::ones(&[8, 8]));
    let outs = b
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], n),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?, g.matmul(v[1], w)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_shape_scale(512));
    let sess = Session::new(b.finish().unwrap(), cluster, SessionOptions::default()).unwrap();
    (sess, outs[1], Tensor::ones(&[8, 8]), w_value)
}

#[test]
fn a_timed_out_gpu_loop_returns_at_once_with_its_memory_back() {
    let (sess, fetch, x0, w) = gpu_loop();
    let device = sess.cluster().devices()[0].clone();
    let long = HashMap::from([("n".to_string(), Tensor::scalar_i64(1_000))]);
    let budget = RunOptions::default().with_timeout(Duration::from_millis(20));
    let t0 = Instant::now();
    let (result, _) = sess.run(&budget, &long, &[fetch]);
    let waited = t0.elapsed();
    assert!(
        matches!(result, Err(dcf::exec::ExecError::DeadlineExceeded { .. })),
        "expected DeadlineExceeded, got {result:?}"
    );
    assert!(waited < Duration::from_millis(50), "abort took {waited:?}");
    assert!(sess.quiescent());
    assert_eq!(device.allocator().in_use(), 0, "the aborted step's memory must be back");

    // The same session then runs a short loop to the right value.
    let short = HashMap::from([("n".to_string(), Tensor::scalar_i64(3))]);
    let out = sess.eval(&short, &[fetch]).unwrap();
    let expected = x0.matmul(&w).unwrap().matmul(&w).unwrap().matmul(&w).unwrap();
    assert!(out[0].value_eq(&expected), "post-abort step diverged");
    assert_eq!(device.allocator().in_use(), 0);
    assert_eq!(device.allocator().over_frees(), 0);
}
