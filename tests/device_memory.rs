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
//! 5. Swap copies hold device memory for their modeled duration, a pop
//!    made while its value's swap-out still runs takes that buffer back,
//!    and a run waiting for memory its own swap-out holds goes on at the
//!    copy's end.
//! 6. A timed-out GPU step returns at once with its memory back, swap
//!    copies in flight or not, and the session stays usable.
//! 7. A value sent to another device is charged on the sender until it
//!    arrives and on the receiver from then on, so a memory wait on the
//!    sender never waits for the receiver's consumers.

use dcf::autodiff::gradients;
use dcf::exec::ExecutorOptions;
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

/// Session options under which every eligible stack push swaps out.
fn swap_always() -> SessionOptions {
    SessionOptions {
        executor: ExecutorOptions { swap_threshold: 0.0, ..Default::default() },
        ..Default::default()
    }
}

/// A swap-out's source buffer stays charged until its D2H copy ends, and
/// a swap-in's destination is charged from the moment the H2D copy is
/// issued: sampled in the middle of each 50 ms modeled copy. The pop waits
/// on a chain of four ~18 ms matmuls, so it is issued after the D2H copy
/// has ended and must copy the value back in.
#[test]
fn swap_copies_hold_device_memory_for_their_modeled_duration() {
    const SCALE: usize = 256;
    const DIM: usize = 48;
    const LINKS: usize = 4;
    let bytes = (DIM * SCALE) * (DIM * SCALE) * 4;
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_shape_scale(SCALE));
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::ones(&[DIM, DIM]));
    let ix = b.scalar_i64(0);
    let stack = b.stack_create(ix, true).unwrap();
    let push = b.stack_push(stack, ix, x).unwrap();
    // A placeholder root keeps the constant folder off the chain.
    let mut link = b.placeholder_shaped("row", DType::F32, &[1, DIM]);
    for _ in 0..LINKS {
        link = b.matmul(link, x).unwrap();
    }
    let pop = b.stack_pop(stack, ix, DType::F32).unwrap();
    b.add_control_input(pop.node, push.node);
    b.add_control_input(pop.node, link.node);
    let sess = Session::new(b.finish().unwrap(), cluster, swap_always()).unwrap();
    let device = sess.cluster().devices()[0].clone();
    let cm = device.cost_model();
    let copy = cm.copy_duration(bytes);
    let chain = cm.duration(cm.matmul_cost(1, DIM, DIM)) * LINKS as u32;
    assert!(copy >= Duration::from_millis(20), "copy too short to sample: {copy:?}");
    assert!(chain >= copy + Duration::from_millis(10), "the pop must follow the D2H copy");

    let alloc = device.allocator().clone();
    let sampler = std::thread::spawn(move || {
        std::thread::sleep(copy / 2);
        let during_d2h = alloc.in_use();
        std::thread::sleep(chain);
        (during_d2h, alloc.in_use())
    });
    let feeds = HashMap::from([("row".to_string(), Tensor::ones(&[1, DIM]))]);
    let out = sess.eval(&feeds, &[pop]).unwrap();
    let (during_d2h, during_h2d) = sampler.join().unwrap();
    assert!(out[0].value_eq(&Tensor::ones(&[DIM, DIM])), "swap round trip changed the value");
    assert_eq!(during_d2h, bytes, "mid-D2H: the source is charged");
    assert_eq!(during_h2d, bytes, "mid-H2D: the swap-in destination is charged");
    assert_eq!(device.allocator().in_use(), 0);
    assert_eq!(device.allocator().over_frees(), 0);
}

/// A pop issued while its value's D2H copy is still running takes the
/// source buffer back: the copy only reads it, so it is still on the
/// device. No H2D copy runs and no second buffer is charged.
#[test]
fn a_pop_during_its_swap_out_takes_the_device_buffer_back() {
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
    let sess = Session::new(b.finish().unwrap(), cluster, swap_always()).unwrap();
    let device = sess.cluster().devices()[0].clone();
    let copy = device.cost_model().copy_duration(bytes);
    assert!(copy >= Duration::from_millis(20), "copy too short to sample: {copy:?}");

    let alloc = device.allocator().clone();
    let sampler = std::thread::spawn(move || {
        std::thread::sleep(copy / 2);
        alloc.in_use()
    });
    let (result, meta) = sess.run(&RunOptions::traced(TraceLevel::Full), &HashMap::new(), &[pop]);
    let out = result.unwrap();
    let during_d2h = sampler.join().unwrap();
    let kernels = &meta.step_stats.expect("trace requested").devices[0].kernel_stats;
    let on = |track: &str| kernels.iter().filter(|k| k.stream.ends_with(track)).count();
    assert_eq!(on("/d2h"), 1, "the push swaps out");
    assert_eq!(on("/h2d"), 0, "the pop copies nothing back in");
    assert_eq!(during_d2h, bytes, "mid-D2H: the one buffer is charged, not a second");
    assert!(out[0].value_eq(&Tensor::ones(&[DIM, DIM])), "the reclaimed value changed");
    assert_eq!(device.allocator().in_use(), 0);
    assert_eq!(device.allocator().over_frees(), 0);
}

/// A device with room for one and a half 48×48 buffers at shape scale 256
/// pushes one to a swapping stack, then computes another after the push.
/// The second must wait for the first's D2H copy to end, and only this
/// run's thread releases the copy's source: its memory wait must do so at
/// the copy's end rather than sit out `oom_patience` (2 s).
#[test]
fn a_memory_wait_ends_when_its_own_swap_out_ends() {
    const SCALE: usize = 256;
    const DIM: usize = 48;
    let bytes = (DIM * SCALE) * (DIM * SCALE) * 4;
    let mut cluster = Cluster::new();
    cluster.add_device(
        0,
        DeviceProfile::gpu_k40().with_shape_scale(SCALE).with_memory_capacity(3 * bytes / 2),
    );
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::ones(&[DIM, DIM]));
    let ix = b.scalar_i64(0);
    let stack = b.stack_create(ix, true).unwrap();
    let push = b.stack_push(stack, ix, x).unwrap();
    let col = b.constant(Tensor::ones(&[DIM, 1]));
    let row = b.constant(Tensor::ones(&[1, DIM]));
    let y = b.matmul(col, row).unwrap();
    b.add_control_input(y.node, push.node);
    let sess = Session::new(b.finish().unwrap(), cluster, swap_always()).unwrap();
    let device = sess.cluster().devices()[0].clone();
    let copy = device.cost_model().copy_duration(bytes);

    let t0 = Instant::now();
    let out = sess.eval(&HashMap::new(), &[y]).unwrap();
    let wall = t0.elapsed();
    assert!(out[0].value_eq(&Tensor::ones(&[DIM, DIM])), "wrong product");
    assert!(wall >= copy, "{wall:?} undercuts the {copy:?} swap-out it waited for");
    assert!(
        wall < copy + Duration::from_millis(500),
        "{wall:?}: the memory wait outlived the {copy:?} swap-out"
    );
    let alloc = device.allocator();
    assert_eq!(alloc.in_use(), 0);
    assert_eq!(alloc.failed_allocs(), 0, "a retried allocation is not a failed one");
    assert_eq!(alloc.over_frees(), 0);
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

/// The loop of [`gpu_loop`] with `swap_memory`, fetching the gradient of
/// its result with respect to `w`, at shape scale 1536: every forward
/// iteration pushes its `x` (576 MiB modeled), and the push of `x0` starts
/// at once a ~50 ms modeled D2H copy. When the 20 ms budget runs out, that
/// copy is still in flight on the D2H clock, and the memory it reads must
/// be back all the same.
#[test]
fn a_timed_out_swapping_loop_returns_at_once_with_its_memory_back() {
    let mut b = GraphBuilder::new();
    let n = b.placeholder("n", DType::I64);
    let w = b.constant(
        Tensor::from_vec_f32((0..64).map(|k| (k % 5) as f32 * 0.05).collect(), &[8, 8]).unwrap(),
    );
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
            WhileOptions { swap_memory: true, parallel_iterations: 4, name: None },
        )
        .unwrap();
    let loss = b.reduce_sum(outs[1]).unwrap();
    let grad = gradients(&mut b, loss, &[w]).unwrap()[0];
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_shape_scale(1536));
    let sess = Session::new(b.finish().unwrap(), cluster, swap_always()).unwrap();
    let device = sess.cluster().devices()[0].clone();

    let long = HashMap::from([("n".to_string(), Tensor::scalar_i64(1_000))]);
    let traced = RunOptions::traced(TraceLevel::Full).with_timeout(Duration::from_millis(20));
    let t0 = Instant::now();
    let (result, meta) = sess.run(&traced, &long, &[grad]);
    let waited = t0.elapsed();
    assert!(
        matches!(result, Err(dcf::exec::ExecError::DeadlineExceeded { .. })),
        "expected DeadlineExceeded, got {result:?}"
    );
    assert!(waited < Duration::from_millis(50), "abort took {waited:?}");
    let stats = meta.step_stats.expect("trace requested");
    let copy_end = stats.devices[0]
        .kernel_stats
        .iter()
        .filter(|k| k.stream.ends_with("/d2h"))
        .map(|k| k.end_us)
        .max()
        .expect("the loop swapped out");
    assert!(
        Duration::from_micros(copy_end) > waited,
        "no copy was in flight at return ({copy_end} us, returned after {waited:?})"
    );
    assert!(sess.quiescent());
    assert_eq!(device.allocator().in_use(), 0, "the aborted step's memory must be back");
    assert_eq!(device.allocator().over_frees(), 0);
}

/// Two K40s on two machines with no modeled time: the network arrival of
/// a sent value is its send.
fn two_gpus(capacity: usize) -> Cluster {
    let gpu = || DeviceProfile::gpu_k40().with_time_scale(0.0);
    let mut cluster = Cluster::new();
    cluster.add_device(0, gpu().with_memory_capacity(capacity));
    cluster.add_device(1, gpu());
    cluster
}

/// A fed `[16, 16]` value (1 KiB charged on a GPU).
fn fed_a() -> HashMap<String, Tensor> {
    let data: Vec<f32> = (0..256).map(|i| (i % 9) as f32 * 0.125 - 0.5).collect();
    HashMap::from([("a".to_string(), Tensor::from_vec_f32(data, &[16, 16]).unwrap())])
}

/// `t = tanh(a)` on machine 0 is consumed by `reduce_sum` on machine 1,
/// and `u = a * reduce_sum(a)` on machine 0 needs a third kibibyte on a
/// device with two and a half. One thread drives both machines, so if the
/// sent `t` stayed charged on machine 0 until machine 1's consumer dropped
/// it, `u`'s memory wait would block the only thread that can run machine
/// 1's `Recv`, and the step would fail with `OutOfMemory` after
/// `oom_patience`. A transfer reads its source only until it arrives.
#[test]
fn a_memory_wait_is_not_stranded_by_a_peer_partitions_recv() {
    let mut b = GraphBuilder::new();
    let (a, u) = b.with_device("/machine:0/gpu:0", |b| {
        let a = b.placeholder_shaped("a", DType::F32, &[16, 16]);
        let sum_a = b.reduce_sum(a).unwrap();
        (a, b.mul(a, sum_a).unwrap())
    });
    let t = b.with_device("/machine:0/gpu:0", |b| b.tanh(a).unwrap());
    let sum_t = b.with_device("/machine:1/gpu:0", |b| b.reduce_sum(t).unwrap());
    let options = SessionOptions::functional().with_executor(ExecutorOptions {
        oom_patience: Duration::from_millis(500),
        ..Default::default()
    });
    let sess = Session::new(b.finish().unwrap(), two_gpus(2560), options).unwrap();
    let feeds = fed_a();
    let a_value = &feeds["a"];

    let t0 = Instant::now();
    let out = sess.eval(&feeds, &[sum_t, u]).expect("the step fits both devices");
    let wall = t0.elapsed();
    let expected_sum = a_value.tanh().unwrap().reduce_sum_all().unwrap();
    let expected_u = a_value.mul(&a_value.reduce_sum_all().unwrap()).unwrap();
    assert!(out[0].value_eq(&expected_sum), "wrong sum of tanh(a)");
    assert!(out[1].value_eq(&expected_u), "wrong a * sum(a)");
    assert!(wall < Duration::from_millis(250), "{wall:?}: the memory wait sat out its patience");
    for dev in sess.cluster().devices() {
        let alloc = dev.allocator();
        assert_eq!(alloc.failed_allocs(), 0, "{}", dev.name());
        assert_eq!(alloc.in_use(), 0, "{}", dev.name());
        assert_eq!(alloc.over_frees(), 0, "{}", dev.name());
    }
    assert!(sess.cluster().devices()[0].allocator().peak() <= 2560);
}

/// A value that crosses from one GPU to another is charged on the
/// receiving GPU once it arrives: machine 1 holds nothing but the received
/// `[16, 16]` tensor (its sum is a scalar, which is not charged), so its
/// allocator sees exactly one charge of that tensor's 1 KiB.
#[test]
fn a_received_value_is_charged_on_the_receiving_gpu() {
    let mut b = GraphBuilder::new();
    let t = b.with_device("/machine:0/gpu:0", |b| {
        let a = b.placeholder_shaped("a", DType::F32, &[16, 16]);
        b.tanh(a).unwrap()
    });
    let sum_t = b.with_device("/machine:1/gpu:0", |b| b.reduce_sum(t).unwrap());
    let sess = Session::new(b.finish().unwrap(), two_gpus(12 << 30), SessionOptions::functional())
        .unwrap();
    sess.eval(&fed_a(), &[sum_t]).unwrap();
    let (sender, receiver) =
        (sess.cluster().devices()[0].allocator(), sess.cluster().devices()[1].allocator());
    assert_eq!((receiver.total_allocs(), receiver.peak()), (1, 16 * 16 * 4));
    assert_eq!((sender.total_allocs(), sender.peak()), (2, 2 * 16 * 16 * 4));
    for alloc in [sender, receiver] {
        assert_eq!(alloc.in_use(), 0);
        assert_eq!(alloc.over_frees(), 0);
    }
}
