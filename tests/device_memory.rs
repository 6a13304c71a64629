//! End-to-end tests for device-memory accounting.
//!
//! Device memory is charged one way: every materialized `f32` output of
//! 64 B or more on a GPU-profile device opens its own charge against the
//! device allocator, and the charge is released with its last token. These
//! tests pin down the user-visible guarantees:
//!
//! 1. A step whose per-token peak fits the device completes, and every
//!    charge is returned exactly once (no leaks, no over-frees).
//! 2. Concurrent client steps each charge their own tokens: the allocation
//!    count is the per-step count times the number of steps.

use dcf::autodiff::gradients;
use dcf::ml::{static_rnn, LstmCell};
use dcf::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

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
