//! Cross-crate integration tests: end-to-end scenarios spanning graph
//! construction, autodiff, partitioning, and the session runtime.

use dcf::ml::{dynamic_rnn, static_rnn, LstmCell};
use dcf::prelude::*;
use std::collections::HashMap;

#[test]
fn lstm_training_reduces_loss_end_to_end() {
    let (seq, batch, input, hidden) = (6usize, 2usize, 3usize, 4usize);
    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(77);
    let cell = LstmCell::new(&mut g, "lstm", input, hidden, &mut rng);
    let w_out = g.variable("w_out", rng.uniform(&[hidden, 1], -0.5, 0.5));
    let x = g.constant(rng.uniform(&[seq, batch, input], -1.0, 1.0));
    let h0 = g.constant(Tensor::zeros(DType::F32, &[batch, hidden]));
    let c0 = g.constant(Tensor::zeros(DType::F32, &[batch, hidden]));
    let rnn = dynamic_rnn(&mut g, &cell, x, h0, c0, WhileOptions::default()).unwrap();
    let pred = g.matmul(rnn.h, w_out).unwrap();
    let target = g.constant(Tensor::ones(&[batch, 1]));
    let diff = g.sub(pred, target).unwrap();
    let sq = g.square(diff).unwrap();
    let loss = g.reduce_mean(sq).unwrap();
    let mut params = cell.params();
    params.push(w_out);
    let updates = dcf::ml::sgd_step(&mut g, loss, &params, 0.1).unwrap();

    let sess = Session::local(g.finish().unwrap()).unwrap();
    let mut fetches = vec![loss];
    fetches.extend(&updates);
    let mut first = None;
    let mut last = 0.0;
    for _ in 0..30 {
        let out = sess.eval(&HashMap::new(), &fetches).unwrap();
        last = out[0].scalar_as_f32().unwrap();
        if first.is_none() {
            first = Some(last);
        }
    }
    let first = first.unwrap();
    assert!(last < first * 0.5, "loss did not halve: {first} -> {last}");
}

#[test]
fn distributed_training_step_matches_local() {
    // The same LSTM training step computed locally and with the loop body
    // partitioned onto a second machine must produce identical parameter
    // updates.
    let build = |remote: bool| {
        let mut g = GraphBuilder::new();
        let mut rng = TensorRng::new(5);
        let w = g.variable("w", rng.uniform(&[4, 4], -0.5, 0.5));
        let x = g.constant(rng.uniform(&[2, 4], -1.0, 1.0));
        let i0 = g.scalar_i64(0);
        let lim = g.scalar_i64(4);
        let outs = g
            .while_loop(
                &[i0, x],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    let y = if remote {
                        g.with_device("/machine:1/cpu:0", |g| {
                            let z = g.matmul(v[1], w)?;
                            g.tanh(z)
                        })?
                    } else {
                        let z = g.matmul(v[1], w)?;
                        g.tanh(z)?
                    };
                    let y = g.with_device("/machine:0/cpu:0", |g| g.identity(y))?;
                    Ok(vec![g.add(v[0], one)?, y])
                },
                WhileOptions::default(),
            )
            .unwrap();
        let sq = g.square(outs[1]).unwrap();
        let loss = g.reduce_sum(sq).unwrap();
        let grads = dcf::autodiff::gradients(&mut g, loss, &[w]).unwrap();
        (g, grads[0])
    };
    let mut results = Vec::new();
    for remote in [false, true] {
        let (g, grad) = build(remote);
        let mut cluster = Cluster::new();
        cluster.add_device(0, DeviceProfile::cpu());
        cluster.add_device(1, DeviceProfile::cpu());
        let sess =
            Session::new(g.finish().unwrap(), cluster, SessionOptions::functional()).unwrap();
        results.push(sess.eval(&HashMap::new(), &[grad]).unwrap().remove(0));
    }
    assert!(results[0].allclose(&results[1], 1e-5), "distributed gradient differs from local");
}

#[test]
fn dynamic_rnn_gradients_match_static_unrolling() {
    let (seq, batch, input, hidden) = (5usize, 2usize, 3usize, 4usize);
    let grad_of = |dynamic: bool| -> Tensor {
        let mut g = GraphBuilder::new();
        let mut rng = TensorRng::new(19);
        let cell = LstmCell::new(&mut g, "lstm", input, hidden, &mut rng);
        let x = g.constant(rng.uniform(&[seq, batch, input], -1.0, 1.0));
        let h0 = g.constant(Tensor::zeros(DType::F32, &[batch, hidden]));
        let c0 = g.constant(Tensor::zeros(DType::F32, &[batch, hidden]));
        let rnn = if dynamic {
            dynamic_rnn(&mut g, &cell, x, h0, c0, WhileOptions::default()).unwrap()
        } else {
            static_rnn(&mut g, &cell, x, h0, c0, seq).unwrap()
        };
        let sq = g.square(rnn.outputs).unwrap();
        let loss = g.reduce_sum(sq).unwrap();
        let grads = dcf::autodiff::gradients(&mut g, loss, &[cell.w]).unwrap();
        let sess = Session::local(g.finish().unwrap()).unwrap();
        sess.eval(&HashMap::new(), &[grads[0]]).unwrap().remove(0)
    };
    let dynamic = grad_of(true);
    let fixed = grad_of(false);
    assert!(dynamic.allclose(&fixed, 1e-3), "loop gradient must equal unrolled gradient");
}

#[test]
fn session_runs_are_repeatable_and_isolated() {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", DType::F32);
    let i0 = g.scalar_i64(0);
    let lim = g.scalar_i64(8);
    let outs = g
        .while_loop(
            &[i0, x],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let half = g.scalar_f32(0.5);
                let next = g.mul(v[1], half)?;
                Ok(vec![g.add(v[0], one)?, next])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let sess = Session::local(g.finish().unwrap()).unwrap();
    for i in 0..5 {
        let mut feeds = HashMap::new();
        feeds.insert("x".to_string(), Tensor::scalar_f32(256.0 + i as f32));
        let out = sess.eval(&feeds, &[outs[1]]).unwrap();
        let expect = (256.0 + i as f32) / 256.0;
        assert!((out[0].scalar_as_f32().unwrap() - expect).abs() < 1e-5);
    }
}

#[test]
fn memory_swapping_preserves_values() {
    // Swap on/off must be value-identical; only memory behavior differs.
    // With modeled time on, a pop completes at its swap-in's modeled end,
    // or at once when its swap-out is still reading the device buffer and
    // it takes that buffer back; neither may change a value. Returns the
    // gradient and the step's D2H and H2D copy counts.
    let run_with = |swap: bool, time_scale: f64, shape_scale: usize| -> (Tensor, usize, usize) {
        let mut g = GraphBuilder::new();
        let mut rng = TensorRng::new(3);
        let cell = LstmCell::new(&mut g, "lstm", 4, 4, &mut rng);
        let x = g.constant(rng.uniform(&[12, 4, 4], -1.0, 1.0));
        let h0 = g.constant(Tensor::zeros(DType::F32, &[4, 4]));
        let c0 = g.constant(Tensor::zeros(DType::F32, &[4, 4]));
        let rnn = dynamic_rnn(
            &mut g,
            &cell,
            x,
            h0,
            c0,
            WhileOptions { swap_memory: swap, ..Default::default() },
        )
        .unwrap();
        let sq = g.square(rnn.outputs).unwrap();
        let loss = g.reduce_sum(sq).unwrap();
        let grads = dcf::autodiff::gradients(&mut g, loss, &[cell.w]).unwrap();
        let mut cluster = Cluster::new();
        cluster.add_device(
            0,
            DeviceProfile::gpu_k40().with_time_scale(time_scale).with_shape_scale(shape_scale),
        );
        let sess = Session::new(
            g.finish().unwrap(),
            cluster,
            SessionOptions {
                executor: dcf::exec::ExecutorOptions {
                    swap_threshold: 0.0, // swap everything eligible
                    min_swap_bytes: 1,
                    ..Default::default()
                },
                network: NetworkModel::disabled(),
                ..Default::default()
            },
        )
        .unwrap();
        let (result, meta) =
            sess.run(&RunOptions::traced(TraceLevel::Full), &HashMap::new(), &[grads[0]]);
        let kernels = &meta.step_stats.unwrap().devices[0].kernel_stats;
        let on = |track: &str| kernels.iter().filter(|k| k.stream.ends_with(track)).count();
        (result.unwrap().remove(0), on("/d2h"), on("/h2d"))
    };
    let (with, d2h, h2d) = run_with(true, 0.0, 8);
    let (without, ..) = run_with(false, 0.0, 8);
    assert!(d2h > 0 && h2d == d2h, "every pop copies back in: {d2h} out, {h2d} in");
    assert!(with.allclose(&without, 1e-5), "swapping changed gradient values");
    assert!(run_with(true, 1.0, 8).0.value_eq(&with), "modeled copy time changed gradient values");
    // At shape scale 256 a copy takes ~7x as long as an elementwise
    // kernel, so the D2H queue falls behind the forward loop and the first
    // backward pops find their copies still running.
    let (reclaimed, d2h, h2d) = run_with(true, 1.0, 256);
    assert!(h2d < d2h, "no pop took its buffer back: {d2h} out, {h2d} in");
    assert!(reclaimed.value_eq(&without), "taking a buffer back changed gradient values");
}

#[test]
fn moe_conditional_execution_trains_distributed() {
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::cpu());
    cluster.add_device(1, DeviceProfile::cpu());
    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(2);
    let moe = dcf::ml::MoeLayer::new(
        &mut g,
        "moe",
        3,
        8,
        2,
        vec![Some("/machine:0/cpu:0".into()), Some("/machine:1/cpu:0".into())],
        &mut rng,
    );
    let x = g.constant(rng.uniform(&[4, 3], -1.0, 1.0));
    let y = moe.apply(&mut g, x).unwrap();
    let sq = g.square(y).unwrap();
    let loss = g.reduce_mean(sq).unwrap();
    let updates = dcf::ml::sgd_step(&mut g, loss, &moe.params(), 0.1).unwrap();
    let sess = Session::new(g.finish().unwrap(), cluster, SessionOptions::functional()).unwrap();
    let mut fetches = vec![loss];
    fetches.extend(&updates);
    let mut losses = Vec::new();
    for _ in 0..10 {
        let out = sess.eval(&HashMap::new(), &fetches).unwrap();
        losses.push(out[0].scalar_as_f32().unwrap());
    }
    assert!(losses.iter().all(|l| l.is_finite()));
    assert!(losses.last().unwrap() <= &losses[0], "{losses:?}");
}

#[test]
fn higher_order_functions_compose_with_gradients() {
    // foldl(scan(...)) end-to-end with gradients.
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", DType::F32);
    let init = g.scalar_f32(0.0);
    let prefix = g.scan(|g, a, e| g.add(a, e), x, init, WhileOptions::default()).unwrap();
    let init2 = g.scalar_f32(1.0);
    let product = g
        .foldl(
            |g, a, e| {
                let one = g.scalar_f32(1.0);
                let e1 = g.add(e, one)?;
                g.mul(a, e1)
            },
            prefix,
            init2,
            WhileOptions::default(),
        )
        .unwrap();
    let grads = dcf::autodiff::gradients(&mut g, product, &[x]).unwrap();
    let sess = Session::local(g.finish().unwrap()).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::from_vec_f32(vec![0.1, 0.2, 0.3], &[3]).unwrap());
    let out = sess.eval(&feeds, &[product, grads[0]]).unwrap();
    // prefix = [0.1, 0.3, 0.6]; product = 1.1 * 1.3 * 1.6.
    assert!((out[0].scalar_as_f32().unwrap() - 1.1 * 1.3 * 1.6).abs() < 1e-4);
    // Numeric check on one coordinate.
    let eval = |v: Vec<f32>| -> f32 {
        let o = sess
            .eval(
                &{
                    let mut f = HashMap::new();
                    f.insert("x".to_string(), Tensor::from_vec_f32(v, &[3]).unwrap());
                    f
                },
                &[product],
            )
            .unwrap();
        o[0].scalar_as_f32().unwrap()
    };
    let eps = 1e-2;
    let numeric = (eval(vec![0.1 + eps, 0.2, 0.3]) - eval(vec![0.1 - eps, 0.2, 0.3])) / (2.0 * eps);
    let analytic = out[1].as_f32_slice().unwrap()[0];
    assert!((analytic - numeric).abs() < 0.05, "{analytic} vs {numeric}");
}

/// A deterministic grid of programs with elementwise chains, duplicated
/// subexpressions, nested while/cond, and variable state must produce
/// bit-identical results with and without graph optimization.
#[test]
fn optimizer_grid_bit_identical_with_and_without() {
    struct Case {
        chain: &'static [u8],
        duplicate: bool,
        trips: i64,
        alternating: bool,
    }
    let cases = [
        Case { chain: &[], duplicate: false, trips: 0, alternating: false },
        Case { chain: &[0, 1], duplicate: false, trips: 1, alternating: false },
        Case { chain: &[0, 1, 2], duplicate: true, trips: 3, alternating: true },
        Case { chain: &[3, 0, 4, 1], duplicate: true, trips: 5, alternating: false },
        Case { chain: &[2, 2, 2], duplicate: false, trips: 4, alternating: true },
        Case { chain: &[1], duplicate: true, trips: 0, alternating: false },
    ];
    let build = |c: &Case| -> (dcf::graph::Graph, Vec<TensorRef>) {
        let mut g = GraphBuilder::new();
        let x0 = g.placeholder("x", DType::F32);
        let scale = g.scalar_f32(0.8);
        let offset = g.scalar_f32(-0.4);
        let apply_chain = |g: &mut GraphBuilder, mut t: TensorRef| -> TensorRef {
            for op in c.chain {
                t = match op {
                    0 => g.mul(t, scale).unwrap(),
                    1 => g.add(t, offset).unwrap(),
                    2 => g.tanh(t).unwrap(),
                    3 => g.relu(t).unwrap(),
                    _ => g.neg(t).unwrap(),
                };
            }
            t
        };
        let chain_a = apply_chain(&mut g, x0);
        let root_out = if c.duplicate {
            let chain_b = apply_chain(&mut g, x0);
            g.add(chain_a, chain_b).unwrap()
        } else {
            chain_a
        };
        let i0 = g.scalar_i64(0);
        let lim = g.scalar_i64(c.trips);
        let alternating = c.alternating;
        let outs = g
            .while_loop(
                &[i0, root_out],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    let scaled = g.mul(v[1], scale)?;
                    let shifted = g.add(scaled, offset)?;
                    let squashed = g.tanh(shifted)?;
                    let next = if alternating {
                        let half_c = g.scalar_f32(0.5);
                        let fi = g.cast(v[0], DType::F32)?;
                        let half = g.mul(fi, half_c)?;
                        let trunc = g.cast(half, DType::I64)?;
                        let back = g.cast(trunc, DType::F32)?;
                        let even = g.equal(half, back)?;
                        let stepped = g.cond(
                            even,
                            |g| Ok(vec![g.add(squashed, offset)?]),
                            |g| Ok(vec![g.sub(squashed, offset)?]),
                        )?;
                        stepped[0]
                    } else {
                        squashed
                    };
                    Ok(vec![g.add(v[0], one)?, next])
                },
                WhileOptions::default(),
            )
            .unwrap();
        let w = g.variable("w", Tensor::scalar_f32(0.25));
        let upd = g.assign_add(w, outs[1]).unwrap();
        (g.finish().unwrap(), vec![root_out, outs[1], upd])
    };
    // A GPU-profile device (zero time scale keeps kernels synchronous and
    // fast) so every run also charges device memory: CPU partitions never
    // do.
    let run = |c: &Case, opt: OptLevel| -> Vec<Tensor> {
        let (graph, fetches) = build(c);
        let mut cluster = Cluster::new();
        cluster.add_device(0, DeviceProfile::gpu_k40().with_time_scale(0.0));
        let sess =
            Session::new(graph, cluster, SessionOptions::functional().with_optimization(opt))
                .unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("x".to_string(), Tensor::scalar_f32(0.6));
        // Two steps: the second observes variable state the first wrote.
        let mut out = sess.eval(&feeds, &fetches).unwrap();
        out.extend(sess.eval(&feeds, &fetches).unwrap());
        out
    };
    for (i, c) in cases.iter().enumerate() {
        // Both optimizer levels must be bit-identical.
        let baseline = run(c, OptLevel::None);
        let variant = run(c, OptLevel::Standard);
        assert_eq!(variant.len(), baseline.len());
        for (j, (a, b)) in variant.iter().zip(&baseline).enumerate() {
            assert!(
                a.value_eq(b),
                "case {i} fetch {j} diverged under optimization: {a:?} vs {b:?}"
            );
        }
    }
}
