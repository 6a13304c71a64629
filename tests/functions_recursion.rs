//! End-to-end tests for in-graph functions and recursion (PR 9).
//!
//! A `Call` lowers onto the executor's frame machinery: every call site
//! pushes a fresh dynamically tagged frame, arguments are delivered to the
//! body's `FunctionParam` nodes, and `FunctionRet` values flow back to the
//! call site's consumers in the parent frame. These tests pin the
//! user-visible guarantees:
//!
//! 1. A recursive function runs and differentiates, and its results are
//!    bit-identical across `OptLevel`s on a GPU-profile device
//!    (optimization must neither cross call boundaries nor perturb values).
//! 2. Recursion depth is bounded: exceeding `RunOptions::max_frame_depth`
//!    fails with the structured `FrameDepthExceeded` error, not unbounded
//!    memory growth — and the limit also applies per run, so a depth that
//!    fits the default succeeds in the same session afterwards.
//! 3. Graph compilation (frame-name interning included) is per-session
//!    state: many sessions compiling and running call-heavy graphs
//!    concurrently never interfere.
//! 4. Mutual recursion works through forward declaration
//!    (`declare_function` before `define_function`), and a declared
//!    function that is called but never defined is rejected at
//!    `finish()` — not discovered as a dangling call at run time.

use dcf::exec::ExecError;
use dcf::ml::{fib, lstm_stack_calls, parity, LstmCell};
use dcf::prelude::*;
use std::collections::HashMap;

/// Builds `y = fib(x, n)` (`= F(n) · x`) plus `dy/dx` (`= F(n)`).
fn fib_graph(n: i64) -> (dcf::graph::Graph, Vec<TensorRef>) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", DType::F32);
    let nt = g.scalar_i64(n);
    let y = fib(&mut g, "fib", x, nt).unwrap();
    let grads = gradients(&mut g, y, &[x]).unwrap();
    (g.finish().unwrap(), vec![y, grads[0]])
}

fn feed(x: f32) -> HashMap<String, Tensor> {
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::scalar_f32(x));
    feeds
}

#[test]
fn recursive_fib_bit_identical_across_opt_levels() {
    // F(9) = 55 with F(0) = F(1) = 1.
    let run = |opt: OptLevel| -> Vec<Tensor> {
        let (graph, fetches) = fib_graph(9);
        let mut cluster = Cluster::new();
        cluster.add_device(0, DeviceProfile::gpu_k40().with_time_scale(0.0));
        let sess =
            Session::new(graph, cluster, SessionOptions::functional().with_optimization(opt))
                .unwrap();
        sess.eval(&feed(1.25), &fetches).unwrap()
    };
    let base = run(OptLevel::None);
    assert_eq!(base[0].scalar_as_f32().unwrap(), 55.0 * 1.25);
    assert_eq!(base[1].scalar_as_f32().unwrap(), 55.0);
    for (a, b) in base.iter().zip(&run(OptLevel::Standard)) {
        assert!(a.value_eq(b), "OptLevel::Standard diverged from OptLevel::None");
    }
}

#[test]
fn exceeding_max_frame_depth_is_a_structured_error() {
    // fib(x, 12) recurses 11 frames deep along its leftmost spine; a
    // ceiling of 4 must trip before any unbounded frame growth.
    let (graph, fetches) = fib_graph(12);
    let sess = Session::local(graph).unwrap();
    let opts = RunOptions::default().with_max_frame_depth(4);
    let (result, metadata) = sess.run(&opts, &feed(1.0), &fetches);
    match result {
        Err(ExecError::FrameDepthExceeded { limit, frame }) => {
            assert_eq!(limit, 4);
            assert!(frame.contains("call:fib"), "offending frame should be a call tag: {frame}");
        }
        other => panic!("expected FrameDepthExceeded, got {other:?}"),
    }
    assert!(metadata.abort_reason.is_some(), "failed runs report an abort reason");

    // The cap is per run, not per session: the same session completes the
    // same step under the default depth, and leaves no residue behind.
    let (result, metadata) = sess.run(&RunOptions::default(), &feed(1.0), &fetches);
    let out = result.unwrap();
    assert_eq!(out[0].scalar_as_f32().unwrap(), 233.0); // F(12) = 233
    assert!(sess.quiescent_step(metadata.step));
}

#[test]
fn deep_linear_recursion_hits_default_depth_ceiling() {
    // countdown(x, n) = n <= 0 ? x : countdown(x + 1, n - 1): linear
    // recursion n frames deep. 200 fits the default ceiling of 256;
    // 400 must fail with the structured error rather than exhaust memory.
    let build = |n: i64| {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", DType::F32);
        g.define_function("countdown", &[DType::F32, DType::I64], &[DType::F32], |g, p| {
            let zero = g.scalar_i64(0);
            let done = g.less_equal(p[1], zero)?;
            let outs = g.cond(
                done,
                |_g| Ok(vec![p[0]]),
                |g| {
                    let onef = g.scalar_f32(1.0);
                    let onei = g.scalar_i64(1);
                    let xn = g.add(p[0], onef)?;
                    let m = g.sub(p[1], onei)?;
                    Ok(vec![g.call1("countdown", &[xn, m])?])
                },
            )?;
            Ok(vec![outs[0]])
        })
        .unwrap();
        let nt = g.scalar_i64(n);
        let y = g.call1("countdown", &[x, nt]).unwrap();
        (g.finish().unwrap(), y)
    };

    let (graph, y) = build(200);
    let sess = Session::local(graph).unwrap();
    let out = sess.eval(&feed(0.5), &[y]).unwrap();
    assert_eq!(out[0].scalar_as_f32().unwrap(), 200.5);

    let (graph, y) = build(400);
    let sess = Session::local(graph).unwrap();
    let (result, _) = sess.run(&RunOptions::default(), &feed(0.5), &[y]);
    match result {
        Err(ExecError::FrameDepthExceeded { limit, .. }) => {
            assert_eq!(limit, dcf::exec::DEFAULT_MAX_FRAME_DEPTH);
        }
        other => panic!("expected FrameDepthExceeded, got {other:?}"),
    }
}

#[test]
fn mutually_recursive_parity_unwinds_through_forward_declaration() {
    // even(n) and odd(n) call each other: even(n) = n == 0 ? 1 : odd(n-1),
    // odd(n) = n == 0 ? 0 : even(n-1). Neither body can be defined before
    // the other exists, so this exercises declare-then-define.
    let mut g = GraphBuilder::new();
    let n = g.placeholder("n", DType::I64);
    let is_even = parity(&mut g, "parity", n).unwrap();
    let graph = g.finish().unwrap();
    let sess = Session::local(graph).unwrap();
    for v in 0..=7i64 {
        let mut feeds = HashMap::new();
        feeds.insert("n".to_string(), Tensor::scalar_i64(v));
        let out = sess.eval(&feeds, &[is_even]).unwrap();
        let expect = i64::from(v % 2 == 0);
        assert_eq!(
            out[0].scalar_as_i64().unwrap(),
            expect,
            "parity({v}) unwound {v} mutual frames to the wrong base case"
        );
    }

    // The same graph differentiates nothing (i64 outputs) but must keep
    // serving across sessions: build a second independent session over a
    // fresh parity graph to confirm declaration state is per-builder.
    let mut g = GraphBuilder::new();
    let n = g.placeholder("n", DType::I64);
    let is_even = parity(&mut g, "parity", n).unwrap();
    let sess2 = Session::local(g.finish().unwrap()).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("n".to_string(), Tensor::scalar_i64(6));
    assert_eq!(sess2.eval(&feeds, &[is_even]).unwrap()[0].scalar_as_i64().unwrap(), 1);
}

#[test]
fn calling_a_declared_but_undefined_function_fails_at_finish() {
    let mut g = GraphBuilder::new();
    g.declare_function("phantom", &[DType::I64], &[DType::I64]).unwrap();
    let x = g.scalar_i64(3);
    let _y = g.call1("phantom", &[x]).unwrap();
    let err = g.finish().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("phantom") && msg.contains("undefined"),
        "finish() must name the dangling declaration: {msg}"
    );
}

#[test]
fn concurrent_sessions_compile_and_run_call_graphs_independently() {
    // Frame-name interning happens at ExecGraph compile time; it must be
    // per-compile state. Hammer it: many threads, each compiling its own
    // session over graphs whose call tags collide by name ("fib", the
    // LSTM cell function) and running immediately.
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                if t % 2 == 0 {
                    let n = 5 + (t as i64 % 3); // F(5..=7) = 8, 13, 21
                    let (graph, fetches) = fib_graph(n);
                    let sess = Session::local(graph).unwrap();
                    let out = sess.eval(&feed(1.0), &fetches).unwrap();
                    let expect = [8.0, 13.0, 21.0][(n - 5) as usize];
                    assert_eq!(out[0].scalar_as_f32().unwrap(), expect);
                    assert_eq!(out[1].scalar_as_f32().unwrap(), expect);
                } else {
                    let mut g = GraphBuilder::new();
                    let mut rng = TensorRng::new(3 + t as u64);
                    let cells: Vec<LstmCell> = (0..3)
                        .map(|l| {
                            let input = if l == 0 { 3 } else { 4 };
                            LstmCell::new(&mut g, &format!("l{l}"), input, 4, &mut rng)
                        })
                        .collect();
                    let x = g.constant(rng.uniform(&[2, 3], -1.0, 1.0));
                    let zero = g.constant(Tensor::zeros(DType::F32, &[2, 4]));
                    let states = vec![(zero, zero); 3];
                    let outs = lstm_stack_calls(&mut g, "lstm_cell", &cells, x, &states).unwrap();
                    let (h, c) = *outs.last().unwrap();
                    let sess = Session::local(g.finish().unwrap()).unwrap();
                    let out = sess.eval(&HashMap::new(), &[h, c]).unwrap();
                    assert_eq!(out[0].shape().dims(), &[2, 4]);
                    for &v in out[0].as_f32_slice().unwrap() {
                        assert!(v.abs() < 1.0, "h = sigmoid * tanh stays in (-1, 1)");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("concurrent session thread panicked");
    }
}
