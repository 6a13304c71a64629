//! Gradient correctness tests: every rule and construct is validated
//! against central-difference numerical gradients computed by re-executing
//! the forward graph.

use crate::gradients;
use dcf_device::{Device, DeviceId, DeviceProfile};
use dcf_exec::{ExecGraph, Executor, ExecutorOptions, InMemoryRendezvous, ResourceManager};
use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
use dcf_tensor::{DType, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

fn run_graph(
    b: GraphBuilder,
    feeds: &HashMap<String, Tensor>,
    fetches: &[TensorRef],
) -> Vec<Tensor> {
    let graph = Arc::new(b.finish().expect("graph should validate"));
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
    let exec = Executor::new(
        eg,
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    exec.run(feeds, fetches).expect("run should succeed").values
}

/// Checks the symbolic gradient of `build` (mapping a fed placeholder to a
/// scalar loss) against central differences at `x0`.
fn check_grad(build: impl Fn(&mut GraphBuilder, TensorRef) -> TensorRef, x0: Tensor, tol: f32) {
    // Analytic gradient.
    let analytic = {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let y = build(&mut b, x);
        let grads = gradients(&mut b, y, &[x]).expect("gradient construction");
        let mut feeds = HashMap::new();
        feeds.insert("x".to_string(), x0.clone());
        run_graph(b, &feeds, &[grads[0]]).remove(0)
    };
    assert_eq!(analytic.shape(), x0.shape(), "gradient shape mismatch");

    // Numerical gradient.
    let eval = |xv: &Tensor| -> f32 {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let y = build(&mut b, x);
        let mut feeds = HashMap::new();
        feeds.insert("x".to_string(), xv.clone());
        run_graph(b, &feeds, &[y]).remove(0).scalar_as_f32().unwrap()
    };
    let base = x0.as_f32_slice().unwrap().to_vec();
    let eps = 1e-2f32;
    let a = analytic.as_f32_slice().unwrap();
    for i in 0..base.len() {
        let mut plus = base.clone();
        plus[i] += eps;
        let mut minus = base.clone();
        minus[i] -= eps;
        let yp = eval(&Tensor::from_vec_f32(plus, x0.shape().dims()).unwrap());
        let ym = eval(&Tensor::from_vec_f32(minus, x0.shape().dims()).unwrap());
        let numeric = (yp - ym) / (2.0 * eps);
        assert!(
            (a[i] - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "grad[{i}]: analytic {} vs numeric {}",
            a[i],
            numeric
        );
    }
}

fn vec_t(v: Vec<f32>, d: &[usize]) -> Tensor {
    Tensor::from_vec_f32(v, d).unwrap()
}

#[test]
fn square_gradient() {
    check_grad(
        |b, x| {
            let y = b.square(x).unwrap();
            b.reduce_sum(y).unwrap()
        },
        vec_t(vec![1.5, -2.0, 0.5], &[3]),
        1e-2,
    );
}

#[test]
fn elementwise_chain_gradient() {
    check_grad(
        |b, x| {
            let s = b.sigmoid(x).unwrap();
            let t = b.tanh(s).unwrap();
            let e = b.exp(t).unwrap();
            b.reduce_sum(e).unwrap()
        },
        vec_t(vec![0.3, -0.7, 1.1, 0.0], &[4]),
        1e-2,
    );
}

#[test]
fn mul_div_sub_gradient() {
    check_grad(
        |b, x| {
            let c = b.constant(vec_t(vec![2.0, -3.0, 0.5], &[3]));
            let m = b.mul(x, c).unwrap();
            let d = b.div(m, x).unwrap(); // = c, but exercises div rule
            let s = b.sub(m, d).unwrap();
            b.reduce_sum(s).unwrap()
        },
        vec_t(vec![1.5, 2.5, -1.0], &[3]),
        2e-2,
    );
}

#[test]
fn broadcast_bias_gradient_static() {
    // [2,3] + [3] bias: the bias gradient must sum over rows (static path).
    check_grad(
        |b, x| {
            let m = b.constant(vec_t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]));
            let y = b.add(m, x).unwrap();
            let sq = b.square(y).unwrap();
            b.reduce_sum(sq).unwrap()
        },
        vec_t(vec![0.5, -0.5, 1.0], &[3]),
        1e-2,
    );
}

#[test]
fn matmul_gradients_all_transpose_combinations() {
    // x is always [2, 3]; pick the constant operand so every transpose
    // combination is shape-valid.
    for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
        check_grad(
            |b, x| {
                let w23 = b.constant(vec_t(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]));
                let w32 = b.constant(vec_t(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[3, 2]));
                let y = match (ta, tb) {
                    (false, false) => b.matmul_t(x, w32, false, false).unwrap(), // [2,2]
                    (false, true) => b.matmul_t(x, w23, false, true).unwrap(),   // [2,2]
                    (true, false) => b.matmul_t(x, w23, true, false).unwrap(),   // [3,3]
                    (true, true) => b.matmul_t(x, w32, true, true).unwrap(),     // [3,3]
                };
                let sq = b.square(y).unwrap();
                b.reduce_sum(sq).unwrap()
            },
            vec_t(vec![1.0, -0.5, 0.3, 0.7, 2.0, -1.2], &[2, 3]),
            2e-2,
        );
    }
}

#[test]
fn reduce_mean_and_axis_gradients() {
    check_grad(
        |b, x| {
            let m = b.reduce_mean_axis(x, 1, true).unwrap();
            let s = b.reduce_sum_axis(x, 0, false).unwrap();
            let ms = b.reduce_sum(m).unwrap();
            let ss = b.reduce_mean(s).unwrap();
            b.add(ms, ss).unwrap()
        },
        vec_t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
        1e-2,
    );
}

#[test]
fn select_relu_abs_maximum_gradients() {
    check_grad(
        |b, x| {
            let r = b.relu(x).unwrap();
            let a = b.abs(x).unwrap();
            let c = b.constant(vec_t(vec![0.5, 0.5, 0.5], &[3]));
            let m = b.maximum(x, c).unwrap();
            let s1 = b.add(r, a).unwrap();
            let s2 = b.add(s1, m).unwrap();
            b.reduce_sum(s2).unwrap()
        },
        // Stay away from the kinks at 0 and 0.5.
        vec_t(vec![1.5, -2.0, 0.2], &[3]),
        1e-2,
    );
}

#[test]
fn concat_split_pack_index_gradients() {
    check_grad(
        |b, x| {
            let c = b.constant(vec_t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
            let cat = b.concat1(&[x, c]).unwrap(); // [2, 4]
            let parts = b.split1(cat, 2).unwrap();
            let p = b.mul(parts[0], parts[1]).unwrap();
            let packed = b.pack(&[p, p]).unwrap();
            let i1 = b.scalar_i64(1);
            let row = b.index0(packed, i1).unwrap();
            b.reduce_sum(row).unwrap()
        },
        vec_t(vec![0.5, 1.5, -0.5, 2.0], &[2, 2]),
        2e-2,
    );
}

#[test]
fn softmax_gradient() {
    check_grad(
        |b, x| {
            let s = b.softmax(x).unwrap();
            let w = b.constant(vec_t(vec![1.0, 2.0, 3.0], &[3]));
            let p = b.mul(s, w).unwrap();
            b.reduce_sum(p).unwrap()
        },
        vec_t(vec![0.1, 0.5, -0.3], &[3]),
        1e-2,
    );
}

#[test]
fn cond_gradient_both_branches() {
    for pv in [true, false] {
        let analytic = {
            let mut b = GraphBuilder::new();
            let x = b.placeholder("x", DType::F32);
            let p = b.constant(Tensor::scalar_bool(pv));
            let outs = b
                .cond(
                    p,
                    |g| Ok(vec![g.square(x)?]),
                    |g| {
                        let three = g.scalar_f32(3.0);
                        Ok(vec![g.mul(x, three)?])
                    },
                )
                .unwrap();
            let y = b.reduce_sum(outs[0]).unwrap();
            let grads = gradients(&mut b, y, &[x]).unwrap();
            let mut feeds = HashMap::new();
            feeds.insert("x".to_string(), Tensor::scalar_f32(5.0));
            run_graph(b, &feeds, &[grads[0]]).remove(0)
        };
        let expect = if pv { 10.0 } else { 3.0 };
        assert_eq!(analytic.scalar_as_f32().unwrap(), expect, "pred={pv}");
    }
}

#[test]
fn while_loop_power_gradient() {
    // a = 1; repeat 3: a = a * x; y = a = x^3; dy/dx = 3 x^2.
    check_grad(
        |b, x| {
            let i0 = b.scalar_i64(0);
            let a0 = b.scalar_f32(1.0);
            let lim = b.scalar_i64(3);
            let outs = b
                .while_loop(
                    &[i0, a0],
                    |g, v| g.less(v[0], lim),
                    |g, v| {
                        let one = g.scalar_i64(1);
                        let i = g.add(v[0], one)?;
                        let a = g.mul(v[1], x)?;
                        Ok(vec![i, a])
                    },
                    WhileOptions::default(),
                )
                .unwrap();
            outs[1]
        },
        Tensor::scalar_f32(1.7),
        1e-2,
    );
}

#[test]
fn while_loop_matmul_gradient_matches_paper_example() {
    // The §5.1 example: a = x; repeat 3: a = matmul(a, w); y = sum(a).
    // Check gradient with respect to the loop-invariant w.
    check_grad(
        |b, w| {
            let x = b.constant(vec_t(vec![1.0, 0.5, -0.5, 2.0], &[2, 2]));
            let i0 = b.scalar_i64(0);
            let lim = b.scalar_i64(3);
            let outs = b
                .while_loop(
                    &[i0, x],
                    |g, v| g.less(v[0], lim),
                    |g, v| {
                        let one = g.scalar_i64(1);
                        let i = g.add(v[0], one)?;
                        let a = g.matmul(v[1], w)?;
                        Ok(vec![i, a])
                    },
                    WhileOptions::default(),
                )
                .unwrap();
            b.reduce_sum(outs[1]).unwrap()
        },
        vec_t(vec![0.4, -0.1, 0.2, 0.3], &[2, 2]),
        2e-2,
    );
}

#[test]
fn while_gradient_matches_static_unrolling() {
    // The same computation unrolled statically must produce identical
    // gradients (the paper's Figure 8 equivalence).
    let w0 = vec_t(vec![0.4, -0.1, 0.2, 0.3], &[2, 2]);
    let x0 = vec_t(vec![1.0, 0.5, -0.5, 2.0], &[2, 2]);
    let looped = {
        let mut b = GraphBuilder::new();
        let w = b.placeholder("w", DType::F32);
        let x = b.constant(x0.clone());
        let i0 = b.scalar_i64(0);
        let lim = b.scalar_i64(3);
        let outs = b
            .while_loop(
                &[i0, x],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    Ok(vec![g.add(v[0], one)?, g.matmul(v[1], w)?])
                },
                WhileOptions::default(),
            )
            .unwrap();
        let y = b.reduce_sum(outs[1]).unwrap();
        let grads = gradients(&mut b, y, &[w]).unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("w".to_string(), w0.clone());
        run_graph(b, &feeds, &[grads[0]]).remove(0)
    };
    let unrolled = {
        let mut b = GraphBuilder::new();
        let w = b.placeholder("w", DType::F32);
        let x = b.constant(x0);
        let a1 = b.matmul(x, w).unwrap();
        let a2 = b.matmul(a1, w).unwrap();
        let a3 = b.matmul(a2, w).unwrap();
        let y = b.reduce_sum(a3).unwrap();
        let grads = gradients(&mut b, y, &[w]).unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("w".to_string(), w0);
        run_graph(b, &feeds, &[grads[0]]).remove(0)
    };
    assert!(looped.allclose(&unrolled, 1e-4), "loop grad {looped} != unrolled grad {unrolled}");
}

#[test]
fn data_dependent_trip_count_gradient() {
    // Loop until a > 10: iteration count depends on x.
    check_grad(
        |b, x| {
            let a0 = b.identity(x).unwrap();
            let lim = b.scalar_f32(10.0);
            let two = b.scalar_f32(2.0);
            let outs = b
                .while_loop(
                    &[a0],
                    |g, v| g.less(v[0], lim),
                    |g, v| Ok(vec![g.mul(v[0], two)?]),
                    WhileOptions::default(),
                )
                .unwrap();
            outs[0]
        },
        Tensor::scalar_f32(0.9), // 0.9 -> 1.8 -> 3.6 -> 7.2 -> 14.4 (4 iters)
        1e-2,
    );
}

#[test]
fn nested_loop_gradient() {
    // y = x^(2*3) via nested multiply loops.
    check_grad(
        |b, x| {
            let i0 = b.scalar_i64(0);
            let a0 = b.scalar_f32(1.0);
            let outer_lim = b.scalar_i64(2);
            let inner_lim = b.scalar_i64(3);
            let outs = b
                .while_loop(
                    &[i0, a0],
                    |g, v| g.less(v[0], outer_lim),
                    |g, v| {
                        let j0 = g.scalar_i64(0);
                        let inner = g.while_loop(
                            &[j0, v[1]],
                            |g, w| g.less(w[0], inner_lim),
                            |g, w| {
                                let one = g.scalar_i64(1);
                                Ok(vec![g.add(w[0], one)?, g.mul(w[1], x)?])
                            },
                            WhileOptions::default(),
                        )?;
                        let one = g.scalar_i64(1);
                        Ok(vec![g.add(v[0], one)?, inner[1]])
                    },
                    WhileOptions::default(),
                )
                .unwrap();
            outs[1] // x^6
        },
        Tensor::scalar_f32(1.2),
        3e-2,
    );
}

#[test]
fn cond_inside_while_gradient() {
    // Alternating: a = (i even) ? a*x : a+x, 4 iterations.
    check_grad(
        |b, x| {
            let i0 = b.scalar_i64(0);
            let a0 = b.scalar_f32(1.0);
            let lim = b.scalar_i64(4);
            let outs = b
                .while_loop(
                    &[i0, a0],
                    |g, v| g.less(v[0], lim),
                    |g, v| {
                        let half = g.scalar_f32(0.5);
                        let fi = g.cast(v[0], DType::F32)?;
                        let h = g.mul(fi, half)?;
                        let t = g.cast(h, DType::I64)?;
                        let back = g.cast(t, DType::F32)?;
                        let even = g.equal(h, back)?;
                        let a = g.cond(
                            even,
                            |g| Ok(vec![g.mul(v[1], x)?]),
                            |g| Ok(vec![g.add(v[1], x)?]),
                        )?;
                        let one = g.scalar_i64(1);
                        Ok(vec![g.add(v[0], one)?, a[0]])
                    },
                    WhileOptions::default(),
                )
                .unwrap();
            outs[1]
        },
        Tensor::scalar_f32(1.3),
        2e-2,
    );
}

#[test]
fn scan_gradient_through_tensor_arrays() {
    // y = sum(scan(mul, elems=x, init=1)) — running products; the gradient
    // exercises TensorArray read/write duals inside the loop and
    // pack/unpack outside.
    check_grad(
        |b, x| {
            let init = b.scalar_f32(1.0);
            let r = b.scan(|g, a, e| g.mul(a, e), x, init, WhileOptions::default()).unwrap();
            b.reduce_sum(r).unwrap()
        },
        vec_t(vec![1.1, 0.9, 1.3], &[3]),
        2e-2,
    );
}

#[test]
fn map_fn_gradient() {
    check_grad(
        |b, x| {
            let m = b.map_fn(|g, e| g.square(e), x, DType::F32, WhileOptions::default()).unwrap();
            b.reduce_sum(m).unwrap()
        },
        vec_t(vec![1.0, -2.0, 0.5, 3.0], &[4]),
        1e-2,
    );
}

#[test]
fn foldl_gradient() {
    check_grad(
        |b, x| {
            let init = b.scalar_f32(0.5);
            b.foldl(|g, a, e| g.mul(a, e), x, init, WhileOptions::default()).unwrap()
        },
        vec_t(vec![1.2, 0.8, 1.1], &[3]),
        2e-2,
    );
}

#[test]
fn unused_input_gets_zero_gradient() {
    let mut b = GraphBuilder::new();
    let x = b.variable("x", Tensor::scalar_f32(1.0));
    let z = b.variable("z", vec_t(vec![1.0, 2.0], &[2]));
    let y = b.square(x).unwrap();
    let grads = gradients(&mut b, y, &[x, z]).unwrap();
    let out = run_graph(b, &HashMap::new(), &grads);
    assert_eq!(out[0].scalar_as_f32().unwrap(), 2.0);
    assert_eq!(out[1].as_f32_slice().unwrap(), &[0.0, 0.0]);
}

#[test]
fn gradient_with_parallel_iterations_one_matches() {
    // The §4.3 knob must not change gradient values.
    let grad_with = |p: usize| {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let i0 = b.scalar_i64(0);
        let a0 = b.scalar_f32(1.0);
        let lim = b.scalar_i64(5);
        let outs = b
            .while_loop(
                &[i0, a0],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    Ok(vec![g.add(v[0], one)?, g.mul(v[1], x)?])
                },
                WhileOptions { parallel_iterations: p, ..Default::default() },
            )
            .unwrap();
        let grads = gradients(&mut b, outs[1], &[x]).unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("x".to_string(), Tensor::scalar_f32(1.1));
        run_graph(b, &feeds, &[grads[0]]).remove(0).scalar_as_f32().unwrap()
    };
    let g1 = grad_with(1);
    let g32 = grad_with(32);
    assert!((g1 - g32).abs() < 1e-5, "{g1} vs {g32}");
    // dy/dx of x^5 at 1.1 = 5 * 1.1^4.
    assert!((g1 - 5.0f32 * 1.1f32.powi(4)).abs() < 1e-3);
}

#[test]
fn second_use_of_loop_output_accumulates() {
    // y = loop_out + loop_out: gradient doubles.
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x", DType::F32);
    let a0 = b.identity(x).unwrap();
    let lim = b.scalar_f32(100.0);
    let three = b.scalar_f32(3.0);
    let outs = b
        .while_loop(
            &[a0],
            |g, v| g.less(v[0], lim),
            |g, v| Ok(vec![g.mul(v[0], three)?]),
            WhileOptions::default(),
        )
        .unwrap();
    let y = b.add(outs[0], outs[0]).unwrap();
    let grads = gradients(&mut b, y, &[x]).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::scalar_f32(2.0));
    let out = run_graph(b, &feeds, &[grads[0]]);
    // 2 -> 6 -> 18 -> 54 -> 162: 4 iterations, dy/dx = 2 * 3^4 = 162.
    assert!((out[0].scalar_as_f32().unwrap() - 162.0).abs() < 1e-3);
}

#[test]
fn dbg_nested_small() {
    // Minimal nested-loop gradient: outer 1 iter, inner 2 iters.
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x", DType::F32);
    let i0 = b.scalar_i64(0);
    let a0 = b.scalar_f32(1.0);
    let outer_lim = b.scalar_i64(1);
    let inner_lim = b.scalar_i64(2);
    let outs = b
        .while_loop(
            &[i0, a0],
            |g, v| g.less(v[0], outer_lim),
            |g, v| {
                let j0 = g.scalar_i64(0);
                let inner = g.while_loop(
                    &[j0, v[1]],
                    |g, w| g.less(w[0], inner_lim),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        Ok(vec![g.add(w[0], one)?, g.mul(w[1], x)?])
                    },
                    WhileOptions::default(),
                )?;
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?, inner[1]])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let grads = gradients(&mut b, outs[1], &[x]).unwrap();
    eprintln!("{}", b.graph());
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::scalar_f32(1.5));
    let out = run_graph(b, &feeds, &[grads[0]]);
    // y = x^2, dy/dx = 2x = 3.
    assert!((out[0].scalar_as_f32().unwrap() - 3.0).abs() < 1e-4, "{}", out[0]);
}

#[test]
fn cond_nested_in_cond_gradient() {
    // f(x) = if x > 0 { if x > 1 { x^2 } else { 3x } } else { -x }.
    for (x0, expect) in [(2.0f32, 4.0f32), (0.5, 3.0), (-2.0, -1.0)] {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let zero = b.scalar_f32(0.0);
        let one = b.scalar_f32(1.0);
        let pos = b.greater(x, zero).unwrap();
        let outs = b
            .cond(
                pos,
                |g| {
                    let big = g.greater(x, one)?;
                    let inner = g.cond(
                        big,
                        |g| Ok(vec![g.square(x)?]),
                        |g| {
                            let three = g.scalar_f32(3.0);
                            Ok(vec![g.mul(x, three)?])
                        },
                    )?;
                    Ok(vec![inner[0]])
                },
                |g| Ok(vec![g.neg(x)?]),
            )
            .unwrap();
        let grads = gradients(&mut b, outs[0], &[x]).unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("x".to_string(), Tensor::scalar_f32(x0));
        let out = run_graph(b, &feeds, &[grads[0]]);
        assert_eq!(out[0].scalar_as_f32().unwrap(), expect, "x={x0}");
    }
}

#[test]
fn two_gradient_computations_on_one_graph() {
    // gradients() may be called repeatedly on the same builder; each call
    // must get its own stacks and gradient loops.
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x", DType::F32);
    let i0 = b.scalar_i64(0);
    let a0 = b.scalar_f32(1.0);
    let lim = b.scalar_i64(3);
    let outs = b
        .while_loop(
            &[i0, a0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?, g.mul(v[1], x)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let y = outs[1]; // x^3
    let z = b.square(y).unwrap(); // x^6
    let gy = gradients(&mut b, y, &[x]).unwrap();
    let gz = gradients(&mut b, z, &[x]).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::scalar_f32(1.2));
    let out = run_graph(b, &feeds, &[gy[0], gz[0]]);
    let x0: f32 = 1.2;
    assert!((out[0].scalar_as_f32().unwrap() - 3.0 * x0.powi(2)).abs() < 1e-3);
    assert!((out[1].scalar_as_f32().unwrap() - 6.0 * x0.powi(5)).abs() < 2e-2);
}

#[test]
fn select_and_concat_gradients_inside_loop() {
    check_grad(
        |b, x| {
            let i0 = b.scalar_i64(0);
            let a0 = b.constant(vec_t(vec![1.0, 1.0], &[1, 2]));
            let lim = b.scalar_i64(3);
            let outs = b
                .while_loop(
                    &[i0, a0],
                    |g, v| g.less(v[0], lim),
                    |g, v| {
                        let one = g.scalar_i64(1);
                        // concat the state with x, mix, and gate half of it.
                        let joined = g.concat1(&[v[1], x])?;
                        let parts = g.split1(joined, 2)?;
                        let mixed = g.mul(parts[0], parts[1])?;
                        let zero = g.zeros_like(mixed)?;
                        let thresh = g.scalar_f32(0.0);
                        let gate = g.greater(mixed, thresh)?;
                        let gated = g.select(gate, mixed, zero)?;
                        let next = g.tanh(gated)?;
                        Ok(vec![g.add(v[0], one)?, next])
                    },
                    WhileOptions::default(),
                )
                .unwrap();
            b.reduce_sum(outs[1]).unwrap()
        },
        vec_t(vec![0.8, 1.3], &[1, 2]),
        3e-2,
    );
}

#[test]
fn gradient_of_variable_parameters() {
    // Gradients with respect to Variable reads (the training path).
    let mut b = GraphBuilder::new();
    let w = b.variable("w", vec_t(vec![2.0, -1.0], &[2]));
    let s = b.square(w).unwrap();
    let y = b.reduce_sum(s).unwrap();
    let grads = gradients(&mut b, y, &[w]).unwrap();
    let out = run_graph(b, &HashMap::new(), &grads);
    assert_eq!(out[0].as_f32_slice().unwrap(), &[4.0, -2.0]);
}

#[test]
fn function_call_gradient() {
    // f(x) = x^2 + 3x, called at two sites; y = sum(f(x) + f(2x)).
    // d/dx = (2x + 3) + 2(4x + 3) = 10x + 9.
    check_grad(
        |b, x| {
            b.define_function("poly", &[DType::F32], &[DType::F32], |g, p| {
                let sq = g.square(p[0])?;
                let three = g.scalar_f32(3.0);
                let lin = g.mul(p[0], three)?;
                Ok(vec![g.add(sq, lin)?])
            })
            .unwrap();
            let a = b.call1("poly", &[x]).unwrap();
            let two = b.scalar_f32(2.0);
            let x2 = b.mul(x, two).unwrap();
            let c = b.call1("poly", &[x2]).unwrap();
            let s = b.add(a, c).unwrap();
            b.reduce_sum(s).unwrap()
        },
        vec_t(vec![1.5, -0.4], &[2]),
        2e-2,
    );
}

#[test]
fn function_capture_gradient() {
    // The body uses outer `x` directly; the capture becomes an implicit
    // parameter and the gradient flows back through it: y = x^2 * x = x^3.
    check_grad(
        |b, x| {
            let sq = b.square(x).unwrap();
            b.define_function("scale", &[DType::F32], &[DType::F32], |g, p| {
                Ok(vec![g.mul(p[0], x)?])
            })
            .unwrap();
            let y = b.call1("scale", &[sq]).unwrap();
            b.reduce_sum(y).unwrap()
        },
        vec_t(vec![0.7, -1.2], &[2]),
        2e-2,
    );
}

#[test]
fn nested_function_call_gradient() {
    // f calls g; differentiating f's call builds f::grad, whose body
    // differentiates the cloned inner call and builds g::grad.
    check_grad(
        |b, x| {
            b.define_function("inner", &[DType::F32], &[DType::F32], |g, p| {
                Ok(vec![g.tanh(p[0])?])
            })
            .unwrap();
            b.define_function("outer", &[DType::F32], &[DType::F32], |g, p| {
                let t = g.call1("inner", &[p[0]])?;
                Ok(vec![g.mul(t, p[0])?])
            })
            .unwrap();
            let y = b.call1("outer", &[x]).unwrap();
            b.reduce_sum(y).unwrap()
        },
        vec_t(vec![0.4, -0.9], &[2]),
        2e-2,
    );
}

#[test]
fn recursive_function_gradient() {
    // pow(x, n) = if n <= 0 { 1 } else { x * pow(x, n - 1) }.
    // The gradient function is itself recursive: pow::grad calls pow::grad
    // for the cloned recursive call, terminating through the same
    // conditional deadness as the forward recursion.
    check_grad(
        |b, x| {
            b.define_function("pow", &[DType::F32, DType::I64], &[DType::F32], |g, p| {
                let zero = g.scalar_i64(0);
                let done = g.less_equal(p[1], zero)?;
                let outs = g.cond(
                    done,
                    |g| Ok(vec![g.ones_like(p[0])?]),
                    |g| {
                        let one = g.scalar_i64(1);
                        let m = g.sub(p[1], one)?;
                        let rec = g.call1("pow", &[p[0], m])?;
                        Ok(vec![g.mul(p[0], rec)?])
                    },
                )?;
                Ok(vec![outs[0]])
            })
            .unwrap();
            let n = b.scalar_i64(3);
            let y = b.call1("pow", &[x, n]).unwrap();
            b.reduce_sum(y).unwrap()
        },
        vec_t(vec![1.1, 0.6], &[2]),
        2e-2,
    );
}
