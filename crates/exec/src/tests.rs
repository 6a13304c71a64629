//! End-to-end tests of the local executor: control flow, deadness, frames,
//! resources, memory accounting, and the parallel-iterations knob.

use crate::{ExecGraph, Executor, ExecutorOptions, InMemoryRendezvous, ResourceManager, RunConfig};
use dcf_device::{
    Device, DeviceCollector, DeviceId, DeviceProfile, StepStatsCollector, TraceLevel,
};
use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
use dcf_tensor::{DType, Tensor};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run_graph(
    b: GraphBuilder,
    feeds: &HashMap<String, Tensor>,
    fetches: &[TensorRef],
) -> crate::Result<Vec<Tensor>> {
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
    exec.run(feeds, fetches).map(|o| o.values)
}

fn run1(b: GraphBuilder, fetch: TensorRef) -> Tensor {
    run_graph(b, &HashMap::new(), &[fetch]).expect("run should succeed").remove(0)
}

#[test]
fn straight_line_arithmetic() {
    let mut b = GraphBuilder::new();
    let x = b.scalar_f32(3.0);
    let y = b.scalar_f32(4.0);
    let s = b.add(x, y).unwrap();
    let p = b.mul(s, s).unwrap();
    assert_eq!(run1(b, p).scalar_as_f32().unwrap(), 49.0);
}

#[test]
fn placeholders_are_fed() {
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x", DType::F32);
    let y = b.neg(x).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::scalar_f32(5.0));
    let out = run_graph(b, &feeds, &[y]).unwrap();
    assert_eq!(out[0].scalar_as_f32().unwrap(), -5.0);
}

#[test]
fn missing_feed_errors() {
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x", DType::F32);
    let y = b.neg(x).unwrap();
    let err = run_graph(b, &HashMap::new(), &[y]).unwrap_err();
    assert!(err.to_string().contains("not fed"), "{err}");
}

#[test]
fn cond_takes_true_branch() {
    let mut b = GraphBuilder::new();
    let p = b.constant(Tensor::scalar_bool(true));
    let x = b.scalar_f32(10.0);
    let outs = b
        .cond(
            p,
            |g| Ok(vec![g.neg(x)?]),
            |g| {
                let two = g.scalar_f32(2.0);
                Ok(vec![g.mul(x, two)?])
            },
        )
        .unwrap();
    assert_eq!(run1(b, outs[0]).scalar_as_f32().unwrap(), -10.0);
}

#[test]
fn cond_takes_false_branch() {
    let mut b = GraphBuilder::new();
    let p = b.constant(Tensor::scalar_bool(false));
    let x = b.scalar_f32(10.0);
    let outs = b
        .cond(
            p,
            |g| Ok(vec![g.neg(x)?]),
            |g| {
                let two = g.scalar_f32(2.0);
                Ok(vec![g.mul(x, two)?])
            },
        )
        .unwrap();
    assert_eq!(run1(b, outs[0]).scalar_as_f32().unwrap(), 20.0);
}

#[test]
fn cond_with_fed_predicate_both_ways() {
    for (pv, expect) in [(true, 1.0f32), (false, 2.0f32)] {
        let mut b = GraphBuilder::new();
        let p = b.placeholder("p", DType::Bool);
        let one = b.scalar_f32(1.0);
        let two = b.scalar_f32(2.0);
        let outs =
            b.cond(p, |g| Ok(vec![g.identity(one)?]), |g| Ok(vec![g.identity(two)?])).unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("p".to_string(), Tensor::scalar_bool(pv));
        let out = run_graph(b, &feeds, &[outs[0]]).unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), expect);
    }
}

#[test]
fn while_loop_counts_to_ten() {
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(10);
    let outs = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    assert_eq!(run1(b, outs[0]).scalar_as_i64().unwrap(), 10);
}

#[test]
fn while_loop_zero_iterations() {
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(5);
    let lim = b.scalar_i64(3);
    let outs = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    // Pred false immediately: the init value exits untouched.
    assert_eq!(run1(b, outs[0]).scalar_as_i64().unwrap(), 5);
}

#[test]
fn while_loop_multiple_variables() {
    // Computes 2^8 by doubling, and the loop counter.
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let x0 = b.scalar_f32(1.0);
    let lim = b.scalar_i64(8);
    let two = b.scalar_f32(2.0);
    let outs = b
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                let x = g.mul(v[1], two)?;
                Ok(vec![i, x])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let vals = run_graph(b, &HashMap::new(), &outs).unwrap();
    assert_eq!(vals[0].scalar_as_i64().unwrap(), 8);
    assert_eq!(vals[1].scalar_as_f32().unwrap(), 256.0);
}

#[test]
fn parallel_iterations_do_not_change_results() {
    for p in [1usize, 2, 8, 32] {
        let mut b = GraphBuilder::new();
        let i0 = b.scalar_i64(0);
        let a0 = b.scalar_f32(0.0);
        let lim = b.scalar_i64(50);
        let outs = b
            .while_loop(
                &[i0, a0],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    let i = g.add(v[0], one)?;
                    let fi = g.cast(v[0], DType::F32)?;
                    let a = g.add(v[1], fi)?;
                    Ok(vec![i, a])
                },
                WhileOptions { parallel_iterations: p, ..Default::default() },
            )
            .unwrap();
        let vals = run_graph(b, &HashMap::new(), &outs).unwrap();
        // sum 0..49 = 1225.
        assert_eq!(vals[1].scalar_as_f32().unwrap(), 1225.0, "parallel_iterations={p}");
    }
}

#[test]
fn nested_loops_compute_triangular_sums() {
    // outer: for i in 0..4 { for j in 0..i { total += 1 } } => 0+1+2+3 = 6.
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let t0 = b.scalar_i64(0);
    let lim = b.scalar_i64(4);
    let outs = b
        .while_loop(
            &[i0, t0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let j0 = g.scalar_i64(0);
                let inner = g.while_loop(
                    &[j0, v[1]],
                    |g, w| g.less(w[0], v[0]),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        let j = g.add(w[0], one)?;
                        let t = g.add(w[1], one)?;
                        Ok(vec![j, t])
                    },
                    WhileOptions::default(),
                )?;
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                Ok(vec![i, inner[1]])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let vals = run_graph(b, &HashMap::new(), &outs).unwrap();
    assert_eq!(vals[1].scalar_as_i64().unwrap(), 6);
}

#[test]
fn cond_inside_while_alternates() {
    // Sum is += 2 when i is even, += 1 when odd, for i in 0..6 => 3*2+3*1=9.
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let s0 = b.scalar_i64(0);
    let lim = b.scalar_i64(6);
    let outs = b
        .while_loop(
            &[i0, s0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let two = g.scalar_i64(2);
                let one = g.scalar_i64(1);
                // i mod 2 == 0, via i - (i/2)*2 ... use comparison of
                // doubling instead: (i/2)*2 == i is unavailable without
                // integer division; emulate parity by tracking it.
                let half = g.mul(v[0], one)?; // placeholder to keep i alive
                let _ = half;
                // Parity check: (i & 1) not available; use i - 2*floor
                // trick is unavailable too, so test via equality of
                // cast(cast(i/2)) — instead simply alternate on a boolean
                // loop variable derived from counter comparisons:
                // even iff (i % 2 == 0) computed as cast(i)*0.5 ==
                // floor... Keep it simple: compare cast(i) * 0.5 with its
                // rounding through i64.
                let fi = g.cast(v[0], DType::F32)?;
                let half_c = g.scalar_f32(0.5);
                let halff = g.mul(fi, half_c)?;
                let trunc = g.cast(halff, DType::I64)?;
                let back = g.cast(trunc, DType::F32)?;
                let even = g.equal(halff, back)?;
                let stepped =
                    g.cond(even, |g| Ok(vec![g.add(v[1], two)?]), |g| Ok(vec![g.add(v[1], one)?]))?;
                let one2 = g.scalar_i64(1);
                let i = g.add(v[0], one2)?;
                Ok(vec![i, stepped[0]])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let vals = run_graph(b, &HashMap::new(), &outs).unwrap();
    assert_eq!(vals[1].scalar_as_i64().unwrap(), 9);
}

#[test]
fn variables_accumulate_across_runs() {
    let mut b = GraphBuilder::new();
    let w = b.variable("w", Tensor::scalar_f32(0.0));
    let one = b.scalar_f32(1.0);
    let upd = b.assign_add(w, one).unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
    let resources = ResourceManager::new();
    let exec = Executor::new(
        eg,
        device,
        resources.clone(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    for expect in [1.0f32, 2.0, 3.0] {
        let out = exec.run(&HashMap::new(), &[upd]).unwrap();
        assert_eq!(out.values[0].scalar_as_f32().unwrap(), expect);
    }
    assert_eq!(resources.variable_value("w").unwrap().scalar_as_f32().unwrap(), 3.0);
}

#[test]
fn scan_computes_prefix_sums() {
    let mut b = GraphBuilder::new();
    let elems = b.constant(Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap());
    let init = b.scalar_f32(0.0);
    let r = b.scan(|g, a, e| g.add(a, e), elems, init, WhileOptions::default()).unwrap();
    let out = run1(b, r);
    assert_eq!(out.shape().dims(), &[4]);
    assert_eq!(out.as_f32_slice().unwrap(), &[1.0, 3.0, 6.0, 10.0]);
}

#[test]
fn foldl_foldr_directionality() {
    let mut b = GraphBuilder::new();
    let elems = b.constant(Tensor::from_vec_f32(vec![1.0, 2.0, 4.0], &[3]).unwrap());
    let init = b.scalar_f32(0.0);
    // foldl: ((0-1)-2)-4 = -7; foldr: ((0-4)-2)-1 = -7 ... use division to
    // expose ordering instead: foldl: ((8/2)/2)/2=1 vs foldr over [2,2,8]
    // Keep subtraction but asymmetric elems to check order.
    let l = b.foldl(|g, a, e| g.sub(a, e), elems, init, WhileOptions::default()).unwrap();
    let elems2 = b.constant(Tensor::from_vec_f32(vec![1.0, 2.0, 4.0], &[3]).unwrap());
    let r = b
        .foldr(
            |g, a, e| {
                let two = g.scalar_f32(2.0);
                let ae = g.mul(a, two)?;
                g.add(ae, e)
            },
            elems2,
            init,
            WhileOptions::default(),
        )
        .unwrap();
    let vals = run_graph(b, &HashMap::new(), &[l, r]).unwrap();
    assert_eq!(vals[0].scalar_as_f32().unwrap(), -7.0);
    // foldr: a=0 -> 2*0+4=4 -> 2*4+2=10 -> 2*10+1=21.
    assert_eq!(vals[1].scalar_as_f32().unwrap(), 21.0);
}

#[test]
fn map_fn_squares() {
    let mut b = GraphBuilder::new();
    let elems = b.constant(Tensor::from_vec_f32(vec![1.0, -2.0, 3.0], &[3]).unwrap());
    let m = b.map_fn(|g, e| g.square(e), elems, DType::F32, WhileOptions::default()).unwrap();
    let out = run1(b, m);
    assert_eq!(out.as_f32_slice().unwrap(), &[1.0, 4.0, 9.0]);
}

#[test]
fn matmul_loop_power() {
    // x(I) multiplied by W three times inside a loop.
    let mut b = GraphBuilder::new();
    let w = b.constant(Tensor::from_vec_f32(vec![2.0, 0.0, 0.0, 2.0], &[2, 2]).unwrap());
    let x0 = b.constant(Tensor::eye(2));
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(3);
    let outs = b
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                let x = g.matmul(v[1], w)?;
                Ok(vec![i, x])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let out = run1(b, outs[1]);
    assert_eq!(out.as_f32_slice().unwrap(), &[8.0, 0.0, 0.0, 8.0]);
}

#[test]
fn stack_push_pop_roundtrip() {
    let mut b = GraphBuilder::new();
    let anchor = b.scalar_i64(0);
    let handle = b.stack_create(anchor, false).unwrap();
    let idx = b.scalar_i64(0);
    let v = b.constant(Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap());
    let pushed = b.stack_push(handle, idx, v).unwrap();
    let popped = b.stack_pop(handle, idx, DType::F32).unwrap();
    // Order the pop after the push.
    b.add_control_input(popped.node, pushed.node);
    let out = run_graph(b, &HashMap::new(), &[popped]).unwrap();
    assert_eq!(out[0].as_f32_slice().unwrap(), &[1.0, 2.0]);
}

#[test]
fn random_uniform_is_deterministic_per_seed() {
    let build = || {
        let mut b = GraphBuilder::new();
        let tick = b.scalar_i64(0);
        let r = b.random_uniform(&[4], 0.0, 1.0, tick).unwrap();
        (b, r)
    };
    let (b1, r1) = build();
    let (b2, r2) = build();
    let v1 = run1(b1, r1);
    let v2 = run1(b2, r2);
    assert!(v1.value_eq(&v2), "same graph, same seed, same tag => same randomness");
    for &x in v1.as_f32_slice().unwrap() {
        assert!((0.0..1.0).contains(&x));
    }
}

#[test]
fn fetching_loop_internal_tensor_fails_cleanly() {
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(2);
    let mut internal = None;
    let _ = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let nxt = g.add(v[0], one)?;
                internal = Some(nxt);
                Ok(vec![nxt])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let err = run_graph(b, &HashMap::new(), &[internal.unwrap()]).unwrap_err();
    assert!(err.to_string().contains("never produced"), "{err}");
}

#[test]
fn gpu_memory_accounting_and_oom() {
    // A chain of big matmuls stored via TensorArray writes on a tiny GPU:
    // forward activations accumulate until the allocator rejects one.
    let profile = DeviceProfile::gpu_k40()
        .with_time_scale(0.0)
        .with_shape_scale(64)
        // Each 16x16 f32 models a 1024x1024 (4 MiB); cap at 16 MiB.
        .with_memory_capacity(16 << 20);
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::ones(&[16, 16]));
    let size = b.scalar_i64(8);
    let ta = b.tensor_array(DType::F32, size).unwrap();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(8);
    let outs = b
        .while_loop(
            &[i0, x, ta.flow],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                let y = g.matmul(v[1], v[1])?;
                let flow = ta.with_flow(v[2]).write(g, v[0], y)?.flow;
                Ok(vec![i, y, flow])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, profile);
    let exec = Executor::new(
        eg,
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    let err = exec.run(&HashMap::new(), &[outs[0]]).unwrap_err();
    assert!(matches!(err, crate::ExecError::OutOfMemory(_)), "expected OOM, got {err}");
}

#[test]
fn gpu_compute_succeeds_with_enough_memory() {
    let profile = DeviceProfile::gpu_k40().with_time_scale(0.0).with_shape_scale(4);
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::eye(8));
    let y = b.matmul(x, x).unwrap();
    let s = b.reduce_sum(y).unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, profile);
    let exec = Executor::new(
        eg,
        device.clone(),
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    let out = exec.run(&HashMap::new(), &[s]).unwrap();
    assert_eq!(out.values[0].scalar_as_f32().unwrap(), 8.0);
    // All transient charges released at run end.
    assert_eq!(device.allocator().in_use(), 0);
    assert!(device.allocator().peak() > 0);
}

#[test]
fn select_and_logic_ops_execute() {
    let mut b = GraphBuilder::new();
    let t = b.constant(Tensor::scalar_bool(true));
    let f = b.constant(Tensor::scalar_bool(false));
    let and = b.logical_and(t, f).unwrap();
    let or = b.logical_or(t, f).unwrap();
    let not = b.logical_not(f).unwrap();
    let a = b.scalar_f32(1.0);
    let c = b.scalar_f32(2.0);
    let sel = b.select(or, a, c).unwrap();
    let vals = run_graph(b, &HashMap::new(), &[and, or, not, sel]).unwrap();
    assert!(!vals[0].scalar_as_bool().unwrap());
    assert!(vals[1].scalar_as_bool().unwrap());
    assert!(vals[2].scalar_as_bool().unwrap());
    assert_eq!(vals[3].scalar_as_f32().unwrap(), 1.0);
}

#[test]
fn kernel_error_inside_loop_surfaces_cleanly() {
    // A matmul with mismatched shapes inside the loop body must abort the
    // run with a kernel error (not hang or panic).
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let x0 = b.constant(Tensor::ones(&[2, 3]));
    let lim = b.scalar_i64(5);
    let outs = b
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                // [2,3] x [2,3]: invalid on the second iteration's shapes
                // as well; fails at iteration 0.
                let bad = g.matmul(v[1], v[1])?;
                Ok(vec![g.add(v[0], one)?, bad])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let err = run_graph(b, &HashMap::new(), &[outs[0]]).unwrap_err();
    match err {
        crate::ExecError::Kernel { detail, .. } => {
            assert!(detail.contains("matmul"), "{detail}")
        }
        other => panic!("expected kernel error, got {other}"),
    }
}

#[test]
fn forwarding_ops_share_memory_charges() {
    // A value forwarded through Switch/Merge/Identity must charge device
    // memory once, not once per hop.
    let profile = DeviceProfile::gpu_k40().with_time_scale(0.0).with_shape_scale(16);
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::ones(&[16, 16])); // 1 MiB modeled
    let p = b.constant(Tensor::scalar_bool(true));
    let outs = b
        .cond(
            p,
            |g| {
                // Five forwarding hops.
                let a = g.identity(x)?;
                let bb = g.identity(a)?;
                Ok(vec![g.identity(bb)?])
            },
            |g| Ok(vec![g.identity(x)?]),
        )
        .unwrap();
    let s = b.reduce_sum(outs[0]).unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, profile);
    let exec = Executor::new(
        eg,
        device.clone(),
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    exec.run(&HashMap::new(), &[s]).unwrap();
    // Peak should be on the order of the single 1 MiB constant (plus small
    // outputs), far below 5x.
    let peak = device.allocator().peak();
    assert!(peak < 3 * (1 << 20), "forwarding chains double-charged memory: peak {peak} bytes");
}

#[test]
fn zero_trip_nested_loop_completes() {
    // An inner loop whose predicate is false on the very first iteration,
    // nested in an outer loop that runs: frame completion bookkeeping must
    // handle empty inner frames created per outer iteration.
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(3);
    let outs = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let never = g.constant(Tensor::scalar_bool(false));
                let j0 = g.scalar_i64(100);
                let inner = g.while_loop(
                    &[j0],
                    |g, _| g.identity(never),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        Ok(vec![g.add(w[0], one)?])
                    },
                    WhileOptions::default(),
                )?;
                // inner[0] is always 100.
                let hundred = g.scalar_i64(100);
                let diff = g.sub(inner[0], hundred)?;
                let one = g.scalar_i64(1);
                let step = g.add(v[0], one)?;
                Ok(vec![g.add(step, diff)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let out = run_graph(b, &HashMap::new(), &[outs[0]]).unwrap();
    assert_eq!(out[0].scalar_as_i64().unwrap(), 3);
}

#[test]
fn deeply_nested_conditionals_execute() {
    // Four levels of cond nesting, all combinations of predicates.
    for bits in 0..16u32 {
        let mut b = GraphBuilder::new();
        let preds: Vec<_> =
            (0..4).map(|i| b.constant(Tensor::scalar_bool(bits & (1 << i) != 0))).collect();
        let x = b.scalar_f32(1.0);
        let mut expr = x;
        for (lvl, &p) in preds.iter().enumerate() {
            let scale_t = b.scalar_f32((lvl + 2) as f32);
            let cur = expr;
            let outs = b
                .cond(p, |g| Ok(vec![g.mul(cur, scale_t)?]), |g| Ok(vec![g.identity(cur)?]))
                .unwrap();
            expr = outs[0];
        }
        let out = run_graph(b, &HashMap::new(), &[expr]).unwrap();
        let mut expect = 1.0f32;
        for lvl in 0..4 {
            if bits & (1 << lvl) != 0 {
                expect *= (lvl + 2) as f32;
            }
        }
        assert_eq!(out[0].scalar_as_f32().unwrap(), expect, "bits={bits:04b}");
    }
}

#[test]
fn case_dispatches_each_branch_at_runtime() {
    for (iv, expect) in [(0i64, -10.0f32), (1, 100.0), (2, 10.0), (7, -1.0)] {
        let mut b = GraphBuilder::new();
        let i = b.placeholder("i", DType::I64);
        let x = b.scalar_f32(10.0);
        let outs = b
            .case(
                i,
                vec![
                    Box::new(|g: &mut GraphBuilder| Ok(vec![g.neg(x)?])),
                    Box::new(|g: &mut GraphBuilder| Ok(vec![g.square(x)?])),
                    Box::new(|g: &mut GraphBuilder| Ok(vec![g.identity(x)?])),
                ],
                |g| Ok(vec![g.scalar_f32(-1.0)]),
            )
            .unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("i".to_string(), Tensor::scalar_i64(iv));
        let out = run_graph(b, &feeds, &[outs[0]]).unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), expect, "index={iv}");
    }
}

// ----------------------------------------------------------------------
// Who runs an activation (per-thread ready queues)
// ----------------------------------------------------------------------

/// Runs `fetches` on `device` with `workers` pool threads under a software
/// trace, returning the run's result and the per-activation records.
fn run_traced(
    b: GraphBuilder,
    device: Arc<Device>,
    workers: usize,
    fetches: &[TensorRef],
) -> (crate::Result<crate::RunOutcome>, Vec<dcf_device::NodeStats>) {
    let eg = ExecGraph::local(Arc::new(b.finish().expect("graph should validate")));
    let exec = Executor::new(
        eg,
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions { workers, ..Default::default() },
    );
    let collector = Arc::new(StepStatsCollector::new(TraceLevel::Software));
    let dev = collector.register_device("dev");
    let config = RunConfig {
        collector: Some(DeviceCollector::new(dev, collector.clone())),
        ..RunConfig::default()
    };
    let result = exec.run_with(Arc::new(HashMap::new()), fetches, config);
    (result, collector.finish().devices.remove(0).node_stats)
}

/// The worker ordinals of the two `MatMul` activations of a graph in which
/// one completion (the constant `x`) readies two independent `n`×`n`
/// matmuls at once.
fn sibling_matmul_workers(n: usize) -> (u32, u32) {
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::eye(n));
    let p = b.matmul(x, x).unwrap();
    let q = b.matmul_t(x, x, true, false).unwrap();
    let device = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
    let (result, nodes) = run_traced(b, device, 2, &[p, q]);
    let out = result.expect("run should succeed");
    assert!(out.values.iter().all(|v| v.value_eq(&Tensor::eye(n))));
    let on: Vec<u32> =
        nodes.iter().filter(|s| s.node.starts_with("MatMul")).map(|s| s.worker).collect();
    assert_eq!(on.len(), 2, "two matmul activations, got {nodes:?}");
    (on[0], on[1])
}

#[test]
fn expensive_sibling_kernels_run_on_different_threads_cheap_ones_on_one() {
    // 8x8: ~0.6 µs each, far below a wake-up — both stay with the thread
    // that made them ready.
    let (a, b) = sibling_matmul_workers(8);
    assert_eq!(a, b, "cheap siblings were split across threads");
    // 64x64: ~60 µs each, above the expensive-kernel bound — the thread
    // that pops the first spills the second to the pool before computing.
    let (a, b) = sibling_matmul_workers(64);
    assert_ne!(a, b, "expensive siblings were serialized on one thread");
}

/// A completion readies `P` (allocates 4 MiB) and `Q` (the last consumer
/// of a 4 MiB token) on a 6 MiB device: `P`'s allocation can only succeed
/// after `Q` ran. Whichever the thread pops first, the run must succeed
/// without a failed allocation — a thread about to wait for memory hands
/// its ready queue (here: `Q`) to the pool first.
#[test]
fn waiting_for_memory_does_not_strand_the_activation_that_frees_it() {
    for p_first in [true, false] {
        let profile = DeviceProfile::gpu_k40()
            .with_time_scale(0.0)
            .with_shape_scale(64)
            // A 16x16 f32 models 1024x1024: 4 MiB.
            .with_memory_capacity(6 << 20);
        let mut b = GraphBuilder::new();
        let big = b.constant(Tensor::ones(&[16, 16]));
        let one = b.scalar_f32(1.0);
        let gate = b.identity(one).unwrap();
        // `gate`'s consumers are delivered to, and so queued, in creation
        // order.
        let (p, q) = if p_first {
            let p = b.broadcast_to(gate, &[16, 16]).unwrap();
            (p, b.reduce_to_like(big, gate).unwrap())
        } else {
            let q = b.reduce_to_like(big, gate).unwrap();
            (b.broadcast_to(gate, &[16, 16]).unwrap(), q)
        };
        let p_sum = b.reduce_sum(p).unwrap();
        let total = b.add(p_sum, q).unwrap();
        let device = Device::new(DeviceId(0), 0, profile);
        let (result, _) = run_traced(b, device.clone(), 2, &[total]);
        let out = result.unwrap_or_else(|e| panic!("p_first={p_first}: {e}"));
        assert_eq!(out.values[0].scalar_as_f32().unwrap(), 512.0);
        assert_eq!(device.allocator().failed_allocs(), 0, "p_first={p_first}");
        assert_eq!(device.allocator().in_use(), 0);
    }
}

/// The thread driving a CPU-only step is the one that must notice its
/// deadline: nothing else is awake to do it.
#[test]
fn deadline_fires_while_the_calling_thread_is_running_the_loop() {
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(i64::MAX);
    let outs = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let eg = ExecGraph::local(Arc::new(b.finish().unwrap()));
    let device = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
    let exec = Executor::new(
        eg,
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    let budget = Duration::from_millis(20);
    let started = Instant::now();
    let err = exec
        .run_with(
            Arc::new(HashMap::new()),
            &[outs[0]],
            RunConfig { timeout: Some(budget), ..RunConfig::default() },
        )
        .unwrap_err();
    assert!(matches!(err, crate::ExecError::DeadlineExceeded { .. }), "got {err}");
    assert!(started.elapsed() < budget * 10, "took {:?}", started.elapsed());
}

/// A loop constant that arrives late — after the loop counter has already
/// opened every iteration of the parallel window — is replayed into each
/// live iteration, and iterations opened after it see it through
/// `ensure_iteration`. The constant is a reduction of a modeled 4096×4096
/// matmul (~30 ms on the compute clock); every scalar op models to zero
/// time (no launch overhead), so it runs inline and the counter advances
/// meanwhile.
#[test]
fn late_loop_constant_reaches_every_live_iteration() {
    const TRIPS: i64 = 50;
    for p in [1usize, 8, 32] {
        let profile = DeviceProfile { launch_overhead: Duration::ZERO, ..DeviceProfile::gpu_k40() }
            .with_time_scale(1.0)
            .with_shape_scale(256);
        let mut b = GraphBuilder::new();
        let x = b.constant(Tensor::ones(&[16, 16]));
        let xx = b.matmul(x, x).unwrap();
        // 256 entries of 16 each.
        let c = b.reduce_sum(xx).unwrap();
        let i0 = b.scalar_i64(0);
        let a0 = b.scalar_f32(1.0);
        let lim = b.scalar_i64(TRIPS);
        let outs = b
            .while_loop(
                &[i0, a0],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    Ok(vec![g.add(v[0], one)?, g.add(v[1], c)?])
                },
                WhileOptions { parallel_iterations: p, ..Default::default() },
            )
            .unwrap();
        let eg = ExecGraph::local(Arc::new(b.finish().unwrap()));
        let exec = Executor::new(
            eg,
            Device::new(DeviceId(0), 0, profile),
            ResourceManager::new(),
            Arc::new(InMemoryRendezvous::new()),
            ExecutorOptions::default(),
        );
        let config = RunConfig { timeout: Some(Duration::from_secs(10)), ..RunConfig::default() };
        let out = exec
            .run_with(Arc::new(HashMap::new()), &outs, config)
            .unwrap_or_else(|e| panic!("parallel_iterations={p}: {e}"));
        assert_eq!(out.values[0].scalar_as_i64().unwrap(), TRIPS, "parallel_iterations={p}");
        assert_eq!(
            out.values[1].scalar_as_f32().unwrap(),
            1.0 + TRIPS as f32 * 4096.0,
            "parallel_iterations={p}"
        );
    }
}
