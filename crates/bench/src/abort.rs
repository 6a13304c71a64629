//! Abort latency: how long a cancelled run keeps the runtime busy.
//!
//! Two scenarios:
//!
//! * `session/timeout_abort` — an unbounded CPU `while_loop` under a 20 ms
//!   `RunOptions::with_timeout`: wall time until `run` returns
//!   `DeadlineExceeded` with the runtime verifiably quiescent.
//! * `session/gpu_timeout_abort` — the same budget over a K40 `while_loop`
//!   of ~32 ms-modeled matmuls on the compute clock: the host waits for no
//!   kernel it launched once the run has failed, and the device memory
//!   those kernels still held in modeled time is free when `run` returns.

use crate::Report;
use dcf_device::DeviceProfile;
use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
use dcf_runtime::{Cluster, RunOptions, Session, SessionOptions};
use dcf_tensor::{DType, Tensor};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const BUDGET: Duration = Duration::from_millis(20);

/// Shape scale of [`gpu_loop`]: its 8×8 matmuls are modeled as
/// 4096×4096, about 32 ms each on a K40.
const GPU_LOOP_SCALE: usize = 512;

/// A K40 session over `while i < n: x = x · w`, with `n` fed as `"n"`
/// and `x` starting at ones; returns the session and the fetch of `x`.
fn gpu_loop() -> (Session, TensorRef) {
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
            WhileOptions::default(),
        )
        .expect("loop builds");
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_shape_scale(GPU_LOOP_SCALE));
    let graph = b.finish().expect("graph validates");
    let sess = Session::new(graph, cluster, SessionOptions::default()).expect("session builds");
    (sess, outs[1])
}

/// Runs `f` once to warm up, then `samples` times; returns the sorted
/// wall times in milliseconds.
fn time_ms(samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let mut ms: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Runs the abort-latency comparison and returns the report.
pub fn run(samples: usize) -> Report {
    let mut cases = Vec::new();

    // Session-level: time-out an unbounded loop, requiring quiescence.
    let mut b = GraphBuilder::new();
    let init = b.scalar_i64(0);
    let lim = b.scalar_i64(i64::MAX);
    let outs = b
        .while_loop(
            &[init],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            WhileOptions::default(),
        )
        .expect("unbounded loop builds");
    let fetch = outs[0];
    let sess = Session::local(b.finish().expect("graph validates")).expect("session builds");
    let opts = RunOptions::default().with_timeout(BUDGET);
    cases.push((
        "session/timeout_abort (20ms budget)",
        time_ms(samples, || {
            let (result, _) = sess.run(&opts, &HashMap::new(), &[fetch]);
            assert!(result.is_err(), "unbounded loop must abort");
            assert!(sess.quiescent(), "abort must leave the runtime quiescent");
        }),
    ));

    // The same budget over kernels on a K40's compute clock.
    let (sess, fetch) = gpu_loop();
    let feeds = HashMap::from([("n".to_string(), Tensor::scalar_i64(1_000))]);
    cases.push((
        "session/gpu_timeout_abort (20ms budget)",
        time_ms(samples, || {
            let (result, _) = sess.run(&opts, &feeds, &[fetch]);
            assert!(result.is_err(), "a 1000-matmul loop must abort");
            assert!(sess.quiescent(), "abort must leave the runtime quiescent");
            let alloc = sess.cluster().devices()[0].allocator();
            assert_eq!(alloc.in_use(), 0, "abort must return the run's device memory");
        }),
    ));

    let mut report =
        Report::new("Abort latency: timed-out runs", &["case", "median", "mean", "min", "max"]);
    for (name, ms) in &cases {
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        report.row(vec![
            name.to_string(),
            format!("{:.2} ms", ms[ms.len() / 2]),
            format!("{mean:.2} ms"),
            format!("{:.2} ms", ms[0]),
            format!("{:.2} ms", ms[ms.len() - 1]),
        ]);
    }
    report.note(format!(
        "gpu: K40 while_loop of {GPU_LOOP_SCALE}x-scaled 8x8 matmuls (~32 ms modeled each)"
    ));
    report
}
