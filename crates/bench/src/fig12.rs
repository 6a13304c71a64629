//! Figure 12: effect of the parallel-iterations knob on a pipelined
//! 8-GPU loop, for K40- and V100-class devices.
//!
//! The loop body is a chain of matrix multiplications, one per GPU: GPU g
//! depends on its own state from the previous iteration *and* on GPU
//! g-1's output from the current iteration (Figure 10(c)), while the loop
//! condition is independent of the body so control can run ahead. With
//! `parallel_iterations = 1` the pipeline never fills (the §6.1
//! out-of-graph-equivalent case); with enough parallel iterations all 8
//! simulated GPUs stay busy.

use crate::Report;
use dcf_device::DeviceProfile;
use dcf_graph::{GraphBuilder, WhileOptions};
use dcf_runtime::{Cluster, NetworkModel, Session, SessionOptions};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::collections::HashMap;
use std::time::Instant;

/// Nominal matrix dimension of the paper's Figure 12 loop body.
pub const NOMINAL_DIM: usize = 1024;
/// Real (computed) dimension; `shape_scale` models the rest.
pub const REAL_DIM: usize = 32;

/// One measurement: iterations/second with `parallel` in-flight iterations.
pub fn measure(profile: DeviceProfile, parallel: usize, iterations: i64) -> f64 {
    let gpus = 8;
    let scale = NOMINAL_DIM / REAL_DIM;
    let profile = profile.with_shape_scale(scale);
    let cluster = Cluster::single_machine_gpus(gpus, profile);

    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(1);
    let w = g.constant(rng.uniform(&[REAL_DIM, REAL_DIM], -0.01, 0.01));
    let i0 = g.scalar_i64(0);
    let lim = g.scalar_i64(iterations);
    let mut inits = vec![i0];
    for _ in 0..gpus {
        inits.push(g.constant(Tensor::zeros(DType::F32, &[REAL_DIM, REAL_DIM])));
    }
    let outs = g
        .while_loop(
            &inits,
            // The condition depends only on the counter: no data dependency
            // on the body, so many iterations can be enqueued ahead.
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                let mut results = vec![i];
                let mut prev_out = None;
                for gpu in 0..gpus {
                    let y = g.with_device(format!("/machine:0/gpu:{gpu}"), |g| {
                        // Own state from the previous iteration plus the
                        // previous GPU's output from this iteration.
                        let input = match prev_out {
                            Some(p) => g.add(v[1 + gpu], p)?,
                            None => v[1 + gpu],
                        };
                        g.matmul(input, w)
                    })?;
                    prev_out = Some(y);
                    results.push(y);
                }
                Ok(results)
            },
            WhileOptions { parallel_iterations: parallel, ..Default::default() },
        )
        .expect("loop construction");
    let sess = Session::new(
        g.finish().expect("valid graph"),
        cluster,
        SessionOptions {
            network: NetworkModel { shape_scale: scale, ..NetworkModel::default() },
            executor: dcf_exec::ExecutorOptions { workers: 4, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("session");

    sess.eval(&HashMap::new(), &[outs[0]]).expect("warmup");
    let t0 = Instant::now();
    sess.eval(&HashMap::new(), &[outs[0]]).expect("measured run");
    iterations as f64 / t0.elapsed().as_secs_f64()
}

/// Runs the full knob sweep for both GPU profiles.
pub fn run(parallel_settings: &[usize], iterations: i64) -> Report {
    let mut report = Report::new(
        "Figure 12: parallel-iterations knob on an 8-GPU pipelined loop",
        &["parallel iterations", "8 x K40 it/s", "DGX-1 V100 it/s"],
    );
    let mut first_k40 = None;
    let mut best_k40: f64 = 0.0;
    for &p in parallel_settings {
        let k40 = measure(DeviceProfile::gpu_k40(), p, iterations);
        let v100 = measure(DeviceProfile::gpu_v100(), p, iterations);
        if first_k40.is_none() {
            first_k40 = Some(k40);
        }
        best_k40 = best_k40.max(k40);
        report.row(vec![p.to_string(), format!("{k40:.0}"), format!("{v100:.0}")]);
    }
    if let Some(f) = first_k40 {
        report.note(format!(
            "In-graph parallelism speedup over sequential iterations (knob=1): {:.1}x \
             (paper reports ~5x, §6.1).",
            best_k40 / f
        ));
    }
    report.note(
        "Paper: K40 peaks above knob=8; V100 peaks at 4 then degrades from scheduling noise. \
         Shape target: throughput rises with the knob until the 8-stage pipeline fills.",
    );
    report.note(format!(
        "Body: 8 chained {NOMINAL_DIM}x{NOMINAL_DIM} modeled matmuls (computed at {REAL_DIM}x{REAL_DIM})."
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The window gate: with one iteration in flight the 8-stage pipeline
    /// never fills, so knob 1 must stay several times slower than knob 8.
    /// If iterations leave the `parallel_iterations` window on the host
    /// before their kernels end in modeled time, knob 1 catches up and this
    /// goes red. Modeled time is stretched 4× so that an unoptimized build
    /// still launches kernels faster than the K40s run them.
    #[test]
    fn knob_1_stays_serialized() {
        let k40 = || DeviceProfile::gpu_k40().with_time_scale(4.0);
        let serial = measure(k40(), 1, 32);
        let pipelined = measure(k40(), 8, 32);
        assert!(
            pipelined >= 4.0 * serial,
            "knob 8 {pipelined:.0} it/s vs knob 1 {serial:.0} it/s: the window does not hold"
        );
    }
}
