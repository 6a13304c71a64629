//! Table 1: LSTM training time per loop iteration vs. sequence length,
//! with memory swapping enabled or disabled.
//!
//! A single-layer LSTM (512 modeled units, modeled batch 512) trains with
//! `dynamic_rnn` + `gradients` on one simulated K40. Backpropagation saves
//! every needed intermediate; without swapping those saves accumulate in
//! device memory until the allocator rejects one (OOM). With swapping the
//! saves move to host memory over the D2H stream, overlapped with compute,
//! and training time per timestep stays flat.
//!
//! The device capacity is calibrated (from the measured per-timestep
//! footprint) so the OOM boundary lands between 500 and 600 timesteps,
//! mirroring the paper's 12 GB K40.

use crate::Report;
use dcf_autodiff::gradients;
use dcf_device::DeviceProfile;
use dcf_exec::{ExecError, ExecutorOptions};
use dcf_graph::{GraphBuilder, WhileOptions};
use dcf_ml::LstmCell;
use dcf_runtime::{
    Cluster, NetworkModel, RunMetadata, RunOptions, Session, SessionOptions, TraceLevel,
};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::collections::HashMap;
use std::time::Instant;

/// Nominal (paper) sizes and the real computed sizes.
pub const SCALE: usize = 32;
/// Real hidden units (models 512).
pub const HIDDEN: usize = 512 / SCALE;
/// Real batch (models 512).
pub const BATCH: usize = 512 / SCALE;

/// Outcome of one configuration.
pub enum Outcome {
    /// Milliseconds of training time per loop iteration (timestep).
    MsPerIteration(f64),
    /// The device ran out of memory.
    Oom,
}

/// Builds and runs one LSTM training step; returns per-iteration time.
pub fn measure(seq_len: usize, swap: bool, capacity: usize, time_scale: f64) -> Outcome {
    measure_with_threshold(seq_len, swap, capacity, time_scale, 0.6)
}

/// [`measure`] with an explicit swap threshold (the §5.3 "predefined
/// threshold" knob; used by the ablation harness).
pub fn measure_with_threshold(
    seq_len: usize,
    swap: bool,
    capacity: usize,
    time_scale: f64,
    swap_threshold: f64,
) -> Outcome {
    step(seq_len, swap, capacity, time_scale, swap_threshold, &RunOptions::default()).0
}

/// Runs one `TraceLevel::Full`-traced swapping step and counts its
/// swap-outs minus its swap-ins: the pops that took their device buffer
/// back while its swap-out was still running. `None` on OOM.
pub(crate) fn pops_reclaimed(
    seq_len: usize,
    capacity: usize,
    time_scale: f64,
    swap_threshold: f64,
) -> Option<usize> {
    let traced = RunOptions::traced(TraceLevel::Full);
    let (outcome, meta) = step(seq_len, true, capacity, time_scale, swap_threshold, &traced);
    if let Outcome::Oom = outcome {
        return None;
    }
    let kernels = &meta.step_stats.expect("trace requested").devices[0].kernel_stats;
    let on = |track: &str| kernels.iter().filter(|k| k.stream.ends_with(track)).count();
    Some(on("/d2h") - on("/h2d"))
}

fn step(
    seq_len: usize,
    swap: bool,
    capacity: usize,
    time_scale: f64,
    swap_threshold: f64,
    options: &RunOptions,
) -> (Outcome, RunMetadata) {
    let profile = DeviceProfile::gpu_k40()
        .with_shape_scale(SCALE)
        .with_time_scale(time_scale)
        .with_memory_capacity(capacity);
    let mut cluster = Cluster::new();
    cluster.add_device(0, profile);

    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(17);
    let cell = LstmCell::new(&mut g, "lstm", HIDDEN, HIDDEN, &mut rng);
    let x = g.constant(rng.uniform(&[seq_len, BATCH, HIDDEN], -1.0, 1.0));
    let h0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, HIDDEN]));
    let c0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, HIDDEN]));
    let rnn = dcf_ml::dynamic_rnn(
        &mut g,
        &cell,
        x,
        h0,
        c0,
        WhileOptions { swap_memory: swap, ..Default::default() },
    )
    .expect("rnn construction");
    let sq = g.square(rnn.outputs).expect("loss");
    let loss = g.reduce_mean(sq).expect("loss");
    let grads = gradients(&mut g, loss, &cell.params()).expect("gradient construction");
    let lr = g.scalar_f32(1e-4);
    let mut fetches = vec![loss];
    for (p, grad) in cell.params().into_iter().zip(grads) {
        let scaled = g.mul(grad, lr).expect("update");
        fetches.push(g.assign_sub(p, scaled).expect("update"));
    }

    let sess = Session::new(
        g.finish().expect("valid graph"),
        cluster,
        SessionOptions {
            network: NetworkModel::disabled(),
            executor: ExecutorOptions { workers: 2, swap_threshold, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("session");
    let t0 = Instant::now();
    let (result, meta) = sess.run(options, &HashMap::new(), &fetches);
    let outcome = match result {
        Ok(_) => Outcome::MsPerIteration(t0.elapsed().as_secs_f64() * 1e3 / seq_len as f64),
        Err(ExecError::OutOfMemory(_)) => Outcome::Oom,
        Err(e) => panic!("unexpected failure: {e}"),
    };
    (outcome, meta)
}

/// Runs one traced swap-enabled training step and returns Chrome-trace
/// JSON showing the D2H/H2D copy streams overlapping with compute.
pub fn trace(seq_len: usize, time_scale: f64) -> String {
    let profile = DeviceProfile::gpu_k40()
        .with_shape_scale(SCALE)
        .with_time_scale(time_scale)
        // Small capacity with an aggressive swap threshold so swapping
        // starts early and the copy streams stay busy, as in Figure 13.
        .with_memory_capacity(2 << 30);
    let mut cluster = Cluster::new();
    cluster.add_device(0, profile);

    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(17);
    let cell = LstmCell::new(&mut g, "lstm", HIDDEN, HIDDEN, &mut rng);
    let x = g.constant(rng.uniform(&[seq_len, BATCH, HIDDEN], -1.0, 1.0));
    let h0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, HIDDEN]));
    let c0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, HIDDEN]));
    let rnn = dcf_ml::dynamic_rnn(
        &mut g,
        &cell,
        x,
        h0,
        c0,
        WhileOptions { swap_memory: true, ..Default::default() },
    )
    .expect("rnn construction");
    let sq = g.square(rnn.outputs).expect("loss");
    let loss = g.reduce_mean(sq).expect("loss");
    let grads = gradients(&mut g, loss, &cell.params()).expect("gradient construction");

    let sess = Session::new(
        g.finish().expect("valid graph"),
        cluster,
        SessionOptions {
            network: NetworkModel::disabled(),
            executor: ExecutorOptions { workers: 2, swap_threshold: 0.3, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("session");
    let (result, meta) = sess.run(
        &RunOptions::traced(TraceLevel::Full).with_tag("table1"),
        &HashMap::new(),
        &[loss, grads[0]],
    );
    result.expect("traced run");
    dcf_runtime::chrome_trace_json(&meta.step_stats.expect("trace requested"))
}

/// Measures the peak device footprint of a short run, used to calibrate
/// the capacity so OOM lands between 500 and 600 timesteps.
pub fn calibrate_capacity() -> usize {
    let a = probe_peak(40);
    let b = probe_peak(80);
    // Linear model peak(T) = fixed + slope*T, targeted at ~565 timesteps.
    let slope = (b as f64 - a as f64) / 40.0;
    (a as f64 + slope * (565.0 - 40.0)) as usize
}

fn probe_peak(probe_len: usize) -> usize {
    let profile = DeviceProfile::gpu_k40().with_shape_scale(SCALE).with_time_scale(0.0);
    let mut cluster = Cluster::new();
    cluster.add_device(0, profile);
    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(17);
    let cell = LstmCell::new(&mut g, "lstm", HIDDEN, HIDDEN, &mut rng);
    let x = g.constant(rng.uniform(&[probe_len, BATCH, HIDDEN], -1.0, 1.0));
    let h0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, HIDDEN]));
    let c0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, HIDDEN]));
    let rnn = dcf_ml::dynamic_rnn(&mut g, &cell, x, h0, c0, WhileOptions::default())
        .expect("rnn construction");
    let sq = g.square(rnn.outputs).expect("loss");
    let loss = g.reduce_mean(sq).expect("loss");
    let grads = gradients(&mut g, loss, &cell.params()).expect("gradient construction");
    let device = cluster.devices()[0].clone();
    let sess =
        Session::new(g.finish().expect("valid graph"), cluster, SessionOptions::functional())
            .expect("session");
    sess.eval(&HashMap::new(), &[loss, grads[0]]).expect("probe run");
    device.allocator().peak()
}

/// Runs the sequence-length sweep with swapping disabled and enabled.
pub fn run(seq_lens: &[usize], time_scale: f64) -> Report {
    let capacity = calibrate_capacity();
    let mut report = Report::new(
        "Table 1: LSTM training time per loop iteration (ms) by sequence length",
        &["swap", "100", "200", "500", "600", "700", "900", "1000"],
    );
    let fmt = |o: Outcome| match o {
        Outcome::MsPerIteration(ms) => format!("{ms:.2}"),
        Outcome::Oom => "OOM".to_string(),
    };
    for swap in [false, true] {
        let mut cells = vec![if swap { "Enabled".to_string() } else { "Disabled".to_string() }];
        for &len in seq_lens {
            cells.push(fmt(measure(len, swap, capacity, time_scale)));
        }
        report.row(cells);
    }
    report.note(format!(
        "Simulated K40 capacity calibrated to {:.2} GiB (OOM target between 500 and 600 steps, \
         as in the paper's 12 GB card).",
        capacity as f64 / (1 << 30) as f64
    ));
    report.note(
        "Paper: 5.81/5.78/5.75/OOM/OOM/OOM/OOM disabled; 5.76..5.74 enabled. Shape target: \
         without swapping OOM above ~500 steps; with swapping all lengths complete at \
         essentially constant ms/iteration (I/O fully overlapped, Figure 13).",
    );
    report
}
