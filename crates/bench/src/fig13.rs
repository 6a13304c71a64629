//! Figure 13: kernel timelines showing compute/copy overlap during memory
//! swapping.
//!
//! Runs the Table 1 workload (swap enabled) under a `TraceLevel::Full`
//! step trace and reports per-stream busy time, the fraction of copy
//! traffic overlapped with compute, and an ASCII rendering of the three
//! streams — the information content of the paper's Figure 13.

use crate::table1::{BATCH, HIDDEN, SCALE};
use crate::Report;
use dcf_autodiff::gradients;
use dcf_device::DeviceProfile;
use dcf_graph::{GraphBuilder, WhileOptions};
use dcf_ml::LstmCell;
use dcf_runtime::{Cluster, RunOptions, Session, SessionOptions, TraceLevel};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::collections::HashMap;

/// Runs one traced training step and reports the stream timelines, with
/// the fractions of D2H and of H2D copy time overlapped with compute.
pub fn run(seq_len: usize, time_scale: f64) -> (Report, String, [f64; 2]) {
    let profile = DeviceProfile::gpu_k40()
        .with_shape_scale(SCALE)
        .with_time_scale(time_scale)
        // Small capacity (with an aggressive swap threshold below) so
        // swapping starts early and the copy streams stay busy.
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
    let grads = gradients(&mut g, loss, &cell.params()).expect("gradients");

    let sess = Session::new(
        g.finish().expect("valid graph"),
        cluster,
        SessionOptions::functional()
            .with_executor(dcf_exec::ExecutorOptions { swap_threshold: 0.3, ..Default::default() }),
    )
    .expect("session");
    let (result, meta) = sess.run(
        &RunOptions::traced(TraceLevel::Full),
        &HashMap::new(),
        &[loss, grads[0], grads[1]],
    );
    result.expect("traced run");
    let stats = meta.step_stats.expect("trace requested");

    let busy = stats.busy_per_stream();
    let compute = "/machine:0/k40:0/compute";
    let d2h = "/machine:0/k40:0/d2h";
    let h2d = "/machine:0/k40:0/h2d";
    let mut report = Report::new(
        "Figure 13: GPU stream timelines with memory swapping",
        &["stream", "busy ms", "overlap with compute"],
    );
    let overlap = [d2h, h2d].map(|key| stats.overlap_fraction(key, compute));
    for (label, key, overlap) in [
        ("Compute", compute, None),
        ("MemCpy DtoH", d2h, Some(overlap[0])),
        ("MemCpy HtoD", h2d, Some(overlap[1])),
    ] {
        let ms = busy.get(key).copied().unwrap_or(0) as f64 / 1e3;
        let overlap = overlap.map_or("-".to_string(), |f| format!("{:.0}%", f * 100.0));
        report.row(vec![label.to_string(), format!("{ms:.1}"), overlap]);
    }
    report.note(
        "Paper: copy kernels on the DtoH/HtoD streams proceed in parallel with compute, so \
         elapsed time with swapping is almost identical to without. Shape target: high \
         overlap percentage for the copy streams.",
    );
    let art = stats.ascii_timeline(100);
    (report, art, overlap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The overlap gate: both copy streams must hide under compute, as the
    /// paper's Figure 13 shows. A swap-in that the compute stream waits for
    /// (a pop whose swap-out is still running, copied back in behind the
    /// copy queue) shows up as copy time with an idle compute stream.
    /// Modeled time is stretched 8× so that an unoptimized build still
    /// launches kernels ahead of the streams.
    #[test]
    fn copies_overlap_compute() {
        let (_, _, [d2h, h2d]) = run(120, 8.0);
        assert!(d2h >= 0.8, "D2H overlap {:.0}% is under 80%", d2h * 100.0);
        assert!(h2d >= 0.8, "H2D overlap {:.0}% is under 80%", h2d * 100.0);
    }
}
