//! `lstm_train`: the paper's Table 1 step. A `dynamic_rnn` LSTM (real
//! 16×16, `shape_scale` 32, so the cost model sees 512×512) over T = 100
//! timesteps, forward + `gradients` + SGD `assign_sub`, on one modeled K40
//! at `time_scale` 1 with `swap_memory` on, a 2 GiB capacity and a 0.6 swap
//! threshold, so that saved activations move to the host and back. The only
//! workload where the device stream threads, allocator charging and the
//! D2H/H2D copy streams do most of the work.

use super::session::SessionModel;
use super::RoundCfg;
use crate::metrics::Values;
use dcf::device::DeviceProfile;
use dcf::exec::ExecutorOptions;
use dcf::ml::{dynamic_rnn, LstmCell};
use dcf::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// Timesteps per training step: Table 1's shortest sequence.
const T: usize = 100;
const SCALE: usize = 32;
const HIDDEN: usize = 512 / SCALE;
const BATCH: usize = 512 / SCALE;
/// Small enough that a T = 100 step crosses the swap threshold (~280
/// swap-out kernels a step), large enough that it never runs out.
const CAPACITY: usize = 2 << 30;
const SWAP_THRESHOLD: f64 = 0.6;
/// Steps of a fresh session whose loss is compared with the reference.
const CHECKED_STEPS: usize = 3;

pub struct LstmTrain {
    /// Seeds weights and inputs, through the program's own `TensorRng`: the
    /// cell draws its weights from one, so the inputs may as well.
    model_seed: u64,
    /// Loss of the first steps on a `time_scale` 0, `OptLevel::None` twin.
    reference_loss: Vec<Tensor>,
    /// What one step of that twin took, ms: the host-only cost of the graph.
    host_step_ms: f64,
}

impl LstmTrain {
    pub fn new(cfg: &RoundCfg) -> LstmTrain {
        let model_seed = crate::gen::Rng::new(cfg.seed, cfg.round, 0x157A).next_u64();
        LstmTrain { model_seed, reference_loss: Vec::new(), host_step_ms: 0.0 }
    }

    fn open_with(
        &self,
        g: GraphBuilder,
        time_scale: f64,
        capacity: usize,
        options: SessionOptions,
    ) -> Session {
        let profile = DeviceProfile::gpu_k40()
            .with_shape_scale(SCALE)
            .with_time_scale(time_scale)
            .with_memory_capacity(capacity);
        let mut cluster = Cluster::new();
        cluster.add_device(0, profile);
        Session::new(g.finish().expect("graph validates"), cluster, options)
            .expect("session builds")
    }

    fn options(workers: usize) -> SessionOptions {
        SessionOptions {
            network: NetworkModel::disabled(),
            executor: ExecutorOptions {
                workers,
                swap_threshold: SWAP_THRESHOLD,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

impl SessionModel for LstmTrain {
    fn build(&self, g: &mut GraphBuilder) -> (Vec<TensorRef>, f64) {
        let mut rng = TensorRng::new(self.model_seed);
        let cell = LstmCell::new(g, "lstm", HIDDEN, HIDDEN, &mut rng);
        let x = g.constant(rng.uniform(&[T, BATCH, HIDDEN], -1.0, 1.0));
        let h0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, HIDDEN]));
        let c0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, HIDDEN]));
        let swap = WhileOptions { swap_memory: true, ..Default::default() };
        let rnn = dynamic_rnn(g, &cell, x, h0, c0, swap).expect("rnn builds");
        let sq = g.square(rnn.outputs).expect("loss builds");
        let loss = g.reduce_mean(sq).expect("loss builds");
        let t0 = Instant::now();
        let grads = gradients(g, loss, &cell.params()).expect("gradients build");
        let gradients_ms = t0.elapsed().as_secs_f64() * 1e3;
        let lr = g.scalar_f32(1e-4);
        let mut fetches = vec![loss];
        for (p, grad) in cell.params().into_iter().zip(grads) {
            let scaled = g.mul(grad, lr).expect("update builds");
            fetches.push(g.assign_sub(p, scaled).expect("update builds"));
        }
        (fetches, gradients_ms)
    }

    fn open(&self, g: GraphBuilder, workers: Option<usize>) -> Session {
        self.open_with(g, 1.0, CAPACITY, LstmTrain::options(workers.unwrap_or(2)))
    }

    fn prepare_reference(&mut self) {
        let mut g = GraphBuilder::new();
        let (fetches, _) = self.build(&mut g);
        let options = SessionOptions { opt: OptLevel::None, ..LstmTrain::options(2) };
        // With no modeled time the scheduler outruns the (instant) copies'
        // bookkeeping and a 2 GiB card fills; values do not depend on
        // capacity, so the reference gets the K40's own 12 GiB.
        let sess = self.open_with(g, 0.0, DeviceProfile::gpu_k40().memory_capacity, options);
        let t0 = Instant::now();
        self.reference_loss = (0..CHECKED_STEPS)
            .map(|_| sess.eval(&HashMap::new(), &fetches).expect("reference step").remove(0))
            .collect();
        self.host_step_ms = t0.elapsed().as_secs_f64() * 1e3 / CHECKED_STEPS as f64;
    }

    /// The first steps' loss is bit-identical to the reference's; later
    /// steps, whose reference would cost a host step each, must at least
    /// report a finite loss.
    fn check(&self, index: usize, outputs: &[Tensor]) -> bool {
        match self.reference_loss.get(index) {
            Some(want) => outputs[0].value_eq(want),
            None => outputs[0].scalar_as_f32().is_ok_and(f32::is_finite),
        }
    }

    /// Throughput counts timesteps.
    fn units(&self, steps: usize, _ops_executed: u64) -> f64 {
        (steps * T) as f64
    }

    fn traced_extras(&self, sess: &Session, steps: usize, v: &mut Values) {
        let allocator = sess.cluster().devices()[0].allocator();
        v.insert("device.peak_mib", allocator.peak() as f64 / (1 << 20) as f64);
        v.insert("device.total_allocs", allocator.total_allocs() as f64 / steps as f64);
        v.insert("device.failed_allocs", allocator.failed_allocs() as f64 / steps as f64);
        v.insert("device.host_step_ms", self.host_step_ms);
        assert!(
            v["device.swap_out_kernels"] > 0.0,
            "lstm_train no longer swaps: it measures nothing"
        );
    }
}
