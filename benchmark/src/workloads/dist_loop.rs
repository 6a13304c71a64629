//! `dist_loop`: the paper's Fig. 10(b) / Fig. 11 loop. Two machines on the
//! CPU profile, `NetworkModel::default()` (25 µs a hop), a 1 000-iteration
//! `while_loop` whose body ends in an AllReduce-style barrier (sum on machine
//! 0, redistributed), `parallel_iterations = 32`. Rendezvous keys, the
//! network simulator's timer and the per-partition control-loop state
//! machines are on every iteration's critical path. The barrier form is
//! used because its run-to-run spread is a few percent where the
//! barrier-free loop's medians move by 2×.

use super::session::SessionModel;
use super::RoundCfg;
use crate::gen::Rng;
use dcf::prelude::*;
use std::collections::HashMap;

const MACHINES: usize = 2;
const ITERATIONS: i64 = 1000;

pub struct DistLoop {
    /// Each machine's start value and per-iteration multiplier.
    start: Vec<f32>,
    factor: Vec<f32>,
    /// Counter and per-machine values of a one-machine run of the same graph.
    reference: Vec<Tensor>,
}

impl DistLoop {
    pub fn new(cfg: &RoundCfg) -> DistLoop {
        let mut rng = Rng::new(cfg.seed, cfg.round, 0xD157);
        DistLoop {
            start: rng.f32s(MACHINES, 0.5, 1.5),
            factor: rng.f32s(MACHINES, 0.9999, 1.0001),
            reference: Vec::new(),
        }
    }

    /// The loop, with logical machine `m` placed on `placement[m]`.
    fn build_on(&self, g: &mut GraphBuilder, placement: [usize; MACHINES]) -> Vec<TensorRef> {
        let device = |m: usize| format!("/machine:{}/cpu:0", placement[m]);
        let i0 = g.scalar_i64(0);
        let limit = g.scalar_i64(ITERATIONS);
        let mut inits = vec![i0];
        for m in 0..MACHINES {
            inits.push(g.with_device(device(m), |g| g.scalar_f32(self.start[m])));
        }
        g.while_loop(
            &inits,
            |g, v| g.less(v[0], limit),
            |g, v| {
                let one = g.scalar_i64(1);
                let mut results = vec![g.add(v[0], one)?];
                let mut partials = Vec::with_capacity(MACHINES);
                for m in 0..MACHINES {
                    partials.push(g.with_device(device(m), |g| {
                        let c = g.scalar_f32(self.factor[m]);
                        g.mul(v[1 + m], c)
                    })?);
                }
                let total = g.with_device(device(0), |g| g.add_n(&partials))?;
                let scale = g.scalar_f32(1.0 / MACHINES as f32);
                for m in 0..MACHINES {
                    results.push(g.with_device(device(m), |g| g.mul(total, scale))?);
                }
                Ok(results)
            },
            WhileOptions { parallel_iterations: 32, ..Default::default() },
        )
        .expect("distributed while_loop builds")
    }
}

impl SessionModel for DistLoop {
    fn build(&self, g: &mut GraphBuilder) -> (Vec<TensorRef>, f64) {
        (self.build_on(g, [0, 1]), 0.0)
    }

    fn open(&self, g: GraphBuilder, workers: Option<usize>) -> Session {
        let mut options = SessionOptions { network: NetworkModel::default(), ..Default::default() };
        if let Some(workers) = workers {
            options.executor.workers = workers;
        }
        let cluster = Cluster::gpu_machines(MACHINES, DeviceProfile::cpu());
        Session::new(g.finish().expect("graph validates"), cluster, options)
            .expect("session builds")
    }

    fn prepare_reference(&mut self) {
        let mut g = GraphBuilder::new();
        let fetches = self.build_on(&mut g, [0, 0]);
        let cluster = Cluster::gpu_machines(1, DeviceProfile::cpu());
        let sess = Session::new(g.finish().expect("graph validates"), cluster, Default::default())
            .expect("reference session builds");
        self.reference = sess.eval(&HashMap::new(), &fetches).expect("one-machine reference run");
    }

    fn check(&self, _index: usize, outputs: &[Tensor]) -> bool {
        outputs.len() == self.reference.len()
            && outputs[0].scalar_as_i64().is_ok_and(|i| i == ITERATIONS)
            && outputs.iter().zip(&self.reference).all(|(got, want)| got.value_eq(want))
    }

    /// Throughput counts loop iterations.
    fn units(&self, steps: usize, _ops_executed: u64) -> f64 {
        steps as f64 * ITERATIONS as f64
    }

    fn iterations(&self) -> Option<f64> {
        Some(ITERATIONS as f64)
    }
}
