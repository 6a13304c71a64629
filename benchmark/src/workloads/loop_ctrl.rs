//! `loop_ctrl`: a 40×40 nested `while_loop` whose inner body holds a `cond`
//! taken for the first half of the inner trips, on scalars, in a local
//! session on the CPU profile with default options. ~41 k activations per
//! step and no tensor work to speak of: the executor (frames, deliver, dead
//! tokens, pool hand-off) does almost all of it, and the serve tier, the
//! network simulator and the device stream threads do none.

use super::session::SessionModel;
use super::RoundCfg;
use crate::gen::Rng;
use dcf::prelude::*;

const OUTER: i64 = 40;
const INNER: i64 = 40;

pub struct LoopCtrl {
    /// Accumulator start, and what the taken and untaken branch add.
    acc0: i64,
    taken: i64,
    untaken: i64,
}

impl LoopCtrl {
    pub fn new(cfg: &RoundCfg) -> LoopCtrl {
        let mut rng = Rng::new(cfg.seed, cfg.round, 0x100F);
        LoopCtrl {
            acc0: rng.range(0, 1 << 20) as i64,
            taken: rng.range(1, 1 << 20) as i64,
            untaken: rng.range(1, 1 << 20) as i64,
        }
    }

    /// What the loop nest computes, in closed form.
    fn expected(&self) -> i64 {
        self.acc0 + OUTER * (INNER / 2) * (self.taken + self.untaken)
    }
}

impl SessionModel for LoopCtrl {
    fn build(&self, g: &mut GraphBuilder) -> (Vec<TensorRef>, f64) {
        let (i0, acc0) = (g.scalar_i64(0), g.scalar_i64(self.acc0));
        let (outer, inner, half) =
            (g.scalar_i64(OUTER), g.scalar_i64(INNER), g.scalar_i64(INNER / 2));
        let (taken, untaken) = (g.scalar_i64(self.taken), g.scalar_i64(self.untaken));
        let outs = g
            .while_loop(
                &[i0, acc0],
                |g, v| g.less(v[0], outer),
                |g, v| {
                    let j0 = g.scalar_i64(0);
                    let inner_outs = g.while_loop(
                        &[j0, v[1]],
                        |g, w| g.less(w[0], inner),
                        |g, w| {
                            let one = g.scalar_i64(1);
                            let first_half = g.less(w[0], half)?;
                            let acc = g.cond(
                                first_half,
                                |g| Ok(vec![g.add(w[1], taken)?]),
                                |g| Ok(vec![g.add(w[1], untaken)?]),
                            )?;
                            Ok(vec![g.add(w[0], one)?, acc[0]])
                        },
                        WhileOptions::default(),
                    )?;
                    let one = g.scalar_i64(1);
                    Ok(vec![g.add(v[0], one)?, inner_outs[1]])
                },
                WhileOptions::default(),
            )
            .expect("nested while_loop builds");
        (vec![outs[1]], 0.0)
    }

    fn open(&self, g: GraphBuilder, workers: Option<usize>) -> Session {
        let mut options = SessionOptions::default();
        if let Some(workers) = workers {
            options.executor.workers = workers;
        }
        Session::new(g.finish().expect("graph validates"), Cluster::single_cpu(), options)
            .expect("session builds")
    }

    fn prepare_reference(&mut self) {}

    fn check(&self, _index: usize, outputs: &[Tensor]) -> bool {
        outputs[0].scalar_as_i64().is_ok_and(|acc| acc == self.expected())
    }

    /// Throughput counts activations.
    fn units(&self, _steps: usize, ops_executed: u64) -> f64 {
        ops_executed as f64
    }
}
