//! The five workloads. Each runs in rounds; a round builds a fresh graph,
//! session or registry from `(seed, round)`, so every round compiles cold,
//! then measures for its share of the run.

mod direct;
pub mod dist_loop;
pub mod loop_ctrl;
pub mod lstm_train;
pub mod serve_oneshot;
pub mod serve_stream;
mod session;

use crate::metrics::Values;
use crate::trace::TraceLog;
use dcf::prelude::{DType, Tensor};
use std::time::Duration;

/// What one round is asked to do.
#[derive(Clone, Copy)]
pub struct RoundCfg {
    pub seed: u64,
    pub round: u32,
    /// How long the round measures (set-up and reference runs come on top).
    pub budget: Duration,
    /// Flip one element of one output before it is checked: the run must
    /// then fail. Proves the check has teeth.
    pub corrupt: bool,
}

/// What one untraced round measured.
pub struct Round {
    /// Graph build + `gradients` + cold `Session::new`/`register` + first
    /// successful op.
    pub setup_s: f64,
    /// Work units completed in `wall_s` (the workload's throughput unit).
    pub units: f64,
    pub wall_s: f64,
    /// Latency of every attempted op, ms; `INFINITY` for one that failed,
    /// was refused or returned a wrong output, so it counts as missing.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    LoopCtrl,
    DistLoop,
    LstmTrain,
    ServeOneshot,
    ServeStream,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LoopCtrl,
        Workload::DistLoop,
        Workload::LstmTrain,
        Workload::ServeOneshot,
        Workload::ServeStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopCtrl => "loop_ctrl",
            Workload::DistLoop => "dist_loop",
            Workload::LstmTrain => "lstm_train",
            Workload::ServeOneshot => "serve_oneshot",
            Workload::ServeStream => "serve_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One untraced round.
    pub fn round(self, cfg: &RoundCfg) -> Round {
        match self {
            Workload::LoopCtrl => session::round(&mut loop_ctrl::LoopCtrl::new(cfg), cfg),
            Workload::DistLoop => session::round(&mut dist_loop::DistLoop::new(cfg), cfg),
            Workload::LstmTrain => session::round(&mut lstm_train::LstmTrain::new(cfg), cfg),
            Workload::ServeOneshot => serve_oneshot::round(cfg),
            Workload::ServeStream => serve_stream::round(cfg),
        }
    }

    /// The traced round: per-layer values, spans and step records into `log`.
    /// Returns the values and whether every checked output was right.
    pub fn traced(self, cfg: &RoundCfg, log: &mut TraceLog) -> (Values, bool) {
        match self {
            Workload::LoopCtrl => session::traced(&mut loop_ctrl::LoopCtrl::new(cfg), cfg, log),
            Workload::DistLoop => session::traced(&mut dist_loop::DistLoop::new(cfg), cfg, log),
            Workload::LstmTrain => session::traced(&mut lstm_train::LstmTrain::new(cfg), cfg, log),
            Workload::ServeOneshot => serve_oneshot::traced(cfg, log),
            Workload::ServeStream => serve_stream::traced(cfg, log),
        }
    }
}

/// Flips the first element of an `f32` tensor or bumps an `i64` one: the
/// deliberate corruption behind [`RoundCfg::corrupt`].
pub fn corrupted(t: &Tensor) -> Tensor {
    let dims = t.shape().dims().to_vec();
    match t.dtype() {
        DType::F32 => {
            let mut data = t.as_f32_slice().expect("f32 tensor").to_vec();
            data[0] = -data[0] - 1.0;
            Tensor::from_vec_f32(data, &dims).expect("same shape")
        }
        _ => {
            let mut data = t.as_i64_slice().expect("i64 tensor").to_vec();
            data[0] += 1;
            Tensor::from_vec_i64(data, &dims).expect("same shape")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compile cache is process-wide and tests run in parallel: every
    /// round in this module gets a seed of its own, so each compiles cold.
    fn cfg(seed: u64, budget_ms: u64, corrupt: bool) -> RoundCfg {
        RoundCfg { seed, round: 0, budget: Duration::from_millis(budget_ms), corrupt }
    }

    /// Every workload passes its own check on honest outputs and fails it
    /// when the harness corrupts one output on purpose.
    #[test]
    fn a_corrupted_output_fails_every_workload() {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            let honest = w.round(&cfg(100 + i as u64, 60, false));
            assert_eq!(honest.failed, 0, "{}: honest outputs failed the check", w.name());
            assert!(honest.attempted >= 2 && !honest.op_ms.is_empty(), "{}", w.name());
            let corrupt = w.round(&cfg(200 + i as u64, 60, true));
            assert!(corrupt.failed >= 1, "{}: a corrupted output passed the check", w.name());
        }
    }

    #[test]
    fn the_traced_round_reports_only_known_metrics_and_fails_on_corruption() {
        for (i, w) in [Workload::LoopCtrl, Workload::ServeStream].into_iter().enumerate() {
            let mut log = TraceLog::new();
            let (values, ok) = w.traced(&cfg(300 + i as u64, 300, false), &mut log);
            assert!(ok, "{}", w.name());
            crate::metrics::per_layer(values);
            assert!(log.chrome_json().contains("\"ph\":\"X\""));
            let (_, ok) = w.traced(&cfg(400 + i as u64, 300, true), &mut TraceLog::new());
            assert!(!ok, "{}: a corrupted output passed the traced check", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }
}
