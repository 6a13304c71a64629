//! What the three `Session` workloads share: a round is "build, open, step
//! until the budget is spent, check every step"; the traced round splits
//! set-up into its layers, times a `workers: 1` twin and reads one traced
//! step's `StepStats`.

use super::{corrupted, Round, RoundCfg};
use crate::layers::{read_compile, read_device, read_step};
use crate::metrics::Values;
use crate::trace::{p50, TraceLog};
use dcf::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One `Session` workload's model for one round.
pub trait SessionModel {
    /// Builds the graph into `g`. Returns the tensors every step fetches and
    /// the ms spent inside `gradients` (0 without a backward pass).
    fn build(&self, g: &mut GraphBuilder) -> (Vec<TensorRef>, f64);

    /// Opens the workload's session over a finished `build`; `workers`
    /// overrides the executor's worker count for the `workers: 1` twin.
    fn open(&self, g: GraphBuilder, workers: Option<usize>) -> Session;

    /// Computes whatever `check` compares against. Runs after the set-up
    /// clock has stopped.
    fn prepare_reference(&mut self);

    /// Whether step `index` (0 = the first step of a fresh session)
    /// produced the right `outputs`.
    fn check(&self, index: usize, outputs: &[Tensor]) -> bool;

    /// Work units (the workload's throughput unit) in `steps` steps that
    /// executed `ops_executed` activations between them.
    fn units(&self, steps: usize, ops_executed: u64) -> f64;

    /// Loop iterations per step, for the `netsim.*_per_iter` metrics.
    fn iterations(&self) -> Option<f64> {
        None
    }

    /// Per-layer values only this workload has, read after `sess` has taken
    /// `steps` steps.
    fn traced_extras(&self, _sess: &Session, _steps: usize, _v: &mut Values) {}
}

/// Steps taken with one set of `RunOptions`.
struct Steps {
    op_ms: Vec<f64>,
    /// Time inside `Session::run`, failed steps included.
    wall_ms: f64,
    ops_executed: u64,
    failed: u64,
    /// The last step: when the harness started it, how long it took, and
    /// what the program recorded.
    last: Option<(Instant, f64, RunMetadata)>,
}

impl Steps {
    fn wall_s(&self) -> f64 {
        self.wall_ms / 1e3
    }

    fn absorb(&mut self, later: Steps) {
        self.op_ms.extend(later.op_ms);
        self.wall_ms += later.wall_ms;
        self.ops_executed += later.ops_executed;
        self.failed += later.failed;
        self.last = later.last;
    }
}

/// Steps `sess` until `budget` is spent (at least once), checking each step
/// as step `first_index + i`.
fn drive<M: SessionModel>(
    model: &M,
    sess: &Session,
    fetches: &[TensorRef],
    options: &RunOptions,
    first_index: usize,
    budget: Duration,
    corrupt: bool,
) -> Steps {
    let feeds = HashMap::new();
    let mut steps =
        Steps { op_ms: Vec::new(), wall_ms: 0.0, ops_executed: 0, failed: 0, last: None };
    let begin = Instant::now();
    while steps.op_ms.is_empty() || begin.elapsed() < budget {
        let t0 = Instant::now();
        let (result, meta) = sess.run(options, &feeds, fetches);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let index = first_index + steps.op_ms.len();
        let ok = match result {
            Ok(mut outputs) => {
                if corrupt && index == first_index {
                    outputs[0] = corrupted(&outputs[0]);
                }
                model.check(index, &outputs)
            }
            Err(e) => {
                eprintln!("step {index} failed: {e}");
                false
            }
        };
        steps.wall_ms += ms;
        steps.ops_executed += meta.ops_executed;
        steps.failed += u64::from(!ok);
        steps.op_ms.push(if ok { ms } else { f64::INFINITY });
        steps.last = Some((t0, ms, meta));
    }
    steps
}

pub fn round<M: SessionModel>(model: &mut M, cfg: &RoundCfg) -> Round {
    // Build, open and the first step: the set-up a user waits for.
    let t0 = Instant::now();
    let mut g = GraphBuilder::new();
    let (fetches, _) = model.build(&mut g);
    let sess = model.open(g, None);
    let first = sess.eval(&HashMap::new(), &fetches);
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(stats) = sess.optimize_stats() {
        assert!(
            !stats.cache_hit,
            "round {} reused a compiled graph: set-up was not cold",
            cfg.round
        );
    }
    model.prepare_reference();
    let first_ok = match first {
        Ok(outputs) => model.check(0, &outputs),
        Err(e) => {
            eprintln!("first step failed: {e}");
            false
        }
    };
    let steps = drive(model, &sess, &fetches, &RunOptions::default(), 1, cfg.budget, cfg.corrupt);
    Round {
        setup_s,
        units: model.units(steps.op_ms.len(), steps.ops_executed),
        wall_s: steps.wall_s(),
        attempted: 1 + steps.op_ms.len() as u64,
        failed: u64::from(!first_ok) + steps.failed,
        op_ms: steps.op_ms,
    }
}

pub fn traced<M: SessionModel>(
    model: &mut M,
    cfg: &RoundCfg,
    log: &mut TraceLog,
) -> (Values, bool) {
    let mut v = Values::new();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    // Set-up, layer by layer: build (less the time inside `gradients`), a
    // cold open, and the open of the `workers: 1` twin, which hits the
    // compile cache: it is keyed by graph and cluster, not executor options.
    let t0 = Instant::now();
    let mut g = GraphBuilder::new();
    let (fetches, gradients_ms) = model.build(&mut g);
    v.insert("graph.build_ms", ms(t0) - gradients_ms);
    v.insert("autodiff.gradients_ms", gradients_ms);
    v.insert("graph.nodes", g.graph().len() as f64);
    let t0 = Instant::now();
    let sess = model.open(g, None);
    v.insert("runtime.session_new_cold_ms", ms(t0));
    let mut g = GraphBuilder::new();
    model.build(&mut g);
    let t0 = Instant::now();
    let twin = model.open(g, Some(1));
    v.insert("runtime.session_new_cached_ms", ms(t0));
    read_compile(&sess, &twin, &mut v);
    model.prepare_reference();

    // A third of the budget each: untraced, the `workers: 1` twin, traced.
    // The first two alternate in slices, so that a slow minute on the box
    // slows both sides of `exec.handoff_ratio`. Step indices continue across
    // slices so stateful models stay in step with their reference; the twin
    // is its own session, from step 0.
    const SLICES: u32 = 4;
    let share = cfg.budget / 3;
    let untraced = RunOptions::default();
    let mut plain = drive(model, &sess, &fetches, &untraced, 0, share / SLICES, cfg.corrupt);
    let mut single = drive(model, &twin, &fetches, &untraced, 0, share / SLICES, false);
    for _ in 1..SLICES {
        let at = plain.op_ms.len();
        plain.absorb(drive(model, &sess, &fetches, &untraced, at, share / SLICES, false));
        let at = single.op_ms.len();
        single.absorb(drive(model, &twin, &fetches, &untraced, at, share / SLICES, false));
    }
    let traced_options = RunOptions::traced(TraceLevel::Full).with_tag("traced");
    let traced = drive(model, &sess, &fetches, &traced_options, plain.op_ms.len(), share, false);

    let per_activation = |s: &Steps| s.wall_s() * 1e9 / s.ops_executed.max(1) as f64;
    v.insert("exec.activation_ns", per_activation(&plain));
    v.insert("exec.activation_ns_w1", per_activation(&single));
    v.insert("exec.handoff_ratio", per_activation(&plain) / per_activation(&single));
    v.insert("exec.ops_per_step", plain.ops_executed as f64 / plain.op_ms.len() as f64);
    v.insert("trace.overhead_ratio", per_activation(&traced) / per_activation(&plain));

    let (started, step_ms, meta) = traced.last.as_ref().expect("drive steps at least once");
    let stats = meta.step_stats.as_ref().expect("a traced run returns step stats");
    let wall_us = step_ms * 1e3;
    log.span("Session::run", 0, None, *started, *started + meta.wall, String::new());
    log.step(*started, "traced", stats);
    let unattributed = read_step(stats, wall_us, &mut v);
    v.insert("trace.unattributed_share", unattributed);
    if stats.devices.iter().any(|d| !d.kernel_stats.is_empty()) {
        read_device(stats, wall_us, &mut v);
    }
    if let Some(iters) = model.iterations() {
        let delays: Vec<f64> = stats.transfers.iter().map(|t| t.delay_us as f64).collect();
        v.insert("netsim.transfers_per_iter", delays.len() as f64 / iters);
        v.insert("netsim.modeled_delay_us_per_iter", delays.iter().sum::<f64>() / iters);
        // Wall per iteration of the untraced steps, less the two modeled
        // hops the barrier puts on every iteration's critical path (partial
        // sums in, total back out): what the machinery around them costs.
        let per_iter_us = plain.wall_s() * 1e6 / (plain.op_ms.len() as f64 * iters);
        v.insert("netsim.overhead_us_per_iter", per_iter_us - 2.0 * p50(&delays));
    }
    model.traced_extras(&sess, plain.op_ms.len() + traced.op_ms.len(), &mut v);
    let ok = plain.failed + single.failed + traced.failed == 0;
    (v, ok)
}
