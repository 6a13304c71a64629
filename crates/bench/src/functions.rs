//! Graph-size effect of in-graph functions: an N-layer LSTM step built as
//! N `Call`s of one shared cell body vs. the fully inlined baseline.
//!
//! The point of first-class functions (PR 9) is that N structurally
//! identical layers stop costing N × cell-size in the compiled graph: the
//! cell body is emitted once and every layer is a single `Call` node. This
//! harness counts post-optimization nodes and build+optimize wall time for
//! both constructions across a sweep of depths, and backs the CI smoke
//! gate that the shared-function build stays strictly smaller.

use crate::Report;
use dcf_graph::GraphBuilder;
use dcf_ml::{lstm_stack_calls, lstm_stack_inline, LstmCell};
use dcf_runtime::{optimize, OptLevel};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::time::Instant;

/// Measured numbers for one stack depth.
#[derive(Clone, Debug)]
pub struct Case {
    /// LSTM layers in the stack.
    pub layers: usize,
    /// Post-optimization node count of the `Call`-per-layer build.
    pub call_nodes: usize,
    /// Post-optimization node count of the inlined build.
    pub inline_nodes: usize,
    /// Build + optimize wall time of the `Call`-per-layer build (µs).
    pub call_build_us: f64,
    /// Build + optimize wall time of the inlined build (µs).
    pub inline_build_us: f64,
}

/// Builds an N-layer stack either as calls of one shared cell function or
/// inlined, optimizes it at `OptLevel::Standard`, and returns
/// `(node_count, build_plus_optimize_micros)`.
fn measure(layers: usize, as_calls: bool) -> (usize, f64) {
    let t0 = Instant::now();
    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(11);
    let (batch, feat, hidden) = (2, 3, 4);
    let cells: Vec<LstmCell> = (0..layers)
        .map(|l| {
            let input = if l == 0 { feat } else { hidden };
            LstmCell::new(&mut g, &format!("l{l}"), input, hidden, &mut rng)
        })
        .collect();
    let x = g.constant(rng.uniform(&[batch, feat], -1.0, 1.0));
    let zero = g.constant(Tensor::zeros(DType::F32, &[batch, hidden]));
    let states = vec![(zero, zero); layers];
    let outs = if as_calls {
        lstm_stack_calls(&mut g, "lstm_cell", &cells, x, &states)
    } else {
        lstm_stack_inline(&mut g, &cells, x, &states)
    };
    outs.expect("stack build");
    let mut graph = g.finish().expect("graph finish");
    optimize(&mut graph, OptLevel::Standard).expect("optimize");
    (graph.nodes().len(), t0.elapsed().as_secs_f64() * 1e6)
}

/// Runs the sweep over `layer_counts` and renders the comparison table.
pub fn run(layer_counts: &[usize]) -> (Report, Vec<Case>) {
    let mut report = Report::new(
        "In-graph functions: N-layer LSTM as N calls of one cell body vs. inlined",
        &["layers", "call nodes", "inline nodes", "ratio", "call build µs", "inline build µs"],
    );
    let mut cases = Vec::with_capacity(layer_counts.len());
    for &layers in layer_counts {
        let (call_nodes, call_build_us) = measure(layers, true);
        let (inline_nodes, inline_build_us) = measure(layers, false);
        report.row(vec![
            layers.to_string(),
            call_nodes.to_string(),
            inline_nodes.to_string(),
            format!("{:.2}x", inline_nodes as f64 / call_nodes as f64),
            format!("{call_build_us:.0}"),
            format!("{inline_build_us:.0}"),
        ]);
        cases.push(Case { layers, call_nodes, inline_nodes, call_build_us, inline_build_us });
    }
    report.note(
        "node counts are post-optimization (OptLevel::Standard); the call build \
         pays one shared cell body + per-layer Call/weight nodes, the inline \
         build pays the full cell per layer",
    );
    (report, cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_build_is_smaller_and_grows_slower() {
        // Depths past the crossover: at 2 layers the one-off body overhead
        // still outweighs the sharing (see EXPERIMENTS.md).
        let (_, cases) = run(&[4, 16]);
        for c in &cases {
            assert!(
                c.call_nodes < c.inline_nodes,
                "{} layers: call build {} nodes must undercut inline {}",
                c.layers,
                c.call_nodes,
                c.inline_nodes
            );
        }
        // Marginal cost per extra layer: a handful of Call + weight nodes
        // for the shared build, a whole cell body for the inline build.
        let call_growth = cases[1].call_nodes - cases[0].call_nodes;
        let inline_growth = cases[1].inline_nodes - cases[0].inline_nodes;
        assert!(
            call_growth < inline_growth,
            "per-layer growth: calls {call_growth} vs inline {inline_growth}"
        );
    }
}
