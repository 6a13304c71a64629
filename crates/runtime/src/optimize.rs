//! Whole-graph optimization: the multi-pass rewriter run once per compiled
//! graph (§3).
//!
//! The paper's runtime "includes optimizations such as common subexpression
//! elimination and constant propagation" on the unified dataflow graph —
//! one of the stated advantages of the in-graph approach. This module
//! implements that rewriter role as a pipeline of four passes, run by
//! `Session::new` before placement and partitioning:
//!
//! 1. **Constant propagation** ([`fold_constants`]): pure root-context
//!    operations whose inputs are all compile-time constants are evaluated
//!    once and replaced, in place, by `Const` nodes.
//! 2. **Common-subexpression elimination**: structurally identical pure
//!    root-context nodes (same op, attributes, inputs, and device spec)
//!    are merged; all uses of the duplicate are rewired to the survivor.
//! 3. **Elementwise fusion**: straight-line (tree-shaped) chains of pure
//!    `f32` elementwise ops inside any *single* context are collapsed into
//!    one [`OpKind::Fused`] node executed by a register-file interpreter
//!    kernel — one scheduler activation and one output allocation instead
//!    of one per chain link.
//! 4. **Dead-node pruning**: the nodes the earlier passes condemned (CSE
//!    duplicates, fusion-absorbed members) are removed and the node table
//!    is compacted; every surviving node gets a new dense id and callers'
//!    handles are translated through the returned remap. Nodes merely
//!    *orphaned* (e.g. operands of a folded expression) are kept — a
//!    caller may still fetch them, and fetches are unknown until run
//!    time.
//!
//! Safety invariants: folding and CSE are restricted to the **root
//! context** — a node inside a conditional branch or loop body must keep
//! its guarded/framed inputs so that deadness and per-iteration semantics
//! are preserved. Fusion may run inside a context but never *across*
//! contexts (all chain members share one context, so the fused node sees
//! the same frames and deadness the chain did), never absorbs a node with
//! control edges, and never absorbs a node referenced by control-flow
//! context metadata.
//!
//! The pipeline is **idempotent**: running [`optimize`] on its own output
//! reports zero rewrites. `Fused` nodes are themselves never fused,
//! folded, or CSE'd.

use dcf_device::OptimizeStats;
use dcf_exec::{execute_op, ExecError};
use dcf_graph::{
    ContextId, ContextKind, FusedOp, FusedSpec, FusedStep, Graph, NodeId, OpKind, TensorRef,
};
use dcf_tensor::{DType, Tensor};
use std::collections::HashMap;
use std::time::Instant;

/// How much graph rewriting `Session::new` performs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No rewriting at all: the session executes the graph exactly as
    /// built. Benchmarks use this to measure the un-optimized baseline
    /// honestly (no hidden re-folding).
    None,
    /// The full pipeline: fold → CSE → fuse → prune.
    #[default]
    Standard,
}

/// The result of running [`optimize`] on a graph.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// Per-pass rewrite counters and pipeline wall time.
    pub stats: OptimizeStats,
    /// Old-id → new-id translation for every pre-optimization node:
    /// `None` if the node no longer exists (pruned, or collapsed into a
    /// `Fused` node). Output ports are preserved, so a `TensorRef` is
    /// translated by mapping its node and keeping its port.
    pub remap: Vec<Option<NodeId>>,
}

impl OptimizeOutcome {
    /// Translates a pre-optimization tensor handle; `None` if its
    /// producer was optimized away.
    pub fn translate(&self, t: TensorRef) -> Option<TensorRef> {
        self.remap.get(t.node.0).copied().flatten().map(|node| TensorRef { node, port: t.port })
    }
}

/// Returns `true` for ops that are safe to evaluate at build time.
fn is_foldable(op: &OpKind) -> bool {
    use OpKind::*;
    !op.is_control_flow()
        && !op.is_stateful()
        && !matches!(
            op,
            Const(_) | Placeholder { .. } | NoOp | ControlTrigger | RandomUniform { .. }
        )
}

/// Returns `true` for ops whose structurally identical instances may be
/// merged. `Fused` is excluded to keep the pipeline idempotent.
fn is_cse_eligible(op: &OpKind) -> bool {
    use OpKind::*;
    !op.is_control_flow()
        && !op.is_stateful()
        && !matches!(
            op,
            Placeholder { .. } | NoOp | ControlTrigger | RandomUniform { .. } | Fused(_)
        )
}

/// Maps a graph-construction error out of a pass into the runtime's
/// structured error space.
fn build_err(pass: &str, e: impl std::fmt::Display) -> ExecError {
    ExecError::InvalidConfig(format!("graph optimization ({pass}): {e}"))
}

/// Folds constant subexpressions in the root context; returns the number
/// of nodes replaced by constants.
///
/// The pass runs to a fixed point in one topological sweep (a folded node
/// immediately counts as constant for its consumers). Node ids are
/// preserved: a folded node's op becomes `Const` and its inputs are
/// cleared, so existing `TensorRef`s remain valid.
///
/// Errors if the graph has a cycle not formed by loop back edges — a
/// build-time diagnostic that used to be silently swallowed.
pub fn fold_constants(graph: &mut Graph) -> Result<usize, ExecError> {
    let order = graph.topo_order().map_err(|e| build_err("constant folding", e))?;
    let mut folded = 0usize;
    for id in order {
        let node = graph.node(id);
        if node.ctx != ContextId::ROOT
            || !node.control_inputs.is_empty()
            || !is_foldable(&node.op)
            || node.op.num_outputs() != 1
            || node.inputs.is_empty()
        {
            continue;
        }
        // All inputs must be single-output constants.
        let mut values: Vec<Tensor> = Vec::with_capacity(node.inputs.len());
        let mut all_const = true;
        for inp in &node.inputs {
            match &graph.node(inp.node).op {
                OpKind::Const(t) if inp.port == 0 => values.push(t.clone()),
                _ => {
                    all_const = false;
                    break;
                }
            }
        }
        if !all_const {
            continue;
        }
        let refs: Vec<&Tensor> = values.iter().collect();
        let op = graph.node(id).op.clone();
        match execute_op(&op, &refs) {
            Ok(mut out) if out.len() == 1 => {
                graph.replace_with_const(id, out.remove(0));
                folded += 1;
            }
            // Evaluation errors surface at run time with full context
            // instead of failing the build.
            _ => {}
        }
    }
    Ok(folded)
}

/// All node ids referenced by control-flow context metadata (predicates,
/// captures, merges, loop plumbing). These carry semantic meaning to the
/// partitioner and autodiff and must survive every pass.
fn context_ref_nodes(graph: &Graph) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut push = |t: &TensorRef| out.push(t.node);
    for ctx in graph.contexts() {
        match &ctx.kind {
            ContextKind::Root => {}
            ContextKind::Cond(c) => {
                push(&c.pred);
                for (a, b) in &c.captures {
                    push(a);
                    push(b);
                }
                c.results.iter().for_each(&mut push);
                c.merges.iter().for_each(&mut push);
            }
            ContextKind::While(w) => {
                w.enters.iter().for_each(&mut push);
                w.merges.iter().for_each(&mut push);
                w.body_inputs.iter().for_each(&mut push);
                w.body_results.iter().for_each(&mut push);
                w.exits.iter().for_each(&mut push);
                w.loop_cond.iter().for_each(&mut push);
                w.counter_merge.iter().for_each(&mut push);
                w.counter_body.iter().for_each(&mut push);
                w.counter_exit.iter().for_each(&mut push);
                for (a, b) in &w.captures {
                    push(a);
                    push(b);
                }
            }
            ContextKind::Function(fc) => {
                for (a, b) in &fc.captures {
                    push(a);
                    push(b);
                }
            }
        }
    }
    // Function registry references (parameter/result nodes, captured
    // externals) are load-bearing for the executor's call lowering.
    for f in graph.functions() {
        out.extend(f.params.iter().copied());
        out.extend(f.rets.iter().copied());
        out.extend(f.captured_exts.iter().map(|t| t.node));
    }
    out
}

/// Common-subexpression elimination over pure root-context nodes.
///
/// Returns the number of duplicates merged and marks them in `condemned`
/// for the pruning pass. Keys are structural: op (attributes and constant
/// values included), canonicalized inputs, and device spec — names are
/// irrelevant. A single topological sweep reaches the fixed point because
/// a merged node's consumers see the canonical inputs before they are
/// themselves keyed.
fn cse_pass(
    graph: &mut Graph,
    condemned: &mut [bool],
    cse_target: &mut [NodeId],
) -> Result<usize, ExecError> {
    let order = graph.topo_order().map_err(|e| build_err("CSE", e))?;
    let mut canon: HashMap<String, NodeId> = HashMap::new();
    let mut merged = 0usize;
    for id in order {
        let node = graph.node(id);
        if node.ctx != ContextId::ROOT
            || !node.control_inputs.is_empty()
            || !is_cse_eligible(&node.op)
        {
            continue;
        }
        let key = format!("{:?}|{:?}|{:?}", node.op, node.inputs, node.device);
        match canon.get(&key) {
            Some(&rep) => {
                graph.replace_uses(id, rep);
                condemned[id.0] = true;
                cse_target[id.0] = rep;
                merged += 1;
            }
            None => {
                canon.insert(key, id);
            }
        }
    }
    Ok(merged)
}

/// Elementwise-chain fusion.
///
/// Finds maximal trees of pure `f32` elementwise nodes that drain into a
/// single surviving *tail* node, rewrites the tail into an
/// [`OpKind::Fused`] node whose program recomputes the whole tree, and
/// condemns the absorbed members. A node may be absorbed only if:
///
/// * its op maps to a [`FusedOp`] and its single output is `f32`;
/// * **every** data-consumer edge of its output points at one already
///   absorbed (or tail) node — fusion never duplicates work;
/// * it has no control inputs and no control-dependent consumers —
///   fusion never moves a control edge;
/// * it shares the tail's context — fusion never crosses a context
///   boundary (frames/deadness stay exactly as built);
/// * it is not referenced by control-flow context metadata.
///
/// Returns `(fused_nodes_created, members_absorbed)`.
fn fuse_pass(graph: &mut Graph, condemned: &mut [bool]) -> Result<(usize, usize), ExecError> {
    let n = graph.len();
    let order = graph.topo_order().map_err(|e| build_err("fusion", e))?;
    let mut topo_pos = vec![0usize; n];
    for (pos, id) in order.iter().enumerate() {
        topo_pos[id.0] = pos;
    }

    // Read-only snapshot for the eligibility closures: fusion itself only
    // ever condemns nodes it has already claimed via `in_cluster`, so the
    // snapshot cannot go stale within this pass.
    let dead: Vec<bool> = condemned.to_vec();

    // Consumer maps over live (non-condemned) nodes only: edges out of CSE
    // duplicates die with them and must not inhibit fusion.
    let mut data_consumers: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut has_control_consumer = vec![false; n];
    for node in graph.nodes() {
        if dead[node.id.0] {
            continue;
        }
        for inp in &node.inputs {
            data_consumers[inp.node.0].push(node.id);
        }
        for c in &node.control_inputs {
            has_control_consumer[c.0] = true;
        }
    }
    let mut ctx_ref = vec![false; n];
    for id in context_ref_nodes(graph) {
        ctx_ref[id.0] = true;
    }

    let fusable = |g: &Graph, id: NodeId| -> bool {
        let node = g.node(id);
        !dead[id.0]
            && FusedOp::from_op_kind(&node.op).is_some()
            && node.out_dtypes.len() == 1
            && node.out_dtypes[0] == DType::F32
    };
    // `id` may be absorbed into (die inside) a cluster containing its
    // single consumer node.
    let absorbable = |g: &Graph, id: NodeId| -> Option<NodeId> {
        if !fusable(g, id)
            || !g.node(id).control_inputs.is_empty()
            || has_control_consumer[id.0]
            || ctx_ref[id.0]
        {
            return None;
        }
        let cs = &data_consumers[id.0];
        let first = *cs.first()?;
        if cs.iter().all(|c| *c == first) {
            Some(first)
        } else {
            None
        }
    };

    let mut in_cluster = vec![false; n];
    let mut fused = 0usize;
    let mut absorbed = 0usize;
    for &tail in &order {
        if !fusable(graph, tail) || in_cluster[tail.0] {
            continue;
        }
        // A tail survives; a node that will itself be absorbed into a
        // fusable consumer is not a tail (its consumer's cluster takes it).
        if let Some(c) = absorbable(graph, tail) {
            if fusable(graph, c) && graph.node(c).ctx == graph.node(tail).ctx {
                continue;
            }
        }
        // Grow the cluster backward from the tail.
        let ctx = graph.node(tail).ctx;
        let mut members = vec![tail];
        let mut stack = vec![tail];
        while let Some(m) = stack.pop() {
            for inp in graph.node(m).inputs.clone() {
                let p = inp.node;
                if members.contains(&p) || in_cluster[p.0] || graph.node(p).ctx != ctx {
                    continue;
                }
                if absorbable(graph, p) == Some(m) {
                    members.push(p);
                    stack.push(p);
                }
            }
        }
        if members.len() < 2 {
            continue;
        }
        members.sort_by_key(|id| topo_pos[id.0]);
        debug_assert_eq!(*members.last().expect("non-empty"), tail);

        // Emit the register program: external inputs first, then one
        // register per member in topological order.
        let mut ext: Vec<TensorRef> = Vec::new();
        for &m in &members {
            for inp in &graph.node(m).inputs {
                let internal = inp.port == 0 && members.contains(&inp.node);
                if !internal && !ext.contains(inp) {
                    ext.push(*inp);
                }
            }
        }
        let reg_of = |ext: &[TensorRef], members: &[NodeId], t: &TensorRef| -> usize {
            if t.port == 0 {
                if let Some(k) = members.iter().position(|m| *m == t.node) {
                    return ext.len() + k;
                }
            }
            ext.iter().position(|e| e == t).expect("external input was collected")
        };
        let mut steps = Vec::with_capacity(members.len());
        let mut label = String::new();
        for &m in &members {
            let node = graph.node(m);
            let op = FusedOp::from_op_kind(&node.op).expect("member is fusable");
            let a = reg_of(&ext, &members, &node.inputs[0]);
            let b = if op.arity() == 2 { reg_of(&ext, &members, &node.inputs[1]) } else { 0 };
            steps.push(FusedStep { op, a, b });
            if !label.is_empty() {
                label.push('+');
            }
            label.push_str(op.name());
        }
        let spec = FusedSpec { n_inputs: ext.len(), steps, label };
        graph.rewrite_node(tail, OpKind::Fused(spec), ext);
        for &m in &members {
            in_cluster[m.0] = true;
            if m != tail {
                condemned[m.0] = true;
                absorbed += 1;
            }
        }
        fused += 1;
    }
    Ok((fused, absorbed))
}

/// Runs the optimization pipeline in place and returns the per-pass
/// counters plus the node-id remap for outstanding `TensorRef`s.
///
/// Under [`OptLevel::None`] the graph is untouched and the remap is the
/// identity. The pipeline is idempotent: a second run reports all-zero
/// counters.
///
/// Pruning is deliberately **conservative**: exactly the nodes the
/// earlier passes condemned (CSE duplicates and fusion-absorbed members)
/// are removed and the node table compacted. Any other node — including
/// one orphaned by constant folding — may still be fetched by a caller
/// holding its handle (fetches are only known at run time, not compile
/// time), so it survives; a CSE duplicate's handle transparently remaps
/// to the surviving node, and a fusion-absorbed member's handle reports a
/// structured error naming the [`OptLevel::None`] escape hatch.
pub fn optimize(graph: &mut Graph, level: OptLevel) -> Result<OptimizeOutcome, ExecError> {
    let n = graph.len();
    if level == OptLevel::None {
        return Ok(OptimizeOutcome {
            stats: OptimizeStats::default(),
            remap: (0..n).map(|i| Some(NodeId(i))).collect(),
        });
    }
    let start = Instant::now();

    let folded = fold_constants(graph)?;
    let mut condemned = vec![false; n];
    let mut cse_target: Vec<NodeId> = (0..n).map(NodeId).collect();
    let cse = cse_pass(graph, &mut condemned, &mut cse_target)?;
    let (fused, fused_away) = fuse_pass(graph, &mut condemned)?;

    let live: Vec<bool> = condemned.iter().map(|c| !c).collect();
    let pruned = condemned.iter().filter(|c| **c).count();
    let prune_remap = graph.prune_nodes(&live).map_err(|e| build_err("pruning", e))?;

    let remap: Vec<Option<NodeId>> =
        cse_target.iter().take(n).map(|mid| prune_remap[mid.0]).collect();
    let stats = OptimizeStats {
        folded,
        cse,
        pruned,
        fused,
        fused_away,
        wall_us: start.elapsed().as_micros() as u64,
        ..OptimizeStats::default()
    };
    Ok(OptimizeOutcome { stats, remap })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_graph::{GraphBuilder, WhileOptions};

    #[test]
    fn folds_root_constant_expressions() {
        let mut b = GraphBuilder::new();
        let two = b.scalar_f32(2.0);
        let three = b.scalar_f32(3.0);
        let s = b.add(two, three).unwrap();
        let sq = b.mul(s, s).unwrap();
        let x = b.placeholder("x", DType::F32);
        let y = b.add(sq, x).unwrap();
        let mut g = b.finish().unwrap();
        let folded = fold_constants(&mut g).unwrap();
        assert_eq!(folded, 2);
        match &g.node(sq.node).op {
            OpKind::Const(t) => assert_eq!(t.scalar_as_f32().unwrap(), 25.0),
            other => panic!("expected folded constant, got {other:?}"),
        }
        let _ = y;
    }

    #[test]
    fn fold_reports_cycle_as_error() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let a = b.neg(x).unwrap();
        let c = b.neg(a).unwrap();
        let mut g = b.finish().unwrap();
        // Corrupt the graph into a cycle not formed by loop back edges;
        // folding must now fail with a structured build-time diagnostic
        // instead of silently reporting zero rewrites.
        g.set_input(a.node, 0, c);
        let err = fold_constants(&mut g).unwrap_err();
        assert!(matches!(err, ExecError::InvalidConfig(_)), "unexpected error: {err}");
        assert!(err.to_string().contains("constant folding"), "message: {err}");
    }

    #[test]
    fn leaves_control_flow_contexts_alone() {
        let mut b = GraphBuilder::new();
        let i0 = b.scalar_i64(0);
        let lim = b.scalar_i64(3);
        let outs = b
            .while_loop(
                &[i0],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    // A constant expression *inside* the loop body: its
                    // operands live in the loop frame and must not fold.
                    let one = g.scalar_i64(1);
                    let two = g.scalar_i64(2);
                    let three = g.add(one, two)?;
                    let _ = three;
                    Ok(vec![g.add(v[0], one)?])
                },
                WhileOptions::default(),
            )
            .unwrap();
        let mut g = b.finish().unwrap();
        assert_eq!(fold_constants(&mut g).unwrap(), 0);
        let _ = outs;
    }

    #[test]
    fn cse_merges_duplicate_subexpressions() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let c1 = b.scalar_f32(2.0);
        let c2 = b.scalar_f32(2.0);
        let a = b.add(x, c1).unwrap();
        let d = b.add(x, c2).unwrap();
        let mut g = b.finish().unwrap();
        let out = optimize(&mut g, OptLevel::Standard).unwrap();
        // The duplicate constant and then the duplicate add both merge.
        assert_eq!(out.stats.cse, 2);
        let ta = out.translate(a).unwrap();
        let td = out.translate(d).unwrap();
        assert_eq!(ta, td, "both handles resolve to the surviving node");
    }

    #[test]
    fn fusion_collapses_elementwise_chain() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let two = b.scalar_f32(2.0);
        let one = b.scalar_f32(1.0);
        let m = b.mul(x, two).unwrap();
        let a = b.add(m, one).unwrap();
        let y = b.relu(a).unwrap();
        let mut g = b.finish().unwrap();
        let out = optimize(&mut g, OptLevel::Standard).unwrap();
        assert_eq!(out.stats.fused, 1);
        assert_eq!(out.stats.fused_away, 2);
        let ty = out.translate(y).unwrap();
        match &g.node(ty.node).op {
            OpKind::Fused(spec) => {
                assert_eq!(spec.steps.len(), 3);
                assert_eq!(spec.n_inputs, 3, "x, 2.0, 1.0");
                assert_eq!(spec.label, "Mul+Add+Relu");
            }
            other => panic!("expected fused tail, got {other:?}"),
        }
        assert!(out.translate(m).is_none(), "interior was collapsed into the kernel");
    }

    #[test]
    fn fusion_never_crosses_context_boundary() {
        // The only multi-node elementwise chain in this graph straddles a
        // loop boundary: `t` at root, its consumer inside the body (via
        // capture). Nothing may fuse.
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let two = b.scalar_f32(2.0);
        let t = b.mul(x, two).unwrap();
        let lim = b.scalar_i64(2);
        let i0 = b.scalar_i64(0);
        let x0 = b.scalar_f32(1.0);
        let outs = b
            .while_loop(
                &[i0, x0],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    let acc = g.add(v[1], t)?;
                    Ok(vec![g.add(v[0], one)?, acc])
                },
                WhileOptions::default(),
            )
            .unwrap();
        let mut g = b.finish().unwrap();
        let out = optimize(&mut g, OptLevel::Standard).unwrap();
        assert_eq!(out.stats.fused, 0);
        assert_eq!(out.stats.fused_away, 0);
        let _ = outs;
    }

    #[test]
    fn fusion_respects_control_edges() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let two = b.scalar_f32(2.0);
        let one = b.scalar_f32(1.0);
        let m = b.mul(x, two).unwrap();
        let a = b.add(m, one).unwrap();
        // `side` must run after `m`: absorbing `m` into a fused kernel
        // would erase that ordering edge, so the chain must not fuse.
        let side = b.neg(x).unwrap();
        b.add_control_input(side.node, m.node);
        let mut g = b.finish().unwrap();
        let out = optimize(&mut g, OptLevel::Standard).unwrap();
        assert_eq!(out.stats.fused, 0, "control-dependent chain member fused");
        assert!(out.translate(m).is_some(), "control-flow-ordered node survives");
        let _ = (a, side);
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let two1 = b.scalar_f32(2.0);
        let two2 = b.scalar_f32(2.0);
        let m1 = b.mul(x, two1).unwrap();
        let m2 = b.mul(x, two2).unwrap();
        let s = b.add(m1, m2).unwrap();
        let y = b.relu(s).unwrap();
        let five = b.scalar_f32(5.0);
        let six = b.scalar_f32(6.0);
        let folded_expr = b.add(five, six).unwrap();
        let mut g = b.finish().unwrap();
        let first = optimize(&mut g, OptLevel::Standard).unwrap();
        assert!(first.stats.folded > 0);
        assert!(first.stats.cse > 0);
        assert!(first.stats.fused > 0);
        let second = optimize(&mut g, OptLevel::Standard).unwrap();
        assert_eq!(second.stats.folded, 0, "second run must be a no-op");
        assert_eq!(second.stats.cse, 0);
        assert_eq!(second.stats.fused, 0);
        assert_eq!(second.stats.fused_away, 0);
        assert_eq!(second.stats.pruned, 0);
        for (i, r) in second.remap.iter().enumerate() {
            assert_eq!(*r, Some(NodeId(i)), "second remap must be the identity");
        }
        let _ = (y, folded_expr);
    }

    #[test]
    fn none_level_is_identity() {
        let mut b = GraphBuilder::new();
        let two = b.scalar_f32(2.0);
        let three = b.scalar_f32(3.0);
        let s = b.add(two, three).unwrap();
        let mut g = b.finish().unwrap();
        let n = g.len();
        let fp = g.fingerprint();
        let out = optimize(&mut g, OptLevel::None).unwrap();
        assert_eq!(out.stats, OptimizeStats::default());
        assert_eq!(g.len(), n);
        assert_eq!(g.fingerprint(), fp, "graph untouched");
        assert_eq!(out.translate(s), Some(s));
    }

    #[test]
    fn pruning_is_conservative_fold_leftovers_stay_fetchable() {
        let mut b = GraphBuilder::new();
        let two = b.scalar_f32(2.0);
        let three = b.scalar_f32(3.0);
        let s = b.add(two, three).unwrap();
        let x = b.placeholder("x", DType::F32);
        let y = b.add(s, x).unwrap();
        let mut g = b.finish().unwrap();
        let out = optimize(&mut g, OptLevel::Standard).unwrap();
        // `s` folds in place; its orphaned operand constants are *kept*:
        // a caller holding their handles may still fetch them, and
        // fetches are only known at run time.
        assert_eq!(out.stats.folded, 1);
        assert_eq!(out.stats.pruned, 0);
        assert!(out.translate(two).is_some());
        assert!(out.translate(three).is_some());
        assert!(out.translate(y).is_some());
    }

    #[test]
    fn pruning_compacts_condemned_nodes() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let c1 = b.scalar_f32(3.0);
        let c2 = b.scalar_f32(3.0);
        let a = b.add(x, c1).unwrap();
        let d = b.add(x, c2).unwrap();
        let n_before = 5;
        let mut g = b.finish().unwrap();
        assert_eq!(g.len(), n_before);
        let out = optimize(&mut g, OptLevel::Standard).unwrap();
        // The duplicate const and duplicate add are condemned by CSE and
        // physically removed; the node table compacts.
        assert_eq!(out.stats.pruned, out.stats.cse + out.stats.fused_away);
        assert_eq!(g.len(), n_before - out.stats.pruned);
        assert_eq!(out.translate(a), out.translate(d));
    }

    #[test]
    fn optimization_never_crosses_call_boundaries() {
        // The same elementwise expression in the root context and inside a
        // function body, plus two structurally identical call sites. The
        // pipeline must leave the call structure intact: body and root
        // nodes never CSE or fuse together (they execute in different
        // frames), and identical `Call`s are control flow — never merged,
        // even though they would compute the same value.
        let mut b = GraphBuilder::new();
        b.define_function("f", &[dcf_tensor::DType::F32], &[dcf_tensor::DType::F32], |g, p| {
            let t = g.tanh(p[0])?;
            Ok(vec![g.neg(t)?])
        })
        .unwrap();
        let x = b.placeholder("x", DType::F32);
        let root_t = b.tanh(x).unwrap();
        let root_n = b.neg(root_t).unwrap();
        let c1 = b.call1("f", &[x]).unwrap();
        let c2 = b.call1("f", &[x]).unwrap();
        let s = b.add(c1, c2).unwrap();
        let y = b.add(s, root_n).unwrap();
        let mut g = b.finish().unwrap();
        let out = optimize(&mut g, OptLevel::Standard).unwrap();

        let calls = g.nodes().iter().filter(|n| matches!(n.op, OpKind::Call { .. })).count();
        assert_eq!(calls, 2, "identical calls must not be CSE'd into one");
        let f = g.function("f").expect("registry survives optimization");
        assert!(f.is_defined());
        for &ret in &f.rets {
            let body_in = g.node(ret).inputs[0];
            assert_ne!(
                g.node(body_in.node).ctx,
                ContextId::ROOT,
                "body computation must not be merged with root-context nodes"
            );
        }
        // Every fetched handle is still reachable after the pipeline.
        for t in [y, c1, c2] {
            assert!(out.translate(t).is_some(), "{t:?} lost by optimization");
        }
    }
}
