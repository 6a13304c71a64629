//! Preprocessed, execution-oriented view of a (partitioned) graph.
//!
//! Everything the executor's hot path needs per node is precomputed here
//! into dense, index-addressed arrays built once per (graph, partition):
//! consumer adjacency (flattened CSR-style), member input counts (the
//! initial pending counters of every activation), merge classification,
//! and interned frame names. The per-run code never hashes a `TensorRef`
//! or clones a frame-name `String`.

use dcf_graph::{Graph, NodeId, OpKind, TensorRef};
use std::collections::HashMap;
use std::sync::Arc;

/// Interned frame name: index into [`ExecGraph::frame_name`].
pub type FrameNameId = u32;

/// Sentinel for "not an Enter node".
const NO_FRAME: FrameNameId = FrameNameId::MAX;

/// Static per-node execution metadata for one device's subgraph.
///
/// Built once per (graph, partition); shared by all runs.
#[derive(Debug)]
pub struct ExecGraph {
    /// The underlying graph (shared with other partitions).
    pub graph: Arc<Graph>,
    /// Membership: `member[node.0]` is `true` if this executor runs the node.
    pub member: Vec<bool>,
    /// Source nodes: members with no data or control inputs.
    pub sources: Vec<NodeId>,
    /// Merges fed by a `NextIteration` (loop merges fire on any single
    /// arrival; conditional merges wait for liveness resolution).
    pub is_loop_merge: Vec<bool>,

    /// Output-port base per node: the ports of node `n` occupy slot indices
    /// `port_base[n] .. port_base[n + 1]` of `consumer_range`.
    port_base: Vec<u32>,
    /// Flattened data-consumer edges `(consumer, input slot)`.
    consumers_flat: Vec<(NodeId, u32)>,
    /// Per output-port slice `[start, end)` into `consumers_flat`.
    consumer_range: Vec<(u32, u32)>,
    /// Flattened control-consumer edges.
    control_flat: Vec<NodeId>,
    /// Per node slice `[start, end)` into `control_flat`.
    control_range: Vec<(u32, u32)>,

    /// Member data inputs per node (initial `pending_data`).
    pending_data: Vec<u32>,
    /// Member control inputs per node (initial `pending_control`).
    pending_control: Vec<u32>,
    /// Declared input slots per node (token buffer size).
    input_slots: Vec<u32>,
    /// `true` for `Merge` nodes.
    is_merge: Vec<bool>,

    /// Interned frame names, indexed by [`FrameNameId`].
    frame_names: Vec<String>,
    /// Member `Enter` nodes per frame name (frame completion accounting).
    enter_counts: Vec<usize>,
    /// `Enter` nodes' interned frame name (`NO_FRAME` otherwise).
    enter_name: Vec<FrameNameId>,
    /// `Call` nodes' interned call-site frame name (`NO_FRAME` otherwise).
    /// Every call site gets its own name, so two calls of one function —
    /// including a recursive call inside the body — push distinct frames.
    call_name: Vec<FrameNameId>,
    /// Per function: its `FunctionParam` nodes in parameter order (the
    /// delivery targets for call arguments).
    fn_params: HashMap<String, Vec<NodeId>>,
}

impl ExecGraph {
    /// Preprocesses the whole graph for single-executor (local) execution.
    pub fn local(graph: Arc<Graph>) -> Arc<ExecGraph> {
        let all: Vec<NodeId> = graph.nodes().iter().map(|n| n.id).collect();
        ExecGraph::partition(graph, &all)
    }

    /// Preprocesses the subgraph consisting of `members`.
    ///
    /// Edges to or from non-member nodes are ignored; the partitioner is
    /// responsible for having replaced them with `Send`/`Recv` pairs.
    pub fn partition(graph: Arc<Graph>, members: &[NodeId]) -> Arc<ExecGraph> {
        let n = graph.len();
        let mut member = vec![false; n];
        for id in members {
            member[id.0] = true;
        }

        // Output-port bases (CSR row offsets over all nodes' ports).
        let mut port_base = Vec::with_capacity(n + 1);
        let mut total_ports = 0u32;
        for node in graph.nodes() {
            port_base.push(total_ports);
            total_ports += node.op.num_outputs().max(1) as u32;
        }
        port_base.push(total_ports);

        let mut sources = Vec::new();
        let mut is_loop_merge = vec![false; n];
        let mut is_merge = vec![false; n];
        let mut pending_data = vec![0u32; n];
        let mut pending_control = vec![0u32; n];
        let mut input_slots = vec![0u32; n];
        let mut enter_name = vec![NO_FRAME; n];
        let mut call_name = vec![NO_FRAME; n];
        let mut fn_params: HashMap<String, Vec<NodeId>> = HashMap::new();
        // The interner is local to this ExecGraph (each compile builds its
        // own table), so concurrent sessions cannot race frame ids.
        let mut frame_names: Vec<String> = Vec::new();
        let mut frame_ids: HashMap<String, FrameNameId> = HashMap::new();
        let mut enter_counts: Vec<usize> = Vec::new();

        // Consumer edge buckets, keyed by the producer's port slot.
        let mut data_buckets: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); total_ports as usize];
        let mut control_buckets: Vec<Vec<NodeId>> = vec![Vec::new(); n];

        for node in graph.nodes() {
            if !member[node.id.0] {
                continue;
            }
            input_slots[node.id.0] = node.inputs.len() as u32;
            let mut in_degree = 0usize;
            for (slot, inp) in node.inputs.iter().enumerate() {
                if member[inp.node.0] {
                    let port_slot = port_base[inp.node.0] as usize + inp.port;
                    data_buckets[port_slot].push((node.id, slot as u32));
                    pending_data[node.id.0] += 1;
                    in_degree += 1;
                }
            }
            for dep in &node.control_inputs {
                if member[dep.0] {
                    control_buckets[dep.0].push(node.id);
                    pending_control[node.id.0] += 1;
                    in_degree += 1;
                }
            }
            // Recvs with no local inputs are roots too, but they are
            // scheduled like sources and resolve asynchronously. Function
            // parameters are *not* sources: each waits for the single
            // argument token a Call injects into its call frame.
            if let OpKind::FunctionParam { function, index, .. } = &node.op {
                pending_data[node.id.0] = 1;
                input_slots[node.id.0] = 1;
                let params = fn_params.entry(function.clone()).or_default();
                if params.len() <= *index {
                    params.resize(*index + 1, NodeId(usize::MAX));
                }
                params[*index] = node.id;
            } else if in_degree == 0 {
                sources.push(node.id);
            }
            if let OpKind::Call { function, .. } = &node.op {
                // One uniquely named frame per call site; the single
                // argument-injection event is its only expected "enter".
                let fname = format!("call:{function}@{}", node.id.0);
                let fid = *frame_ids.entry(fname.clone()).or_insert_with(|| {
                    frame_names.push(fname.clone());
                    enter_counts.push(0);
                    (frame_names.len() - 1) as FrameNameId
                });
                enter_counts[fid as usize] += 1;
                call_name[node.id.0] = fid;
            }
            if let OpKind::Enter { frame, .. } = &node.op {
                let fid = *frame_ids.entry(frame.clone()).or_insert_with(|| {
                    frame_names.push(frame.clone());
                    enter_counts.push(0);
                    (frame_names.len() - 1) as FrameNameId
                });
                enter_counts[fid as usize] += 1;
                enter_name[node.id.0] = fid;
            }
            if matches!(node.op, OpKind::Merge) {
                is_merge[node.id.0] = true;
                let loopy = node.inputs.iter().any(|i| {
                    member[i.node.0] && matches!(graph.node(i.node).op, OpKind::NextIteration)
                });
                is_loop_merge[node.id.0] = loopy;
            }
        }

        // Flatten the buckets into CSR arrays.
        let mut consumers_flat = Vec::new();
        let mut consumer_range = Vec::with_capacity(total_ports as usize);
        for bucket in data_buckets {
            let start = consumers_flat.len() as u32;
            consumers_flat.extend(bucket);
            consumer_range.push((start, consumers_flat.len() as u32));
        }
        let mut control_flat = Vec::new();
        let mut control_range = Vec::with_capacity(n);
        for bucket in control_buckets {
            let start = control_flat.len() as u32;
            control_flat.extend(bucket);
            control_range.push((start, control_flat.len() as u32));
        }

        Arc::new(ExecGraph {
            graph,
            member,
            sources,
            is_loop_merge,
            port_base,
            consumers_flat,
            consumer_range,
            control_flat,
            control_range,
            pending_data,
            pending_control,
            input_slots,
            is_merge,
            frame_names,
            enter_counts,
            enter_name,
            call_name,
            fn_params,
        })
    }

    /// Data consumers `(node, input slot)` of an output tensor.
    #[inline]
    pub fn consumers(&self, t: TensorRef) -> &[(NodeId, u32)] {
        let slot = self.port_base[t.node.0] as usize + t.port;
        match self.consumer_range.get(slot) {
            Some(&(start, end)) => &self.consumers_flat[start as usize..end as usize],
            None => &[],
        }
    }

    /// Control consumers of a node.
    #[inline]
    pub fn control_consumers(&self, id: NodeId) -> &[NodeId] {
        let (start, end) = self.control_range[id.0];
        &self.control_flat[start as usize..end as usize]
    }

    /// Number of *member* data inputs of a node (its pending count).
    #[inline]
    pub fn num_data_inputs(&self, id: NodeId) -> usize {
        self.pending_data[id.0] as usize
    }

    /// Number of *member* control inputs of a node.
    #[inline]
    pub fn num_control_inputs(&self, id: NodeId) -> usize {
        self.pending_control[id.0] as usize
    }

    /// Positions (slots) of member inputs, used to size the token buffer.
    #[inline]
    pub fn total_input_slots(&self, id: NodeId) -> usize {
        self.input_slots[id.0] as usize
    }

    /// `true` if the node is a `Merge`.
    #[inline]
    pub fn is_merge(&self, id: NodeId) -> bool {
        self.is_merge[id.0]
    }

    /// The interned frame name of an `Enter` node.
    #[inline]
    pub fn enter_frame(&self, id: NodeId) -> Option<FrameNameId> {
        match self.enter_name[id.0] {
            NO_FRAME => None,
            fid => Some(fid),
        }
    }

    /// The frame name for an interned id.
    #[inline]
    pub fn frame_name(&self, fid: FrameNameId) -> &str {
        &self.frame_names[fid as usize]
    }

    /// Total `Enter` member nodes targeting the named frame (the number of
    /// `Enter` tokens each activation of that frame will receive).
    #[inline]
    pub fn expected_enters(&self, fid: FrameNameId) -> usize {
        self.enter_counts[fid as usize]
    }

    /// Total member `Enter` nodes across all frames (diagnostics).
    pub fn total_enters(&self) -> usize {
        self.enter_counts.iter().sum()
    }

    /// The interned call-site frame name of a `Call` node.
    #[inline]
    pub fn call_frame(&self, id: NodeId) -> Option<FrameNameId> {
        match self.call_name[id.0] {
            NO_FRAME => None,
            fid => Some(fid),
        }
    }

    /// The `FunctionParam` nodes of `function`, in parameter order.
    #[inline]
    pub fn fn_params(&self, function: &str) -> &[NodeId] {
        self.fn_params.get(function).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_graph::GraphBuilder;
    use dcf_tensor::Tensor;

    #[test]
    fn local_preprocessing_finds_sources_and_consumers() {
        let mut b = GraphBuilder::new();
        let a = b.scalar_f32(1.0);
        let c = b.scalar_f32(2.0);
        let s = b.add(a, c).unwrap();
        let _t = b.neg(s).unwrap();
        let g = Arc::new(b.finish().unwrap());
        let eg = ExecGraph::local(g);
        assert_eq!(eg.sources.len(), 2);
        assert_eq!(eg.consumers(a).len(), 1);
        assert_eq!(eg.consumers(s).len(), 1);
        assert_eq!(eg.num_data_inputs(s.node), 2);
        // Consumer slots round-trip: `s` consumes `a` at slot 0.
        assert_eq!(eg.consumers(a)[0], (s.node, 0));
    }

    #[test]
    fn loop_merges_identified() {
        let mut b = GraphBuilder::new();
        let i0 = b.scalar_i64(0);
        let lim = b.scalar_i64(3);
        b.while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            Default::default(),
        )
        .unwrap();
        let g = Arc::new(b.finish().unwrap());
        let eg = ExecGraph::local(g.clone());
        let merges: Vec<_> =
            g.nodes().iter().filter(|n| matches!(n.op, dcf_graph::OpKind::Merge)).collect();
        assert!(!merges.is_empty());
        for m in merges {
            assert!(eg.is_loop_merge[m.id.0], "loop merge not detected: {}", m.name);
            assert!(eg.is_merge(m.id));
        }
        // Enter counts: 2 variable enters (counter + i) plus constant enters.
        assert!(eg.total_enters() >= 2);
        // Every Enter node maps to an interned frame name whose expected
        // count covers it.
        for n in g.nodes() {
            if matches!(n.op, dcf_graph::OpKind::Enter { .. }) {
                let fid = eg.enter_frame(n.id).expect("enter has a frame id");
                assert!(eg.expected_enters(fid) >= 1);
                assert!(!eg.frame_name(fid).is_empty());
            } else {
                assert!(eg.enter_frame(n.id).is_none());
            }
        }
    }

    #[test]
    fn partition_ignores_foreign_edges() {
        let mut b = GraphBuilder::new();
        let a = b.scalar_f32(1.0);
        let n = b.neg(a).unwrap();
        let m = b.neg(n).unwrap();
        let g = Arc::new(b.finish().unwrap());
        // Partition containing only the final neg: its input edge leaves the
        // partition and is ignored (no consumers, zero pending).
        let eg = ExecGraph::partition(g, &[m.node]);
        assert_eq!(eg.num_data_inputs(m.node), 0);
        assert!(eg.sources.contains(&m.node));
        assert!(eg.consumers(n).is_empty());
        let tensor = Tensor::scalar_f32(0.0);
        let _ = tensor;
    }
}
