//! Runtime frames and iterations: the dynamic execution contexts of §4.1.
//!
//! Frame state is sharded for parallel execution: each dynamically created
//! frame is an [`Arc<Frame>`] whose immutable metadata (identity, parent
//! link, tag prefix, parallelism knob) is read lock-free, while its mutable
//! bookkeeping lives in a per-frame [`FrameCore`] mutex. Workers operating
//! on different frames — or different loops — never contend. See
//! `DESIGN.md` ("Executor locking discipline") for the ordering rules.
//!
//! Activation records are dense, as TensorFlow's per-iteration pending
//! counts and input arrays are: a frame's live iterations sit in a ring
//! from `front` (slot `k` holds iteration `front + k`), and an iteration's
//! node instances in a slot vector indexed by node id, grown lazily to the
//! highest id that iteration touches. The ring is at most
//! `parallel_iterations` long: a `NextIteration` token beyond the window is
//! deferred, not materialized. Only the methods of [`FrameCore`] and
//! [`IterationState`] touch the layout.

use crate::exec_graph::FrameNameId;
use crate::token::Token;
use dcf_graph::NodeId;
use dcf_sync::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Identifier of a dynamically created frame instance.
pub(crate) type FrameId = u64;

/// The root frame's id.
pub(crate) const ROOT_FRAME: FrameId = 0;

/// Per-(node, iteration) activation state.
#[derive(Debug)]
pub(crate) struct NodeInstance {
    /// Buffered data input tokens, indexed by input slot.
    pub data: Vec<Option<Token>>,
    /// Member data inputs still missing.
    pub pending_data: usize,
    /// Member control inputs still missing.
    pub pending_control: usize,
    /// A dead data or control input has arrived.
    pub any_dead: bool,
    /// Merge bookkeeping: total arrivals so far.
    pub merge_arrivals: usize,
    /// Merge bookkeeping: dead arrivals so far.
    pub merge_dead: usize,
    /// The op instance has been scheduled (at-most-once execution).
    pub scheduled: bool,
    /// Latest stamp delivered over a control edge: a control edge orders
    /// in modeled time as a data edge does.
    pub control_ready: u64,
}

impl NodeInstance {
    pub(crate) fn new(slots: usize, pending_data: usize, pending_control: usize) -> NodeInstance {
        NodeInstance {
            data: (0..slots).map(|_| None).collect(),
            pending_data,
            pending_control,
            any_dead: false,
            merge_arrivals: 0,
            merge_dead: 0,
            scheduled: false,
            control_ready: 0,
        }
    }
}

/// State of one loop iteration within a frame.
#[derive(Debug, Default)]
pub(crate) struct IterationState {
    /// Activation state, indexed by node id; `None` where the node has not
    /// been touched in this iteration.
    nodes: Vec<Option<NodeInstance>>,
    /// Ops scheduled in this iteration whose outputs have not yet been
    /// propagated.
    pub outstanding_ops: usize,
    /// Child frames created in this iteration that have not yet completed.
    pub outstanding_frames: usize,
    /// Latest stamp of a value produced in this iteration.
    pub ready: u64,
}

impl IterationState {
    /// The instance of node `id`, created by `make` if absent.
    pub(crate) fn node_entry(
        &mut self,
        id: usize,
        make: impl FnOnce() -> NodeInstance,
    ) -> &mut NodeInstance {
        if id >= self.nodes.len() {
            self.nodes.resize_with(id + 1, || None);
        }
        self.nodes[id].get_or_insert_with(make)
    }

    /// No op of this iteration is in flight and no child frame holds it.
    pub(crate) fn quiescent(&self) -> bool {
        self.outstanding_ops == 0 && self.outstanding_frames == 0
    }
}

/// A deferred `NextIteration` token: target iteration was beyond the
/// parallel-iterations window when produced.
#[derive(Debug)]
pub(crate) struct DeferredToken {
    pub iter: usize,
    pub node: NodeId,
    pub token: Token,
}

/// Mutable per-frame bookkeeping, guarded by the frame's own mutex.
#[derive(Debug)]
pub(crate) struct FrameCore {
    /// Live iteration states as a ring from `front`: slot `k` holds
    /// iteration `front + k`, `None` where that iteration has not started.
    iterations: VecDeque<Option<IterationState>>,
    /// Oldest incomplete iteration, the number of ring slot 0.
    front: usize,
    /// Number of iterations ever started (max started index + 1).
    pub started: usize,
    /// NextIteration tokens waiting for the window to advance.
    pub deferred: VecDeque<DeferredToken>,
    /// Latest stamp of a value produced in a retired iteration. A deferred
    /// token carries it when the window releases it, so the window holds in
    /// modeled time and not only on the host.
    pub retired_ready: u64,
    /// `Enter` tokens received so far.
    pub enters_seen: usize,
    /// Loop-constant tokens, replayed into every iteration: (enter node,
    /// token).
    pub constants: Vec<(NodeId, Token)>,
    /// Exit nodes that have produced only dead tokens so far.
    pub dead_exits: HashSet<NodeId>,
    /// Exit nodes that have delivered a live value.
    pub live_exits: HashSet<NodeId>,
    /// Completed dead activations in this frame (step-stats accounting;
    /// counted even when no collector is attached — one add under a lock
    /// already held).
    pub dead_tokens: u64,
    /// Set when the frame has completed (guards double completion).
    pub done: bool,
}

impl FrameCore {
    fn new() -> FrameCore {
        FrameCore {
            iterations: VecDeque::from([Some(IterationState::default())]),
            front: 0,
            started: 1,
            deferred: VecDeque::new(),
            retired_ready: 0,
            enters_seen: 0,
            constants: Vec::new(),
            dead_exits: HashSet::new(),
            live_exits: HashSet::new(),
            dead_tokens: 0,
            done: false,
        }
    }

    /// Oldest incomplete iteration.
    pub(crate) fn front(&self) -> usize {
        self.front
    }

    /// Iteration `i`, if it is live: `None` behind `front`, past the end of
    /// the ring, or in a gap.
    pub(crate) fn iteration(&self, i: usize) -> Option<&IterationState> {
        self.iterations.get(i.checked_sub(self.front)?)?.as_ref()
    }

    /// Mutable [`FrameCore::iteration`].
    pub(crate) fn iteration_mut(&mut self, i: usize) -> Option<&mut IterationState> {
        self.iterations.get_mut(i.checked_sub(self.front)?)?.as_mut()
    }

    /// Iteration `i`, created empty if absent; the ring grows to reach it,
    /// leaving gaps `None`. An iteration retires only once it is quiescent,
    /// so nothing is ever created behind `front`; the check stays in release
    /// builds, where a wrapped index would truncate the ring.
    pub(crate) fn iteration_entry(&mut self, i: usize) -> &mut IterationState {
        let k = i
            .checked_sub(self.front)
            .unwrap_or_else(|| panic!("iteration {i} created behind front {}", self.front));
        if k >= self.iterations.len() {
            self.iterations.resize_with(k + 1, || None);
        }
        self.iterations[k].get_or_insert_with(IterationState::default)
    }

    /// The live iterations with their numbers, oldest first.
    pub(crate) fn live_iterations(&self) -> impl Iterator<Item = (usize, &IterationState)> {
        let front = self.front;
        self.iterations
            .iter()
            .enumerate()
            .filter_map(move |(k, it)| Some((front + k, it.as_ref()?)))
    }

    /// Retires iteration `front` (live or not) and advances `front`.
    pub(crate) fn retire_front(&mut self) {
        if let Some(Some(it)) = self.iterations.pop_front() {
            self.retired_ready = self.retired_ready.max(it.ready);
        }
        self.front += 1;
    }
}

/// A dynamically allocated execution frame (one `while_loop` activation).
///
/// The fields outside [`Frame::core`] are immutable after creation and can
/// be read without any lock — in particular [`Frame::tag`], used for
/// rendezvous keys and random-op seeding on the execution hot path.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Unique id of this activation within the run.
    pub id: FrameId,
    /// Interned static frame name (`None` for the root frame).
    pub name_id: Option<FrameNameId>,
    /// Parent frame and the parent iteration that spawned this frame.
    pub parent: Option<(Arc<Frame>, usize)>,
    /// Nesting depth (root = 0). Checked against the run's
    /// `max_frame_depth` so runaway recursion fails structurally instead
    /// of exhausting memory.
    pub depth: usize,
    /// The `Call` node that pushed this frame, if it is a call frame: the
    /// body's `FunctionRet` values are delivered to this node's consumers
    /// in the parent frame.
    pub call_site: Option<NodeId>,
    /// The §4.3 parallelism knob for this frame.
    pub parallel_iterations: usize,
    /// Total `Enter` tokens this frame will receive.
    pub expected_enters: usize,
    /// Static tag prefix for rendezvous keys; full tag is
    /// `"{base_tag};{iter}"`.
    pub base_tag: String,
    /// Mutable bookkeeping (iterations, windows, exits).
    pub core: Mutex<FrameCore>,
}

impl Frame {
    /// Creates the root frame (iteration 0 only, no parent).
    pub(crate) fn root() -> Arc<Frame> {
        Arc::new(Frame {
            id: ROOT_FRAME,
            name_id: None,
            parent: None,
            depth: 0,
            call_site: None,
            parallel_iterations: 1,
            expected_enters: 0,
            base_tag: "root".into(),
            core: Mutex::new(FrameCore::new()),
        })
    }

    /// Creates a child frame.
    pub(crate) fn child(
        id: FrameId,
        name_id: FrameNameId,
        name: &str,
        parent: (Arc<Frame>, usize),
        parallel_iterations: usize,
        expected_enters: usize,
        call_site: Option<NodeId>,
    ) -> Arc<Frame> {
        let base_tag = format!("{};{}/{}", parent.0.base_tag, parent.1, name);
        let depth = parent.0.depth + 1;
        Arc::new(Frame {
            id,
            name_id: Some(name_id),
            parent: Some(parent),
            depth,
            call_site,
            parallel_iterations: parallel_iterations.max(1),
            expected_enters,
            base_tag,
            core: Mutex::new(FrameCore::new()),
        })
    }

    /// The dynamic tag of iteration `iter` in this frame (rendezvous keys).
    /// Lock-free: derived from immutable metadata only.
    pub(crate) fn tag(&self, iter: usize) -> String {
        format!("{};{}", self.base_tag, iter)
    }

    /// `true` if iteration `iter` is inside the parallel window.
    pub(crate) fn in_window(&self, core: &FrameCore, iter: usize) -> bool {
        iter < core.front + self.parallel_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_hierarchical() {
        let root = Frame::root();
        assert_eq!(root.tag(0), "root;0");
        let child = Frame::child(1, 0, "loopA", (root.clone(), 0), 32, 2, None);
        assert_eq!(child.tag(3), "root;0/loopA;3");
        assert_eq!(child.depth, 1);
        let grand = Frame::child(2, 1, "loopB", (child, 3), 32, 1, None);
        assert_eq!(grand.tag(0), "root;0/loopA;3/loopB;0");
        assert_eq!(grand.depth, 2);
    }

    #[test]
    fn window_logic() {
        let root = Frame::root();
        let f = Frame::child(1, 0, "l", (root, 0), 4, 1, None);
        {
            let core = f.core.lock();
            assert!(f.in_window(&core, 0));
            assert!(f.in_window(&core, 3));
            assert!(!f.in_window(&core, 4));
        }
        {
            let mut core = f.core.lock();
            core.retire_front();
            core.retire_front();
        }
        let core = f.core.lock();
        assert!(f.in_window(&core, 5));
        assert!(!f.in_window(&core, 6));
    }

    fn live(core: &FrameCore) -> Vec<usize> {
        core.live_iterations().map(|(i, _)| i).collect()
    }

    #[test]
    fn ring_lookups_outside_the_live_range_are_none() {
        let mut core = FrameCore::new();
        core.iteration_entry(1);
        core.retire_front();
        assert_eq!(core.front, 1);
        assert!(core.iteration(0).is_none(), "behind front");
        assert!(core.iteration_mut(0).is_none(), "behind front");
        assert!(core.iteration(1).is_some());
        assert!(core.iteration(2).is_none(), "past the end");
        assert!(core.iteration_mut(7).is_none(), "past the end");
    }

    #[test]
    fn ring_entry_past_the_end_leaves_gaps() {
        let mut core = FrameCore::new();
        core.iteration_entry(5).outstanding_ops = 3;
        assert_eq!(core.iterations.len(), 6);
        for k in 1..5 {
            assert!(core.iterations[k].is_none(), "slot {k} should be a gap");
            assert!(core.iteration(k).is_none());
        }
        assert_eq!(core.iteration(5).map(|it| it.outstanding_ops), Some(3));
        assert_eq!(live(&core), vec![0, 5]);
        // An existing iteration is returned, not replaced.
        assert_eq!(core.iteration_entry(5).outstanding_ops, 3);
    }

    #[test]
    #[should_panic(expected = "iteration 0 created behind front 1")]
    fn ring_entry_behind_front_panics() {
        let mut core = FrameCore::new();
        core.retire_front();
        core.iteration_entry(0);
    }

    #[test]
    fn retire_front_keeps_slots_aligned_with_iterations() {
        let mut core = FrameCore::new();
        core.iteration_entry(2).outstanding_ops = 2;
        core.iteration_entry(3).outstanding_frames = 3;
        core.retire_front(); // Retires live iteration 0.
        assert_eq!(live(&core), vec![2, 3]);
        core.retire_front(); // The front slot (iteration 1) is a gap.
        assert_eq!(core.front, 2);
        assert_eq!(live(&core), vec![2, 3]);
        assert_eq!(core.iteration(2).map(|it| it.outstanding_ops), Some(2));
        assert_eq!(core.iteration(3).map(|it| it.outstanding_frames), Some(3));
        core.iteration_entry(6);
        assert_eq!(live(&core), vec![2, 3, 6]);
        core.retire_front();
        core.retire_front();
        assert_eq!(live(&core), vec![6]);
        assert_eq!(core.iterations.len(), 3, "slots 4, 5, 6 from front 4");
    }

    #[test]
    fn node_slots_grow_to_the_highest_id_touched() {
        let mut it = IterationState::default();
        it.node_entry(3, || NodeInstance::new(2, 2, 0)).pending_data -= 1;
        assert_eq!(it.nodes.len(), 4);
        assert!(it.nodes[..3].iter().all(Option::is_none));
        // Existing instance: `make` is not called.
        let inst = it.node_entry(3, || unreachable!("instance exists"));
        assert_eq!(inst.pending_data, 1);
        it.node_entry(1, || NodeInstance::new(0, 0, 1));
        assert_eq!(it.nodes.len(), 4);
    }

    #[test]
    fn parallel_iterations_clamped_to_one() {
        let root = Frame::root();
        let f = Frame::child(1, 0, "l", (root, 0), 0, 1, None);
        assert_eq!(f.parallel_iterations, 1);
    }
}
