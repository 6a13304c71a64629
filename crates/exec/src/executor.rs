//! The tagged-token executor: evaluation rules of Figure 5, frame and
//! iteration management, deadness propagation, asynchronous kernels, and
//! memory swapping.
//!
//! # Concurrency structure
//!
//! Run state is sharded per frame: every dynamic frame owns a mutex over
//! its iteration bookkeeping ([`crate::frame::FrameCore`]), so threads
//! advancing different loops (or communicating ops in different frames)
//! never contend. A short-held frame-table lock arbitrates frame
//! creation, and fetched values live behind their own leaf mutex. The
//! locking discipline (what may be held when, and why the completion
//! cascade is deadlock-free) is documented in `DESIGN.md`.
//!
//! # Who runs an activation
//!
//! Every *executor thread* — the thread inside [`Executor::run_with`] and
//! a pool worker inside its handler — owns a FIFO ready queue. A node that
//! becomes ready on an executor thread is pushed onto that thread's queue
//! and run by the same thread once the activation that readied it has
//! returned and released every lock. A device kernel — compute, or a swap
//! copy — is launched on the executor thread that runs it: its value is
//! computed at once and its outputs carry their modeled end as a stamp
//! ([`Token::ready`]). A `Recv` whose value is still in flight, a host op
//! whose inputs' stamps are still ahead, and a stack pop whose swap-in
//! copy is still running are completed by the thread inside `run_with`,
//! which waits out the modeled time itself. A step therefore runs start to
//! finish on the thread that called it. [`spill`] is the one escape: it
//! hands the current thread's queue to the persistent [`WorkerPool`],
//! created once per [`Executor`], before that thread does something long.
//! See `DESIGN.md` ("Who runs an activation" and "Stamps").

use crate::exec_graph::{ExecGraph, FrameNameId};
use crate::frame::{DeferredToken, Frame, FrameCore, FrameId, NodeInstance, ROOT_FRAME};
use crate::kernels::{execute_op, is_compute_op, is_expensive_on_host, op_cost, should_charge};
use crate::pool::{PoolMsg, Sender, WorkerPool};
use crate::rendezvous::Rendezvous;
use crate::resources::{
    swap_in, swap_out, ResourceManager, SlotEntry, StackRes, StackSlot, SwapIn,
};
use crate::token::{Charge, ExecError, Token};
use crate::Result;
use dcf_device::{
    instant_of, stamp_now, Device, DeviceCollector, FrameStats, NodeStats, RendezvousKind,
    RendezvousWait, StreamKind, TraceLevel,
};
use dcf_graph::{NodeId, OpKind, TensorRef};
use dcf_sync::{Condvar, Mutex};
use dcf_tensor::{Tensor, TensorRng};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Tunables of one executor.
#[derive(Clone, Debug)]
pub struct ExecutorOptions {
    /// Pool threads. They run only the queues executor threads spill before
    /// something long (an expensive host kernel, a wait for device memory);
    /// the thread that calls `run` executes everything else, completes what
    /// waits for modeled time (a `Recv` whose value crosses the modeled
    /// network, a swap-in copy), and a step that spills nothing never
    /// leaves it.
    pub workers: usize,
    /// Memory-pressure fraction above which eligible stack pushes swap their
    /// payload to host memory (§5.3 "predefined threshold").
    pub swap_threshold: f64,
    /// Minimum modeled tensor size for swapping (§5.3 "we do not swap small
    /// tensors").
    pub min_swap_bytes: usize,
    /// How long an allocation on a full device waits for in-flight
    /// deallocations (swap-out copies reaching their modeled end, consumers
    /// releasing buffers) before reporting OOM — allocator-level
    /// backpressure, so a host that runs ahead of the modeled D2H clock
    /// does not turn a transient high-water mark into a spurious OOM.
    pub oom_patience: std::time::Duration,
    /// Base seed for stateful random ops.
    pub seed: u64,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            workers: 2,
            swap_threshold: 0.9,
            min_swap_bytes: 64 << 10,
            oom_patience: std::time::Duration::from_secs(2),
            seed: 0x5eed,
        }
    }
}

/// Per-run execution settings beyond feeds and fetches: cancellation
/// wiring, an optional step-stats collector handle, and an optional
/// deadline. Constructed by the session from its `RunOptions`.
pub struct RunConfig {
    /// Shared cancellation token aborting this run when a peer partition
    /// fails (and firing when this one does).
    pub cancel: Option<Arc<crate::token::CancelToken>>,
    /// Step-stats collector handle for this executor's device. When set,
    /// every node activation, frame completion, and rendezvous wait is
    /// recorded; when `None` the executor pays one pointer check per node.
    pub collector: Option<DeviceCollector>,
    /// Wall-clock budget for the run. On expiry the run fails with
    /// [`ExecError::DeadlineExceeded`] (and fires `cancel`, aborting peer
    /// partitions); in-flight activations drain as no-ops.
    pub timeout: Option<std::time::Duration>,
    /// Step id scoping this run's rendezvous entries; all partitions of a
    /// session run share one id, and the session reclaims the step's
    /// entries when the run finishes or aborts. Defaults to step 0 for
    /// standalone executor runs.
    pub step: crate::rendezvous::StepId,
    /// Maximum frame nesting depth (loops and function calls combined).
    /// Pushing a frame beyond this fails the run with
    /// [`ExecError::FrameDepthExceeded`] — the structured outcome of
    /// runaway recursion.
    pub max_frame_depth: usize,
}

/// Default frame-depth limit: deep enough for any reasonable loop nest or
/// recursion, small enough to fail fast on unbounded recursion.
pub const DEFAULT_MAX_FRAME_DEPTH: usize = 256;

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cancel: None,
            collector: None,
            timeout: None,
            step: Default::default(),
            max_frame_depth: DEFAULT_MAX_FRAME_DEPTH,
        }
    }
}

/// Result of a run: the fetched tensors, in request order.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Fetched values.
    pub values: Vec<Tensor>,
    /// Number of node activations the run executed (live or dead),
    /// including asynchronous kernel completions. Used by benchmarks to
    /// derive exact op-throughput.
    pub ops_executed: u64,
}

/// A per-device dataflow executor.
///
/// Executes its subgraph against one simulated device, communicating with
/// peer executors (if any) through the shared rendezvous. Worker threads
/// are spawned once here and shared by all subsequent runs (concurrent
/// runs are allowed; jobs carry their run's state). See the crate docs
/// for the execution model.
pub struct Executor {
    eg: Arc<ExecGraph>,
    device: Arc<Device>,
    resources: Arc<ResourceManager>,
    rendezvous: Arc<dyn Rendezvous>,
    options: ExecutorOptions,
    pool: WorkerPool<Job>,
}

/// One schedulable node activation, self-contained so any executor thread
/// (of this run, a concurrent run, or a peer partition's) can run it.
struct Job {
    shared: Arc<RunShared>,
    frame: Arc<Frame>,
    iter: usize,
    node: NodeId,
    /// Collector timestamp at scheduling time (0 when not tracing);
    /// reported as the node's `scheduled_us`.
    sched_us: u64,
}

impl Job {
    fn run(self) {
        self.shared.execute_node(&self.frame, self.iter, self.node, self.sched_us);
    }
}

thread_local! {
    /// The current thread's ready queue: `Some` exactly while the thread is
    /// an executor thread (an [`ExecutorThread`] guard is alive on it).
    /// FIFO, so a thread running alone visits activations in the order the
    /// shared queue would have handed them out. Never borrowed across a
    /// call that can schedule.
    static READY: RefCell<Option<VecDeque<Job>>> = const { RefCell::new(None) };
}

/// Marks the current thread as an executor thread until dropped. On drop
/// (return or unwind) whatever is still queued goes to the pool: a queue
/// may hold jobs of other runs, so it is emptied or spilled, never dropped.
/// (Guards do not nest in this crate; if one ever did, the inner drop
/// would spill the shared queue and the outer thread would carry on as a
/// non-executor thread — slower, nothing lost.)
struct ExecutorThread;

impl ExecutorThread {
    fn enter() -> ExecutorThread {
        READY.with(|q| {
            q.borrow_mut().get_or_insert_with(VecDeque::new);
        });
        ExecutorThread
    }
}

impl Drop for ExecutorThread {
    fn drop(&mut self) {
        spill();
        READY.with(|q| *q.borrow_mut() = None);
    }
}

/// Queues `job` on the current thread, or gives it back when the thread is
/// not an executor thread.
fn push_ready(job: Job) -> Option<Job> {
    READY.with(|q| match q.borrow_mut().as_mut() {
        Some(q) => {
            q.push_back(job);
            None
        }
        None => Some(job),
    })
}

fn pop_ready() -> Option<Job> {
    READY.with(|q| q.borrow_mut().as_mut().and_then(VecDeque::pop_front))
}

/// Moves the current thread's ready queue to the pool (each job to its own
/// executor's). Called before the thread does something long — an
/// expensive host kernel, a wait for device memory — so that work it made
/// ready does not wait behind it, and when it stops being an executor
/// thread. A no-op on an empty queue and on any other thread.
fn spill() {
    let jobs = READY.with(|q| q.borrow_mut().as_mut().map(std::mem::take));
    for job in jobs.into_iter().flatten() {
        let shared = job.shared.clone();
        let _ = shared.queue_tx.send(PoolMsg::Job(job));
    }
}

/// Runs `first`, then everything it (transitively) made ready on this
/// thread: the pool's handler.
fn run_and_drain(first: Job) {
    let _thread = ExecutorThread::enter();
    first.run();
    while let Some(job) = pop_ready() {
        job.run();
    }
}

/// Which of its inputs an op waits for, in modeled time, before it runs
/// (`DESIGN.md`, "Stamps").
enum HostWait {
    /// None: a forwarder carries the stamps on, and a device op is
    /// launched on the compute clock or, modeled free (`ZerosLike`,
    /// `Reshape`, ...), stamps its outputs with its inputs'.
    Nothing,
    /// A `Switch` waits for its predicate and forwards its data.
    Predicate,
    /// Every other op can see a value on the host, and waits for all of
    /// its inputs, control inputs included.
    All,
}

fn host_wait(op: &OpKind, on_gpu: bool) -> HostWait {
    use OpKind::*;
    match op {
        Enter { .. }
        | Exit
        | Merge
        | NextIteration
        | Identity
        | Call { .. }
        | FunctionParam { .. }
        | FunctionRet { .. } => HostWait::Nothing,
        Switch => HostWait::Predicate,
        ZerosLike | OnesLike | Reshape { .. } | Cast { .. } if on_gpu => HostWait::Nothing,
        op if on_gpu && is_compute_op(op) => HostWait::Nothing,
        _ => HostWait::All,
    }
}

/// The calling thread checks its deadline and its due completions once per
/// this many activations it runs inline (a clock read and an
/// uncontended lock, against ~500 ns an activation).
const DEADLINE_CHECK_EVERY: u32 = 64;

/// A completion held until an instant: a `Recv` until its value arrives, a
/// host op until its inputs' stamps, the run's result until its last
/// kernel ends.
type Completion = Box<dyn FnOnce() + Send>;

/// What the driving thread waits for, under one lock so that no wake-up is
/// lost: the run's result, and the completions and releases whose instants
/// are still ahead in modeled time.
#[derive(Default)]
struct Waits {
    result: Option<Result<()>>,
    /// Completions and their arrival instants. A scan finds the earliest:
    /// with `releases`, up to ~400 entries on a swapping LSTM step, whose
    /// backward loop issues its swap-ins together, and ~1.5 ms of scanning
    /// in a 247 ms step (EXPERIMENTS.md, "Copy streams are clocks too").
    timed: Vec<(Instant, Completion)>,
    /// Device memory a copy still reads: a swap-out's source, held until
    /// its D2H copy's modeled end. The driving thread drops each at its
    /// instant, and so does any memory wait of this run (see
    /// [`RunShared::charge`]). A pop that took the buffer back holds a
    /// reference of its own, so dropping this one frees nothing then.
    releases: Vec<(Instant, Arc<Charge>)>,
    /// Set once the driving thread has drained `timed` on its way out of
    /// `run_with`. A completion arriving later (only on a failed run, where
    /// it is a no-op) runs where it arrives.
    closed: bool,
}

impl Waits {
    fn earliest(&self) -> Option<Instant> {
        self.timed.iter().map(|t| t.0).chain(self.releases.iter().map(|r| r.0)).min()
    }

    fn next_release(&self) -> Option<Instant> {
        self.releases.iter().map(|r| r.0).min()
    }

    /// Drops the held charges whose copies have ended by `now`.
    fn release_due(&mut self, now: Instant) {
        self.releases.retain(|r| r.0 > now);
    }

    /// Drops the due releases, then takes a completion whose instant has
    /// passed, if any.
    fn take_due(&mut self) -> Option<Completion> {
        let now = Instant::now();
        self.release_due(now);
        let (k, _) = self.timed.iter().enumerate().min_by_key(|(_, t)| t.0)?;
        (self.timed[k].0 <= now).then(|| self.timed.swap_remove(k).1)
    }
}

/// Frame registry: maps (parent frame, parent iteration, frame name) to
/// the live child activation. Held briefly, only on frame creation and
/// completion — never while delivering tokens.
struct FrameTable {
    index: HashMap<(FrameId, usize, FrameNameId), Arc<Frame>>,
    next: FrameId,
}

struct RunShared {
    eg: Arc<ExecGraph>,
    device: Arc<Device>,
    resources: Arc<ResourceManager>,
    rendezvous: Arc<dyn Rendezvous>,
    options: ExecutorOptions,
    feeds: Arc<HashMap<String, Tensor>>,
    fetch_set: HashSet<(usize, usize)>,
    table: Mutex<FrameTable>,
    fetched: Mutex<HashMap<(usize, usize), Token>>,
    queue_tx: Sender<PoolMsg<Job>>,
    outstanding: AtomicI64,
    ops: AtomicU64,
    done: Mutex<Waits>,
    /// Wakes the driving thread: the result is set or a completion queued.
    done_cv: Condvar,
    /// Lock-free mirror of "`done` holds an error", read once or twice per
    /// activation; `done` stays the source of the result.
    failed: AtomicBool,
    /// Latest modeled end of a kernel this run launched; the run does not
    /// return before it.
    latest: AtomicU64,
    /// The run's budget and the instant it runs out; see
    /// [`RunConfig::timeout`].
    deadline: Option<(Duration, Instant)>,
    cancel: Option<Arc<crate::token::CancelToken>>,
    /// Rendezvous scope of this run; see [`RunConfig::step`].
    step: crate::rendezvous::StepId,
    /// Per-run step-stats handle; `None` keeps the hot path at a single
    /// `Option` check per activation.
    collector: Option<DeviceCollector>,
    /// Frame-depth limit for this run; see [`RunConfig::max_frame_depth`].
    max_frame_depth: usize,
}

impl Executor {
    /// Creates an executor for `eg` on `device`, spawning its worker pool.
    pub fn new(
        eg: Arc<ExecGraph>,
        device: Arc<Device>,
        resources: Arc<ResourceManager>,
        rendezvous: Arc<dyn Rendezvous>,
        options: ExecutorOptions,
    ) -> Executor {
        let pool = WorkerPool::new("dcf-exec", options.workers, run_and_drain);
        Executor { eg, device, resources, rendezvous, options, pool }
    }

    /// Runs the subgraph: feeds placeholder values, executes until
    /// quiescent, and returns the fetched tensors.
    ///
    /// Fetches must refer to tensors produced in the root context.
    pub fn run(
        &self,
        feeds: &HashMap<String, Tensor>,
        fetches: &[TensorRef],
    ) -> Result<RunOutcome> {
        self.run_cancellable(Arc::new(feeds.clone()), fetches, None)
    }

    /// Like [`Executor::run`], taking the feed dictionary by `Arc` (shared
    /// across partitions without copying) and additionally aborting (with
    /// the peer's error) if `cancel` fires — used by the session to stop
    /// all partitions when one fails.
    pub fn run_cancellable(
        &self,
        feeds: Arc<HashMap<String, Tensor>>,
        fetches: &[TensorRef],
        cancel: Option<Arc<crate::token::CancelToken>>,
    ) -> Result<RunOutcome> {
        self.run_with(feeds, fetches, RunConfig { cancel, ..RunConfig::default() })
    }

    /// The full-control run entry point: feeds by `Arc`, plus a
    /// [`RunConfig`] carrying cancellation, step-stats collection, and an
    /// optional deadline. All other run methods are wrappers around this.
    pub fn run_with(
        &self,
        feeds: Arc<HashMap<String, Tensor>>,
        fetches: &[TensorRef],
        config: RunConfig,
    ) -> Result<RunOutcome> {
        let RunConfig { cancel, collector, timeout, step, max_frame_depth } = config;
        let fetch_set: HashSet<(usize, usize)> =
            fetches.iter().map(|t| (t.node.0, t.port)).collect();
        let root = Frame::root();
        let shared = Arc::new(RunShared {
            eg: self.eg.clone(),
            device: self.device.clone(),
            resources: self.resources.clone(),
            rendezvous: self.rendezvous.clone(),
            options: self.options.clone(),
            feeds,
            fetch_set,
            table: Mutex::new(FrameTable { index: HashMap::new(), next: ROOT_FRAME + 1 }),
            fetched: Mutex::new(HashMap::new()),
            queue_tx: self.pool.sender(),
            outstanding: AtomicI64::new(0),
            ops: AtomicU64::new(0),
            done: Mutex::new(Waits::default()),
            done_cv: Condvar::new(),
            failed: AtomicBool::new(false),
            latest: AtomicU64::new(0),
            deadline: timeout.map(|t| (t, Instant::now() + t)),
            cancel: cancel.clone(),
            step,
            collector,
            max_frame_depth,
        });
        if let Some(token) = &cancel {
            // Abort this run if any peer partition fails.
            let weak = Arc::downgrade(&shared);
            token.subscribe(Box::new(move |err| {
                if let Some(sh) = weak.upgrade() {
                    sh.complete(Err(err));
                }
            }));
        }

        // Drive the step on this thread: seed the root sources into its
        // ready queue and run until the run has a result. When the queue is
        // empty, this thread runs the timed completions, each at its
        // instant: `Recv`s whose values are in flight, host ops waiting for
        // a kernel's modeled end, pops waiting for their swap-in copy, and
        // the result itself while the last kernel runs; it also drops the
        // swap-out sources whose copies have ended. What else is
        // outstanding was spilled to the pool.
        let result = {
            let _thread = ExecutorThread::enter();
            {
                let mut core = root.core.lock();
                for src in &shared.eg.sources {
                    shared.schedule(&root, &mut core, 0, *src);
                }
            }
            if shared.outstanding.load(Ordering::SeqCst) == 0 {
                shared.complete(Ok(()));
            }
            let mut ran = 0u32;
            loop {
                while let Some(job) = pop_ready() {
                    job.run();
                    ran = ran.wrapping_add(1);
                    if ran.is_multiple_of(DEADLINE_CHECK_EVERY) {
                        shared.check_deadline();
                        while let Some(due) = shared.take_due() {
                            due();
                        }
                    }
                }
                match shared.next_due() {
                    Some(due) => due(),
                    None => break,
                }
            }
            // Only a failed run leaves completions behind: they run now, as
            // no-ops, and none keeps `shared` alive from inside it. The
            // memory its copies still read is free as it returns.
            let (result, leftovers, releases) = {
                let mut done = shared.done.lock();
                done.closed = true;
                let Waits { result, timed, releases, .. } = &mut *done;
                (result.clone(), std::mem::take(timed), std::mem::take(releases))
            };
            drop(releases);
            for (_, due) in leftovers {
                due();
            }
            // `next_due` returns `None` only once the result is set; if that
            // invariant ever breaks, surface a structured error rather than
            // panic (this path runs under cancellation).
            result.unwrap_or_else(|| {
                Err(ExecError::Internal("run signalled done without a result".into()))
            })
        };

        // The root frame never "completes" through the window logic, so
        // its stats are recorded here, after quiescence (or failure).
        if let Some(dc) = &shared.collector {
            let core = root.core.lock();
            dc.frame(FrameStats {
                frame: root.base_tag.clone(),
                iterations: core.started as u64,
                dead_tokens: core.dead_tokens,
            });
        }
        result?;

        // Collect fetches.
        let fetched = shared.fetched.lock();
        let mut values = Vec::with_capacity(fetches.len());
        for t in fetches {
            match fetched.get(&(t.node.0, t.port)) {
                Some(tok) if !tok.is_dead => values.push(tok.value.clone()),
                Some(_) => {
                    return Err(ExecError::DeadFetch(self.eg.graph.node(t.node).name.clone()))
                }
                None => {
                    return Err(ExecError::BadFeedOrFetch(format!(
                        "fetch {} was never produced (is it in the root context?)",
                        self.eg.graph.node(t.node).name
                    )))
                }
            }
        }
        Ok(RunOutcome { values, ops_executed: shared.ops.load(Ordering::Relaxed) })
    }
}

impl RunShared {
    // ------------------------------------------------------------------
    // Scheduling and bookkeeping (per-frame lock held by the caller)
    // ------------------------------------------------------------------

    fn schedule(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        node: NodeId,
    ) {
        debug_assert!(!core.done, "schedule into completed frame {}", frame.id);
        let inst = self.instance(core, i, node);
        debug_assert!(!inst.scheduled, "double schedule of {:?}", node);
        inst.scheduled = true;
        if let Some(it) = core.iteration_mut(i) {
            it.outstanding_ops += 1;
        }
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        let sched_us = self.collector.as_ref().map(|dc| dc.now_us()).unwrap_or(0);
        let job = Job { shared: self.clone(), frame: frame.clone(), iter: i, node, sched_us };
        // An executor thread keeps what it made ready (and runs it after
        // the current activation has released this lock); any other thread
        // must never run graph nodes and hands over to the pool.
        if let Some(job) = push_ready(job) {
            let _ = self.queue_tx.send(PoolMsg::Job(job));
        }
    }

    fn instance<'a>(
        &self,
        core: &'a mut FrameCore,
        i: usize,
        node: NodeId,
    ) -> &'a mut NodeInstance {
        core.iteration_entry(i).node_entry(node.0, || {
            NodeInstance::new(
                self.eg.total_input_slots(node),
                self.eg.num_data_inputs(node),
                self.eg.num_control_inputs(node),
            )
        })
    }

    fn ensure_iteration(self: &Arc<Self>, frame: &Arc<Frame>, core: &mut FrameCore, i: usize) {
        if core.iteration(i).is_some() {
            return;
        }
        debug_assert!(!core.done, "new iteration in completed frame {}", frame.id);
        core.iteration_entry(i);
        core.started = core.started.max(i + 1);
        // Replay loop constants into the new iteration. Delivery never adds
        // a constant (only `finish_enter` does), so the indices stay valid.
        for k in 0..core.constants.len() {
            let (enter_node, token) = (core.constants[k].0, core.constants[k].1.clone());
            self.deliver_to_consumers(frame, core, i, enter_node, 0, token);
        }
    }

    fn deliver_to_consumers(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        node: NodeId,
        port: usize,
        token: Token,
    ) {
        // Record fetches first (root context only) — a fetched output may
        // have no consumers at all.
        if frame.id == ROOT_FRAME && self.fetch_set.contains(&(node.0, port)) {
            self.fetched.lock().insert((node.0, port), token.clone());
        }
        let consumers = self.eg.consumers(TensorRef { node, port });
        if consumers.is_empty() {
            return;
        }
        // Tensor buffers and memory charges are refcounted, so cloning per
        // consumer is cheap and keeps lifetimes exact; the final consumer
        // takes the token by move.
        let last = consumers.len() - 1;
        for &(dst, slot) in &consumers[..last] {
            self.deliver(frame, core, i, dst, slot as usize, token.clone());
        }
        let (dst, slot) = consumers[last];
        self.deliver(frame, core, i, dst, slot as usize, token);
    }

    fn deliver(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        dst: NodeId,
        slot: usize,
        token: Token,
    ) {
        self.ensure_iteration(frame, core, i);
        let is_merge = self.eg.is_merge(dst);
        let is_loop_merge = self.eg.is_loop_merge[dst.0];
        let n_inputs = self.eg.num_data_inputs(dst);
        let inst = self.instance(core, i, dst);
        if is_merge {
            inst.merge_arrivals += 1;
            if token.is_dead {
                inst.merge_dead += 1;
            }
            if inst.scheduled {
                return; // Late arrival on an already-fired merge.
            }
            let fire = if is_loop_merge {
                // A loop merge receives exactly one token per iteration
                // (Enter at 0, NextIteration later); fire on it, live or
                // dead.
                inst.data[0] = Some(token);
                true
            } else if !token.is_dead {
                inst.data[0] = Some(token);
                true
            } else if inst.merge_dead == n_inputs {
                inst.any_dead = true;
                inst.data[0] = Some(token);
                true
            } else {
                false
            };
            if fire && inst.pending_control == 0 {
                self.schedule(frame, core, i, dst);
            } else if fire {
                // Remember readiness; fires when controls drain.
                inst.pending_data = 0;
            }
            return;
        }
        if inst.scheduled || inst.data.get(slot).map(|s| s.is_some()).unwrap_or(false) {
            self.fail(ExecError::Internal(format!(
                "double delivery to {} slot {slot} (frame {}, iter {i})",
                self.eg.graph.node(dst).name,
                frame.id
            )));
            return;
        }
        inst.any_dead |= token.is_dead;
        inst.data[slot] = Some(token);
        inst.pending_data -= 1;
        if inst.pending_data == 0 && inst.pending_control == 0 {
            self.schedule(frame, core, i, dst);
        }
    }

    fn deliver_control(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        dst: NodeId,
        dead: bool,
        ready: u64,
    ) {
        self.ensure_iteration(frame, core, i);
        let inst = self.instance(core, i, dst);
        if inst.scheduled {
            return;
        }
        inst.any_dead |= dead;
        inst.control_ready = inst.control_ready.max(ready);
        inst.pending_control = inst.pending_control.saturating_sub(1);
        if inst.pending_control == 0 && inst.pending_data == 0 {
            // For merges, pending_data reaching 0 means the fire condition
            // was met earlier.
            self.schedule(frame, core, i, dst);
        }
    }

    fn fail(&self, err: ExecError) {
        if let Some(token) = &self.cancel {
            token.fire(err.clone());
        }
        self.complete(Err(err));
    }

    fn complete(&self, result: Result<()>) {
        let mut done = self.done.lock();
        if done.result.is_none() {
            // Release: pairs with the Acquire load in `is_failed`.
            self.failed.store(result.is_err(), Ordering::Release);
            done.result = Some(result);
            self.done_cv.notify_all();
        }
    }

    fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// The run's last activation has finished. The run completes once
    /// modeled time has passed the end of its last kernel: a kernel still
    /// running on the device is part of the step, so `run` never returns
    /// before the device time it modeled — and by then every buffer the
    /// run released is free.
    fn quiesce(self: &Arc<Self>) {
        let latest = self.latest.load(Ordering::Relaxed);
        if latest > stamp_now() {
            let sh = self.clone();
            self.complete_at(instant_of(latest), Box::new(move || sh.complete(Ok(()))));
        } else {
            self.complete(Ok(()));
        }
    }

    /// Fails the run once its deadline has passed; in-flight activations
    /// observe the failure and drain as no-ops.
    fn check_deadline(&self) {
        if let Some((budget, dl)) = self.deadline {
            if Instant::now() >= dl {
                self.fail(ExecError::DeadlineExceeded {
                    waited: budget,
                    past_deadline: Duration::ZERO,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Values in flight: the driving thread keeps the clock
    // ------------------------------------------------------------------

    /// Queues `completion` for the driving thread, which runs it at `at`
    /// (at once if that has passed). Once the driving thread has left — a
    /// failed run, where the completion is a no-op — it runs here.
    fn complete_at(&self, at: Instant, completion: Completion) {
        {
            let mut done = self.done.lock();
            if !done.closed {
                done.timed.push((at, completion));
                self.done_cv.notify_all();
                return;
            }
        }
        completion();
    }

    /// A queued completion whose instant has passed, if any, after
    /// dropping the releases that are due.
    fn take_due(&self) -> Option<Completion> {
        self.done.lock().take_due()
    }

    /// Holds the run's reference to `charge` until `at`, the modeled end
    /// of the copy that reads it (drops it at once if that has passed, or
    /// once the driving thread has left).
    fn release_at(&self, at: Instant, charge: Arc<Charge>) {
        if at > Instant::now() {
            let mut done = self.done.lock();
            if !done.closed {
                done.releases.push((at, charge));
                self.done_cv.notify_all();
                return;
            }
        }
        drop(charge);
    }

    /// The driving thread's wait once its ready queue is empty: returns the
    /// earliest queued completion at its instant, or `None` once the run
    /// has a result. It parks on `done_cv` until the earlier of the
    /// completion's instant less the calibrated sleep margin and the run's
    /// deadline — a newly queued completion or the result ends the park
    /// early — and spins the rest.
    fn next_due(&self) -> Option<Completion> {
        let dl = self.deadline.map(|(_, dl)| dl);
        loop {
            self.check_deadline();
            let at = {
                let mut done = self.done.lock();
                if done.result.is_some() {
                    return None;
                }
                if let Some(due) = done.take_due() {
                    return Some(due);
                }
                match done.earliest() {
                    Some(at) => at,
                    None => {
                        match dl {
                            None => self.done_cv.wait(&mut done),
                            Some(dl) => {
                                self.done_cv.wait_until(&mut done, dl);
                            }
                        }
                        continue;
                    }
                }
            };
            dcf_device::wait_until(at, |until| {
                let unchanged = |w: &Waits| w.result.is_none() && w.earliest() == Some(at);
                let mut done = self.done.lock();
                if !unchanged(&done) {
                    return false;
                }
                self.done_cv.wait_until(&mut done, dl.map_or(until, |d| d.min(until)));
                unchanged(&done) && dl.is_none_or(|d| Instant::now() < d)
            });
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn execute_node(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        sched_us: u64,
    ) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        if self.is_failed() {
            self.finish_noop(frame, i);
            return;
        }
        match &self.collector {
            None => {
                self.execute_node_inner(frame, i, node_id);
            }
            Some(dc) => {
                // An extra `outstanding` guard keeps the run (and thus the
                // session's `collector.finish()`) from completing between
                // the op's own completion inside `execute_node_inner` and
                // the stats record below — without it the final node's
                // record can land in an already-drained shard.
                self.outstanding.fetch_add(1, Ordering::SeqCst);
                let start_us = dc.now_us();
                let was_dead = self.execute_node_inner(frame, i, node_id);
                // For asynchronous ops (Recv, swap-in, a host op waiting for
                // a stamp) this span covers dispatch only; the device's
                // kernel tracks show the modeled execution.
                dc.node(NodeStats {
                    node: self.eg.graph.node(node_id).name.clone(),
                    frame: frame.base_tag.clone(),
                    iter: i as u64,
                    worker: 0, // filled in by the collector from the thread ordinal
                    scheduled_us: sched_us,
                    start_us,
                    end_us: dc.now_us(),
                    is_dead: was_dead,
                });
                if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.quiesce();
                }
            }
        }
    }

    /// Dispatches one activation; returns `true` when it took the dead
    /// path (dispatch-side deadness, for stats only — completion-side
    /// deadness is what `tail_locked` counts into the frame).
    fn execute_node_inner(self: &Arc<Self>, frame: &Arc<Frame>, i: usize, node_id: NodeId) -> bool {
        let node = self.eg.graph.node(node_id);
        // Extract the input tokens under the frame's lock. The tag is
        // derived lock-free from immutable frame metadata, and only by the
        // few ops that need one (random, Send, Recv).
        let (mut tokens, any_dead, control_ready) = {
            let mut core = frame.core.lock();
            let inst = self.instance(&mut core, i, node_id);
            // A fired instance is `scheduled`: every later delivery returns
            // (merge, control) or errors (double delivery) before touching
            // `data`, so the buffer can be moved out whole.
            (std::mem::take(&mut inst.data), inst.any_dead, inst.control_ready)
        };

        let is_merge = matches!(node.op, OpKind::Merge);
        if any_dead && !is_merge {
            self.execute_dead(frame, i, node_id);
            return true;
        }
        let latest = |tokens: &[Option<Token>]| tokens.iter().flatten().map(|t| t.ready).max();
        let on_gpu = self.device.cost_model().profile().is_gpu;
        let wait = match host_wait(&node.op, on_gpu) {
            HostWait::All => latest(&tokens).unwrap_or(0).max(control_ready),
            waits => {
                // What the op forwards or computes carries its control
                // inputs' stamp on.
                if control_ready > 0 {
                    for t in tokens.iter_mut().flatten() {
                        t.ready = t.ready.max(control_ready);
                    }
                }
                match waits {
                    HostWait::Predicate => latest(&tokens[1..]).unwrap_or(0),
                    _ => 0,
                }
            }
        };
        if wait > 0 && wait > stamp_now() {
            // The driving thread runs the op once its inputs exist in
            // modeled time; no thread blocks meanwhile.
            let (sh, fr) = (self.clone(), frame.clone());
            self.complete_at(
                instant_of(wait),
                Box::new(move || {
                    if sh.is_failed() {
                        sh.finish_noop(&fr, i);
                    } else {
                        sh.run_live(&fr, i, node_id, tokens);
                    }
                }),
            );
            return false;
        }
        self.run_live(frame, i, node_id, tokens);
        false
    }

    fn run_live(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        tokens: Vec<Option<Token>>,
    ) {
        match self.execute_live(frame, i, node_id, tokens) {
            Ok(Some(outputs)) => self.finish_op(frame, i, node_id, outputs, false),
            Ok(None) => {} // Asynchronous; a callback completes the op.
            Err(e) => self.fail(e),
        }
    }

    /// Handles a dead activation: skip the computation and propagate a dead
    /// signal downstream (§4.3), including across devices via Send.
    fn execute_dead(self: &Arc<Self>, frame: &Arc<Frame>, i: usize, node_id: NodeId) {
        let node = self.eg.graph.node(node_id);
        if let OpKind::Send { key_base, .. } = &node.op {
            // Propagate is_dead across devices (§4.4).
            self.send_timed(format!("{key_base}|{}", frame.tag(i)), Token::dead());
            self.finish_op(frame, i, node_id, vec![], true);
            return;
        }
        let outputs = std::iter::repeat_with(Token::dead).take(node.op.num_outputs());
        self.finish_op(frame, i, node_id, outputs, true);
    }

    /// Executes a live activation. Returns `Ok(None)` when completion is
    /// asynchronous (Recv, stack pop, swap-in).
    fn execute_live(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        mut tokens: Vec<Option<Token>>,
    ) -> Result<Option<Vec<Token>>> {
        let node = self.eg.graph.node(node_id);
        let take = |tokens: &mut Vec<Option<Token>>, idx: usize| -> Result<Token> {
            tokens
                .get_mut(idx)
                .and_then(|s| s.take())
                .ok_or_else(|| ExecError::Internal(format!("missing input {idx} of {}", node.name)))
        };
        let kerr = |detail: String| ExecError::Kernel { node: node.name.clone(), detail };

        match &node.op {
            // ---------------- Sources ----------------
            OpKind::Const(t) => Ok(Some(vec![self.materialize(t.clone())?])),
            OpKind::Placeholder { name, .. } => match self.feeds.get(name) {
                Some(t) => Ok(Some(vec![self.materialize(t.clone())?])),
                None => Err(ExecError::BadFeedOrFetch(format!("placeholder {name} was not fed"))),
            },
            OpKind::Variable { name, init } => {
                Ok(Some(vec![Token::live(self.resources.variable_read(name, init))]))
            }
            OpKind::RandomUniform { dims, lo, hi, seed } => {
                let mut h = DefaultHasher::new();
                (frame.tag(i).as_str(), seed, self.options.seed).hash(&mut h);
                let mut rng = TensorRng::new(h.finish());
                Ok(Some(vec![Token::live(rng.uniform(dims, *lo, *hi))]))
            }

            // ---------------- Control flow ----------------
            OpKind::Switch => {
                let data = take(&mut tokens, 0)?;
                let pred = take(&mut tokens, 1)?;
                let p = pred.value.scalar_as_bool().map_err(|e| kerr(e.to_string()))?;
                // Port 0 = false side, port 1 = true side (Figure 5).
                Ok(Some(if p { vec![Token::dead(), data] } else { vec![data, Token::dead()] }))
            }
            OpKind::Merge => {
                let chosen = tokens.iter_mut().find_map(|s| s.take()).ok_or_else(|| {
                    ExecError::Internal(format!("merge {} fired empty", node.name))
                })?;
                Ok(Some(vec![chosen]))
            }
            OpKind::Enter { .. }
            | OpKind::Exit
            | OpKind::NextIteration
            | OpKind::LoopCond
            | OpKind::Identity
            | OpKind::FunctionParam { .. }
            | OpKind::FunctionRet { .. } => {
                let t = take(&mut tokens, 0)?;
                Ok(Some(vec![t]))
            }
            OpKind::Call { .. } => {
                // The argument tokens pass straight through to completion,
                // where `finish_call` injects them into a fresh call frame.
                let args: Vec<Token> = tokens
                    .into_iter()
                    .map(|s| {
                        s.ok_or_else(|| {
                            ExecError::Internal(format!("missing call argument of {}", node.name))
                        })
                    })
                    .collect::<Result<_>>()?;
                Ok(Some(args))
            }

            // ---------------- Communication ----------------
            OpKind::Send { key_base, .. } => {
                let t = take(&mut tokens, 0)?;
                self.send_timed(format!("{key_base}|{}", frame.tag(i)), t);
                Ok(Some(vec![]))
            }
            OpKind::Recv { key_base, .. } => {
                let key = format!("{key_base}|{}", frame.tag(i));
                let sh = self.clone();
                let fr = frame.clone();
                // When tracing, time from recv issue to value consumption.
                let issued =
                    self.collector.as_ref().map(|dc| (dc.clone(), dc.now_us(), key.clone()));
                let asked = Instant::now();
                self.rendezvous.recv_async(
                    self.step,
                    key,
                    Box::new(move |result, at| {
                        if at <= asked {
                            // Arrived before it was asked for: the callback
                            // runs inside `recv_async`, on this thread.
                            sh.finish_recv(&fr, i, node_id, result, issued);
                        } else {
                            // In flight, or handed over on the sender's
                            // thread: this partition's own thread takes it.
                            let run = sh.clone();
                            run.complete_at(
                                at,
                                Box::new(move || sh.finish_recv(&fr, i, node_id, result, issued)),
                            );
                        }
                    }),
                );
                Ok(None)
            }

            // ---------------- Resources ----------------
            OpKind::Assign { var } => {
                let t = take(&mut tokens, 0)?;
                Ok(Some(vec![Token::live(self.resources.assign(var, t.value))]))
            }
            OpKind::AssignAdd { var } => {
                let t = take(&mut tokens, 0)?;
                let v = self.resources.assign_add(var, &t.value).map_err(kerr)?;
                Ok(Some(vec![Token::live(v)]))
            }
            OpKind::AssignSub { var } => {
                let t = take(&mut tokens, 0)?;
                let v = self.resources.assign_sub(var, &t.value).map_err(kerr)?;
                Ok(Some(vec![Token::live(v)]))
            }
            OpKind::StackCreate { swap } => {
                let id = self.resources.stack_create(self.step, *swap);
                Ok(Some(vec![Token::live(Tensor::scalar_i64(id as i64))]))
            }
            OpKind::StackPush => {
                let handle = take(&mut tokens, 0)?;
                let index = take(&mut tokens, 1)?;
                let value = take(&mut tokens, 2)?;
                let out = value.clone();
                self.stack_push(
                    handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64,
                    index.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?,
                    value,
                )
                .map_err(kerr)?;
                Ok(Some(vec![out]))
            }
            OpKind::StackPop => {
                let handle = take(&mut tokens, 0)?;
                let index = take(&mut tokens, 1)?;
                self.stack_pop(
                    frame,
                    i,
                    node_id,
                    handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64,
                    index.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?,
                )
            }
            OpKind::TensorArrayNew { dtype, accumulate } => {
                let size = take(&mut tokens, 0)?;
                let n = size.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?.max(0);
                let id = self.resources.array_create(self.step, *dtype, *accumulate, n as usize);
                Ok(Some(vec![
                    Token::live(Tensor::scalar_i64(id as i64)),
                    Token::live(Tensor::scalar_f32(0.0)),
                ]))
            }
            OpKind::TensorArrayWrite => {
                let handle = take(&mut tokens, 0)?;
                let index = take(&mut tokens, 1)?;
                let value = take(&mut tokens, 2)?;
                let _flow = take(&mut tokens, 3)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let ix = index.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?;
                self.resources.array_write(id, ix, value).map_err(kerr)?;
                Ok(Some(vec![Token::live(Tensor::scalar_f32(0.0))]))
            }
            OpKind::TensorArrayRead => {
                let handle = take(&mut tokens, 0)?;
                let index = take(&mut tokens, 1)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let ix = index.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?;
                let v = self.resources.array_read(id, ix).map_err(kerr)?;
                Ok(Some(vec![Token::live(v)]))
            }
            OpKind::TensorArrayPack => {
                let handle = take(&mut tokens, 0)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let v = self.resources.array_pack(id).map_err(kerr)?;
                Ok(Some(vec![self.materialize(v)?]))
            }
            OpKind::TensorArrayUnpack => {
                let handle = take(&mut tokens, 0)?;
                let value = take(&mut tokens, 1)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                self.resources
                    .array_unpack(id, &value.value, value.charge.clone())
                    .map_err(kerr)?;
                Ok(Some(vec![Token::live(Tensor::scalar_f32(0.0))]))
            }
            OpKind::TensorArraySize => {
                let handle = take(&mut tokens, 0)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let n = self.resources.array_size(id).map_err(kerr)?;
                Ok(Some(vec![Token::live(Tensor::scalar_i64(n))]))
            }
            OpKind::TensorArrayGrad { source } => {
                let handle = take(&mut tokens, 0)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let gid = self.resources.array_grad(id, source).map_err(kerr)?;
                Ok(Some(vec![
                    Token::live(Tensor::scalar_i64(gid as i64)),
                    Token::live(Tensor::scalar_f32(0.0)),
                ]))
            }

            OpKind::StreamStateRead { cell } => {
                let slots = take(&mut tokens, 0)?;
                let ids = slots.value.as_i64_slice().map_err(|e| kerr(e.to_string()))?;
                let v = self.resources.stream_read_rows(cell, ids).map_err(kerr)?;
                Ok(Some(vec![self.materialize(v)?]))
            }
            OpKind::StreamStateWrite { cell } => {
                let slots = take(&mut tokens, 0)?;
                let value = take(&mut tokens, 1)?;
                let ids = slots.value.as_i64_slice().map_err(|e| kerr(e.to_string()))?;
                self.resources.stream_write_rows(cell, ids, &value.value).map_err(kerr)?;
                // Forward the value so fetching the output forces the write.
                Ok(Some(vec![value]))
            }

            // ---------------- Bookkeeping ----------------
            OpKind::NoOp | OpKind::ControlTrigger => Ok(Some(vec![])),

            // ---------------- Compute ----------------
            op => {
                let inputs: Vec<Token> = tokens
                    .into_iter()
                    .map(|s| {
                        s.ok_or_else(|| {
                            ExecError::Internal(format!("missing input of {}", node.name))
                        })
                    })
                    .collect::<Result<_>>()?;
                let values: Vec<&Tensor> = inputs.iter().map(|t| &t.value).collect();
                let cm = self.device.cost_model();
                let cost = op_cost(op, &values, cm);
                let duration = cm.duration(cost);
                let mut ready = inputs.iter().map(|t| t.ready).max().unwrap_or(0);
                if is_compute_op(op) && cm.profile().is_gpu && duration > Duration::ZERO {
                    // Launch on the device's compute clock: the kernel
                    // counts as done once enqueued (§4.4), and its outputs
                    // carry its modeled end.
                    ready = self.device.launch(
                        StreamKind::Compute,
                        &node.name,
                        ready,
                        duration,
                        self.kernel_collector(),
                    );
                    self.latest.fetch_max(ready, Ordering::Relaxed);
                }
                // A long kernel computed here: let the pool have whatever
                // else this thread made ready instead of queueing it behind
                // the kernel.
                if is_expensive_on_host(op, &values) {
                    spill();
                }
                let out = execute_op(op, &values).map_err(kerr)?;
                let mut outs = Vec::with_capacity(out.len());
                for v in out {
                    let mut token = self.materialize(v)?;
                    token.ready = ready;
                    outs.push(token);
                }
                Ok(Some(outs))
            }
        }
    }

    /// Sends `token` on the rendezvous, recording the send-side wait (time
    /// spent inside the rendezvous, e.g. modeled-network queueing) when a
    /// collector is attached.
    fn send_timed(&self, key: String, token: Token) {
        match &self.collector {
            None => self.rendezvous.send(self.step, key, token),
            Some(dc) => {
                let t0 = dc.now_us();
                self.rendezvous.send(self.step, key.clone(), token);
                dc.rendezvous(RendezvousWait {
                    key,
                    kind: RendezvousKind::Send,
                    start_us: t0,
                    wait_us: dc.now_us().saturating_sub(t0),
                });
            }
        }
    }

    /// Completes a `Recv` with its arrived result, recording (when traced)
    /// the wait from issue until now, when the value is consumed.
    fn finish_recv(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        result: crate::rendezvous::RecvResult,
        issued: Option<(DeviceCollector, u64, String)>,
    ) {
        if let Some((dc, t0, key)) = issued {
            dc.rendezvous(RendezvousWait {
                key,
                kind: RendezvousKind::Recv,
                start_us: t0,
                wait_us: dc.now_us().saturating_sub(t0),
            });
        }
        match result {
            Ok(token) => {
                let dead = token.is_dead;
                self.finish_op(frame, i, node_id, vec![token], dead);
            }
            Err(e) => {
                // Transfer failed or the step was torn down: abort the run
                // (idempotent if it already failed) and drain this op.
                self.fail(e);
                self.finish_noop(frame, i);
            }
        }
    }

    /// The collector handle this run's kernels record into, so their
    /// timings land in the owning step's stats (not a device-global slot
    /// another concurrent run could be using). Kernel timings are
    /// device-level events, recorded only by [`TraceLevel::Full`] runs.
    fn kernel_collector(&self) -> Option<&DeviceCollector> {
        self.collector.as_ref().filter(|dc| dc.collector().level() >= TraceLevel::Full)
    }

    /// Charges `bytes` of device memory for this run, waiting up to
    /// `oom_patience` on a full device. The first attempt does not wait.
    /// A wait can end only when memory is released, and the release may
    /// be owed by this very thread: by an activation in its ready queue
    /// (so the queue is spilled first), or by one of this run's swap-outs,
    /// whose sources only this run drops. So the wait wakes at the run's
    /// next copy end, drops the releases then due, and tries again. Only
    /// the last attempt can count as a failed allocation.
    fn charge(&self, bytes: usize) -> Result<Arc<Charge>> {
        let allocator = self.device.allocator();
        let now = Instant::now();
        if let Some(charge) = Charge::new_by(allocator, bytes, now) {
            return Ok(charge);
        }
        spill();
        let deadline = now + self.options.oom_patience;
        while Instant::now() < deadline {
            let until = self.done.lock().next_release().map_or(deadline, |at| at.min(deadline));
            if let Some(charge) = Charge::new_by(allocator, bytes, until) {
                return Ok(charge);
            }
            self.done.lock().release_due(Instant::now());
        }
        Ok(Charge::new(allocator, bytes)?)
    }

    /// Wraps a freshly produced tensor in a token, charging device memory at
    /// modeled size when appropriate.
    fn materialize(&self, value: Tensor) -> Result<Token> {
        let cm = self.device.cost_model();
        if cm.profile().is_gpu {
            let bytes = cm.scaled_bytes(value.shape(), value.dtype().size_of());
            if should_charge(value.dtype(), bytes) {
                let charge = self.charge(bytes)?;
                return Ok(Token::live_charged(value, charge));
            }
        }
        Ok(Token::live(value))
    }

    // ------------------------------------------------------------------
    // Stack swapping (§5.3)
    // ------------------------------------------------------------------

    fn stack_push(&self, id: u64, index: i64, token: Token) -> std::result::Result<(), String> {
        let (slot, waiters) = {
            let mut stacks = self.resources.stacks.lock();
            let stack: &mut StackRes =
                stacks.get_mut(&id).ok_or_else(|| format!("no stack {id}"))?;
            let cm = self.device.cost_model();
            let bytes = token.charge.as_ref().map_or(0, |c| c.bytes());
            let slot = if stack.swap
                && cm.profile().is_gpu
                && swap_out(
                    bytes,
                    self.options.min_swap_bytes,
                    self.device.allocator().pressure(),
                    self.options.swap_threshold,
                ) {
                // The D2H copy starts once the value exists in modeled time,
                // and the run holds its device charge until the copy ends.
                let d2h_end = self.device.launch(
                    StreamKind::D2H,
                    &format!("swap_out[{bytes}B]"),
                    token.ready,
                    cm.copy_duration(bytes),
                    self.kernel_collector(),
                );
                self.latest.fetch_max(d2h_end, Ordering::Relaxed);
                let source = token.charge.as_ref().map_or_else(Weak::new, Arc::downgrade);
                if let Some(charge) = token.charge {
                    self.release_at(instant_of(d2h_end), charge);
                }
                StackSlot::Host {
                    value: token.value,
                    ready: token.ready,
                    d2h_end,
                    source,
                    is_dead: token.is_dead,
                }
            } else {
                StackSlot::Device(token)
            };
            // Fill the slot, releasing any pops that were waiting on it. If
            // pops were already parked, hand the value straight to them
            // (the slot is consumed by its single pop).
            match stack.slots.insert(index, SlotEntry::Ready(slot.clone())) {
                Some(SlotEntry::Waiting(w)) if !w.is_empty() => {
                    stack.slots.remove(&index);
                    (slot, w)
                }
                _ => (slot, Vec::new()),
            }
        };
        // Fire waiters outside the lock: they re-enter the executor.
        for w in waiters {
            w(slot.clone());
        }
        Ok(())
    }

    fn stack_pop(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        id: u64,
        index: i64,
    ) -> Result<Option<Vec<Token>>> {
        let ready = {
            let mut stacks = self.resources.stacks.lock();
            let stack = stacks.get_mut(&id).ok_or_else(|| ExecError::Kernel {
                node: self.eg.graph.node(node_id).name.clone(),
                detail: format!("no stack {id}"),
            })?;
            match stack.slots.get_mut(&index) {
                Some(SlotEntry::Ready(_)) => {
                    // Consume the slot: a saved value is popped exactly once
                    // (per-iteration indices), and dropping the stored token
                    // releases its device memory as backpropagation
                    // progresses.
                    match stack.slots.remove(&index) {
                        Some(SlotEntry::Ready(slot)) => Some(slot),
                        _ => unreachable!("checked Ready above"),
                    }
                }
                Some(SlotEntry::Waiting(waiters)) => {
                    // The forward push has not happened yet (it may be in a
                    // still-running parallel iteration): park this pop.
                    let sh = self.clone();
                    let fr = frame.clone();
                    waiters.push(Box::new(move |slot| sh.complete_pop(&fr, i, node_id, slot)));
                    None
                }
                None => {
                    let sh = self.clone();
                    let fr = frame.clone();
                    stack.slots.insert(
                        index,
                        SlotEntry::Waiting(vec![Box::new(move |slot| {
                            sh.complete_pop(&fr, i, node_id, slot)
                        })]),
                    );
                    None
                }
            }
        };
        match ready {
            Some(slot) => {
                self.complete_pop(frame, i, node_id, slot);
                Ok(None)
            }
            None => Ok(None),
        }
    }

    /// Completes a pop once its slot value is available: directly for
    /// device-resident values and for swapped-out ones whose D2H copy is
    /// still reading their buffer, at the end of an H2D swap-in copy for
    /// the rest.
    fn complete_pop(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        slot: StackSlot,
    ) {
        match slot {
            StackSlot::Device(token) => {
                let dead = token.is_dead;
                self.finish_op(frame, i, node_id, vec![token], dead);
            }
            StackSlot::Host { value, ready, d2h_end, source, is_dead } => {
                let resident = source.upgrade();
                let ready = match swap_in(d2h_end, stamp_now(), resident.is_some()) {
                    SwapIn::Reclaim => {
                        // The buffer is still on the device: the pop takes
                        // it back as it was pushed. The run's release at
                        // the copy's end then drops only its own reference.
                        let token = Token { is_dead, ready, value, charge: resident };
                        return self.finish_op(frame, i, node_id, vec![token], is_dead);
                    }
                    SwapIn::CopyIn { ready } => ready,
                };
                drop(resident);
                // Swap back in on the H2D stream once the D2H copy has
                // ended. The destination buffer is charged when the copy
                // is issued, and the pop completes at the copy's end, as a
                // GPU runtime signals a copy's consumers from its
                // completion event.
                let cm = self.device.cost_model();
                let bytes = cm.scaled_bytes(value.shape(), value.dtype().size_of());
                let charge = match self.charge(bytes) {
                    Ok(charge) => charge,
                    Err(e) => return self.fail(e),
                };
                let end = self.device.launch(
                    StreamKind::H2D,
                    &format!("swap_in[{bytes}B]"),
                    ready,
                    cm.copy_duration(bytes),
                    self.kernel_collector(),
                );
                self.latest.fetch_max(end, Ordering::Relaxed);
                let token = Token { is_dead, ready: end, ..Token::live_charged(value, charge) };
                if end > stamp_now() {
                    let (sh, fr) = (self.clone(), frame.clone());
                    self.complete_at(
                        instant_of(end),
                        Box::new(move || sh.finish_op(&fr, i, node_id, vec![token], is_dead)),
                    );
                } else {
                    self.finish_op(frame, i, node_id, vec![token], is_dead);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Completion and propagation
    // ------------------------------------------------------------------

    /// Decrements counters for an op that was skipped due to a run error.
    fn finish_noop(&self, frame: &Arc<Frame>, i: usize) {
        {
            let mut core = frame.core.lock();
            if let Some(it) = core.iteration_mut(i) {
                it.outstanding_ops = it.outstanding_ops.saturating_sub(1);
            }
        }
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }

    /// Propagates an op's outputs and advances completion state.
    ///
    /// `was_dead` is the op's deadness (drives control-edge deadness).
    /// Same-frame ops complete under a single acquisition of their frame's
    /// lock; `Enter` and `Exit` touch the neighbor frame's lock strictly
    /// after releasing any other (see `DESIGN.md`).
    fn finish_op(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        outputs: impl IntoIterator<Item = Token>,
        was_dead: bool,
    ) {
        if self.is_failed() {
            self.finish_noop(frame, i);
            return;
        }
        let mut outputs = outputs.into_iter();
        let node = self.eg.graph.node(node_id);
        // The latest stamp among the outputs: what the op's control
        // successors and its iteration inherit.
        let mut ready = 0;
        let completed = match &node.op {
            OpKind::NextIteration => {
                let mut core = frame.core.lock();
                if let Some(token) = outputs.next() {
                    ready = token.ready;
                    if token.is_dead {
                        // Dead NextIterations are dropped: this is what
                        // terminates the loop's dead wave.
                    } else {
                        let j = i + 1;
                        if frame.in_window(&core, j) {
                            self.ensure_iteration(frame, &mut core, j);
                            self.deliver_to_consumers(frame, &mut core, j, node_id, 0, token);
                        } else {
                            // Beyond the parallel-iterations window:
                            // defer until older iterations complete.
                            core.deferred.push_back(DeferredToken {
                                iter: j,
                                node: node_id,
                                token,
                            });
                        }
                    }
                }
                self.tail_locked(frame, &mut core, i, node_id, was_dead, ready)
            }
            OpKind::Enter { is_constant, parallel_iterations, .. } => {
                if let Some(token) = outputs.next() {
                    ready = token.ready;
                    self.finish_enter(frame, i, node_id, token, *is_constant, *parallel_iterations);
                }
                let mut core = frame.core.lock();
                self.tail_locked(frame, &mut core, i, node_id, was_dead, ready)
            }
            OpKind::Exit => {
                if let Some(token) = outputs.next() {
                    ready = token.ready;
                    self.finish_exit(frame, node_id, token);
                }
                let mut core = frame.core.lock();
                self.tail_locked(frame, &mut core, i, node_id, was_dead, ready)
            }
            // A live Call pushes a fresh call frame and injects its
            // arguments; a dead Call falls through to the default arm,
            // delivering one dead token per result port in the current
            // frame — this is what terminates recursion without pushing
            // frames down the untaken branch.
            OpKind::Call { .. } if !was_dead => {
                let args: Vec<Token> = outputs.collect();
                ready = args.iter().map(|t| t.ready).max().unwrap_or(0);
                self.finish_call(frame, i, node_id, args);
                let mut core = frame.core.lock();
                self.tail_locked(frame, &mut core, i, node_id, was_dead, ready)
            }
            // A FunctionRet delivers its token (live or dead) to the call
            // site's consumers in the parent frame; dead results propagate
            // out of the call like any other dead value.
            OpKind::FunctionRet { index, .. } => {
                let index = *index;
                if let Some(token) = outputs.next() {
                    ready = token.ready;
                    self.finish_ret(frame, index, token);
                }
                let mut core = frame.core.lock();
                self.tail_locked(frame, &mut core, i, node_id, was_dead, ready)
            }
            _ => {
                let mut core = frame.core.lock();
                for (port, token) in outputs.enumerate() {
                    ready = ready.max(token.ready);
                    self.deliver_to_consumers(frame, &mut core, i, node_id, port, token);
                }
                self.tail_locked(frame, &mut core, i, node_id, was_dead, ready)
            }
        };
        if completed {
            self.complete_frame(frame.clone());
        }
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.quiesce();
        }
    }

    /// Common completion tail, under the finishing op's frame lock:
    /// control successors observe the completion (and deadness, and the
    /// op's latest output stamp `ready`) in the same frame and iteration,
    /// the op stops being outstanding, and the frame's window/completion
    /// state advances. Returns `true` if the frame just completed (caller
    /// runs the cascade after releasing the lock).
    fn tail_locked(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        node_id: NodeId,
        was_dead: bool,
        ready: u64,
    ) -> bool {
        for &dst in self.eg.control_consumers(node_id) {
            self.deliver_control(frame, core, i, dst, was_dead, ready);
        }
        if was_dead {
            core.dead_tokens += 1;
        }
        if let Some(it) = core.iteration_mut(i) {
            it.outstanding_ops -= 1;
            it.ready = it.ready.max(ready);
        }
        self.advance_locked(frame, core)
    }

    /// `Enter` completion: route the token into the (possibly new) child
    /// frame. Lock order: frame table → parent core (creation only) →
    /// child core; never more than one frame core at a time.
    fn finish_enter(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        token: Token,
        is_constant: bool,
        parallel_iterations: usize,
    ) {
        let name_id = self.eg.enter_frame(node_id).expect("Enter node has a frame name");
        if frame.depth >= self.max_frame_depth {
            self.fail(ExecError::FrameDepthExceeded {
                limit: self.max_frame_depth,
                frame: self.eg.frame_name(name_id).to_string(),
            });
            return;
        }
        let (child, created) = {
            let mut table = self.table.lock();
            match table.index.get(&(frame.id, i, name_id)) {
                Some(c) => (c.clone(), false),
                None => {
                    let id = table.next;
                    table.next += 1;
                    let child = Frame::child(
                        id,
                        name_id,
                        self.eg.frame_name(name_id),
                        (frame.clone(), i),
                        parallel_iterations,
                        self.eg.expected_enters(name_id),
                        None,
                    );
                    table.index.insert((frame.id, i, name_id), child.clone());
                    (child, true)
                }
            }
        };
        if created {
            // Register the parent's hold. This Enter op is still
            // outstanding in (frame, i), so the parent iteration cannot
            // concurrently be observed quiescent before the hold lands.
            let mut pcore = frame.core.lock();
            if let Some(it) = pcore.iteration_mut(i) {
                it.outstanding_frames += 1;
            }
        }
        let completed_child = {
            let mut ccore = child.core.lock();
            ccore.enters_seen += 1;
            if is_constant {
                ccore.constants.push((node_id, token.clone()));
                let iters: Vec<usize> = ccore.live_iterations().map(|(j, _)| j).collect();
                for j in iters {
                    self.deliver_to_consumers(&child, &mut ccore, j, node_id, 0, token.clone());
                }
            } else {
                self.deliver_to_consumers(&child, &mut ccore, 0, node_id, 0, token);
            }
            // The frame may already be able to complete (e.g. a loop whose
            // predicate was false at iteration 0 and whose last Enter just
            // arrived).
            self.advance_locked(&child, &mut ccore)
        };
        if completed_child {
            self.complete_frame(child);
        }
    }

    /// `Exit` completion: live exits deliver into the parent frame
    /// immediately; dead exits are recorded and delivered (once) only if
    /// the frame completes without that exit ever going live.
    fn finish_exit(self: &Arc<Self>, frame: &Arc<Frame>, node_id: NodeId, token: Token) {
        let Some((parent, pi)) = &frame.parent else { return };
        if token.is_dead {
            frame.core.lock().dead_exits.insert(node_id);
        } else {
            frame.core.lock().live_exits.insert(node_id);
            // The parent iteration holds this frame outstanding, so it is
            // still live; own lock released before taking the parent's.
            let mut pcore = parent.core.lock();
            self.deliver_to_consumers(parent, &mut pcore, *pi, node_id, 0, token);
        }
    }

    /// `Call` completion: push a fresh call frame (one per call-site
    /// activation — a recursive call pushes another, dynamically nested
    /// frame) and inject the argument tokens into the body's
    /// `FunctionParam` nodes. Lock order matches [`RunShared::finish_enter`]:
    /// frame table → parent core → child core, never two cores at once.
    fn finish_call(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        args: Vec<Token>,
    ) {
        let name_id = self.eg.call_frame(node_id).expect("Call node has a frame name");
        if frame.depth >= self.max_frame_depth {
            self.fail(ExecError::FrameDepthExceeded {
                limit: self.max_frame_depth,
                frame: self.eg.frame_name(name_id).to_string(),
            });
            return;
        }
        let function = match &self.eg.graph.node(node_id).op {
            OpKind::Call { function, .. } => function.clone(),
            _ => unreachable!("finish_call on non-Call node"),
        };
        let params: Vec<NodeId> = self.eg.fn_params(&function).to_vec();
        if params.len() != args.len() {
            self.fail(ExecError::Internal(format!(
                "call of {function}: {} arguments for {} parameters",
                args.len(),
                params.len()
            )));
            return;
        }
        // A Call node fires at most once per (frame, iteration), so the
        // table entry is always fresh.
        let child = {
            let mut table = self.table.lock();
            let id = table.next;
            table.next += 1;
            let child = Frame::child(
                id,
                name_id,
                self.eg.frame_name(name_id),
                (frame.clone(), i),
                1,
                1,
                Some(node_id),
            );
            table.index.insert((frame.id, i, name_id), child.clone());
            child
        };
        // Register the parent's hold; this Call op is still outstanding in
        // (frame, i), so the parent iteration cannot concurrently be
        // observed quiescent before the hold lands.
        {
            let mut pcore = frame.core.lock();
            if let Some(it) = pcore.iteration_mut(i) {
                it.outstanding_frames += 1;
            }
        }
        let completed_child = {
            let mut ccore = child.core.lock();
            // The argument injection is the frame's single expected
            // "enter" event.
            ccore.enters_seen += 1;
            for (k, token) in args.into_iter().enumerate() {
                self.deliver(&child, &mut ccore, 0, params[k], 0, token);
            }
            self.advance_locked(&child, &mut ccore)
        };
        if completed_child {
            self.complete_frame(child);
        }
    }

    /// `FunctionRet` completion: deliver the result token — live or dead —
    /// to the consumers of the call site's matching output port in the
    /// parent frame. Mirrors [`RunShared::finish_exit`]'s parent-delivery
    /// path; no dead-exit deferral is needed because every body node
    /// (dead propagation included) executes exactly once per call frame.
    fn finish_ret(self: &Arc<Self>, frame: &Arc<Frame>, index: usize, token: Token) {
        let Some((parent, pi)) = &frame.parent else { return };
        let Some(call_site) = frame.call_site else {
            self.fail(ExecError::Internal(format!(
                "FunctionRet fired in non-call frame '{}'",
                frame.base_tag
            )));
            return;
        };
        // The parent iteration holds this frame outstanding, so it is
        // still live; own lock is not held while taking the parent's.
        let mut pcore = parent.core.lock();
        self.deliver_to_consumers(parent, &mut pcore, *pi, call_site, index, token);
    }

    /// Advances the iteration window of `frame` under its lock, releasing
    /// deferred tokens. Returns `true` when the frame transitioned to
    /// complete (exactly one caller observes the transition; `core.done`
    /// guards repeats).
    fn advance_locked(self: &Arc<Self>, frame: &Arc<Frame>, core: &mut FrameCore) -> bool {
        if frame.id == ROOT_FRAME {
            return false;
        }
        loop {
            let advance = if core.front() >= core.started {
                false
            } else {
                let enters_ok = core.front() > 0 || core.enters_seen == frame.expected_enters;
                let it_done = core.iteration(core.front()).is_none_or(|it| it.quiescent());
                enters_ok && it_done
            };
            if !advance {
                break;
            }
            core.retire_front();
            // Release deferred tokens now inside the window. Each carries
            // the retired iterations' latest stamp, so an iteration enters
            // the window no earlier in modeled time than on the host.
            loop {
                let limit = core.front() + frame.parallel_iterations;
                let pos = core.deferred.iter().position(|d| d.iter < limit);
                match pos.map(|p| core.deferred.remove(p).expect("position valid")) {
                    Some(mut d) => {
                        d.token.ready = d.token.ready.max(core.retired_ready);
                        self.ensure_iteration(frame, core, d.iter);
                        self.deliver_to_consumers(frame, core, d.iter, d.node, 0, d.token);
                    }
                    None => break,
                }
            }
        }

        // Frame completion.
        let complete = !core.done
            && core.front() >= core.started
            && core.deferred.is_empty()
            && core.enters_seen == frame.expected_enters
            && core.live_iterations().all(|(_, it)| it.quiescent());
        if complete {
            core.done = true;
            if let Some(dc) = &self.collector {
                dc.frame(FrameStats {
                    frame: frame.base_tag.clone(),
                    iterations: core.started as u64,
                    dead_tokens: core.dead_tokens,
                });
            }
        }
        complete
    }

    /// Completion cascade: walks up the ancestor chain, delivering each
    /// completed frame's never-live dead exits into its parent, releasing
    /// the parent's hold, and repeating if that completes the parent.
    /// Iterative, holding at most one frame lock at a time.
    fn complete_frame(self: &Arc<Self>, frame: Arc<Frame>) {
        let mut cur = frame;
        loop {
            let Some((parent, pi)) = cur.parent.clone() else { return };
            let dead_exits: Vec<NodeId> = {
                let core = cur.core.lock();
                debug_assert!(core.done, "cascade on incomplete frame {}", cur.id);
                core.dead_exits.difference(&core.live_exits).copied().collect()
            };
            // Unregister before releasing the parent's hold.
            if let Some(name_id) = cur.name_id {
                self.table.lock().index.remove(&(parent.id, pi, name_id));
            }
            let completed_parent = {
                let mut pcore = parent.core.lock();
                // Deliver one dead token per never-live exit (nested
                // deadness).
                for exit in dead_exits {
                    self.deliver_to_consumers(&parent, &mut pcore, pi, exit, 0, Token::dead());
                }
                if let Some(it) = pcore.iteration_mut(pi) {
                    it.outstanding_frames -= 1;
                }
                self.advance_locked(&parent, &mut pcore)
            };
            if completed_parent {
                cur = parent;
            } else {
                return;
            }
        }
    }
}
