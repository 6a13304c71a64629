//! The session: placing, partitioning, and running a graph on a cluster.

use crate::cluster::Cluster;
use crate::fault::{FaultEvent, FaultPlan, RetryPolicy};
use crate::netsim::{NetworkModel, NetworkRendezvous};
use crate::optimize::{optimize, OptLevel};
use crate::partition::{partition_graph, PartitionedGraph};
use crate::placer::place_nodes;
use crate::Result;
use dcf_device::{
    DeviceCollector, DeviceId, OptimizeStats, StepStats, StepStatsCollector, TraceLevel,
};
use dcf_exec::{
    run_step, CancelToken, ExecGraph, Executor, ExecutorOptions, Partition, Rendezvous,
    ResourceManager, RunConfig,
};
use dcf_graph::{Graph, NodeId, TensorRef};
use dcf_sync::{Condvar, Mutex};
use dcf_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Global step-id allocator: every `run` on any session gets a distinct
/// step, so rendezvous entries of concurrent or back-to-back runs can
/// never collide. Step 0 is reserved for standalone executors.
static NEXT_STEP: AtomicU64 = AtomicU64::new(1);

/// Session configuration.
#[derive(Clone, Debug, Default)]
pub struct SessionOptions {
    /// Per-partition executor tunables.
    pub executor: ExecutorOptions,
    /// Network model for cross-device transfers.
    pub network: NetworkModel,
    /// Admission limit for concurrent `run` calls. `None` (the default)
    /// admits every caller immediately; `Some(n)` lets at most `n` steps
    /// execute at once, queueing the rest in strict FIFO arrival order so
    /// a burst of clients cannot starve an early caller. `Some(0)` is an
    /// unsatisfiable configuration and every run fails with
    /// [`dcf_exec::ExecError::InvalidConfig`].
    pub max_concurrent_steps: Option<usize>,
    /// How much graph rewriting to perform at session build time. The
    /// default is [`OptLevel::Standard`]; [`OptLevel::None`] executes the
    /// graph exactly as built, with no hidden re-folding.
    pub opt: OptLevel,
}

impl SessionOptions {
    /// Options for functional tests: no modeled network delay.
    pub fn functional() -> SessionOptions {
        SessionOptions { network: NetworkModel::disabled(), ..Default::default() }
    }

    /// Replaces the executor tunables (builder style).
    pub fn with_executor(mut self, executor: ExecutorOptions) -> SessionOptions {
        self.executor = executor;
        self
    }

    /// Replaces the network model (builder style).
    pub fn with_network(mut self, network: NetworkModel) -> SessionOptions {
        self.network = network;
        self
    }

    /// Caps concurrently executing steps at `limit` (builder style).
    pub fn with_max_concurrent_steps(mut self, limit: usize) -> SessionOptions {
        self.max_concurrent_steps = Some(limit);
        self
    }

    /// Sets the graph-optimization level (builder style).
    /// [`OptLevel::None`] disables all rewriting, making the session an
    /// honest baseline for benchmarking and a fallback for fetching
    /// intermediate nodes that the optimizer would collapse.
    pub fn with_optimization(mut self, opt: OptLevel) -> SessionOptions {
        self.opt = opt;
        self
    }
}

/// FIFO admission gate implementing [`SessionOptions::max_concurrent_steps`].
///
/// Ticket-based: each arriving run takes the next ticket and is admitted
/// only when its ticket reaches the head of the queue *and* a concurrency
/// slot is free. Head-of-line ordering means a continuous stream of new
/// arrivals can never overtake (and thus starve) an earlier waiter.
struct Admission {
    limit: Option<usize>,
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

#[derive(Default)]
struct AdmissionState {
    next_ticket: u64,
    head: u64,
    active: usize,
}

impl Admission {
    fn new(limit: Option<usize>) -> Admission {
        Admission { limit, state: Mutex::new(AdmissionState::default()), cv: Condvar::new() }
    }

    /// Blocks until this caller may start a step; the returned guard frees
    /// the slot on drop (including on panic or error paths). Free when no
    /// limit is configured.
    fn acquire(&self) -> Result<AdmissionGuard<'_>> {
        let Some(limit) = self.limit else {
            return Ok(AdmissionGuard { gate: None });
        };
        if limit == 0 {
            return Err(dcf_exec::ExecError::InvalidConfig(
                "max_concurrent_steps is 0: the session can never admit a step".into(),
            ));
        }
        let mut st = self.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        while ticket != st.head || st.active >= limit {
            self.cv.wait(&mut st);
        }
        st.head += 1;
        st.active += 1;
        drop(st);
        // The next ticket in line may also fit if slots remain.
        self.cv.notify_all();
        Ok(AdmissionGuard { gate: Some(self) })
    }

    fn release(&self) {
        let mut st = self.state.lock();
        st.active -= 1;
        drop(st);
        self.cv.notify_all();
    }
}

struct AdmissionGuard<'a> {
    gate: Option<&'a Admission>,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            gate.release();
        }
    }
}

/// Per-run options, mirroring TensorFlow's `RunOptions` proto: how much to
/// trace, how long to wait, and a free-form tag echoed in the metadata.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// How much detail to record into [`RunMetadata::step_stats`].
    /// [`TraceLevel::None`] (the default) keeps the executor hot path
    /// untouched; [`TraceLevel::Software`] records executor-level events;
    /// [`TraceLevel::Full`] additionally records device kernel timings,
    /// allocator high-water marks, and modeled network transfers.
    pub trace_level: TraceLevel,
    /// Wall-clock budget for the run; on expiry the run fails with
    /// [`dcf_exec::ExecError::DeadlineExceeded`].
    pub timeout: Option<Duration>,
    /// Free-form label echoed in [`RunMetadata::tag`] (e.g. a step number).
    pub tag: String,
    /// Retry/backoff policy for cross-machine transfers.
    pub retry: RetryPolicy,
    /// Seeded fault plan applied to this run's cross-machine transfers.
    /// Ignored unless the crate is built with `--features faultinject`.
    pub fault_plan: Option<FaultPlan>,
    /// Maximum dynamic frame nesting depth (loops and function calls
    /// combined) per executor; exceeding it fails the run with
    /// [`dcf_exec::ExecError::FrameDepthExceeded`] — the structured
    /// outcome of runaway recursion. `None` uses the executor default
    /// ([`dcf_exec::DEFAULT_MAX_FRAME_DEPTH`]).
    pub max_frame_depth: Option<usize>,
}

impl RunOptions {
    /// Options requesting step-stats collection at `level`.
    pub fn traced(level: TraceLevel) -> RunOptions {
        RunOptions { trace_level: level, ..RunOptions::default() }
    }

    /// Sets the trace level (builder style).
    pub fn with_trace(mut self, level: TraceLevel) -> RunOptions {
        self.trace_level = level;
        self
    }

    /// Sets the run deadline (builder style).
    pub fn with_timeout(mut self, timeout: Duration) -> RunOptions {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the metadata tag (builder style).
    pub fn with_tag(mut self, tag: impl Into<String>) -> RunOptions {
        self.tag = tag.into();
        self
    }

    /// Sets the transfer retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> RunOptions {
        self.retry = retry;
        self
    }

    /// Installs a seeded fault plan for this run (builder style). Only
    /// effective with the `faultinject` feature.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> RunOptions {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the frame-depth limit for recursion and loop nesting (builder
    /// style).
    pub fn with_max_frame_depth(mut self, depth: usize) -> RunOptions {
        self.max_frame_depth = Some(depth);
        self
    }
}

/// What a run reports back besides the fetched tensors, mirroring
/// TensorFlow's `RunMetadata` proto.
#[derive(Clone, Debug, Default)]
pub struct RunMetadata {
    /// Collected step statistics; `Some` iff the run's
    /// [`RunOptions::trace_level`] enabled collection. Render with
    /// [`dcf_device::chrome_trace_json`] or [`StepStats::summary_report`].
    pub step_stats: Option<StepStats>,
    /// The globally unique step id this run executed under; usable with
    /// [`Session::quiescent_step`]. `0` iff the run was rejected before a
    /// step was allocated (e.g. by an unsatisfiable admission limit).
    pub step: u64,
    /// Wall-clock duration of the run as observed by the session.
    pub wall: Duration,
    /// Node activations executed across all partitions (live or dead).
    pub ops_executed: u64,
    /// The tag from the run's [`RunOptions`], echoed back.
    pub tag: String,
    /// Transfer retries performed by the network layer over the run.
    pub retries: u64,
    /// Faults injected by the run's [`FaultPlan`], in injection order.
    pub fault_events: Vec<FaultEvent>,
    /// Why the run aborted (`Display` of the failing error), or `None` for
    /// a successful run. Populated even when the error itself is returned,
    /// so metadata consumers need not re-derive it.
    pub abort_reason: Option<String>,
    /// Compile-time graph-optimization counters for the graph this run
    /// executed (folded/CSE'd/pruned/fused, pipeline wall time, and
    /// whether the compilation was served from the process-wide cache).
    /// `None` when the session was built with [`OptLevel::None`].
    pub optimization: Option<OptimizeStats>,
}

/// The device-independent product of compiling a graph for a cluster:
/// the optimized, placed, partitioned graph plus the per-device dataflow
/// structures. Everything device-*bound* (executors, rendezvous,
/// resources) is rebuilt per session; everything here is shared between
/// sessions with identical (graph, cluster, optimization) specs via the
/// process-wide cache.
struct CompiledGraph {
    pg: PartitionedGraph,
    exec_graphs: Vec<(DeviceId, Arc<ExecGraph>)>,
    /// Pre-optimization node id → post-optimization node id (`None` if
    /// the node was folded into a fused kernel or pruned).
    remap: Vec<Option<NodeId>>,
    stats: OptimizeStats,
    fingerprint: u64,
}

/// Process-wide compiled-graph cache, keyed by (graph fingerprint, node
/// count, cluster fingerprint, optimization level).
/// Bounded FIFO: the oldest entry is evicted past [`GRAPH_CACHE_CAP`].
/// Compilation happens *under* the lock so per-fingerprint compile counts
/// are exact and concurrent sessions for the same spec compile exactly
/// once.
type CacheKey = (u64, usize, u64, OptLevel);

const GRAPH_CACHE_CAP: usize = 32;

#[derive(Default)]
struct GraphCache {
    map: HashMap<CacheKey, Arc<CompiledGraph>>,
    order: VecDeque<CacheKey>,
    compiles: HashMap<u64, u64>,
}

static GRAPH_CACHE: Mutex<Option<GraphCache>> = Mutex::new(None);

/// How many real (non-cache-hit) compilations this process has performed
/// for graphs with structural fingerprint `fingerprint` (see
/// [`dcf_graph::Graph::fingerprint`]). Lets model registries and tests
/// verify that identical specs share one compile.
pub fn compile_count(fingerprint: u64) -> u64 {
    let guard = GRAPH_CACHE.lock();
    guard.as_ref().and_then(|c| c.compiles.get(&fingerprint).copied()).unwrap_or(0)
}

/// Structural fingerprint of a cluster for cache keying: device names
/// (which encode machine and kind) in registration order.
fn cluster_fingerprint(cluster: &Cluster) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for dev in cluster.devices() {
        eat(dev.name().as_bytes());
        eat(&(dev.machine() as u64).to_le_bytes());
    }
    h
}

/// Drives a dataflow graph on a cluster of simulated devices.
///
/// Construction places and partitions the graph; each `run` executes all
/// partitions, driven from the calling thread and coordinated only through
/// the rendezvous — there is no per-iteration central coordinator,
/// matching §4.4.
pub struct Session {
    cluster: Cluster,
    compiled: Arc<CompiledGraph>,
    executors: Vec<(DeviceId, Executor)>,
    resources: Arc<ResourceManager>,
    rendezvous: Arc<NetworkRendezvous>,
    admission: Admission,
    /// Optimization counters for this session's compile (with
    /// `cache_hit` reflecting whether *this* session reused a cached
    /// compile); `None` under [`OptLevel::None`].
    opt_stats: Option<OptimizeStats>,
}

impl Session {
    /// Places, partitions, and prepares `graph` for execution on `cluster`.
    pub fn new(graph: Graph, cluster: Cluster, options: SessionOptions) -> Result<Session> {
        Session::new_shared(graph, cluster, options, ResourceManager::new())
    }

    /// Like [`Session::new`], but with externally provided resources so
    /// several sessions (e.g. separate act/train/sync graphs of an
    /// out-of-graph training driver) share one set of variables.
    pub fn new_shared(
        graph: Graph,
        cluster: Cluster,
        options: SessionOptions,
        resources: Arc<ResourceManager>,
    ) -> Result<Session> {
        let key: CacheKey =
            (graph.fingerprint(), graph.len(), cluster_fingerprint(&cluster), options.opt);
        let (compiled, cache_hit) = {
            let mut guard = GRAPH_CACHE.lock();
            let cache = guard.get_or_insert_with(GraphCache::default);
            match cache.map.get(&key) {
                Some(c) => (c.clone(), true),
                None => {
                    let compiled = Arc::new(Session::compile(graph, &cluster, options.opt, key.0)?);
                    *cache.compiles.entry(key.0).or_insert(0) += 1;
                    cache.map.insert(key, compiled.clone());
                    cache.order.push_back(key);
                    if cache.order.len() > GRAPH_CACHE_CAP {
                        if let Some(old) = cache.order.pop_front() {
                            cache.map.remove(&old);
                        }
                    }
                    (compiled, false)
                }
            }
        };
        let rendezvous = NetworkRendezvous::new(options.network.clone());
        let mut executors = Vec::new();
        for (dev, eg) in &compiled.exec_graphs {
            let device = cluster.devices()[dev.0].clone();
            executors.push((
                *dev,
                Executor::new(
                    eg.clone(),
                    device,
                    resources.clone(),
                    rendezvous.clone(),
                    options.executor.clone(),
                ),
            ));
        }
        let admission = Admission::new(options.max_concurrent_steps);
        let opt_stats =
            (options.opt != OptLevel::None).then(|| OptimizeStats { cache_hit, ..compiled.stats });
        Ok(Session { cluster, compiled, executors, resources, rendezvous, admission, opt_stats })
    }

    /// Optimizes, places, and partitions `graph`: the cacheable,
    /// device-independent part of session construction (§3: graph
    /// rewriting on the unified dataflow graph before placement).
    fn compile(
        mut graph: Graph,
        cluster: &Cluster,
        opt: OptLevel,
        fingerprint: u64,
    ) -> Result<CompiledGraph> {
        let outcome = optimize(&mut graph, opt)?;
        let placement = place_nodes(&graph, cluster)?;
        let pg = partition_graph(graph, placement, cluster)?;
        let exec_graphs = pg
            .members
            .iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(dev_idx, members)| {
                (DeviceId(dev_idx), ExecGraph::partition(pg.graph.clone(), members))
            })
            .collect();
        Ok(CompiledGraph {
            pg,
            exec_graphs,
            remap: outcome.remap,
            stats: outcome.stats,
            fingerprint,
        })
    }

    /// Convenience: a session on a single simulated CPU.
    pub fn local(graph: Graph) -> Result<Session> {
        Session::new(graph, Cluster::single_cpu(), SessionOptions::functional())
    }

    /// The cluster this session runs on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The partitioned graph (diagnostics).
    pub fn partitioned(&self) -> &PartitionedGraph {
        &self.compiled.pg
    }

    /// Structural fingerprint of the (pre-optimization) graph this
    /// session was built from; the primary compiled-graph cache key. See
    /// [`dcf_graph::Graph::fingerprint`] and [`compile_count`].
    pub fn graph_fingerprint(&self) -> u64 {
        self.compiled.fingerprint
    }

    /// Compile-time optimization counters for this session, with
    /// `cache_hit` set when construction reused a cached compile.
    /// `None` when the session was built with [`OptLevel::None`].
    pub fn optimize_stats(&self) -> Option<OptimizeStats> {
        self.opt_stats
    }

    /// Translates a caller-held (pre-optimization) tensor handle into the
    /// optimized graph, erroring with a structured diagnostic if its
    /// producer was folded into a fused kernel or pruned.
    fn translate_fetch(&self, t: TensorRef) -> Result<TensorRef> {
        match self.compiled.remap.get(t.node.0).copied().flatten() {
            Some(node) => Ok(TensorRef { node, port: t.port }),
            None => Err(dcf_exec::ExecError::BadFeedOrFetch(format!(
                "fetch of node {} port {} refers to a node the optimizer removed \
                 (constant-folded away, collapsed into a fused kernel, or pruned as dead); \
                 build the session with SessionOptions::with_optimization(OptLevel::None) \
                 to fetch intermediate nodes",
                t.node.0, t.port
            ))),
        }
    }

    /// The session's persistent resources (variables survive across runs).
    pub fn resources(&self) -> &Arc<ResourceManager> {
        &self.resources
    }

    /// Executes the graph with default [`RunOptions`]: feeds placeholders,
    /// runs every partition to quiescence, and returns the fetched tensors
    /// in request order — ignoring metadata. The convenience wrapper over
    /// [`Session::run`] for callers that only want values.
    pub fn eval(
        &self,
        feeds: &HashMap<String, Tensor>,
        fetches: &[TensorRef],
    ) -> Result<Vec<Tensor>> {
        self.run(&RunOptions::default(), feeds, fetches).0
    }

    /// `true` when the session's network layer holds no *leaked* state: no
    /// in-flight transfer and no live rendezvous entry belonging to a step
    /// that has already ended. State owned by steps still mid-flight is
    /// not a leak, so this stays `true` while other clients' runs execute
    /// concurrently — the invariant every run (successful or aborted) must
    /// restore for its own step before `run` returns. To ask about one
    /// specific finished run, use [`Session::quiescent_step`].
    pub fn quiescent(&self) -> bool {
        self.rendezvous.quiescent()
    }

    /// `true` when step `step` (from [`RunMetadata::step`]) has left no
    /// state behind anywhere in the session: no in-flight transfer, no
    /// rendezvous entry, and no per-run transient resources (stacks,
    /// `TensorArray`s, gradient maps). Meaningful once that step's `run`
    /// has returned; unlike [`Session::quiescent`] it is unaffected by
    /// whatever other steps are doing.
    pub fn quiescent_step(&self, step: u64) -> bool {
        self.rendezvous.quiescent_step(step) && self.resources.step_transients(step) == 0
    }

    /// The canonical entry point: executes the graph under `options` —
    /// feeds placeholders, runs every partition to quiescence — and
    /// returns the fetched tensors in request order alongside the run's
    /// [`RunMetadata`]. The metadata comes back for failed runs too:
    /// `abort_reason`, `retries`, and `fault_events` describe what went
    /// wrong and what the network layer observed on the way down. Callers
    /// that only want values with default options can use
    /// [`Session::eval`].
    pub fn run(
        &self,
        options: &RunOptions,
        feeds: &HashMap<String, Tensor>,
        fetches: &[TensorRef],
    ) -> (Result<Vec<Tensor>>, RunMetadata) {
        let start = Instant::now();
        let mut metadata = RunMetadata { tag: options.tag.clone(), ..RunMetadata::default() };
        // Admission (if limited) happens before the step id is allocated;
        // queueing time is part of the reported wall time.
        let result = match self.admission.acquire() {
            Ok(_slot) => {
                let step = NEXT_STEP.fetch_add(1, Ordering::Relaxed);
                metadata.step = step;
                self.run_step(options, feeds, fetches, step, &mut metadata)
            }
            Err(e) => Err(e),
        };
        metadata.wall = start.elapsed();
        if let Err(e) = &result {
            metadata.abort_reason = Some(e.to_string());
        }
        (result, metadata)
    }

    fn run_step(
        &self,
        options: &RunOptions,
        feeds: &HashMap<String, Tensor>,
        fetches: &[TensorRef],
        step: u64,
        metadata: &mut RunMetadata,
    ) -> Result<Vec<Tensor>> {
        metadata.optimization = self.opt_stats;
        // Callers hold handles into the graph as they built it; translate
        // them into the optimized graph up front (identity when the
        // session was built with `OptLevel::None`).
        let fetches: Vec<TensorRef> =
            fetches.iter().map(|&t| self.translate_fetch(t)).collect::<Result<_>>()?;
        let fetches = &fetches[..];
        // Route each fetch to the partition that produces it.
        let mut per_exec_fetches: Vec<Vec<TensorRef>> = vec![Vec::new(); self.executors.len()];
        for &t in fetches {
            let dev = self.compiled.pg.placement[t.node.0];
            let idx = self.executors.iter().position(|(d, _)| *d == dev).ok_or_else(|| {
                dcf_exec::ExecError::BadFeedOrFetch(format!(
                    "fetch targets empty partition on device {}",
                    dev.0
                ))
            })?;
            per_exec_fetches[idx].push(t);
        }

        // One collector shared by every partition of the run, and owned by
        // this step alone: executors stamp it onto each kernel they submit
        // and the network layer resolves it per step, so concurrent traced
        // runs never observe each other's events. Devices are registered in
        // cluster order, so a collector device index equals the `DeviceId`.
        let collector = if options.trace_level.is_enabled() {
            let c = Arc::new(StepStatsCollector::new(options.trace_level));
            for dev in self.cluster.devices() {
                let idx = c.register_device(dev.name());
                debug_assert_eq!(idx as usize, dev.id().0);
            }
            Some(c)
        } else {
            None
        };

        // Install the run's transport context (retry policy, fault plan,
        // and — at `Full` — the step's transfer-stats collector) before
        // any executor can send.
        let net_collector = collector.as_ref().filter(|c| c.level() >= TraceLevel::Full).cloned();
        self.rendezvous.begin_run(step, options.retry, options.fault_plan.clone(), net_collector);

        let cancel = CancelToken::new();
        // The calling thread drives every partition; they share one copy of
        // the feed dictionary.
        let parts = self
            .executors
            .iter()
            .zip(&per_exec_fetches)
            .map(|((dev, executor), fetches)| Partition {
                executor,
                fetches,
                config: RunConfig {
                    cancel: Some(cancel.clone()),
                    collector: collector
                        .as_ref()
                        .map(|c| DeviceCollector::new(dev.0 as u16, c.clone())),
                    timeout: options.timeout,
                    step,
                    max_frame_depth: options
                        .max_frame_depth
                        .unwrap_or(dcf_exec::DEFAULT_MAX_FRAME_DEPTH),
                },
            })
            .collect();
        let results = run_step(Arc::new(feeds.clone()), parts);

        // Tear down exactly this run's state and nothing else: purge its
        // still-delayed transfers, reclaim its unconsumed rendezvous
        // values, fail any of its receivers stranded by an abort, and drop
        // only the transients (stacks, TensorArrays, gradient maps) this
        // step created — variables, and other steps still mid-flight,
        // persist untouched. Then record what the transport observed.
        self.rendezvous
            .drop_step(step, dcf_exec::ExecError::Cancelled(format!("step {step} torn down")));
        let (retries, fault_events) = self.rendezvous.end_run(step);
        metadata.retries = retries;
        metadata.fault_events = fault_events;
        self.resources.drop_step_transients(step);
        let step_stats = collector.map(|c| {
            // Memory snapshots read the device-global allocator counters:
            // under concurrent steps, `in_use`/`peak` reflect the whole
            // device at this instant, not this step's share.
            for dev in self.cluster.devices() {
                c.record_memory(dev.id().0 as u16, dev.allocator().snapshot());
            }
            let mut stats = c.finish();
            // Carry the run tag into the stats so the Chrome-trace export
            // can mark this step's tracks (batched serving steps rely on
            // this to stay distinguishable).
            stats.tag = options.tag.clone();
            stats.optimization = self.opt_stats;
            stats
        });

        metadata.step_stats = step_stats;

        // Collate: surface the root-cause error (a partition's own failure
        // over a peer-propagated `Cancelled`); otherwise reassemble in
        // request order.
        if results.iter().any(|r| r.is_err()) {
            let mut first_cancelled = None;
            for r in results {
                match r {
                    Err(e @ dcf_exec::ExecError::Cancelled(_)) => {
                        first_cancelled.get_or_insert(e);
                    }
                    Err(e) => return Err(e),
                    Ok(_) => {}
                }
            }
            return Err(first_cancelled
                .unwrap_or_else(|| dcf_exec::ExecError::Internal("error vanished".into())));
        }
        let mut ops_executed = 0;
        let mut per_exec_values: Vec<std::vec::IntoIter<Tensor>> = Vec::new();
        for r in results {
            let outcome = r?;
            ops_executed += outcome.ops_executed;
            per_exec_values.push(outcome.values.into_iter());
        }
        let mut out = Vec::with_capacity(fetches.len());
        for &t in fetches {
            let dev = self.compiled.pg.placement[t.node.0];
            let idx = self.executors.iter().position(|(d, _)| *d == dev).ok_or_else(|| {
                dcf_exec::ExecError::Internal("fetch routed to unknown partition".into())
            })?;
            out.push(
                per_exec_values[idx]
                    .next()
                    .ok_or_else(|| dcf_exec::ExecError::Internal("fetch misrouted".into()))?,
            );
        }
        metadata.ops_executed = ops_executed;
        Ok(out)
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use dcf_graph::GraphBuilder;

    #[test]
    fn local_session_runs() {
        let mut b = GraphBuilder::new();
        let x = b.scalar_f32(6.0);
        let y = b.scalar_f32(7.0);
        let z = b.mul(x, y).unwrap();
        let sess = Session::local(b.finish().unwrap()).unwrap();
        let out = sess.eval(&HashMap::new(), &[z]).unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), 42.0);
    }

    #[test]
    fn run_returns_metadata() {
        let mut b = GraphBuilder::new();
        let x = b.scalar_f32(2.0);
        let y = b.scalar_f32(3.0);
        let z = b.add(x, y).unwrap();
        let sess = Session::local(b.finish().unwrap()).unwrap();
        let opts = RunOptions::default().with_tag("step-7");
        let (out, meta) = sess.run(&opts, &HashMap::new(), &[z]);
        let out = out.unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), 5.0);
        assert_eq!(meta.tag, "step-7");
        assert!(meta.ops_executed > 0);
        assert!(meta.step_stats.is_none(), "no stats unless requested");
    }

    #[test]
    fn traced_run_collects_node_stats() {
        let mut b = GraphBuilder::new();
        let x = b.scalar_f32(2.0);
        let y = b.scalar_f32(3.0);
        let z = b.add(x, y).unwrap();
        let sess = Session::local(b.finish().unwrap()).unwrap();
        let opts = RunOptions::traced(TraceLevel::Full);
        let (result, meta) = sess.run(&opts, &HashMap::new(), &[z]);
        result.unwrap();
        let stats = meta.step_stats.expect("stats requested");
        assert_eq!(stats.devices.len(), 1);
        let nodes = &stats.devices[0].node_stats;
        assert!(nodes.iter().any(|n| n.node.contains("Add")), "nodes: {nodes:?}");
        assert!(nodes.iter().all(|n| n.frame == "root"));
        let mem = stats.devices[0].memory.expect("memory snapshot present");
        assert!(mem.capacity_bytes > 0);
    }

    #[test]
    fn timeout_aborts_unbounded_loop() {
        use dcf_graph::WhileOptions;
        let mut b = GraphBuilder::new();
        let init = b.scalar_i64(0);
        let lim = b.scalar_i64(1_000_000_000);
        let outs = b
            .while_loop(
                &[init],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    Ok(vec![g.add(v[0], one)?])
                },
                WhileOptions::default(),
            )
            .unwrap();
        let sess = Session::local(b.finish().unwrap()).unwrap();
        let opts = RunOptions::default().with_timeout(Duration::from_millis(50));
        let t0 = Instant::now();
        let (result, meta) = sess.run(&opts, &HashMap::new(), &[outs[0]]);
        let err = result.unwrap_err();
        assert!(
            matches!(err, dcf_exec::ExecError::DeadlineExceeded { .. }),
            "unexpected error: {err}"
        );
        assert!(t0.elapsed() < Duration::from_secs(10), "run did not abort promptly");
        assert_eq!(meta.abort_reason.as_deref(), Some(err.to_string().as_str()));

        // The abort must leave the runtime verifiably quiescent (no live
        // rendezvous entries, no in-flight transfers).
        assert!(sess.quiescent(), "abort left the network layer non-quiescent");
    }

    #[test]
    fn aborted_session_completes_a_subsequent_run() {
        use dcf_graph::WhileOptions;
        use dcf_tensor::DType;
        // The loop limit is fed, so one session can both hang (huge limit
        // + timeout) and complete (small limit) — proving an abort leaves
        // no poisoned state behind.
        let mut b = GraphBuilder::new();
        let lim = b.placeholder("lim", DType::I64);
        let init = b.scalar_i64(0);
        let outs = b
            .while_loop(
                &[init],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    Ok(vec![g.add(v[0], one)?])
                },
                WhileOptions::default(),
            )
            .unwrap();
        let sess = Session::local(b.finish().unwrap()).unwrap();

        let mut feeds = HashMap::new();
        feeds.insert("lim".to_string(), Tensor::scalar_i64(1_000_000_000));
        let opts = RunOptions::default().with_timeout(Duration::from_millis(50));
        let (result, _) = sess.run(&opts, &feeds, &[outs[0]]);
        assert!(matches!(result, Err(dcf_exec::ExecError::DeadlineExceeded { .. })));
        assert!(sess.quiescent());

        // Same session, satisfiable limit, no timeout: must succeed.
        feeds.insert("lim".to_string(), Tensor::scalar_i64(25));
        let out = sess.eval(&feeds, &[outs[0]]).unwrap();
        assert_eq!(out[0].scalar_as_i64().unwrap(), 25);
        assert!(sess.quiescent());
    }

    #[test]
    fn run_metadata_reports_defaults_without_faults() {
        let mut b = GraphBuilder::new();
        let x = b.scalar_f32(1.0);
        let y = b.scalar_f32(2.0);
        let z = b.add(x, y).unwrap();
        let sess = Session::local(b.finish().unwrap()).unwrap();
        let (result, meta) = sess.run(&RunOptions::default(), &HashMap::new(), &[z]);
        result.unwrap();
        assert_eq!(meta.retries, 0);
        assert!(meta.fault_events.is_empty());
        assert!(meta.abort_reason.is_none());
        assert!(sess.quiescent());
    }

    #[test]
    fn optimized_session_matches_unoptimized() {
        use dcf_tensor::DType;
        fn build() -> (Graph, TensorRef) {
            let mut b = GraphBuilder::new();
            let x = b.placeholder("x", DType::F32);
            let two = b.scalar_f32(2.0);
            let two_dup = b.scalar_f32(2.0);
            let one = b.scalar_f32(1.0);
            let m = b.mul(x, two).unwrap();
            let m_dup = b.mul(x, two_dup).unwrap();
            let s = b.add(m, m_dup).unwrap();
            let a = b.add(s, one).unwrap();
            let y = b.sigmoid(a).unwrap();
            (b.finish().unwrap(), y)
        }
        let feeds: HashMap<String, Tensor> =
            [("x".to_string(), Tensor::from_vec_f32(vec![0.5, -1.25, 3.0], &[3]).unwrap())]
                .into_iter()
                .collect();
        let (g_opt, y_opt) = build();
        let (g_raw, y_raw) = build();
        let opt_sess = Session::new(
            g_opt,
            Cluster::single_cpu(),
            SessionOptions::functional().with_optimization(OptLevel::Standard),
        )
        .unwrap();
        let raw_sess = Session::new(
            g_raw,
            Cluster::single_cpu(),
            SessionOptions::functional().with_optimization(OptLevel::None),
        )
        .unwrap();
        let (opt_out, opt_meta) = opt_sess.run(&RunOptions::default(), &feeds, &[y_opt]);
        let (raw_out, raw_meta) = raw_sess.run(&RunOptions::default(), &feeds, &[y_raw]);
        let (opt_out, raw_out) = (opt_out.unwrap(), raw_out.unwrap());
        assert!(opt_out[0].value_eq(&raw_out[0]), "optimization changed the result");
        let stats = opt_meta.optimization.expect("optimized run reports counters");
        assert!(stats.cse > 0 && stats.fused > 0, "stats: {stats:?}");
        assert!(raw_meta.optimization.is_none(), "OptLevel::None reports no counters");
        assert!(
            opt_meta.ops_executed < raw_meta.ops_executed,
            "optimized step must activate fewer nodes ({} vs {})",
            opt_meta.ops_executed,
            raw_meta.ops_executed
        );
    }

    #[test]
    fn fetching_optimized_away_node_errors_with_guidance() {
        use dcf_tensor::DType;
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let two = b.scalar_f32(2.0);
        let one = b.scalar_f32(1.0);
        let m = b.mul(x, two).unwrap();
        let a = b.add(m, one).unwrap();
        let y = b.relu(a).unwrap();
        let sess = Session::new(
            b.finish().unwrap(),
            Cluster::single_cpu(),
            SessionOptions::functional().with_optimization(OptLevel::Standard),
        )
        .unwrap();
        let feeds: HashMap<String, Tensor> =
            [("x".to_string(), Tensor::scalar_f32(4.0))].into_iter().collect();
        // The chain tail is fetchable...
        let out = sess.eval(&feeds, &[y]).unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), 9.0);
        // ...but the collapsed interior is gone, with a structured error
        // pointing at the opt-off escape hatch.
        let err = sess.eval(&feeds, &[m]).unwrap_err();
        match err {
            dcf_exec::ExecError::BadFeedOrFetch(msg) => {
                assert!(msg.contains("OptLevel::None"), "message: {msg}")
            }
            other => panic!("expected BadFeedOrFetch, got {other}"),
        }
    }

    #[test]
    fn compiled_graph_cache_shares_compiles() {
        fn build() -> Graph {
            let mut b = GraphBuilder::new();
            // A value unique to this test keeps the fingerprint from
            // colliding with other tests' graphs in the process cache.
            let x = b.scalar_f32(8_675.309);
            let y = b.scalar_f32(2.0);
            let two = b.scalar_f32(2.0);
            let m = b.mul(x, y).unwrap();
            let _ = b.mul(m, two).unwrap();
            b.finish().unwrap()
        }
        let fp = build().fingerprint();
        let before = super::compile_count(fp);
        let opts = || SessionOptions::functional().with_optimization(OptLevel::Standard);
        let s1 = Session::new(build(), Cluster::single_cpu(), opts()).unwrap();
        let s2 = Session::new(build(), Cluster::single_cpu(), opts()).unwrap();
        assert_eq!(s1.graph_fingerprint(), fp);
        assert_eq!(s2.graph_fingerprint(), fp);
        assert_eq!(
            super::compile_count(fp),
            before + 1,
            "two identical specs must share one compile"
        );
        assert!(
            s2.optimize_stats().expect("standard level reports stats").cache_hit,
            "second session must reuse the cached compile"
        );
        // A different optimization level is a different spec: it compiles
        // separately rather than reusing the optimized artifact.
        let s3 = Session::new(
            build(),
            Cluster::single_cpu(),
            SessionOptions::functional().with_optimization(OptLevel::None),
        )
        .unwrap();
        assert_eq!(super::compile_count(fp), before + 2);
        drop(s3);
        // The shared compile is behavioral, not just counted: both
        // sessions run independently to the same result.
        let r1 = s1.eval(&HashMap::new(), &[]).unwrap();
        assert!(r1.is_empty());
    }

    #[test]
    fn session_options_builders() {
        let opts = SessionOptions::functional()
            .with_executor(ExecutorOptions { workers: 3, ..ExecutorOptions::default() })
            .with_network(NetworkModel::disabled());
        assert_eq!(opts.executor.workers, 3);
        assert_eq!(opts.network.time_scale, 0.0);
    }
}
