//! The replica router: a fixed set of N `(Session, Batcher)` replicas
//! behind one model name, with load-aware dispatch and self-healing.
//!
//! One shared session per model makes batching cheap but leaves a single
//! worker thread as both the throughput ceiling and a single point of
//! failure. The TensorFlow system papers split serving into a
//! stateless frontend routing over replicated workers; this module is
//! that split. A [`ReplicaSet`] owns:
//!
//! * **Replicas** — each a `Session` (on a
//!   [`dcf_runtime::Cluster::fork`] of the spec's cluster, so no device
//!   state is shared) plus its one [`Batcher`] worker, one-shot or
//!   streaming as the model was registered. Structurally identical
//!   replicas share one compile through the runtime's process-wide
//!   compiled-graph cache, so instantiating N replicas pays for one
//!   optimize/place/partition.
//! * **Routing** — power-of-two-choices per request: pick two distinct
//!   replicas (deterministically, from a hashed submit counter), compare
//!   their lock-free load gauges (`queued + running` rows, see
//!   [`crate::metrics::ServeMetrics::load`]), enqueue on the less loaded. Classic
//!   balanced-allocations routing: nearly the quality of
//!   least-loaded-of-N at the cost of two atomic reads.
//! * **Health** — every batched step that fails bumps its replica's
//!   `consecutive_step_failures`; a success resets it. A replica that
//!   reaches three consecutive failures is evicted — its queue drains with
//!   `Cancelled`, its counters fold into the retired aggregate — and a
//!   fresh replica is built in its place. The model keeps serving
//!   throughout; only requests already queued on the sick replica are
//!   failed over (resubmitted by [`ReplicaSet::serve`]).
//!
//! Eviction piggybacks on the submit path, ahead of routing: a model
//! receiving no traffic does not heal, which is exactly when it does not
//! matter, and a request is never routed onto a replica already judged
//! sick.

use crate::batcher::{Batcher, Request, Response, Ticket, SHUTDOWN_MSG};
use crate::metrics::{MetricsSnapshot, RawMetrics};
use crate::registry::ModelSpec;
use crate::stream::StreamHandle;
use crate::Result;
use dcf_exec::ExecError;
use dcf_runtime::Session;
use dcf_sync::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Consecutive failed batched steps after which a replica is judged
/// sick, evicted, and replaced.
const MAX_CONSECUTIVE_STEP_FAILURES: u64 = 3;

struct Replica {
    id: u64,
    worker: Arc<Batcher>,
}

impl Replica {
    /// The replica-health signal: [`MAX_CONSECUTIVE_STEP_FAILURES`] failed
    /// steps since the last success.
    fn is_sick(&self) -> bool {
        self.worker.metrics().consecutive_step_failures.load(Ordering::Relaxed)
            >= MAX_CONSECUTIVE_STEP_FAILURES
    }
}

/// Router-level counters (evictions and failovers).
#[derive(Debug, Default)]
struct RouterMetrics {
    evicted: AtomicU64,
    resubmitted: AtomicU64,
}

/// N batching replicas behind one model name. See the module docs.
pub struct ReplicaSet {
    name: String,
    /// Everything needed to build one more replica, retained for the
    /// set's whole life: replacement after eviction re-instantiates from
    /// here (and hits the compiled-graph cache).
    spec: ModelSpec,
    replicas: RwLock<Vec<Replica>>,
    next_replica_id: AtomicU64,
    submit_seq: AtomicU64,
    router: RouterMetrics,
    /// Folded-in counters of replicas that were evicted, so aggregate
    /// metrics never go backwards.
    retired: Mutex<RawMetrics>,
}

/// Splitmix64: a cheap, well-mixed hash of the submit counter, giving
/// each request an independent-looking pair of replica choices without
/// any RNG state.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Power-of-two-choices over `loads`: derive two distinct indices from
/// `seq`, return the one with the smaller load (first on ties). Free
/// function so routing is unit-testable without sessions.
pub(crate) fn choose_replica(loads: &[u64], seq: u64) -> usize {
    match loads.len() {
        0 => 0,
        1 => 0,
        n => {
            let h = mix(seq);
            let i = (h % n as u64) as usize;
            let j = (i + 1 + ((h >> 32) % (n as u64 - 1)) as usize) % n;
            if loads[j] < loads[i] {
                j
            } else {
                i
            }
        }
    }
}

impl ReplicaSet {
    /// Builds the spec's `replicas` replicas and starts routing.
    pub(crate) fn new(name: String, spec: ModelSpec) -> Result<ReplicaSet> {
        let n = spec.replicas;
        let set = ReplicaSet {
            name,
            spec,
            replicas: RwLock::new(Vec::with_capacity(n)),
            next_replica_id: AtomicU64::new(0),
            submit_seq: AtomicU64::new(0),
            router: RouterMetrics::default(),
            retired: Mutex::new(RawMetrics::default()),
        };
        {
            let mut replicas = set.replicas.write();
            for _ in 0..n {
                let r = set.build_replica()?;
                replicas.push(r);
            }
        }
        Ok(set)
    }

    /// One more replica from the spec: fresh forked cluster, fresh
    /// session (cache-shared compile), fresh worker thread.
    fn build_replica(&self) -> Result<Replica> {
        let t = &self.spec;
        let id = self.next_replica_id.fetch_add(1, Ordering::Relaxed);
        let mut policy = t.policy.clone();
        if let Some(Some(plan)) = t.replica_fault_plans.get(id as usize) {
            policy.run_options.fault_plan = Some(plan.clone());
        }
        let session =
            Arc::new(Session::new(t.graph.clone(), t.cluster.fork(), t.session_options.clone())?);
        // A streaming worker's state slots live in this session, which is
        // what makes its streams sticky to this replica.
        let worker = Arc::new(Batcher::spawn(
            format!("{}[r{id}]", self.name),
            session,
            t.signature.clone(),
            policy,
            t.stream.clone(),
        )?);
        Ok(Replica { id, worker })
    }

    /// Current replica count.
    pub fn replica_count(&self) -> usize {
        self.replicas.read().len()
    }

    /// Opens a sticky stream on the replica with the fewest live streams
    /// (streams are pinned for life, so open-time least-loaded beats
    /// per-request power-of-two-choices here: there is no second chance
    /// to rebalance). Fails with [`ExecError::InvalidConfig`] when the
    /// model was registered without a stream spec.
    pub(crate) fn open_stream(&self, deadline: Option<std::time::Instant>) -> Result<StreamHandle> {
        let worker = self
            .replicas
            .read()
            .iter()
            .map(|r| &r.worker)
            .min_by_key(|w| w.active_streams())
            .cloned()
            .ok_or_else(|| self.no_replicas())?;
        StreamHandle::open(worker, deadline)
    }

    fn no_replicas(&self) -> ExecError {
        ExecError::Internal(format!("model '{}' has no live replicas", self.name))
    }

    /// Routes `request` to the less loaded of two candidate replicas and
    /// enqueues it. Rejections (signature, backpressure, expired deadline,
    /// a one-shot request to a streaming model) are the worker's own,
    /// immediate and structured; the only
    /// router-added retry is against a replica that shut down between
    /// routing and enqueue. Sick replicas are evicted before routing, so a
    /// request is never enqueued on a replica already judged sick.
    pub fn submit(&self, request: Request) -> Result<Ticket> {
        self.evict_sick()?;
        let seq = self.submit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.submit_once(&request, seq).or_else(|e| {
            if is_shutdown(&e) {
                // Routed onto a replica evicted in between: the set still
                // exists, so route again.
                self.router.resubmitted.fetch_add(1, Ordering::Relaxed);
                self.submit_once(&request, seq ^ 0xA5A5_A5A5)
            } else {
                Err(e)
            }
        })
    }

    fn submit_once(&self, request: &Request, seq: u64) -> Result<Ticket> {
        let worker = {
            let replicas = self.replicas.read();
            let loads: Vec<u64> = replicas.iter().map(|r| r.worker.load()).collect();
            replicas
                .get(choose_replica(&loads, seq))
                .ok_or_else(|| self.no_replicas())?
                .worker
                .clone()
        };
        worker.submit(request.clone())
    }

    /// [`ReplicaSet::submit`] then block. A request stranded on a replica
    /// that was evicted while it queued is transparently resubmitted
    /// (once per routing attempt, bounded): the caller sees either a
    /// response or its request's own structured error, never a replica's
    /// obituary.
    pub fn serve(&self, request: Request) -> Result<Response> {
        for _ in 0..3 {
            match self.submit(request.clone())?.wait() {
                Err(e) if is_shutdown(&e) => {
                    self.router.resubmitted.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                other => return other,
            }
        }
        Err(ExecError::Internal(format!(
            "request to model '{}' kept landing on dying replicas",
            self.name
        )))
    }

    /// Evicts and replaces every replica whose consecutive-failure count
    /// reached [`MAX_CONSECUTIVE_STEP_FAILURES`].
    fn evict_sick(&self) -> Result<()> {
        let any_sick = self.replicas.read().iter().any(Replica::is_sick);
        if !any_sick {
            return Ok(());
        }
        let mut replicas = self.replicas.write();
        let mut idx = 0;
        while idx < replicas.len() {
            if !replicas[idx].is_sick() {
                idx += 1;
                continue;
            }
            let sick = replicas.remove(idx);
            // Replace first, then retire: the set never serves with a
            // hole where the sick replica was.
            let replacement = self.build_replica()?;
            replicas.push(replacement);
            self.router.evicted.fetch_add(1, Ordering::Relaxed);
            self.retire(sick);
        }
        Ok(())
    }

    /// Closes a removed replica's worker, folds its counters into the
    /// retired aggregate and drops it (joining its thread). Queued
    /// requests are cancelled so [`ReplicaSet::serve`] fails them over;
    /// streams pinned to the replica cannot fail over — their state lives
    /// in this replica's session — so clients get
    /// [`ExecError::StreamClosed`].
    fn retire(&self, replica: Replica) {
        replica.worker.close("replica retired");
        let mut raw = replica.worker.metrics().raw();
        // Gauges die with the replica; only monotone counters are
        // meaningful in the retired aggregate.
        raw.queued_rows = 0;
        raw.running_rows = 0;
        raw.active_streams = 0;
        self.retired.lock().merge(&raw);
        drop(replica);
    }

    /// Per-replica and aggregated metrics. Replica snapshots are read
    /// lock-free; the replica list itself is held only long enough to
    /// clone the worker handles.
    pub fn metrics(&self) -> ModelMetrics {
        let handles: Vec<(u64, Arc<Batcher>)> =
            self.replicas.read().iter().map(|r| (r.id, r.worker.clone())).collect();
        let max_rows = self.spec.policy.max_batch_size;
        let mut aggregate = self.retired.lock().clone();
        let mut per_replica = Vec::with_capacity(handles.len());
        for (id, worker) in &handles {
            let m = worker.metrics();
            let raw = m.raw();
            per_replica.push(ReplicaMetrics {
                id: *id,
                consecutive_step_failures: m.consecutive_step_failures.load(Ordering::Relaxed),
                snapshot: raw.snapshot(max_rows),
            });
            aggregate.merge(&raw);
        }
        ModelMetrics {
            instantiated: true,
            aggregate: aggregate.snapshot(max_rows),
            replicas: per_replica,
            evicted: self.router.evicted.load(Ordering::Relaxed),
            resubmitted: self.router.resubmitted.load(Ordering::Relaxed),
        }
    }
}

fn is_shutdown(e: &ExecError) -> bool {
    matches!(e, ExecError::Cancelled(msg) if msg == SHUTDOWN_MSG)
}

/// Per-replica plus aggregated serving metrics for one model.
#[derive(Clone, Debug, Default)]
pub struct ModelMetrics {
    /// `false` while the model is registered but no request has arrived
    /// (no sessions, no replicas, every other field zero/empty).
    pub instantiated: bool,
    /// Every counter summed across live **and** retired replicas;
    /// percentiles over the merged histograms.
    pub aggregate: MetricsSnapshot,
    /// Live replicas, in routing order.
    pub replicas: Vec<ReplicaMetrics>,
    /// Replicas evicted by health tracking since instantiation.
    pub evicted: u64,
    /// Requests transparently re-routed off a dying replica.
    pub resubmitted: u64,
}

impl ModelMetrics {
    /// A human-readable multi-line summary: request/batch counters,
    /// latency percentiles, the streaming section (joins/retires, live
    /// streams, per-iteration occupancy), and router events.
    pub fn summary(&self) -> String {
        let a = &self.aggregate;
        let mut out = String::new();
        if !self.instantiated {
            return "registered, not yet instantiated (no traffic)\n".to_string();
        }
        out.push_str(&format!(
            "requests: {} submitted, {} served, {} failed, {} expired, \
             {} rejected (shape {}, overload {})\n",
            a.submitted,
            a.served,
            a.failed,
            a.expired,
            a.rejected_shape + a.rejected_overload,
            a.rejected_shape,
            a.rejected_overload,
        ));
        out.push_str(&format!(
            "batches: {} steps, {} rows, mean {:.2} rows/batch, occupancy {:.0}%\n",
            a.batches,
            a.batched_rows,
            a.mean_batch_rows,
            a.occupancy * 100.0,
        ));
        out.push_str(&format!(
            "latency: queue p50 {:.3} ms / p99 {:.3} ms, step p50 {:.3} ms / p99 {:.3} ms\n",
            a.queue_delay_p50_ms,
            a.queue_delay_p99_ms,
            a.step_latency_p50_ms,
            a.step_latency_p99_ms,
        ));
        if a.streams_opened > 0 {
            out.push_str(&format!(
                "streams: {} joined, {} retired ({} expired), {} rejected, {} active\n",
                a.streams_opened,
                a.streams_retired,
                a.streams_expired,
                a.streams_rejected,
                a.active_streams,
            ));
            out.push_str(&format!(
                "streaming: {} iterations, {} rows, mean {:.2} rows/iteration \
                 (p50 ≤ {}, p99 ≤ {})\n",
                a.stream_iterations,
                a.stream_rows,
                a.mean_iteration_rows,
                a.iteration_rows_p50,
                a.iteration_rows_p99,
            ));
        }
        out.push_str(&format!(
            "router: {} replicas, {} evicted, {} resubmitted\n",
            self.replicas.len(),
            self.evicted,
            self.resubmitted,
        ));
        out
    }
}

/// One live replica's identity, health, and counters.
#[derive(Clone, Debug)]
pub struct ReplicaMetrics {
    /// Stable replica id (monotonic per model; replacements get fresh
    /// ids).
    pub id: u64,
    /// Failed steps since the last success — the eviction signal.
    pub consecutive_step_failures: u64,
    /// The replica's own counters.
    pub snapshot: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_replica_prefers_less_loaded() {
        // Whatever pair the hash picks, the loaded replica (index 0) must
        // never win against an idle one in a two-replica set.
        let loads = [100u64, 0];
        for seq in 0..64 {
            assert_eq!(choose_replica(&loads, seq), 1, "seq {seq}");
        }
        // Symmetric.
        let loads = [0u64, 100];
        for seq in 0..64 {
            assert_eq!(choose_replica(&loads, seq), 0, "seq {seq}");
        }
    }

    #[test]
    fn choose_replica_spreads_over_equal_loads() {
        // With equal loads the pair choice itself must spread: over many
        // submits every replica of a 4-set gets picked.
        let loads = [5u64, 5, 5, 5];
        let mut hit = [false; 4];
        for seq in 0..256 {
            hit[choose_replica(&loads, seq)] = true;
        }
        assert!(hit.iter().all(|h| *h), "hits: {hit:?}");
    }

    #[test]
    fn choose_replica_skews_toward_idle_in_larger_sets() {
        // 1 busy + 3 idle replicas: the busy one can only win when both
        // choices land on it, which p2c makes impossible (choices are
        // distinct) — so it is never picked.
        let loads = [50u64, 0, 0, 0];
        for seq in 0..512 {
            assert_ne!(choose_replica(&loads, seq), 0, "seq {seq}");
        }
    }

    #[test]
    fn degenerate_sets_route_to_zero() {
        assert_eq!(choose_replica(&[], 7), 0);
        assert_eq!(choose_replica(&[42], 7), 0);
    }

    #[test]
    fn stream_queue_delay_reaches_model_metrics() {
        use dcf_graph::GraphBuilder;
        use dcf_tensor::{DType, Tensor};
        use std::time::Duration;

        // A running-sum streaming model on one replica, with a linger long
        // enough that the lone submission's queue delay is unmistakable.
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let slots = b.placeholder("slots", DType::I64);
        let acc = b.stream_state_read(slots, "acc").unwrap();
        let y = b.add(acc, x).unwrap();
        let w = b.stream_state_write(slots, y, "acc").unwrap();
        let sig = crate::ModelSignature::new().feed("x", DType::F32, &[1]).fetch(y);
        let stream = crate::StreamSpec::new("slots")
            .with_cell("acc", &[1])
            .with_state_fetch(w)
            .with_iteration_delay(Duration::from_millis(20));
        let spec = ModelSpec::local(b.finish().unwrap(), sig).with_stream(stream);
        let set = ReplicaSet::new("acc".into(), spec).unwrap();

        let handle = set.open_stream(None).unwrap();
        let mut feeds = std::collections::HashMap::new();
        feeds.insert("x".to_string(), Tensor::from_vec_f32(vec![1.0], &[1, 1]).unwrap());
        handle.send(feeds).unwrap();

        // The stream gather records the submission's queue delay in the
        // same histogram one-shot batches feed.
        let a = set.metrics().aggregate;
        assert!(a.queue_delay_p99_ms >= 20.0, "{a:?}");
    }
}
