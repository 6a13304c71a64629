//! The model registry: named servable models behind typed handles.
//!
//! A registered model is its ingredients — `(Graph, Cluster,
//! SessionOptions)` plus a serving signature, a batch policy, and a
//! replica/scaling policy. Nothing is placed, partitioned, or spawned
//! until the first request arrives; then a [`ReplicaSet`] of N
//! `(Session, Batcher)` replicas is built — one-shot workers, or
//! streaming ones when the spec has a [`StreamSpec`] — and every subsequent request
//! is routed across them (power-of-two-choices over live load gauges —
//! see [`crate::replica`]).
//!
//! The client API is capability-style: [`ModelRegistry::register`]
//! returns a [`ModelHandle`], and the handle — not a model-name string —
//! is what clients hold to [`ModelHandle::submit`],
//! [`ModelHandle::serve`], read [`ModelHandle::metrics`], or
//! [`ModelHandle::unload`]. A handle stays valid for requests already
//! holding it even after the model is unloaded from the registry's
//! namespace; `unload` removes the *name*, and the replicas die when the
//! last handle drops. [`ModelRegistry::handle`] is the one name→handle
//! lookup, for clients that received a name out-of-band.
//!
//! Instantiation rides the runtime's process-wide compiled-graph cache:
//! the N replica sessions are built on [`Cluster::fork`]s of the spec's
//! cluster — structurally identical, so the whole set (and any
//! same-shaped entry) pays for **one** optimize/place/partition.
//!
//! [`ReplicaSet`]: crate::replica::ReplicaSet

use crate::batcher::{Request, Response, Ticket};
use crate::replica::{ModelMetrics, ReplicaSet, ScalingPolicy};
use crate::signature::ModelSignature;
use crate::stream::{StreamHandle, StreamSpec};
use crate::{BatchPolicy, Result};
use dcf_exec::ExecError;
use dcf_graph::Graph;
use dcf_runtime::{Cluster, FaultPlan, SessionOptions};
use dcf_sync::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to serve one model.
pub struct ModelSpec {
    /// The model graph; consumed when the replica set is instantiated.
    pub graph: Graph,
    /// Devices to place it on. Each replica runs on a fresh
    /// [`Cluster::fork`] of this cluster, so replicas share no device
    /// state (but do share the compiled graph).
    pub cluster: Cluster,
    /// Session construction options (executor tunables, network model,
    /// step admission limit) — applied to every replica.
    pub session_options: SessionOptions,
    /// What requests feed and fetch.
    pub signature: ModelSignature,
    /// Batching/admission policy — one worker per replica, each with its
    /// own bounded queue under this policy. A streaming model uses only
    /// its `run_options`; its [`StreamSpec`] carries the rest.
    pub policy: BatchPolicy,
    /// Replicas to start with (clamped into the scaling policy's
    /// `[min_replicas, max_replicas]` at instantiation).
    pub replicas: usize,
    /// When the replica set grows, shrinks, and evicts sick replicas.
    pub scaling: ScalingPolicy,
    /// Per-replica fault-plan overrides (testing hook): initial replica
    /// `i` runs its batched steps under `replica_fault_plans[i]` when set.
    /// Only effective with the `faultinject` feature.
    pub replica_fault_plans: Vec<Option<FaultPlan>>,
    /// Streaming configuration. When set, the model is a streaming one:
    /// every replica's worker serves streams, clients
    /// [`ModelHandle::open_stream`], and one-shot requests are rejected.
    /// Validated against the graph and signature at registration.
    pub stream: Option<StreamSpec>,
}

impl ModelSpec {
    /// A spec serving `graph` on a single simulated CPU with default
    /// batching and one replica.
    pub fn local(graph: Graph, signature: ModelSignature) -> ModelSpec {
        ModelSpec {
            graph,
            cluster: Cluster::single_cpu(),
            session_options: SessionOptions::functional(),
            signature,
            policy: BatchPolicy::default(),
            replicas: 1,
            scaling: ScalingPolicy::default(),
            replica_fault_plans: Vec::new(),
            stream: None,
        }
    }

    /// Replaces the batch policy (builder style).
    pub fn with_policy(mut self, policy: BatchPolicy) -> ModelSpec {
        self.policy = policy;
        self
    }

    /// Sets the initial replica count (builder style).
    pub fn with_replicas(mut self, replicas: usize) -> ModelSpec {
        self.replicas = replicas;
        self
    }

    /// Replaces the scaling/health policy (builder style).
    pub fn with_scaling(mut self, scaling: ScalingPolicy) -> ModelSpec {
        self.scaling = scaling;
        self
    }

    /// Makes this a streaming model under `spec` (builder style): every
    /// replica's worker serves streams and clients
    /// [`ModelHandle::open_stream`] instead of submitting one-shot
    /// requests.
    pub fn with_stream(mut self, spec: StreamSpec) -> ModelSpec {
        self.stream = Some(spec);
        self
    }

    /// Runs initial replica `id`'s batched steps under `plan` (builder
    /// style; testing hook). Replacement replicas built after an eviction
    /// get fresh ids past the initial range and are not affected.
    pub fn with_replica_fault_plan(mut self, id: usize, plan: FaultPlan) -> ModelSpec {
        if self.replica_fault_plans.len() <= id {
            self.replica_fault_plans.resize(id + 1, None);
        }
        self.replica_fault_plans[id] = Some(plan);
        self
    }
}

/// One registry slot: the uninstantiated spec, then the live replica set.
struct ModelEntry {
    name: String,
    /// `Some` until first use; taken by instantiation.
    spec: Mutex<Option<ModelSpec>>,
    /// `Some` once instantiated.
    set: Mutex<Option<Arc<ReplicaSet>>>,
}

impl ModelEntry {
    /// Returns the live replica set, building it on first use. The
    /// per-entry lock serializes concurrent first requests so exactly one
    /// set is built; later calls are a lock + clone.
    fn instantiate(&self) -> Result<Arc<ReplicaSet>> {
        let mut slot = self.set.lock();
        if let Some(s) = slot.as_ref() {
            return Ok(s.clone());
        }
        let spec =
            self.spec.lock().take().ok_or_else(|| {
                ExecError::Internal(format!("model '{}' lost its spec", self.name))
            })?;
        let set = Arc::new(ReplicaSet::new(self.name.clone(), spec)?);
        *slot = Some(set.clone());
        Ok(set)
    }

    /// Metrics without forcing instantiation.
    fn metrics(&self) -> ModelMetrics {
        let set = self.set.lock().clone();
        match set {
            Some(s) => s.metrics(),
            None => ModelMetrics::default(),
        }
    }
}

/// The client capability for one served model.
///
/// Obtained from [`ModelRegistry::register`] or
/// [`ModelRegistry::handle`]; cheap to clone and share across client
/// threads. All request traffic flows through here — the registry itself
/// has no stringly-typed submit/serve surface.
#[derive(Clone)]
pub struct ModelHandle {
    registry: Arc<RegistryInner>,
    entry: Arc<ModelEntry>,
}

impl std::fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelHandle").field("name", &self.entry.name).finish()
    }
}

impl ModelHandle {
    /// The model name this handle serves.
    pub fn name(&self) -> &str {
        &self.entry.name
    }

    /// Enqueues `request`, instantiating the replica set on first use and
    /// routing to the less loaded of two candidate replicas. Rejections
    /// (signature mismatch, full queue, expired deadline, or
    /// [`ExecError::InvalidConfig`] on a streaming model) are immediate
    /// and structured.
    pub fn submit(&self, request: Request) -> Result<Ticket> {
        self.entry.instantiate()?.submit(request)
    }

    /// [`ModelHandle::submit`] then block for the response. A request
    /// stranded on a replica that was evicted while it queued is
    /// transparently resubmitted.
    pub fn serve(&self, request: Request) -> Result<Response> {
        self.entry.instantiate()?.serve(request)
    }

    /// Opens a sticky stream session on this model: a [`StreamHandle`]
    /// pinned to one replica, whose in-graph state (the spec's state
    /// cells) persists across submits until the handle drops. Routed to
    /// the replica with the fewest live streams; instantiates the replica
    /// set on first use. Fails with [`ExecError::InvalidConfig`] if the
    /// model was registered without [`ModelSpec::with_stream`], and with
    /// [`ExecError::Overloaded`] at the per-replica stream cap.
    pub fn open_stream(&self) -> Result<StreamHandle> {
        self.entry.instantiate()?.open_stream(None)
    }

    /// [`ModelHandle::open_stream`] with a lifetime budget: once `budget`
    /// elapses the stream is retired, its pending rows failing with
    /// [`ExecError::DeadlineExceeded`] and later submits with
    /// [`ExecError::StreamClosed`].
    pub fn open_stream_with_deadline(&self, budget: Duration) -> Result<StreamHandle> {
        self.entry.instantiate()?.open_stream(Some(Instant::now() + budget))
    }

    /// Per-replica and aggregated metrics. Never forces instantiation: a
    /// model nothing has hit yet reports `instantiated: false` with empty
    /// counters.
    pub fn metrics(&self) -> ModelMetrics {
        self.entry.metrics()
    }

    /// Live replica count (`0` until the first request instantiates the
    /// set).
    pub fn replicas(&self) -> usize {
        self.entry.set.lock().as_ref().map_or(0, |s| s.replica_count())
    }

    /// Removes the model from the registry's namespace. Outstanding
    /// handles (including clones of this one) keep working — the replicas
    /// and their queues die when the last handle drops. Returns `false`
    /// if the name was already gone (unloaded by a peer, or re-registered
    /// to a different entry).
    pub fn unload(self) -> bool {
        let mut models = self.registry.models.write();
        match models.get(&self.entry.name) {
            Some(e) if Arc::ptr_eq(e, &self.entry) => {
                models.remove(&self.entry.name);
                true
            }
            _ => false,
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
}

/// A multi-tenant registry of servable models.
#[derive(Clone, Default)]
pub struct ModelRegistry {
    inner: Arc<RegistryInner>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registers `spec` under `name` and returns the model's
    /// [`ModelHandle`]. The signature is checked against the graph and
    /// the batch/scaling policies validated *now*, so a bad model fails
    /// at registration rather than on some client's first request. The
    /// replica set itself is still built lazily.
    pub fn register(&self, name: impl Into<String>, spec: ModelSpec) -> Result<ModelHandle> {
        let name = name.into();
        spec.signature.check_against(&spec.graph)?;
        spec.policy.check()?;
        spec.scaling.check()?;
        if let Some(s) = &spec.stream {
            s.check(&spec.graph, &spec.signature)?;
        }
        let entry = Arc::new(ModelEntry {
            name: name.clone(),
            spec: Mutex::new(Some(spec)),
            set: Mutex::new(None),
        });
        let mut models = self.inner.models.write();
        if models.contains_key(&name) {
            return Err(ExecError::InvalidConfig(format!("model '{name}' is already registered")));
        }
        models.insert(name, entry.clone());
        Ok(ModelHandle { registry: self.inner.clone(), entry })
    }

    /// Looks up the handle for a registered model, for clients that
    /// received the name out-of-band. Unknown names are
    /// [`ExecError::BadFeedOrFetch`], exactly like an unknown fetch.
    pub fn handle(&self, name: &str) -> Result<ModelHandle> {
        let entry =
            self.inner.models.read().get(name).cloned().ok_or_else(|| {
                ExecError::BadFeedOrFetch(format!("no model '{name}' registered"))
            })?;
        Ok(ModelHandle { registry: self.inner.clone(), entry })
    }

    /// Removes a model by name; replicas (if instantiated) drain pending
    /// requests with `Cancelled` as the last handle drops.
    pub fn unload(&self, name: &str) -> bool {
        self.inner.models.write().remove(name).is_some()
    }

    /// Registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.models.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Per-replica and aggregated metrics for `name`.
    ///
    /// The two "no metrics" cases are distinct: an unknown name is an
    /// `Err` ([`ExecError::BadFeedOrFetch`]), while a registered model
    /// that no request has instantiated yet is `Ok` with
    /// [`ModelMetrics::instantiated`] `false`. (The old API returned
    /// `Option`, conflating them — and held the model's batcher lock
    /// across the snapshot; this holds the registry lock only long enough
    /// to clone the entry handle.)
    pub fn metrics(&self, name: &str) -> Result<ModelMetrics> {
        let entry =
            self.inner.models.read().get(name).cloned().ok_or_else(|| {
                ExecError::BadFeedOrFetch(format!("no model '{name}' registered"))
            })?;
        Ok(entry.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_graph::GraphBuilder;
    use dcf_tensor::{DType, Tensor};

    fn spec(scale: f32) -> ModelSpec {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let k = b.scalar_f32(scale);
        let y = b.mul(x, k).unwrap();
        let sig = ModelSignature::new().feed("x", DType::F32, &[2]).fetch(y);
        ModelSpec::local(b.finish().unwrap(), sig)
    }

    fn one_row(v: f32) -> HashMap<String, Tensor> {
        let mut m = HashMap::new();
        m.insert("x".into(), Tensor::from_vec_f32(vec![v, v + 1.0], &[1, 2]).unwrap());
        m
    }

    #[test]
    fn multi_tenant_serving_with_lazy_instantiation() {
        let reg = ModelRegistry::new();
        let double = reg.register("double", spec(2.0)).unwrap();
        let triple = reg.register("triple", spec(3.0)).unwrap();
        assert_eq!(reg.models(), vec!["double".to_string(), "triple".to_string()]);
        // Registered but not instantiated: structured, not conflated with
        // "unknown model".
        let m = reg.metrics("double").unwrap();
        assert!(!m.instantiated);
        assert!(m.replicas.is_empty());
        assert_eq!(double.replicas(), 0);

        let r = double.serve(Request::new(one_row(1.0))).unwrap();
        assert_eq!(r.outputs[0].as_f32_slice().unwrap(), &[2.0, 4.0]);
        let r = triple.serve(Request::new(one_row(1.0))).unwrap();
        assert_eq!(r.outputs[0].as_f32_slice().unwrap(), &[3.0, 6.0]);

        let m = reg.metrics("double").unwrap();
        assert!(m.instantiated);
        assert_eq!(m.aggregate.served, 1);
        assert_eq!(m.replicas.len(), 1);
        assert_eq!(double.replicas(), 1);

        // Unload removes the name; the held handle keeps serving.
        assert!(reg.unload("double"));
        assert!(!reg.unload("double"));
        assert!(matches!(reg.handle("double").unwrap_err(), ExecError::BadFeedOrFetch(_)));
        assert!(matches!(reg.metrics("double").unwrap_err(), ExecError::BadFeedOrFetch(_)));
        let r = double.serve(Request::new(one_row(2.0))).unwrap();
        assert_eq!(r.outputs[0].as_f32_slice().unwrap(), &[4.0, 6.0]);
    }

    #[test]
    fn duplicate_and_unknown_models_are_structured_errors() {
        let reg = ModelRegistry::new();
        let _m = reg.register("m", spec(1.0)).unwrap();
        assert!(matches!(reg.register("m", spec(1.0)).unwrap_err(), ExecError::InvalidConfig(_)));
        assert!(matches!(reg.handle("ghost").unwrap_err(), ExecError::BadFeedOrFetch(_)));
        assert!(matches!(reg.metrics("ghost").unwrap_err(), ExecError::BadFeedOrFetch(_)));
    }

    #[test]
    fn handle_unload_is_entry_scoped() {
        let reg = ModelRegistry::new();
        let old = reg.register("m", spec(1.0)).unwrap();
        // Name unloaded and re-registered: the stale handle must not be
        // able to unload the new entry out from under its clients.
        assert!(reg.unload("m"));
        let fresh = reg.register("m", spec(2.0)).unwrap();
        assert!(!old.unload(), "stale handle must not unload a re-registered name");
        assert_eq!(reg.models(), vec!["m".to_string()]);
        assert!(fresh.unload());
        assert!(reg.models().is_empty());
    }

    #[test]
    fn identical_replicas_share_one_compile() {
        use dcf_runtime::compile_count;
        // One entry, two replicas, built from forked clusters: the whole
        // set must pay for exactly one optimize/place/partition, with the
        // second replica's session served from the process-wide
        // compiled-graph cache. The scale constant is unique to this test
        // so the fingerprint cannot collide with other tests' graphs.
        let fingerprint = {
            let mut b = GraphBuilder::new();
            let x = b.placeholder("x", DType::F32);
            let k = b.scalar_f32(90_210.5);
            let _ = b.mul(x, k).unwrap();
            b.finish().unwrap().fingerprint()
        };
        let before = compile_count(fingerprint);
        let reg = ModelRegistry::new();
        let a = reg.register("replica-a", spec(90_210.5).with_replicas(2)).unwrap();
        let r = a.serve(Request::new(one_row(2.0))).unwrap();
        assert_eq!(r.outputs[0].as_f32_slice().unwrap()[0], 2.0 * 90_210.5);
        assert_eq!(a.replicas(), 2);
        // A second same-shaped entry also rides the cache.
        let b = reg.register("replica-b", spec(90_210.5)).unwrap();
        let r = b.serve(Request::new(one_row(2.0))).unwrap();
        assert_eq!(r.outputs[0].as_f32_slice().unwrap()[0], 2.0 * 90_210.5);
        assert_eq!(
            compile_count(fingerprint),
            before + 1,
            "replicas and same-shaped entries must reuse the cached compile"
        );
    }

    #[test]
    fn bad_signature_rejected_at_registration() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let _ = x;
        let g = b.finish().unwrap();
        let sig = ModelSignature::new(); // no feeds/fetches
        let spec = ModelSpec::local(g, sig);
        let reg = ModelRegistry::new();
        assert!(matches!(reg.register("bad", spec).unwrap_err(), ExecError::InvalidConfig(_)));
    }

    #[test]
    fn bad_scaling_policy_rejected_at_registration() {
        let reg = ModelRegistry::new();
        let s = spec(1.0).with_scaling(ScalingPolicy { min_replicas: 0, ..Default::default() });
        assert!(matches!(reg.register("bad", s).unwrap_err(), ExecError::InvalidConfig(_)));
    }
}
