//! `dcf-serve`: a dynamic-batching serving frontend over concurrent
//! sessions.
//!
//! PR 4 made `Session::run` safe for concurrent multi-client steps, but a
//! step per client request still pays the full executor-dispatch cost per
//! request. This crate adds the serving layer that amortizes it, the same
//! way the paper's dynamic control flow amortizes graph dispatch across
//! loop iterations: many small inference requests are coalesced into one
//! batched step, run once, and the results scattered back — TensorFlow's
//! deployment-side batching frontend, rebuilt over this runtime.
//!
//! The pieces:
//!
//! * [`ModelRegistry`] — named `(Graph, Cluster, SessionOptions)` entries
//!   behind typed [`ModelHandle`] capabilities. [`ModelRegistry::register`]
//!   returns the handle; all traffic and observability
//!   ([`ModelHandle::metrics`]) flow through it. A model is **either
//!   one-shot or streaming**, fixed at registration: a one-shot model
//!   takes [`ModelHandle::submit`] / [`ModelHandle::serve`], a model
//!   registered [`ModelSpec::with_stream`] takes
//!   [`ModelHandle::open_stream`], and the other front door answers
//!   [`dcf_exec::ExecError::InvalidConfig`]. The replica set is
//!   instantiated lazily on the first request.
//! * [`replica::ReplicaSet`] — N `(Session, Batcher)` replicas per model,
//!   each on a [`dcf_runtime::Cluster::fork`] of the spec's cluster (one
//!   shared compile, no shared device state). Requests are routed
//!   power-of-two-choices over lock-free load gauges; a replica whose
//!   steps keep aborting is evicted and replaced while the model keeps
//!   serving, so the replica count is fixed at registration.
//! * [`Batcher`] — the one batching worker of a replica: one thread, one
//!   state mutex, one [`ServeMetrics`]. Its loop asks a pure policy
//!   function what to do, applies the answer, runs **one** tagged
//!   `Session::run` over the concatenated feeds, and splits each fetched
//!   tensor back to the members of that step through one-shot channels.
//!   Admission control is structural: every queue is bounded in rows
//!   (rejecting with [`dcf_exec::ExecError::Overloaded`] instead of
//!   queueing forever), and deadlines expire *before* an entry can occupy
//!   a batch slot.
//! * [`admission`] — that policy, as pure functions of plain data. The
//!   two serving modes differ only here. [`admission::admit_requests`]
//!   coalesces one-shot [`Request`]s under a [`BatchPolicy`]
//!   (`max_batch_size` rows / `max_queue_delay` wait), an interactive
//!   lane preempting bulk traffic at assembly time.
//!   [`admission::gather_streams`] takes one row from every ready stream,
//!   so streams join and leave the batch **between** decode iterations
//!   instead of stop-the-world re-batching at step boundaries.
//! * [`StreamHandle`] — a sticky stream pinned to one replica, whose
//!   in-graph state (per-stream slots read and written by
//!   `StreamStateRead`/`StreamStateWrite` ops) persists across submits,
//!   with per-stream deadlines, a structured `StreamClosed`/`Overloaded`
//!   surface, and drain-on-unload semantics (see [`stream`]).
//! * [`ServeMetrics`] — per-replica counters threaded from each step's
//!   `RunMetadata`: batch occupancy, queue-delay and step-latency
//!   percentiles, rejects, expirations, transfer retries and injected
//!   faults, plus the streaming gauges (active streams, joins/retires,
//!   per-iteration occupancy). [`ModelMetrics`] rolls them up per model:
//!   one [`MetricsSnapshot`] per live replica plus an aggregate that also
//!   folds in evicted replicas, rendered by
//!   [`ModelMetrics::summary`].
//!
//! Correctness contract (tested in `tests/serve_batching.rs`,
//! `tests/serve_streaming.rs` and `tests/replica_router.rs`): for
//! batch-linear models — every fetch carries the leading batch axis and
//! row `i` of the output depends only on row `i` of the input, which is
//! what a serving signature means — concat → run → scatter is
//! **bit-identical** to running each request as its own step, including
//! when the batched step retries under an injected fault plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod metrics;
mod oneshot;
pub mod registry;
pub mod replica;
pub mod signature;
pub mod stream;

pub use batcher::{BatchPolicy, Batcher, Priority, Request, Response, Ticket};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use registry::{ModelHandle, ModelRegistry, ModelSpec};
pub use replica::{ModelMetrics, ReplicaMetrics};
pub use signature::{FeedSpec, ModelSignature};
pub use stream::{StreamHandle, StreamResponse, StreamSpec, StreamTicket};

/// Crate-wide result type: serving surfaces the runtime's structured
/// [`dcf_exec::ExecError`]s.
pub type Result<T> = dcf_exec::Result<T>;
