//! Tagged-token local dataflow executor with dynamic control flow.
//!
//! This crate implements §4.3 of the paper: a per-device executor in which
//! every value is a tuple *(value, is_dead, tag)*. The tag identifies the
//! dynamic execution *frame* (and iteration) a token belongs to; `Enter`
//! creates frames, `NextIteration` advances iterations, `Exit` returns
//! values to the parent frame, and `Switch`/`Merge` route values according
//! to predicates, with *deadness* propagating along untaken paths exactly
//! as in the paper's Figure 5 evaluation rules.
//!
//! Key properties reproduced from the paper:
//!
//! * **Non-strict execution**: an operation runs as soon as its inputs are
//!   available in its frame and iteration; multiple iterations of a loop
//!   execute concurrently, bounded by the per-frame `parallel_iterations`
//!   knob (§4.3 finds 32 a good default).
//! * **Asynchronous kernels**: compute and copy kernels are submitted to
//!   the device's streams and complete via callbacks, so executor threads
//!   never block on modeled device time — mirroring how the TensorFlow
//!   executor treats a GPU kernel as complete once enqueued on a stream.
//! * **Deadness propagation** through ordinary operations and across
//!   `Send`/`Recv` pairs, enabling distributed conditionals (§4.4).
//! * **Memory accounting**: every materialized tensor charges its device's
//!   allocator at modeled size until the last reference drops; stack pushes
//!   may *swap* their payload to host memory under pressure (§5.3), moving
//!   the charge off-device via the D2H/H2D copy streams.
//!
//! An executor runs one partition (or a whole graph, for local execution);
//! `dcf-runtime` wires several executors together with a rendezvous, and
//! [`run_step`] drives all of a step's partitions from the calling thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec_graph;
mod executor;
mod frame;
mod kernels;
mod pool;
mod rendezvous;
mod resources;
mod token;

pub use exec_graph::ExecGraph;
pub use executor::{
    run_step, Executor, ExecutorOptions, Partition, RunConfig, RunOutcome, DEFAULT_MAX_FRAME_DEPTH,
};
pub use kernels::{execute_op, op_cost};
pub use rendezvous::{InMemoryRendezvous, RecvCallback, RecvResult, Rendezvous, StepId};
pub use resources::ResourceManager;
pub use token::{CancelToken, Charge, ExecError, Token};

/// Convenience alias for fallible executor operations.
pub type Result<T> = std::result::Result<T, ExecError>;

#[cfg(test)]
mod tests;
