//! # dcf — Dynamic Control Flow for dataflow-based machine learning
//!
//! A Rust implementation of the system described in *"Dynamic Control Flow
//! in Large-Scale Machine Learning"* (Yu et al., EuroSys 2018): in-graph
//! `cond` / `while_loop` compiled to dynamic-dataflow primitives, a
//! tagged-token executor with parallel loop iterations, partitioned
//! distributed execution with per-device control-loop state machines,
//! reverse-mode automatic differentiation through control flow, and memory
//! swapping between simulated accelerators and the host.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`graph`] — graph construction: [`graph::GraphBuilder`],
//!   `cond`/`while_loop`, TensorArrays, higher-order ops.
//! * [`tensor`] — the dense tensor value type.
//! * [`autodiff`] — [`autodiff::gradients`].
//! * [`runtime`] — [`runtime::Session`], [`runtime::Cluster`], network
//!   simulation.
//! * [`device`] — simulated device profiles, allocator, and kernel
//!   timeline.
//! * [`exec`] — the tagged-token executor (mostly used via the session).
//! * [`ml`] — LSTM / dynamic_rnn / MoE / DQN reference models.
//! * [`serve`] — the dynamic-batching serving frontend:
//!   [`serve::ModelRegistry`] handing out typed [`serve::ModelHandle`]s,
//!   a replica router (power-of-two-choices dispatch, health eviction,
//!   queue-delay-driven autoscaling) over one [`serve::Batcher`] worker
//!   per replica, admission control as pure functions
//!   ([`serve::admission`]), serving metrics, and streaming stateful
//!   inference: sticky [`serve::StreamHandle`] sessions whose in-graph
//!   state persists across submits, continuously batched by the same
//!   worker, which admits and retires streams between decode iterations.
//!
//! # Quickstart
//!
//! ```
//! use dcf::prelude::*;
//! use std::collections::HashMap;
//!
//! // Compute 2^10 with an in-graph while_loop.
//! let mut g = GraphBuilder::new();
//! let i0 = g.scalar_i64(0);
//! let x0 = g.scalar_f32(1.0);
//! let ten = g.scalar_i64(10);
//! let two = g.scalar_f32(2.0);
//! let outs = g
//!     .while_loop(
//!         &[i0, x0],
//!         |g, v| g.less(v[0], ten),
//!         |g, v| {
//!             let one = g.scalar_i64(1);
//!             Ok(vec![g.add(v[0], one)?, g.mul(v[1], two)?])
//!         },
//!         WhileOptions::default(),
//!     )
//!     .unwrap();
//! let sess = Session::local(g.finish().unwrap()).unwrap();
//! let out = sess.eval(&HashMap::new(), &[outs[1]]).unwrap();
//! assert_eq!(out[0].scalar_as_f32().unwrap(), 1024.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcf_autodiff as autodiff;
pub use dcf_device as device;
pub use dcf_exec as exec;
pub use dcf_graph as graph;
pub use dcf_ml as ml;
pub use dcf_runtime as runtime;
pub use dcf_serve as serve;
pub use dcf_tensor as tensor;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use dcf_autodiff::gradients;
    pub use dcf_device::DeviceProfile;
    pub use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
    pub use dcf_runtime::{
        Cluster, MemPlan, NetworkModel, OptLevel, RunMetadata, RunOptions, Session, SessionOptions,
        TraceLevel,
    };
    pub use dcf_serve::{
        BatchPolicy, ModelHandle, ModelRegistry, ModelSignature, ModelSpec, Request, ScalingPolicy,
        StreamHandle, StreamSpec,
    };
    pub use dcf_tensor::{DType, Tensor, TensorRng};
}
