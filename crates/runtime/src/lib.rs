//! Distributed session runtime: placement, partitioning, rendezvous, and
//! control loops.
//!
//! This crate implements §3 and §4.4 of the paper:
//!
//! * A [`Cluster`] of simulated devices spread over *machines*.
//! * A **placer** that assigns every node to a device, honoring explicit
//!   `/machine:M/gpu:K` requests and otherwise colocating operations with
//!   their inputs. Placement is unrestricted — "an operation can be
//!   assigned to a device ... independently of graph topology".
//! * A **partitioner** that splits the graph per device, replacing each
//!   cross-device edge with a `Send`/`Recv` pair whose rendezvous keys are
//!   made unique per dynamic frame/iteration tag, and rewriting every
//!   partition that participates in a loop with a **control-loop state
//!   machine** (Figure 6) so each device learns the per-iteration loop
//!   predicate without central coordination.
//! * A **network simulator** that delays cross-device rendezvous delivery
//!   by modeled latency and bandwidth (intra-machine PCIe vs. cross-machine
//!   Ethernet).
//! * A [`Session`] that runs all partition executors concurrently against a
//!   shared rendezvous, gathers fetches, and reports per-run statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod fault;
mod netsim;
mod optimize;
mod partition;
mod placer;
mod session;

pub use cluster::Cluster;
pub use fault::{FaultEvent, FaultKind, FaultPlan, RetryPolicy, WorkerStall};
pub use netsim::{NetworkModel, NetworkRendezvous};
pub use optimize::{fold_constants, optimize, OptLevel, OptimizeOutcome};
pub use partition::{partition_graph, PartitionedGraph};
pub use placer::place_nodes;
pub use session::{compile_count, RunMetadata, RunOptions, Session, SessionOptions};

// Step-stats vocabulary, re-exported so session users need not depend on
// `dcf-device` directly.
pub use dcf_device::{
    chrome_trace_json, DeviceStepStats, FrameStats, KernelStats, MemStats, NodeStats,
    OptimizeStats, RendezvousKind, RendezvousWait, StepStats, TraceLevel, TransferStats,
};

/// Convenience alias: runtime errors are executor errors.
pub type Result<T> = std::result::Result<T, dcf_exec::ExecError>;

#[cfg(test)]
mod tests;
