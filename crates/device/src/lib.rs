//! Simulated heterogeneous devices for the `dcf` runtime.
//!
//! The paper evaluates on clusters of NVIDIA K40/V100 GPUs. This crate
//! substitutes those with *simulated devices* that preserve the properties
//! the evaluation actually measures — overlap of compute and I/O streams,
//! pipelining across parallel loop iterations, memory-capacity limits, and
//! swap traffic — while running on a plain CPU:
//!
//! * Each device has a **profile** (CPU-, K40- or V100-like) with an
//!   analytic cost model mapping an operation and its operand shapes to a
//!   kernel duration.
//! * Each device has the three streams of §5.3: compute, host-to-device
//!   copy and device-to-host copy. The compute stream is a **clock**: the
//!   executor thread that launches a kernel computes its real value at
//!   once, places it at `max(now, stream busy, inputs ready)` and hands on
//!   its output stamped with the modeled end, so the host runs ahead as
//!   with a real GPU and only a host-visible consumer waits. The two copy
//!   streams are FIFO worker threads; each copy computes its real value,
//!   then waits out its *modeled* duration, so copies overlap compute as on
//!   the modeled hardware even on one host core.
//! * A **tracking allocator** charges every resident tensor at its modeled
//!   size and produces structured out-of-memory errors when a capacity is
//!   exceeded (the Table 1 experiment). A buffer is released when the host
//!   drops it: every later kernel is ordered after its readers on the one
//!   compute stream, so the bytes may be reused at once.
//! * A per-run **step-stats collector** records per-stream kernel start/end
//!   times for Figure 13-style overlap reports.
//!
//! The **shape-scale** mechanism decouples value computation from modeling:
//! a device configured with `shape_scale = 32` treats a 32×32 matmul as a
//! 1024×1024 one for cost and memory purposes. Experiments therefore
//! compute real (small) values — keeping all tests end-to-end — while
//! durations and footprints match the paper's nominal workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome_trace;
mod clock;
mod cost;
mod device;
mod memory;
mod profile;
mod stats;
mod stream;

pub use chrome_trace::chrome_trace_json;
pub use clock::{instant_of, kernel_window, stamp_now, stamp_of};
pub use cost::{CostModel, OpCost};
pub use device::{Device, DeviceId, Kernel, KernelOutput, StreamKind};
pub use memory::{MemoryError, TrackingAllocator};
pub use profile::DeviceProfile;
pub use stats::{
    DeviceCollector, DeviceStepStats, FrameStats, KernelStats, MemStats, NodeStats, OptimizeStats,
    RendezvousKind, RendezvousWait, StepStats, StepStatsCollector, TraceLevel, TransferStats,
};
pub use stream::{wait_until, Event};
