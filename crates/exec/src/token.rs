//! Tokens: the values that flow between operations at run time.

use dcf_device::{MemoryError, TrackingAllocator};
use dcf_tensor::{Tensor, TensorError};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced by graph execution.
#[derive(Clone, Debug)]
pub enum ExecError {
    /// A kernel failed (dtype/shape error at run time, bad index, ...).
    Kernel {
        /// Node name.
        node: String,
        /// Failure description.
        detail: String,
    },
    /// Device memory exhausted (the structured OOM of Table 1).
    OutOfMemory(MemoryError),
    /// A fed placeholder was missing or a fetch was invalid.
    BadFeedOrFetch(String),
    /// A fetched tensor was dead (its producing branch was not taken).
    DeadFetch(String),
    /// The run (or queued request) exceeded its deadline.
    DeadlineExceeded {
        /// How long the work waited or ran before the deadline fired
        /// (queue wait for batched requests, run budget for executor
        /// timeouts).
        waited: std::time::Duration,
        /// How far past the deadline the work was when expired. Zero means
        /// the budget itself elapsed; a positive value on a queued request
        /// means it starved in the queue after its deadline passed.
        past_deadline: std::time::Duration,
    },
    /// A frame push (function call or loop entry) would exceed the run's
    /// `max_frame_depth` — the structured outcome of runaway recursion.
    FrameDepthExceeded {
        /// The configured depth limit that was hit.
        limit: usize,
        /// Name of the frame whose creation was refused.
        frame: String,
    },
    /// The run was aborted: either a peer partition failed first, or the
    /// session tore the step down (e.g. a blocked `Recv` whose value can
    /// no longer arrive). The payload names the cancellation source.
    Cancelled(String),
    /// A cross-device transfer could not be delivered within its retry
    /// budget or per-transfer deadline (injected faults, §3.3 conditions).
    TransferFailed {
        /// Rendezvous key of the failed transfer.
        key: String,
        /// Delivery attempts made (1 initial + retries) before giving up.
        attempts: u32,
    },
    /// A serving layer rejected the request up front because a bounded
    /// queue was full (backpressure): the caller should shed load or retry
    /// later rather than wait. Distinct from [`ExecError::InvalidConfig`]
    /// (the request could never run) and [`ExecError::DeadlineExceeded`]
    /// (the request ran out of time). The payload names the full resource.
    Overloaded(String),
    /// The session rejected the run up front because its configuration
    /// cannot execute it (e.g. an admission limit of zero that can never
    /// admit a step). Structured so concurrent callers see a hard error
    /// instead of silent corruption or an eternal queue wait.
    InvalidConfig(String),
    /// A streaming operation targeted a stream that is no longer open:
    /// the client closed it, the server retired it (deadline, drain on
    /// unload, replica eviction), or a failed iteration destroyed its
    /// state. Work submitted afterwards can never produce a correct
    /// continuation, so the caller must open a fresh stream. The payload
    /// names the stream and why it closed.
    StreamClosed(String),
    /// Internal invariant violation; indicates a bug or a malformed graph.
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Kernel { node, detail } => write!(f, "kernel {node}: {detail}"),
            ExecError::OutOfMemory(e) => write!(f, "{e}"),
            ExecError::BadFeedOrFetch(s) => write!(f, "bad feed/fetch: {s}"),
            ExecError::DeadFetch(s) => write!(f, "fetched dead tensor: {s}"),
            ExecError::DeadlineExceeded { waited, past_deadline } => {
                write!(f, "deadline exceeded after {waited:?} ({past_deadline:?} past deadline)")
            }
            ExecError::FrameDepthExceeded { limit, frame } => {
                write!(f, "frame depth limit {limit} exceeded entering frame '{frame}'")
            }
            ExecError::Cancelled(s) => write!(f, "cancelled: {s}"),
            ExecError::TransferFailed { key, attempts } => {
                write!(f, "transfer {key} failed after {attempts} attempts")
            }
            ExecError::Overloaded(s) => write!(f, "overloaded: {s}"),
            ExecError::InvalidConfig(s) => write!(f, "invalid configuration: {s}"),
            ExecError::StreamClosed(s) => write!(f, "stream closed: {s}"),
            ExecError::Internal(s) => write!(f, "internal: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MemoryError> for ExecError {
    fn from(e: MemoryError) -> Self {
        ExecError::OutOfMemory(e)
    }
}

impl From<TensorError> for ExecError {
    fn from(e: TensorError) -> Self {
        ExecError::Kernel { node: "<tensor>".into(), detail: e.to_string() }
    }
}

/// A modeled-memory charge: holds `bytes` against an allocator until
/// dropped.
///
/// Tokens carry an `Arc<Charge>`; forwarding operations (Switch, Merge,
/// Enter, ...) clone the Arc rather than re-charging, so a tensor's modeled
/// residency ends when its last in-flight reference is gone — mirroring
/// buffer refcounting in the paper's runtime, where a freed buffer may be
/// reused at once because every kernel that could read it runs earlier on
/// the same compute stream. A copy kernel, which runs on a stream of its
/// own, owns its charge until the copy's modeled end.
pub struct Charge {
    allocator: TrackingAllocator,
    bytes: usize,
}

impl Charge {
    /// Charges `bytes` against `allocator`, failing on OOM.
    pub fn new(allocator: &TrackingAllocator, bytes: usize) -> Result<Arc<Charge>, MemoryError> {
        Charge::new_retrying(allocator, bytes, Duration::ZERO)
    }

    /// Like [`Charge::new`], but on a full device waits up to `patience`
    /// for in-flight deallocations (e.g. swap-out copies) before giving up.
    pub fn new_retrying(
        allocator: &TrackingAllocator,
        bytes: usize,
        patience: Duration,
    ) -> Result<Arc<Charge>, MemoryError> {
        allocator.alloc_retrying(bytes, patience)?;
        Ok(Arc::new(Charge { allocator: allocator.clone(), bytes }))
    }

    /// The charged size in (modeled) bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for Charge {
    fn drop(&mut self) {
        self.allocator.free(self.bytes);
    }
}

impl fmt::Debug for Charge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Charge({} B)", self.bytes)
    }
}

/// Fans an error out to every executor participating in a run.
///
/// When one partition fails (OOM, kernel error), its peers may be blocked
/// waiting on rendezvous messages that will never arrive; the session wires
/// all executors of a run to one token so the first failure aborts all of
/// them.
#[derive(Default)]
pub struct CancelToken {
    /// Lock-free mirror of "has fired": polled from hot paths (stream
    /// modeled waits, executor spin loops) where taking the mutex per
    /// check would serialize unrelated work.
    fired_flag: Arc<std::sync::atomic::AtomicBool>,
    inner: dcf_sync::Mutex<CancelInner>,
}

#[derive(Default)]
struct CancelInner {
    fired: Option<ExecError>,
    subscribers: Vec<Box<dyn FnOnce(ExecError) + Send>>,
}

impl CancelToken {
    /// Creates an unfired token.
    pub fn new() -> Arc<CancelToken> {
        Arc::new(CancelToken::default())
    }

    /// `true` once [`CancelToken::fire`] has been called. One relaxed
    /// atomic load — safe to poll from modeled-time waits.
    pub fn is_fired(&self) -> bool {
        self.fired_flag.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// A shareable view of the fired state, for layers (copy streams)
    /// that must observe cancellation without depending on this crate's
    /// error types. The flag is set before subscriber callbacks run.
    pub fn flag(&self) -> Arc<std::sync::atomic::AtomicBool> {
        self.fired_flag.clone()
    }

    /// Registers a callback invoked on the first failure (immediately if
    /// one already fired).
    pub fn subscribe(&self, cb: Box<dyn FnOnce(ExecError) + Send>) {
        let fired = {
            let mut inner = self.inner.lock();
            match &inner.fired {
                Some(e) => Some(e.clone()),
                None => {
                    inner.subscribers.push(cb);
                    return;
                }
            }
        };
        if let Some(e) = fired {
            cb(e);
        }
    }

    /// Fires the token with `err`; only the first error wins.
    pub fn fire(&self, err: ExecError) {
        let subs = {
            let mut inner = self.inner.lock();
            if inner.fired.is_some() {
                return;
            }
            inner.fired = Some(err.clone());
            self.fired_flag.store(true, std::sync::atomic::Ordering::SeqCst);
            std::mem::take(&mut inner.subscribers)
        };
        for cb in subs {
            cb(err.clone());
        }
    }

    /// Returns the error the token fired with, if any.
    pub fn error(&self) -> Option<ExecError> {
        self.inner.lock().fired.clone()
    }
}

/// A value flowing along a graph edge: the paper's *(value, is_dead, tag)*
/// tuple. The tag is implicit — it is the (frame, iteration) the executor
/// delivers the token within.
#[derive(Clone, Debug)]
pub struct Token {
    /// The tensor value. Dead tokens carry a placeholder value.
    pub value: Tensor,
    /// `true` if this token is on an untaken conditional path (§4.3).
    pub is_dead: bool,
    /// Modeled memory charge keeping the value resident on its device.
    pub charge: Option<Arc<Charge>>,
    /// Stamp (see [`dcf_device::stamp_of`]) at which the value exists in
    /// modeled time: the end of the device kernel that produced it. The
    /// host has the value already; only a consumer that can see it on the
    /// host waits for this. 0 means ready now.
    pub ready: u64,
}

impl Token {
    /// Creates a live token without a memory charge (host/bookkeeping
    /// values).
    pub fn live(value: Tensor) -> Token {
        Token { value, is_dead: false, charge: None, ready: 0 }
    }

    /// Creates a live token carrying a charge.
    pub fn live_charged(value: Tensor, charge: Arc<Charge>) -> Token {
        Token { value, is_dead: false, charge: Some(charge), ready: 0 }
    }

    /// Creates a dead token.
    ///
    /// Dead tokens all share one cached placeholder tensor: cond-heavy
    /// graphs flood untaken branches with these, and the placeholder's
    /// value is never read, so cloning a refcounted handle beats
    /// allocating a fresh scalar per dead edge.
    pub fn dead() -> Token {
        static PLACEHOLDER: std::sync::OnceLock<Tensor> = std::sync::OnceLock::new();
        let value = PLACEHOLDER.get_or_init(|| Tensor::scalar_f32(0.0)).clone();
        Token { value, is_dead: true, charge: None, ready: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_lifecycle_frees_on_drop() {
        let alloc = TrackingAllocator::new("gpu:0", 1000);
        let c = Charge::new(&alloc, 400).unwrap();
        assert_eq!(alloc.in_use(), 400);
        assert_eq!(c.bytes(), 400);
        let c2 = c.clone();
        drop(c);
        assert_eq!(alloc.in_use(), 400, "clone keeps the charge alive");
        drop(c2);
        assert_eq!(alloc.in_use(), 0);
    }

    #[test]
    fn charge_oom_propagates() {
        let alloc = TrackingAllocator::new("gpu:0", 100);
        assert!(Charge::new(&alloc, 200).is_err());
        assert_eq!(alloc.in_use(), 0);
    }

    #[test]
    fn token_constructors() {
        let t = Token::live(Tensor::scalar_i64(7));
        assert!(!t.is_dead);
        assert!(t.charge.is_none());
        let d = Token::dead();
        assert!(d.is_dead);
        let alloc = TrackingAllocator::new("gpu:0", 100);
        let c = Charge::new(&alloc, 10).unwrap();
        let t = Token::live_charged(Tensor::scalar_f32(1.0), c);
        assert!(t.charge.is_some());
    }

    #[test]
    fn errors_display() {
        let e = ExecError::Kernel { node: "MatMul_3".into(), detail: "bad shape".into() };
        assert!(e.to_string().contains("MatMul_3"));
        let e = ExecError::DeadFetch("y".into());
        assert!(e.to_string().contains("dead"));
    }
}
