//! Byte-accurate tracking allocator with a hard capacity.

use dcf_sync::{Condvar, Mutex};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Error returned when an allocation would exceed device memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryError {
    /// Bytes requested.
    pub requested: usize,
    /// Bytes currently in use.
    pub in_use: usize,
    /// Device capacity.
    pub capacity: usize,
    /// Device name (diagnostic).
    pub device: String,
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OOM on {}: requested {} B with {} B in use of {} B capacity",
            self.device, self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for MemoryError {}

#[derive(Debug, Default)]
struct Inner {
    in_use: usize,
    peak: usize,
    total_allocs: u64,
    failed_allocs: u64,
    over_frees: u64,
}

impl Inner {
    fn charge(&mut self, bytes: usize) {
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        self.total_allocs += 1;
    }
}

/// Tracks modeled memory consumption of one device.
///
/// The runtime charges every resident tensor at its *modeled* (shape-scaled)
/// size; the swap engine consults [`TrackingAllocator::pressure`] to decide
/// when to move tensors to host memory (§5.3: "watches the memory
/// consumption reported by the memory allocator, and only starts to swap
/// when memory consumption reaches a predefined threshold").
#[derive(Clone, Debug)]
pub struct TrackingAllocator {
    capacity: usize,
    device: String,
    inner: Arc<(Mutex<Inner>, Condvar)>,
}

impl TrackingAllocator {
    /// Creates an allocator for `device` with `capacity` bytes.
    pub fn new(device: impl Into<String>, capacity: usize) -> TrackingAllocator {
        TrackingAllocator {
            capacity,
            device: device.into(),
            inner: Arc::new((Mutex::new(Inner::default()), Condvar::new())),
        }
    }

    /// Charges `bytes`, failing when capacity would be exceeded.
    pub fn alloc(&self, bytes: usize) -> Result<(), MemoryError> {
        let mut inner = self.inner.0.lock();
        if inner.in_use + bytes > self.capacity {
            inner.failed_allocs += 1;
            return Err(MemoryError {
                requested: bytes,
                in_use: inner.in_use,
                capacity: self.capacity,
                device: self.device.clone(),
            });
        }
        inner.charge(bytes);
        Ok(())
    }

    /// Charges `bytes` if they fit by `until`: on a full device, waits
    /// until then for concurrent deallocations (swap-out copies ending,
    /// consumers releasing buffers). Returns whether it charged. A miss is
    /// not a failed allocation: the caller may make room and try again,
    /// and its last attempt is a [`TrackingAllocator::alloc`].
    ///
    /// This is the allocator-level backpressure real runtimes apply (e.g.
    /// TensorFlow's retry-on-OOM allocator wrapper): an execution engine
    /// that dispatches faster than the copy streams drain would otherwise
    /// turn a transient high-water mark into a spurious OOM. Callers must
    /// not hold locks that deallocation paths need.
    pub fn alloc_by(&self, bytes: usize, until: Instant) -> bool {
        let (lock, freed) = &*self.inner;
        let mut inner = lock.lock();
        while inner.in_use + bytes > self.capacity {
            if Instant::now() >= until {
                return false;
            }
            freed.wait_until(&mut inner, until);
        }
        inner.charge(bytes);
        true
    }

    /// Releases `bytes`.
    ///
    /// Saturates at zero — but an over-free (freeing more than is charged,
    /// i.e. a double-drop of a modeled charge) is a caller logic error and
    /// is counted in [`TrackingAllocator::over_frees`] rather than silently
    /// corrupting the accounting. Tests assert the counter stays zero so
    /// accounting bugs cannot hide behind the saturation.
    pub fn free(&self, bytes: usize) {
        let (lock, freed) = &*self.inner;
        let mut inner = lock.lock();
        if bytes > inner.in_use {
            inner.over_frees += 1;
            inner.in_use = 0;
        } else {
            inner.in_use -= bytes;
        }
        freed.notify_all();
    }

    /// Bytes currently charged.
    pub fn in_use(&self) -> usize {
        self.inner.0.lock().in_use
    }

    /// High-water mark.
    pub fn peak(&self) -> usize {
        self.inner.0.lock().peak
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fraction of capacity in use, in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        self.in_use() as f64 / self.capacity.max(1) as f64
    }

    /// Number of successful allocations.
    pub fn total_allocs(&self) -> u64 {
        self.inner.0.lock().total_allocs
    }

    /// Number of failed allocations.
    pub fn failed_allocs(&self) -> u64 {
        self.inner.0.lock().failed_allocs
    }

    /// Number of over-frees observed: calls to [`TrackingAllocator::free`]
    /// that released more bytes than were charged. Always zero in a correct
    /// run; any other value means a modeled charge was double-dropped.
    pub fn over_frees(&self) -> u64 {
        self.inner.0.lock().over_frees
    }

    /// Snapshot of all counters under one lock, for step-stats reporting.
    pub fn snapshot(&self) -> crate::stats::MemStats {
        let inner = self.inner.0.lock();
        crate::stats::MemStats {
            peak_bytes: inner.peak as u64,
            in_use_bytes: inner.in_use as u64,
            capacity_bytes: self.capacity as u64,
            total_allocs: inner.total_allocs,
            failed_allocs: inner.failed_allocs,
            over_frees: inner.over_frees,
        }
    }

    /// Resets usage counters (between experiment repetitions).
    pub fn reset(&self) {
        let mut inner = self.inner.0.lock();
        *inner = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn alloc_free_cycle() {
        let a = TrackingAllocator::new("gpu:0", 100);
        a.alloc(60).unwrap();
        assert_eq!(a.in_use(), 60);
        a.alloc(40).unwrap();
        assert_eq!(a.in_use(), 100);
        assert_eq!(a.peak(), 100);
        a.free(50);
        assert_eq!(a.in_use(), 50);
        assert_eq!(a.peak(), 100);
    }

    #[test]
    fn oom_is_structured() {
        let a = TrackingAllocator::new("gpu:0", 100);
        a.alloc(90).unwrap();
        let err = a.alloc(20).unwrap_err();
        assert_eq!(err.requested, 20);
        assert_eq!(err.in_use, 90);
        assert_eq!(err.capacity, 100);
        assert!(err.to_string().contains("OOM"));
        assert_eq!(a.failed_allocs(), 1);
        // A failed alloc does not change usage.
        assert_eq!(a.in_use(), 90);
    }

    #[test]
    fn pressure_and_reset() {
        let a = TrackingAllocator::new("gpu:0", 200);
        a.alloc(100).unwrap();
        assert!((a.pressure() - 0.5).abs() < 1e-9);
        a.reset();
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.peak(), 0);
    }

    #[test]
    fn free_saturates_and_counts_over_frees() {
        let a = TrackingAllocator::new("gpu:0", 100);
        a.alloc(10).unwrap();
        a.free(50);
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.over_frees(), 1, "over-free must be counted, not hidden");
        // A balanced free is not an over-free.
        a.alloc(30).unwrap();
        a.free(30);
        assert_eq!(a.over_frees(), 1);
        assert_eq!(a.snapshot().over_frees, 1);
        // reset clears the counter with the rest.
        a.reset();
        assert_eq!(a.over_frees(), 0);
    }

    #[test]
    fn retrying_alloc_waits_for_a_concurrent_free() {
        let a = TrackingAllocator::new("gpu:0", 100);
        a.alloc(90).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                a.free(50);
            });
            // Needs 20 B; succeeds only because the free lands in time.
            assert!(a.alloc_by(20, Instant::now() + Duration::from_secs(2)));
        });
        assert_eq!(a.in_use(), 60);
        assert_eq!(a.failed_allocs(), 0);
    }

    #[test]
    fn retrying_alloc_times_out_without_frees() {
        let a = TrackingAllocator::new("gpu:0", 100);
        a.alloc(90).unwrap();
        let t0 = Instant::now();
        assert!(!a.alloc_by(20, t0 + Duration::from_millis(50)));
        assert!(t0.elapsed() >= Duration::from_millis(50));
        // Only the attempt that finally fails counts.
        assert_eq!(a.failed_allocs(), 0);
        let err = a.alloc(20).unwrap_err();
        assert_eq!(err.requested, 20);
        assert_eq!(a.failed_allocs(), 1);
    }

    #[test]
    fn clones_share_state() {
        let a = TrackingAllocator::new("gpu:0", 100);
        let b = a.clone();
        a.alloc(30).unwrap();
        assert_eq!(b.in_use(), 30);
    }
}
