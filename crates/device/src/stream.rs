//! FIFO kernel streams and completion events.

use crate::stats::{DeviceCollector, KernelStats};
use dcf_sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A one-shot completion event, analogous to a CUDA event.
///
/// Streams signal an event when a kernel finishes (real computation done
/// *and* modeled duration elapsed); other streams or executor workers can
/// block on it, which is how cross-stream causal dependencies are enforced
/// (§5.3: "a combination of control edges and GPU hardware events to
/// synchronize the dependent operations executed on different streams").
#[derive(Clone, Debug, Default)]
pub struct Event {
    inner: Arc<(Mutex<bool>, Condvar)>,
}

impl Event {
    /// Creates an unsignaled event.
    pub fn new() -> Event {
        Event::default()
    }

    /// Signals the event, waking all waiters.
    pub fn signal(&self) {
        let (lock, cvar) = &*self.inner;
        *lock.lock() = true;
        cvar.notify_all();
    }

    /// Blocks until the event is signaled.
    pub fn wait(&self) {
        let (lock, cvar) = &*self.inner;
        let mut done = lock.lock();
        while !*done {
            cvar.wait(&mut done);
        }
    }

    /// Returns `true` if the event has been signaled.
    pub fn is_signaled(&self) -> bool {
        *self.inner.0.lock()
    }
}

/// Modeled durations below this are served purely by spinning: an OS sleep
/// is not worth its overshoot at this scale, and copy/compute kernels this
/// short are exactly the ones whose drain rate bounds swap throughput.
const PURE_SPIN_BELOW: Duration = Duration::from_micros(100);

/// Measures the scheduler's typical overshoot for a minimal sleep, once per
/// process. A 1ns `thread::sleep` returns after (timer slack + wakeup
/// latency); sleeping `remain - overshoot` then spinning the rest gives
/// microsecond-accurate deadlines without hardcoding a per-kernel guess.
fn sleep_overshoot() -> Duration {
    static OVERSHOOT: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *OVERSHOOT.get_or_init(|| {
        let mut worst = Duration::ZERO;
        for _ in 0..8 {
            let t0 = Instant::now();
            thread::sleep(Duration::from_nanos(1));
            worst = worst.max(t0.elapsed());
        }
        // Headroom for scheduling jitter beyond the sampled worst case,
        // bounded so a loaded calibration run cannot degrade every wait
        // into a full spin.
        (worst * 2).clamp(Duration::from_micros(20), Duration::from_micros(500))
    })
}

/// Waits until `deadline` with microsecond accuracy: OS sleep for the bulk
/// (its granularity is tens of microseconds), then a short spin. The sleep
/// margin is calibrated per process rather than hardcoded — see
/// [`sleep_overshoot`].
///
/// Without the spin, a stream of 2 microsecond copy kernels would drain at
/// the sleeper's ~60 microsecond floor — 30x slower than modeled — and
/// swap-out traffic would back up holding device memory.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remain = deadline - now;
        if remain > PURE_SPIN_BELOW {
            let margin = sleep_overshoot();
            if remain > margin {
                thread::sleep(remain - margin);
                continue;
            }
        }
        std::hint::spin_loop();
    }
}

/// Sleep quantum for cancellable waits: bounds how long a stream thread
/// can keep sleeping out a modeled duration after its run was aborted,
/// without measurably changing the accuracy of uncancelled waits.
const CANCEL_POLL: Duration = Duration::from_micros(500);

/// Like [`wait_until`], but returns early (abandoning the rest of the
/// modeled duration) once `cancel` becomes true. A timed-out run used to
/// leave stream threads sleeping out full modeled kernel durations; with
/// the flag observed here, aborting a run quiesces its streams within
/// roughly [`CANCEL_POLL`].
fn wait_until_cancellable(deadline: Instant, cancel: &AtomicBool) {
    loop {
        if cancel.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remain = deadline - now;
        if remain > PURE_SPIN_BELOW {
            let margin = sleep_overshoot();
            if remain > margin {
                thread::sleep((remain - margin).min(CANCEL_POLL));
                continue;
            }
        }
        std::hint::spin_loop();
    }
}

struct Task {
    name: String,
    modeled: Duration,
    wait_for: Vec<Event>,
    work: Box<dyn FnOnce() + Send>,
    /// Invoked after the modeled duration has elapsed (i.e. at the same
    /// point the completion event is signaled). Used by the executor for
    /// fully asynchronous kernel completion.
    on_done: Option<Box<dyn FnOnce() + Send>>,
    done: Event,
    /// Run-abort flag: when it turns true the modeled wait is cut short.
    /// The kernel's real computation still runs and its completion event
    /// still fires, so dependents never hang.
    cancel: Option<Arc<AtomicBool>>,
    /// The submitting run's step-stats handle. Carried per kernel (rather
    /// than installed device-wide) so concurrently traced steps on one
    /// device each record into their own collector.
    collector: Option<DeviceCollector>,
}

/// A FIFO kernel queue with a dedicated worker thread.
///
/// Kernels on one stream execute strictly in submission order. Each kernel
/// first waits for its cross-stream dependencies, then runs its real
/// computation, then waits out the remainder of its *modeled* duration
/// before signaling completion — so stream occupancy matches the modeled
/// hardware even though values are computed on the host.
pub(crate) struct Stream {
    sender: Option<mpsc::Sender<Task>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Stream {
    /// Spawns the stream worker. `label` identifies the stream in traces.
    /// Kernel timings are recorded into each task's own collector handle,
    /// so runs tracing concurrently never observe each other's kernels.
    pub(crate) fn spawn(label: String) -> Stream {
        let (sender, receiver) = mpsc::channel::<Task>();
        let handle = thread::Builder::new()
            .name(label.clone())
            .spawn(move || {
                while let Ok(task) = receiver.recv() {
                    for ev in &task.wait_for {
                        ev.wait();
                    }
                    let t0 = Instant::now();
                    (task.work)();
                    match &task.cancel {
                        None => wait_until(t0 + task.modeled),
                        Some(flag) => wait_until_cancellable(t0 + task.modeled, flag),
                    }
                    let end = Instant::now();
                    if let Some(dc) = &task.collector {
                        dc.kernel(KernelStats {
                            stream: label.clone(),
                            kernel: task.name.clone(),
                            start_us: dc.rel_us(t0),
                            end_us: dc.rel_us(end),
                        });
                    }
                    task.done.signal();
                    if let Some(cb) = task.on_done {
                        cb();
                    }
                }
            })
            .expect("failed to spawn stream thread");
        Stream { sender: Some(sender), handle: Some(handle) }
    }

    /// Enqueues a kernel; returns its completion event immediately.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit(
        &self,
        name: String,
        modeled: Duration,
        wait_for: Vec<Event>,
        work: Box<dyn FnOnce() + Send>,
        on_done: Option<Box<dyn FnOnce() + Send>>,
        cancel: Option<Arc<AtomicBool>>,
        collector: Option<DeviceCollector>,
    ) -> Event {
        let done = Event::new();
        let task =
            Task { name, modeled, wait_for, work, on_done, done: done.clone(), cancel, collector };
        let Some(sender) = self.sender.as_ref() else {
            // Stream shut down (device dropping): run inline so callers
            // never hang on an event that would otherwise go unsignaled.
            Stream::run_inline(task);
            return done;
        };
        if let Err(mpsc::SendError(task)) = sender.send(task) {
            // The worker exited between our check and the send (shutdown
            // race); same inline fallback instead of a panic.
            Stream::run_inline(task);
        }
        done
    }

    /// Degraded path for kernels submitted to an already-terminated
    /// stream: execute immediately on the caller, skipping modeled time
    /// (the device is going away; only completion semantics matter).
    fn run_inline(task: Task) {
        for ev in &task.wait_for {
            ev.wait();
        }
        (task.work)();
        task.done.signal();
        if let Some(cb) = task.on_done {
            cb();
        }
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        // Close the queue and drain remaining kernels.
        drop(self.sender.take());
        if let Some(h) = self.handle.take() {
            if h.thread().id() == thread::current().id() {
                // The stream worker itself holds the last reference to its
                // device (an async completion callback outlived the run);
                // the thread exits right after this drop, so detach rather
                // than self-join (which would abort with EDEADLK).
                return;
            }
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn wait_until_never_undershoots() {
        // Short waits take the pure-spin path; longer ones sleep with the
        // calibrated margin and spin the tail. Overshoot bounds are kept
        // loose (shared CI machines), undershoot is exact.
        for wait in [Duration::from_micros(50), Duration::from_micros(300)] {
            let t0 = Instant::now();
            wait_until(t0 + wait);
            let elapsed = t0.elapsed();
            assert!(elapsed >= wait, "undershot: {elapsed:?} < {wait:?}");
            assert!(elapsed < wait + Duration::from_millis(50), "runaway wait: {elapsed:?}");
        }
    }

    #[test]
    fn cancelled_modeled_wait_ends_early() {
        // A fired cancel flag cuts the remaining modeled duration: the
        // kernel's work still runs and its event still signals, but the
        // stream does not sleep out the full modeled time.
        let cancel = Arc::new(AtomicBool::new(true));
        let t0 = Instant::now();
        wait_until_cancellable(t0 + Duration::from_secs(5), &cancel);
        assert!(t0.elapsed() < Duration::from_millis(100), "wait ignored the cancel flag");

        // Unfired flag: the full duration is still waited out.
        let live = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let wait = Duration::from_millis(5);
        wait_until_cancellable(t0 + wait, &live);
        assert!(t0.elapsed() >= wait, "uncancelled wait undershot");

        // Through the stream: a long modeled kernel aborts promptly once
        // the flag fires, and the completion event still signals.
        let s = Stream::spawn("test".into());
        let cancel = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        let t0 = Instant::now();
        let e = s.submit(
            "cancelled".into(),
            Duration::from_secs(30),
            vec![],
            Box::new(move || r.store(true, Ordering::SeqCst)),
            None,
            Some(cancel.clone()),
            None,
        );
        thread::sleep(Duration::from_millis(10));
        cancel.store(true, Ordering::SeqCst);
        e.wait();
        assert!(t0.elapsed() < Duration::from_secs(5), "cancel did not cut the modeled wait");
        assert!(ran.load(Ordering::SeqCst), "work must still run under cancellation");
    }

    #[test]
    fn events_signal_once() {
        let e = Event::new();
        assert!(!e.is_signaled());
        e.signal();
        assert!(e.is_signaled());
        e.wait();
    }

    #[test]
    fn stream_executes_in_fifo_order() {
        let s = Stream::spawn("test".into());
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut events = Vec::new();
        for i in 0..10 {
            let order = order.clone();
            events.push(s.submit(
                format!("k{i}"),
                Duration::ZERO,
                vec![],
                Box::new(move || order.lock().push(i)),
                None,
                None,
                None,
            ));
        }
        for e in &events {
            e.wait();
        }
        assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn modeled_duration_is_waited_out() {
        let s = Stream::spawn("test".into());
        let t0 = Instant::now();
        let e = s.submit(
            "slow".into(),
            Duration::from_millis(20),
            vec![],
            Box::new(|| {}),
            None,
            None,
            None,
        );
        e.wait();
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn kernels_record_into_their_own_collector() {
        use crate::stats::{StepStatsCollector, TraceLevel};

        let s = Stream::spawn("dev/compute".into());
        let collector = Arc::new(StepStatsCollector::new(TraceLevel::Full));
        let dev = collector.register_device("dev");
        let dc = DeviceCollector::new(dev, collector.clone());
        // Two runs interleave on one stream: only the kernel carrying this
        // run's handle is recorded into it.
        s.submit(
            "k0".into(),
            Duration::from_millis(2),
            vec![],
            Box::new(|| {}),
            None,
            None,
            Some(dc),
        )
        .wait();
        let other = Arc::new(StepStatsCollector::new(TraceLevel::Full));
        let odc = DeviceCollector::new(other.register_device("dev"), other.clone());
        s.submit("k1".into(), Duration::ZERO, vec![], Box::new(|| {}), None, None, Some(odc))
            .wait();
        s.submit("k2".into(), Duration::ZERO, vec![], Box::new(|| {}), None, None, None).wait();
        let stats = collector.finish();
        let kernels = &stats.devices[0].kernel_stats;
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].kernel, "k0");
        assert_eq!(kernels[0].stream, "dev/compute");
        assert!(kernels[0].end_us - kernels[0].start_us >= 2_000);
        let other_stats = other.finish();
        assert_eq!(other_stats.devices[0].kernel_stats.len(), 1);
        assert_eq!(other_stats.devices[0].kernel_stats[0].kernel, "k1");
    }

    #[test]
    fn cross_stream_dependency_blocks() {
        let a = Stream::spawn("a".into());
        let b = Stream::spawn("b".into());
        let counter = Arc::new(AtomicUsize::new(0));

        let c1 = counter.clone();
        let e1 = a.submit(
            "first".into(),
            Duration::from_millis(10),
            vec![],
            Box::new(move || {
                c1.store(1, Ordering::SeqCst);
            }),
            None,
            None,
            None,
        );
        let c2 = counter.clone();
        let e2 = b.submit(
            "second".into(),
            Duration::ZERO,
            vec![e1],
            Box::new(move || {
                // Must observe the first kernel's full completion.
                assert_eq!(c2.load(Ordering::SeqCst), 1);
            }),
            None,
            None,
            None,
        );
        e2.wait();
    }
}
