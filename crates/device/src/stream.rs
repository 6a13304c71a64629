//! The two copy streams of a device (D2H and H2D), their completion
//! events, and the sleep-then-spin wait every modeled wait uses.

use crate::clock::instant_of;
use crate::device::{Kernel, KernelOutput};
use crate::stats::KernelStats;
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

/// Waits until `deadline` with microsecond accuracy: `park` takes the bulk
/// of the wait (an OS sleep or a condvar wait, whose granularity is tens of
/// microseconds), then a short spin. `park` is handed the instant to wake
/// by, `deadline` less the OS's wake-up lateness as measured once per
/// process, and may return sooner: it is called again while the remainder
/// exceeds that margin. It returns `false` to abandon the wait, and then so
/// does this.
///
/// Copy streams park in `thread::sleep`; the executor's driving thread
/// parks on its run's condvar while a `Recv` value is in flight or a host
/// op waits for a kernel's modeled end. Without the spin, a stream of 2
/// microsecond copy kernels would drain at the sleeper's ~60 microsecond
/// floor — 30x slower than modeled — and a 25 microsecond network hop
/// would take 60–100. Each turn of the spin
/// yields the CPU: when threads outnumber cores (every machine of a
/// 64-machine Fig. 11 loop has a thread waiting out its hop), a waiter that
/// held its core would starve the very thread it waits for.
pub fn wait_until(deadline: Instant, mut park: impl FnMut(Instant) -> bool) -> bool {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        let margin = sleep_overshoot();
        if deadline - now > margin.max(PURE_SPIN_BELOW) {
            if !park(deadline - margin) {
                return false;
            }
        } else {
            thread::yield_now();
        }
    }
}

/// Sleep quantum for cancellable waits: bounds how long a stream thread
/// can keep sleeping out a modeled duration after its run was aborted,
/// without measurably changing the accuracy of uncancelled waits.
const CANCEL_POLL: Duration = Duration::from_micros(500);

/// A stream's modeled wait: [`wait_until`] parked in `thread::sleep`. With
/// a `cancel` flag it sleeps in [`CANCEL_POLL`] slices and gives up the
/// rest of the modeled duration once the flag is set, so aborting a run
/// quiesces its streams within roughly that quantum.
fn sleep_until(deadline: Instant, cancel: Option<&AtomicBool>) {
    let slice = if cancel.is_some() { CANCEL_POLL } else { Duration::MAX };
    wait_until(deadline, |until| {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return false;
        }
        thread::sleep(until.saturating_duration_since(Instant::now()).min(slice));
        true
    });
}

struct Task {
    kernel: Kernel,
    /// Invoked with the kernel's output after its modeled duration has
    /// elapsed, right after the completion event is signaled.
    on_done: Box<dyn FnOnce(KernelOutput) + Send>,
    done: Event,
}

/// A FIFO copy-kernel queue with a dedicated worker thread.
///
/// Kernels on one stream execute strictly in submission order. Each kernel
/// first waits for its cross-stream dependencies and its `not_before`
/// stamp, then runs its real computation, then waits out the remainder of
/// its *modeled* duration before signaling completion — so stream
/// occupancy matches the modeled hardware even though values are computed
/// on the host. The run's cancel flag cuts both waits short; the
/// computation still runs and the completion event still fires, so
/// dependents never hang. Kernel timings are recorded into each kernel's
/// own collector handle, so runs tracing concurrently never observe each
/// other's kernels.
pub(crate) struct Stream {
    sender: Option<mpsc::Sender<Task>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Stream {
    /// Spawns the stream worker. `label` identifies the stream in traces.
    pub(crate) fn spawn(label: String) -> Stream {
        let (sender, receiver) = mpsc::channel::<Task>();
        let handle = thread::Builder::new()
            .name(label.clone())
            .spawn(move || {
                while let Ok(Task { kernel, on_done, done }) = receiver.recv() {
                    for ev in &kernel.wait_for {
                        ev.wait();
                    }
                    let cancel = kernel.cancel.as_deref();
                    if kernel.not_before > 0 {
                        sleep_until(instant_of(kernel.not_before), cancel);
                    }
                    let t0 = Instant::now();
                    let out = (kernel.compute)();
                    sleep_until(t0 + kernel.modeled, cancel);
                    if let Some(dc) = &kernel.collector {
                        dc.kernel(KernelStats {
                            stream: label.clone(),
                            kernel: kernel.name,
                            start_us: dc.rel_us(t0),
                            end_us: dc.now_us(),
                        });
                    }
                    done.signal();
                    on_done(out);
                }
            })
            .expect("failed to spawn stream thread");
        Stream { sender: Some(sender), handle: Some(handle) }
    }

    /// Enqueues a kernel; returns its completion event immediately.
    pub(crate) fn submit(
        &self,
        kernel: Kernel,
        on_done: Box<dyn FnOnce(KernelOutput) + Send>,
    ) -> Event {
        let done = Event::new();
        let task = Task { kernel, on_done, done: done.clone() };
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
    fn run_inline(Task { kernel, on_done, done }: Task) {
        for ev in &kernel.wait_for {
            ev.wait();
        }
        let out = (kernel.compute)();
        done.signal();
        on_done(out);
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

    /// A copy kernel that runs `work` and models `modeled`.
    fn kernel(name: &str, modeled: Duration, work: impl FnOnce() + Send + 'static) -> Kernel {
        Kernel {
            name: name.into(),
            modeled,
            wait_for: vec![],
            not_before: 0,
            compute: Box::new(move || {
                work();
                Ok(vec![])
            }),
            cancel: None,
            collector: None,
        }
    }

    fn ignore() -> Box<dyn FnOnce(KernelOutput) + Send> {
        Box::new(|_| {})
    }

    #[test]
    fn wait_until_never_undershoots() {
        // Short waits take the pure-spin path; longer ones sleep with the
        // calibrated margin and spin the tail. Overshoot bounds are kept
        // loose (shared CI machines), undershoot is exact.
        for wait in [Duration::from_micros(50), Duration::from_micros(300)] {
            let t0 = Instant::now();
            sleep_until(t0 + wait, None);
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
        sleep_until(t0 + Duration::from_secs(5), Some(&cancel));
        assert!(t0.elapsed() < Duration::from_millis(100), "wait ignored the cancel flag");

        // Unfired flag: the full duration is still waited out.
        let live = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let wait = Duration::from_millis(5);
        sleep_until(t0 + wait, Some(&live));
        assert!(t0.elapsed() >= wait, "uncancelled wait undershot");

        // Through the stream: a long modeled kernel aborts promptly once
        // the flag fires, and the completion event still signals.
        let s = Stream::spawn("test".into());
        let cancel = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        let t0 = Instant::now();
        let mut k =
            kernel("cancelled", Duration::from_secs(30), move || r.store(true, Ordering::SeqCst));
        k.cancel = Some(cancel.clone());
        let e = s.submit(k, ignore());
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
                kernel(&format!("k{i}"), Duration::ZERO, move || order.lock().push(i)),
                ignore(),
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
        s.submit(kernel("slow", Duration::from_millis(20), || {}), ignore()).wait();
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn not_before_delays_the_start() {
        // A copy of a value a compute kernel ends 15 ms from now starts
        // then, not when it was submitted.
        let s = Stream::spawn("test".into());
        let t0 = Instant::now();
        let started = Arc::new(Mutex::new(None));
        let st = started.clone();
        let mut k = kernel("copy", Duration::ZERO, move || *st.lock() = Some(Instant::now()));
        k.not_before = crate::stamp_of(t0 + Duration::from_millis(15));
        s.submit(k, ignore()).wait();
        let started = started.lock().expect("the copy ran");
        assert!(started - t0 >= Duration::from_millis(15), "copy started before its input");
    }

    #[test]
    fn kernels_record_into_their_own_collector() {
        use crate::stats::{DeviceCollector, StepStatsCollector, TraceLevel};

        let s = Stream::spawn("dev/d2h".into());
        let collector = Arc::new(StepStatsCollector::new(TraceLevel::Full));
        let dev = collector.register_device("dev");
        let dc = DeviceCollector::new(dev, collector.clone());
        // Two runs interleave on one stream: only the kernel carrying this
        // run's handle is recorded into it.
        let mut k0 = kernel("k0", Duration::from_millis(2), || {});
        k0.collector = Some(dc);
        s.submit(k0, ignore()).wait();
        let other = Arc::new(StepStatsCollector::new(TraceLevel::Full));
        let odc = DeviceCollector::new(other.register_device("dev"), other.clone());
        let mut k1 = kernel("k1", Duration::ZERO, || {});
        k1.collector = Some(odc);
        s.submit(k1, ignore()).wait();
        s.submit(kernel("k2", Duration::ZERO, || {}), ignore()).wait();
        let stats = collector.finish();
        let kernels = &stats.devices[0].kernel_stats;
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].kernel, "k0");
        assert_eq!(kernels[0].stream, "dev/d2h");
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
            kernel("first", Duration::from_millis(10), move || c1.store(1, Ordering::SeqCst)),
            ignore(),
        );
        let c2 = counter.clone();
        // Must observe the first kernel's full completion.
        let mut second =
            kernel("second", Duration::ZERO, move || assert_eq!(c2.load(Ordering::SeqCst), 1));
        second.wait_for = vec![e1];
        b.submit(second, ignore()).wait();
    }
}
