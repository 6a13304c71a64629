//! The simulated device: profile, allocator, one compute clock and two copy
//! streams.

use crate::clock::{instant_of, kernel_window, stamp_now};
use crate::cost::CostModel;
use crate::memory::TrackingAllocator;
use crate::profile::DeviceProfile;
use crate::stats::{DeviceCollector, KernelStats};
use crate::stream::{Event, Stream};
use dcf_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Index of a device within a run (assigned by the runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

/// Which copy stream of a device a copy kernel targets (§5.3). Compute
/// kernels go on the device's compute clock instead: see
/// [`Device::launch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// Host-to-device copies (swap-in).
    H2D,
    /// Device-to-host copies (swap-out).
    D2H,
}

/// Result produced by a kernel's computation closure.
pub type KernelOutput = Result<Vec<Tensor>, String>;

/// A copy-kernel submission: name, modeled duration, dependencies, and the
/// real computation to perform.
pub struct Kernel {
    /// Name recorded in the run's kernel stats.
    pub name: String,
    /// Modeled duration on this device.
    pub modeled: Duration,
    /// Events that must be signaled before the kernel starts.
    pub wait_for: Vec<Event>,
    /// Stamp (see [`crate::stamp_of`]) before which the kernel does not
    /// start: the modeled end of the kernel that produced its input. 0 for
    /// none.
    pub not_before: u64,
    /// The actual value computation.
    pub compute: Box<dyn FnOnce() -> KernelOutput + Send>,
    /// Optional run-abort flag. While unset the kernel waits out its full
    /// modeled duration; once set the remaining modeled time is skipped
    /// (the computation still runs and the completion event still fires).
    /// Executors thread their run's cancellation state through here so an
    /// aborted run's streams quiesce in microseconds, not modeled seconds.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Optional step-stats handle of the submitting run. When set, the
    /// stream thread records this kernel's timing into it. Routed per
    /// kernel rather than installed on the device so concurrent traced
    /// steps never observe each other's kernels.
    pub collector: Option<DeviceCollector>,
}

/// A simulated device.
///
/// Compute kernels run on a *clock*: the executor thread that launches one
/// computes its value at once and places it on the modeled compute stream
/// with [`kernel_window`], and the kernel's output carries its modeled end.
/// Copies (swap-out, swap-in) still run on two FIFO stream threads (D2H and
/// H2D), each of which computes a copy's value and then waits out its
/// modeled duration, so copies overlap compute in wall-clock time as the
/// modeled hardware's would.
pub struct Device {
    id: DeviceId,
    name: String,
    machine: usize,
    cost: CostModel,
    allocator: TrackingAllocator,
    /// Stamp at which the compute stream finishes what was launched on it,
    /// shared by every run on this device.
    busy_until: AtomicU64,
    /// Kernel-stats track of the compute stream, `"<name>/compute"`.
    compute_track: String,
    h2d: Stream,
    d2h: Stream,
}

impl Device {
    /// Creates a device with the given profile on the given machine.
    pub fn new(id: DeviceId, machine: usize, profile: DeviceProfile) -> Arc<Device> {
        let name = format!("/machine:{}/{}:{}", machine, profile.name, id.0);
        let allocator = TrackingAllocator::new(name.clone(), profile.memory_capacity);
        let cost = CostModel::new(profile);
        Arc::new(Device {
            id,
            machine,
            cost,
            allocator,
            busy_until: AtomicU64::new(0),
            compute_track: format!("{name}/compute"),
            h2d: Stream::spawn(format!("{name}/h2d")),
            d2h: Stream::spawn(format!("{name}/d2h")),
            name,
        })
    }

    /// Device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Diagnostic name, e.g. `"/machine:0/k40:1"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The machine (failure/communication domain) hosting this device.
    pub fn machine(&self) -> usize {
        self.machine
    }

    /// The device's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The device's memory allocator.
    pub fn allocator(&self) -> &TrackingAllocator {
        &self.allocator
    }

    /// Launches a compute kernel of `modeled` duration whose inputs are
    /// ready at stamp `ready`, and returns its modeled end. The caller
    /// computes the kernel's value itself: a launch only advances the
    /// compute clock (one compare-and-swap, however many runs share the
    /// device) and, with a `collector`, records the kernel on the
    /// `<device>/compute` track.
    pub fn launch(
        &self,
        name: &str,
        ready: u64,
        modeled: Duration,
        collector: Option<&DeviceCollector>,
    ) -> u64 {
        let now = stamp_now();
        let mut busy = self.busy_until.load(Ordering::Acquire);
        let (start, end) = loop {
            let (start, end) = kernel_window(now, busy, ready, modeled);
            match self.busy_until.compare_exchange_weak(
                busy,
                end,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break (start, end),
                Err(seen) => busy = seen,
            }
        };
        if let Some(dc) = collector {
            dc.kernel(KernelStats {
                stream: self.compute_track.clone(),
                kernel: name.to_owned(),
                start_us: dc.rel_us(instant_of(start)),
                end_us: dc.rel_us(instant_of(end)),
            });
        }
        end
    }

    /// Submits a copy kernel and invokes `on_done` with the output once the
    /// kernel fully completes (computation + modeled duration), on the
    /// stream's thread. The submitting thread never blocks. Returns the
    /// completion event (for cross-stream dependencies).
    pub fn submit_with_callback(
        &self,
        stream: StreamKind,
        kernel: Kernel,
        on_done: Box<dyn FnOnce(KernelOutput) + Send>,
    ) -> Event {
        let stream = match stream {
            StreamKind::H2D => &self.h2d,
            StreamKind::D2H => &self.d2h,
        };
        stream.submit(kernel, on_done)
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("machine", &self.machine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::stamp_of;
    use std::time::Instant;

    fn copy(name: &str, modeled: Duration, collector: Option<DeviceCollector>) -> Kernel {
        Kernel {
            name: name.into(),
            modeled,
            wait_for: vec![],
            not_before: 0,
            compute: Box::new(|| Ok(vec![Tensor::scalar_f32(42.0)])),
            cancel: None,
            collector,
        }
    }

    #[test]
    fn copy_stream_delivers_its_output() {
        let d = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
        let (tx, rx) = std::sync::mpsc::channel();
        d.submit_with_callback(
            StreamKind::D2H,
            copy("copy", Duration::ZERO, None),
            Box::new(move |out| tx.send(out).unwrap()),
        )
        .wait();
        let out = rx.recv().unwrap().unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), 42.0);
    }

    #[test]
    fn launches_queue_on_the_compute_clock() {
        let d = Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40());
        let ms = Duration::from_millis(5);
        let t0 = stamp_of(Instant::now());
        let e1 = d.launch("k1", 0, ms, None);
        let e2 = d.launch("k2", 0, ms, None);
        // The second kernel starts where the first ends, however soon the
        // host launches it.
        assert_eq!(e2 - e1, ms.as_nanos() as u64);
        assert!(e1 >= t0 + ms.as_nanos() as u64);
        // An input ready later than the stream delays the kernel to it.
        let ready = e2 + 1_000_000;
        assert_eq!(d.launch("k3", ready, ms, None), ready + ms.as_nanos() as u64);
    }

    #[test]
    fn compute_and_copy_streams_overlap() {
        use crate::stats::{StepStatsCollector, TraceLevel};

        let d = Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40());
        let collector = Arc::new(StepStatsCollector::new(TraceLevel::Full));
        let dc = DeviceCollector::new(collector.register_device(d.name()), collector.clone());
        let t0 = Instant::now();
        let end = d.launch("compute", 0, Duration::from_millis(30), Some(&dc));
        d.submit_with_callback(
            StreamKind::D2H,
            copy("copy", Duration::from_millis(30), Some(dc)),
            Box::new(|_| {}),
        )
        .wait();
        crate::wait_until(instant_of(end), |until| {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            true
        });
        let wall = t0.elapsed();
        // The 30 ms kernel and the 30 ms copy ran concurrently.
        assert!(wall < Duration::from_millis(55), "no overlap: {wall:?}");
        let overlap =
            collector.finish().overlap_fraction("/machine:0/k40:0/compute", "/machine:0/k40:0/d2h");
        assert!(overlap > 0.5, "overlap fraction {overlap}");
    }

    #[test]
    fn device_naming() {
        let d = Device::new(DeviceId(3), 2, DeviceProfile::gpu_v100());
        assert_eq!(d.name(), "/machine:2/v100:3");
        assert_eq!(d.machine(), 2);
        assert_eq!(d.id(), DeviceId(3));
    }
}
