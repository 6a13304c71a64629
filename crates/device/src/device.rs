//! The simulated device: profile + allocator + streams.

use crate::cost::CostModel;
use crate::memory::TrackingAllocator;
use crate::profile::DeviceProfile;
use crate::stats::DeviceCollector;
use crate::stream::{Event, Stream};
use dcf_sync::Mutex;
use dcf_tensor::Tensor;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Index of a device within a run (assigned by the runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

/// Which stream of a device a kernel targets (§5.3 uses three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// Compute kernels.
    Compute,
    /// Host-to-device copies (swap-in).
    H2D,
    /// Device-to-host copies (swap-out).
    D2H,
}

/// Result produced by a kernel's computation closure.
pub type KernelOutput = Result<Vec<Tensor>, String>;

/// A kernel submission: name, modeled duration, dependencies, and the real
/// computation to perform.
pub struct Kernel {
    /// Name recorded in the run's kernel stats.
    pub name: String,
    /// Modeled duration on this device.
    pub modeled: Duration,
    /// Events that must be signaled before the kernel starts.
    pub wait_for: Vec<Event>,
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
/// Owns three FIFO stream threads (compute / H2D / D2H). Kernels submitted
/// to a stream run in order; each computes its real output value and then
/// waits out its modeled duration, so concurrently busy streams overlap in
/// wall-clock time exactly as the modeled hardware's would.
pub struct Device {
    id: DeviceId,
    name: String,
    machine: usize,
    cost: CostModel,
    allocator: TrackingAllocator,
    compute: Stream,
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
            name: name.clone(),
            machine,
            cost,
            allocator,
            compute: Stream::spawn(format!("{name}/compute")),
            h2d: Stream::spawn(format!("{name}/h2d")),
            d2h: Stream::spawn(format!("{name}/d2h")),
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

    /// Submits a kernel asynchronously; the returned event is signaled when
    /// the kernel (computation + modeled duration) completes, and the output
    /// slot is filled just before that.
    pub fn submit(
        &self,
        stream: StreamKind,
        kernel: Kernel,
    ) -> (Event, Arc<Mutex<Option<KernelOutput>>>) {
        let slot: Arc<Mutex<Option<KernelOutput>>> = Arc::new(Mutex::new(None));
        let slot2 = slot.clone();
        let compute = kernel.compute;
        let work = Box::new(move || {
            *slot2.lock() = Some(compute());
        });
        let s = self.stream(stream);
        let ev = s.submit(
            kernel.name,
            kernel.modeled,
            kernel.wait_for,
            work,
            None,
            kernel.cancel,
            kernel.collector,
        );
        (ev, slot)
    }

    /// Submits a kernel and invokes `on_done` with the output once the
    /// kernel fully completes (computation + modeled duration).
    ///
    /// This is the executor's path: the submitting thread never blocks, and
    /// the callback re-enters the executor to propagate the results.
    /// Returns the completion event (useful for cross-stream dependencies).
    pub fn submit_with_callback(
        &self,
        stream: StreamKind,
        kernel: Kernel,
        on_done: Box<dyn FnOnce(KernelOutput) + Send>,
    ) -> Event {
        let slot: Arc<Mutex<Option<KernelOutput>>> = Arc::new(Mutex::new(None));
        let slot2 = slot.clone();
        let compute = kernel.compute;
        let work = Box::new(move || {
            *slot2.lock() = Some(compute());
        });
        let done = Box::new(move || {
            let out = slot.lock().take().unwrap_or_else(|| Err("kernel produced no output".into()));
            on_done(out);
        });
        self.stream(stream).submit(
            kernel.name,
            kernel.modeled,
            kernel.wait_for,
            work,
            Some(done),
            kernel.cancel,
            kernel.collector,
        )
    }

    fn stream(&self, kind: StreamKind) -> &Stream {
        match kind {
            StreamKind::Compute => &self.compute,
            StreamKind::H2D => &self.h2d,
            StreamKind::D2H => &self.d2h,
        }
    }

    /// Runs a kernel to completion on a stream and returns its output.
    pub fn run(&self, stream: StreamKind, kernel: Kernel) -> KernelOutput {
        let (ev, slot) = self.submit(stream, kernel);
        ev.wait();
        let out = slot.lock().take();
        out.unwrap_or_else(|| Err("kernel produced no output".into()))
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
    use std::time::Instant;

    fn cpu_device() -> Arc<Device> {
        Device::new(DeviceId(0), 0, DeviceProfile::cpu())
    }

    #[test]
    fn run_returns_computed_value() {
        let d = cpu_device();
        let out = d
            .run(
                StreamKind::Compute,
                Kernel {
                    name: "add".into(),
                    modeled: Duration::ZERO,
                    wait_for: vec![],
                    compute: Box::new(|| Ok(vec![Tensor::scalar_f32(42.0)])),
                    cancel: None,
                    collector: None,
                },
            )
            .unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), 42.0);
    }

    #[test]
    fn kernel_errors_propagate() {
        let d = cpu_device();
        let out = d.run(
            StreamKind::Compute,
            Kernel {
                name: "bad".into(),
                modeled: Duration::ZERO,
                wait_for: vec![],
                compute: Box::new(|| Err("boom".into())),
                cancel: None,
                collector: None,
            },
        );
        assert_eq!(out.unwrap_err(), "boom");
    }

    #[test]
    fn compute_and_copy_streams_overlap() {
        use crate::stats::{StepStatsCollector, TraceLevel};

        let d = Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40());
        let collector = Arc::new(StepStatsCollector::new(TraceLevel::Full));
        let dc = DeviceCollector::new(collector.register_device(d.name()), collector.clone());
        let t0 = Instant::now();
        let (e1, _) = d.submit(
            StreamKind::Compute,
            Kernel {
                name: "compute".into(),
                modeled: Duration::from_millis(30),
                wait_for: vec![],
                compute: Box::new(|| Ok(vec![])),
                cancel: None,
                collector: Some(dc.clone()),
            },
        );
        let (e2, _) = d.submit(
            StreamKind::D2H,
            Kernel {
                name: "copy".into(),
                modeled: Duration::from_millis(30),
                wait_for: vec![],
                compute: Box::new(|| Ok(vec![])),
                cancel: None,
                collector: Some(dc),
            },
        );
        e1.wait();
        e2.wait();
        let wall = t0.elapsed();
        // Both 30 ms kernels ran concurrently: well under 60 ms total.
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
