//! The simulated device: profile, allocator and the clocks of its three
//! streams.

use crate::clock::{instant_of, kernel_window, stamp_now};
use crate::cost::CostModel;
use crate::memory::TrackingAllocator;
use crate::profile::DeviceProfile;
use crate::stats::{DeviceCollector, KernelStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Index of a device within a run (assigned by the runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

/// Which of a device's three streams (§5.3) a kernel is launched on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// Compute kernels.
    Compute,
    /// Host-to-device copies (swap-in).
    H2D,
    /// Device-to-host copies (swap-out).
    D2H,
}

/// A simulated device.
///
/// Each of its three streams is a *clock*: the executor thread that
/// launches a kernel computes the kernel's value itself, and the launch
/// places the kernel on its stream with [`kernel_window`] and returns its
/// modeled end. No thread stands behind a stream; the ends are stamps the
/// executor waits for only where the host would (`DESIGN.md`, "Stamps").
/// Copies overlap compute because the streams' clocks are independent.
pub struct Device {
    id: DeviceId,
    name: String,
    machine: usize,
    cost: CostModel,
    allocator: TrackingAllocator,
    /// Stamp at which each stream, indexed by [`StreamKind`], finishes what
    /// was launched on it, shared by every run on this device.
    busy_until: [AtomicU64; 3],
    /// Kernel-stats track of each stream: `"<name>/compute"`,
    /// `"<name>/h2d"` and `"<name>/d2h"`.
    tracks: [String; 3],
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
            busy_until: Default::default(),
            tracks: ["compute", "h2d", "d2h"].map(|s| format!("{name}/{s}")),
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

    /// Launches a kernel of `modeled` duration on `stream`, whose inputs
    /// are ready at stamp `ready`, and returns its modeled end. The caller
    /// computes the kernel's value itself: a launch only advances the
    /// stream's clock (one compare-and-swap, however many runs share the
    /// device) and, with a `collector`, records the kernel on the stream's
    /// `<device>/compute|h2d|d2h` track.
    pub fn launch(
        &self,
        stream: StreamKind,
        name: &str,
        ready: u64,
        modeled: Duration,
        collector: Option<&DeviceCollector>,
    ) -> u64 {
        let busy_until = &self.busy_until[stream as usize];
        let now = stamp_now();
        let mut busy = busy_until.load(Ordering::Acquire);
        let (start, end) = loop {
            let (start, end) = kernel_window(now, busy, ready, modeled);
            match busy_until.compare_exchange_weak(busy, end, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break (start, end),
                Err(seen) => busy = seen,
            }
        };
        if let Some(dc) = collector {
            dc.kernel(KernelStats {
                stream: self.tracks[stream as usize].clone(),
                kernel: name.to_owned(),
                start_us: dc.rel_us(instant_of(start)),
                end_us: dc.rel_us(instant_of(end)),
            });
        }
        end
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
    use crate::stats::{StepStatsCollector, TraceLevel};
    use std::time::Instant;

    const MS: u64 = 1_000_000;

    fn traced(device: &Device) -> (Arc<StepStatsCollector>, DeviceCollector) {
        let collector = Arc::new(StepStatsCollector::new(TraceLevel::Full));
        let dc = DeviceCollector::new(collector.register_device(device.name()), collector.clone());
        (collector, dc)
    }

    #[test]
    fn launches_queue_on_the_compute_clock() {
        let d = Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40());
        let ms = Duration::from_millis(5);
        let t0 = stamp_of(Instant::now());
        let e1 = d.launch(StreamKind::Compute, "k1", 0, ms, None);
        let e2 = d.launch(StreamKind::Compute, "k2", 0, ms, None);
        // The second kernel starts where the first ends, however soon the
        // host launches it.
        assert_eq!(e2 - e1, 5 * MS);
        assert!(e1 >= t0 + 5 * MS);
        // An input ready later than the stream delays the kernel to it.
        let ready = e2 + MS;
        assert_eq!(d.launch(StreamKind::Compute, "k3", ready, ms, None), ready + 5 * MS);
    }

    #[test]
    fn copies_run_in_fifo_order_on_their_stream() {
        let d = Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40());
        let (collector, dc) = traced(&d);
        for k in 0..10 {
            d.launch(StreamKind::D2H, &format!("k{k}"), 0, Duration::from_millis(1), Some(&dc));
        }
        let stats = collector.finish();
        let kernels = &stats.devices[0].kernel_stats;
        let names: Vec<&str> = kernels.iter().map(|k| k.kernel.as_str()).collect();
        assert_eq!(names, (0..10).map(|k| format!("k{k}")).collect::<Vec<_>>());
        for pair in kernels.windows(2) {
            assert_eq!(pair[1].start_us, pair[0].end_us, "a copy starts where the last ended");
        }
    }

    #[test]
    fn ready_delays_the_start() {
        // A copy of a value a compute kernel ends 15 ms from now starts
        // then, not when it was launched.
        let d = Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40());
        let ready = stamp_now() + 15 * MS;
        let end = d.launch(StreamKind::D2H, "copy", ready, Duration::from_millis(2), None);
        assert_eq!(end, ready + 2 * MS);
    }

    #[test]
    fn kernels_record_into_their_own_collector() {
        let d = Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40());
        // Two runs interleave on one stream: only the kernel carrying this
        // run's handle is recorded into it.
        let (collector, dc) = traced(&d);
        let (other, odc) = traced(&d);
        d.launch(StreamKind::D2H, "k0", 0, Duration::from_millis(2), Some(&dc));
        d.launch(StreamKind::D2H, "k1", 0, Duration::ZERO, Some(&odc));
        d.launch(StreamKind::D2H, "k2", 0, Duration::ZERO, None);
        let stats = collector.finish();
        let kernels = &stats.devices[0].kernel_stats;
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].kernel, "k0");
        assert_eq!(kernels[0].stream, "/machine:0/k40:0/d2h");
        assert!(kernels[0].end_us - kernels[0].start_us >= 2_000);
        let other_stats = other.finish();
        assert_eq!(other_stats.devices[0].kernel_stats.len(), 1);
        assert_eq!(other_stats.devices[0].kernel_stats[0].kernel, "k1");
    }

    #[test]
    fn compute_and_copy_streams_overlap() {
        let d = Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40());
        let (collector, dc) = traced(&d);
        let ms30 = Duration::from_millis(30);
        let compute = d.launch(StreamKind::Compute, "compute", 0, ms30, Some(&dc));
        let copy = d.launch(StreamKind::D2H, "copy", 0, ms30, Some(&dc));
        // The 30 ms kernel and the 30 ms copy run concurrently.
        assert!(copy.abs_diff(compute) < 25 * MS, "no overlap: {compute} vs {copy}");
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
