//! Per-run step statistics: the schema ([`StepStats`]) and the lock-cheap
//! collector ([`StepStatsCollector`]) that every execution layer records
//! into.
//!
//! The surface follows TensorFlow's `RunOptions.trace_level` →
//! `RunMetadata.step_stats` design: a session creates one collector per
//! traced run and hands per-device handles ([`DeviceCollector`]) down to
//! executors, copy stream threads, and the network simulator. Collection
//! is sharded per recording thread — a recording thread locks only its own
//! shard, so concurrent workers, stream threads, and rendezvous callbacks
//! never contend on a global lock — and the shards are merged exactly once
//! at run end by [`StepStatsCollector::finish`]. This mirrors the per-frame
//! sharding discipline of the executor (see `DESIGN.md`, "Observability").
//!
//! When tracing is disabled the executor holds no collector at all (an
//! `Option` checked once per node activation), so the hot path pays nothing.

use dcf_sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How much detail a run records, mirroring TensorFlow's
/// `RunOptions.TraceLevel`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// No collection at all; the executor hot path is untouched.
    #[default]
    None,
    /// Software events only: per-node timings, per-frame iteration and
    /// dead-token counts, rendezvous waits.
    Software,
    /// Everything in [`TraceLevel::Software`] plus device-level events:
    /// per-stream kernel timings, allocator high-water marks, and modeled
    /// network transfers.
    Full,
}

impl TraceLevel {
    /// `true` when any collection happens at this level.
    pub fn is_enabled(self) -> bool {
        self != TraceLevel::None
    }
}

/// Timing of one node activation (one node in one frame iteration).
#[derive(Clone, Debug)]
pub struct NodeStats {
    /// Node name.
    pub node: String,
    /// Base tag of the frame activation the node executed in (e.g.
    /// `"root;0/while_frame_12"`); unique per dynamic frame activation.
    pub frame: String,
    /// Iteration within the frame.
    pub iter: u64,
    /// Ordinal of the worker thread that executed the activation (filled in
    /// by the collector; stable per OS thread).
    pub worker: u32,
    /// When the activation was enqueued on the worker pool, µs since the
    /// collector epoch.
    pub scheduled_us: u64,
    /// When a worker started executing it, µs since the collector epoch.
    pub start_us: u64,
    /// When the worker finished the synchronous part, µs since the
    /// collector epoch. For asynchronous ops (device kernels, `Recv`) this
    /// is the dispatch-side span — the op is "done once enqueued" (§4.4).
    pub end_us: u64,
    /// The activation was dead (untaken branch / loop termination wave), as
    /// known at dispatch time.
    pub is_dead: bool,
}

/// Timing of one kernel on one device stream (modeled times for the
/// compute clock, wall times for a copy stream thread).
#[derive(Clone, Debug)]
pub struct KernelStats {
    /// Stream label, e.g. `"/machine:0/k40:0/compute"`.
    pub stream: String,
    /// Kernel name.
    pub kernel: String,
    /// Start, µs since the collector epoch.
    pub start_us: u64,
    /// End, µs since the collector epoch.
    pub end_us: u64,
}

/// Allocator counters of one device at the end of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemStats {
    /// High-water mark of modeled bytes in use.
    pub peak_bytes: u64,
    /// Modeled bytes still in use when the run ended.
    pub in_use_bytes: u64,
    /// Device capacity in bytes.
    pub capacity_bytes: u64,
    /// Successful allocations.
    pub total_allocs: u64,
    /// Failed (OOM) allocations.
    pub failed_allocs: u64,
    /// Over-frees observed (more bytes released than charged): always zero
    /// unless a modeled charge was double-dropped.
    pub over_frees: u64,
}

/// Summary of one completed frame activation (one `while_loop` execution).
#[derive(Clone, Debug)]
pub struct FrameStats {
    /// The activation's base tag (unique per dynamic activation).
    pub frame: String,
    /// Iterations started, including the final iteration whose predicate
    /// came out false (its body runs as a dead wave).
    pub iterations: u64,
    /// Dead node activations completed in this frame — the size of untaken
    /// `cond` branches plus the loop-termination wave.
    pub dead_tokens: u64,
}

/// Which side of a rendezvous a wait was measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RendezvousKind {
    /// Time spent inside `Rendezvous::send` (includes synchronous delivery
    /// to an already-parked receiver).
    Send,
    /// Time from issuing `recv_async` until the value was consumed: its
    /// callback fired and its modeled arrival instant passed.
    Recv,
}

/// One rendezvous send or recv wait.
#[derive(Clone, Debug)]
pub struct RendezvousWait {
    /// Full rendezvous key (includes the dynamic frame/iteration tag).
    pub key: String,
    /// Send- or recv-side measurement.
    pub kind: RendezvousKind,
    /// When the operation was issued, µs since the collector epoch.
    pub start_us: u64,
    /// How long it waited, µs: for a `Recv`, from issue until the value
    /// was consumed, so a modeled transfer still in flight counts as
    /// waiting.
    pub wait_us: u64,
}

/// One modeled cross-device tensor transfer (network simulator).
#[derive(Clone, Debug)]
pub struct TransferStats {
    /// Rendezvous key of the transfer.
    pub key: String,
    /// Modeled payload size in bytes.
    pub bytes: u64,
    /// When the send was issued, µs since the collector epoch.
    pub start_us: u64,
    /// Modeled transfer delay, µs.
    pub delay_us: u64,
}

/// All events recorded for one device during a run.
#[derive(Clone, Debug, Default)]
pub struct DeviceStepStats {
    /// Device name, e.g. `"/machine:0/k40:0"`.
    pub device: String,
    /// Node activations executed by this device's executor.
    pub node_stats: Vec<NodeStats>,
    /// Kernels executed on this device's streams
    /// ([`TraceLevel::Full`] only).
    pub kernel_stats: Vec<KernelStats>,
    /// Completed frame activations on this device's executor.
    pub frames: Vec<FrameStats>,
    /// Rendezvous waits measured on this device's executor.
    pub rendezvous: Vec<RendezvousWait>,
    /// Allocator counters at run end ([`TraceLevel::Full`] only).
    pub memory: Option<MemStats>,
}

/// Per-pass rewrite counters of the session's one-time graph optimization.
///
/// Filled at session construction and copied into every run's metadata:
/// optimization happens once per compiled graph, not per step, so these
/// are compile-time facts about the graph the steps execute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Nodes replaced by constants (constant propagation).
    pub folded: usize,
    /// Duplicate nodes merged by common-subexpression elimination.
    pub cse: usize,
    /// Dead nodes physically removed (and the node table compacted) by
    /// the pruning pass: CSE duplicates and fusion-absorbed members.
    pub pruned: usize,
    /// `Fused` nodes created by elementwise-chain fusion.
    pub fused: usize,
    /// Original elementwise nodes collapsed into those `Fused` nodes.
    pub fused_away: usize,
    /// Wall time of the whole pipeline, µs.
    pub wall_us: u64,
    /// `true` if the session reused a cached compiled graph (the counters
    /// then describe the cached artifact's original optimization).
    pub cache_hit: bool,
    /// Always 0: there is no static memory plan. Kept only because the
    /// frozen benchmark harness reads it.
    pub planned_bytes: u64,
    /// Always 0: there is no static memory plan. Kept only because the
    /// frozen benchmark harness reads it.
    pub aliased_slots: usize,
}

/// The merged statistics of one traced run, returned inside the session's
/// `RunMetadata`.
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    /// Per-device statistics, in cluster device order.
    pub devices: Vec<DeviceStepStats>,
    /// Modeled network transfers (cross-device sends), in issue order.
    pub transfers: Vec<TransferStats>,
    /// The run's `RunOptions` tag (empty when untagged). Carried into the
    /// Chrome-trace export as a track-name suffix so traces of batched
    /// serving steps stay distinguishable when several are merged.
    pub tag: String,
    /// The session's one-time graph-optimization counters, when the
    /// session ran the pipeline (`None` under `OptLevel::None`).
    pub optimization: Option<OptimizeStats>,
}

/// Number of shard buffers. Recording threads hash to a shard by their
/// process-wide thread ordinal; 16 shards keep collisions rare for typical
/// worker counts without bloating the merge.
const SHARDS: usize = 16;

/// Events buffered by one shard before the run-end merge.
#[derive(Debug, Default)]
struct Shard {
    nodes: Vec<(u16, NodeStats)>,
    kernels: Vec<(u16, KernelStats)>,
    frames: Vec<(u16, FrameStats)>,
    rendezvous: Vec<(u16, RendezvousWait)>,
    transfers: Vec<TransferStats>,
}

/// Stable, process-wide ordinal of the calling thread (first use assigns).
fn thread_ordinal() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ORDINAL: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
    }
    ORDINAL.with(|c| {
        if c.get() == u32::MAX {
            c.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

/// Per-run statistics collector.
///
/// Created by the session when `RunOptions.trace_level` is not
/// [`TraceLevel::None`]; recording methods are cheap (one lock on the
/// caller's own shard) and [`StepStatsCollector::finish`] merges the shards
/// into a [`StepStats`] once at run end.
#[derive(Debug)]
pub struct StepStatsCollector {
    level: TraceLevel,
    epoch: Instant,
    devices: Mutex<Vec<String>>,
    memory: Mutex<Vec<(u16, MemStats)>>,
    shards: Vec<Mutex<Shard>>,
}

impl StepStatsCollector {
    /// Creates a collector recording at `level`; the epoch (time zero of
    /// all recorded offsets) is now.
    pub fn new(level: TraceLevel) -> StepStatsCollector {
        StepStatsCollector {
            level,
            epoch: Instant::now(),
            devices: Mutex::new(Vec::new()),
            memory: Mutex::new(Vec::new()),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// The collection level this collector was created with.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Microseconds elapsed since the collector epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Converts an instant into µs since the collector epoch (saturating
    /// at zero for instants before the epoch).
    pub fn rel_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Registers a device, returning the index to tag its events with.
    /// Call once per device, before any recording for it.
    pub fn register_device(&self, name: &str) -> u16 {
        let mut devices = self.devices.lock();
        devices.push(name.to_owned());
        (devices.len() - 1) as u16
    }

    fn shard(&self) -> &Mutex<Shard> {
        &self.shards[thread_ordinal() as usize % SHARDS]
    }

    /// Records one node activation for device `device`. The `worker` field
    /// is filled in with the calling thread's ordinal.
    pub fn record_node(&self, device: u16, mut ns: NodeStats) {
        ns.worker = thread_ordinal();
        self.shard().lock().nodes.push((device, ns));
    }

    /// Records one stream kernel for device `device`.
    pub fn record_kernel(&self, device: u16, ks: KernelStats) {
        self.shard().lock().kernels.push((device, ks));
    }

    /// Records one completed frame activation for device `device`.
    pub fn record_frame(&self, device: u16, fs: FrameStats) {
        self.shard().lock().frames.push((device, fs));
    }

    /// Records one rendezvous wait for device `device`.
    pub fn record_rendezvous(&self, device: u16, w: RendezvousWait) {
        self.shard().lock().rendezvous.push((device, w));
    }

    /// Records one modeled network transfer (not tied to a device).
    pub fn record_transfer(&self, t: TransferStats) {
        self.shard().lock().transfers.push(t);
    }

    /// Records the allocator snapshot of device `device`.
    pub fn record_memory(&self, device: u16, m: MemStats) {
        self.memory.lock().push((device, m));
    }

    /// Merges all shards into the final [`StepStats`]. Terminal: the
    /// collector's buffers are drained; recording after `finish` feeds a
    /// fresh (discarded-at-drop) set of shards.
    pub fn finish(&self) -> StepStats {
        let names = self.devices.lock().clone();
        let mut devices: Vec<DeviceStepStats> = names
            .into_iter()
            .map(|device| DeviceStepStats { device, ..Default::default() })
            .collect();
        let mut transfers = Vec::new();
        for shard in &self.shards {
            let mut s = shard.lock();
            for (d, ns) in s.nodes.drain(..) {
                if let Some(dev) = devices.get_mut(d as usize) {
                    dev.node_stats.push(ns);
                }
            }
            for (d, ks) in s.kernels.drain(..) {
                if let Some(dev) = devices.get_mut(d as usize) {
                    dev.kernel_stats.push(ks);
                }
            }
            for (d, fs) in s.frames.drain(..) {
                if let Some(dev) = devices.get_mut(d as usize) {
                    dev.frames.push(fs);
                }
            }
            for (d, w) in s.rendezvous.drain(..) {
                if let Some(dev) = devices.get_mut(d as usize) {
                    dev.rendezvous.push(w);
                }
            }
            transfers.append(&mut s.transfers);
        }
        for (d, m) in self.memory.lock().drain(..) {
            if let Some(dev) = devices.get_mut(d as usize) {
                dev.memory = Some(m);
            }
        }
        // Deterministic ordering regardless of shard interleaving.
        for dev in &mut devices {
            dev.node_stats.sort_by_key(|n| (n.start_us, n.node.clone()));
            dev.kernel_stats.sort_by_key(|k| (k.start_us, k.stream.clone()));
            dev.frames.sort_by_key(|f| f.frame.clone());
            dev.rendezvous.sort_by_key(|w| (w.start_us, w.key.clone()));
        }
        transfers.sort_by_key(|t| (t.start_us, t.key.clone()));
        StepStats { devices, transfers, tag: String::new(), optimization: None }
    }
}

/// A per-device recording handle: a [`StepStatsCollector`] bound to one
/// registered device index. This is what the session hands down to each
/// executor and copy stream thread.
#[derive(Clone, Debug)]
pub struct DeviceCollector {
    device: u16,
    collector: Arc<StepStatsCollector>,
}

impl DeviceCollector {
    /// Binds `collector` to registered device index `device`.
    pub fn new(device: u16, collector: Arc<StepStatsCollector>) -> DeviceCollector {
        DeviceCollector { device, collector }
    }

    /// The bound device index.
    pub fn device(&self) -> u16 {
        self.device
    }

    /// The underlying collector.
    pub fn collector(&self) -> &Arc<StepStatsCollector> {
        &self.collector
    }

    /// Microseconds since the collector epoch.
    pub fn now_us(&self) -> u64 {
        self.collector.now_us()
    }

    /// Converts an instant into µs since the collector epoch.
    pub fn rel_us(&self, t: Instant) -> u64 {
        self.collector.rel_us(t)
    }

    /// Records one node activation.
    pub fn node(&self, ns: NodeStats) {
        self.collector.record_node(self.device, ns);
    }

    /// Records one stream kernel.
    pub fn kernel(&self, ks: KernelStats) {
        self.collector.record_kernel(self.device, ks);
    }

    /// Records one completed frame activation.
    pub fn frame(&self, fs: FrameStats) {
        self.collector.record_frame(self.device, fs);
    }

    /// Records one rendezvous wait.
    pub fn rendezvous(&self, w: RendezvousWait) {
        self.collector.record_rendezvous(self.device, w);
    }
}

// ---------------------------------------------------------------------
// Aggregations over kernel events
// ---------------------------------------------------------------------

fn merge_busy(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn overlap_us(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let mut total = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e > s {
            total += e - s;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

impl StepStats {
    /// All kernel events across devices.
    fn kernels(&self) -> impl Iterator<Item = &KernelStats> {
        self.devices.iter().flat_map(|d| d.kernel_stats.iter())
    }

    fn stream_intervals(&self, stream: &str) -> Vec<(u64, u64)> {
        self.kernels().filter(|k| k.stream == stream).map(|k| (k.start_us, k.end_us)).collect()
    }

    /// Total busy microseconds per stream (kernel events).
    pub fn busy_per_stream(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        for k in self.kernels() {
            *map.entry(k.stream.clone()).or_insert(0) += k.end_us - k.start_us;
        }
        map
    }

    /// Fraction of stream `a`'s busy time that overlaps stream `b`'s busy
    /// time — the §5.3 compute/copy-overlap measurement.
    pub fn overlap_fraction(&self, a: &str, b: &str) -> f64 {
        let ia = merge_busy(self.stream_intervals(a));
        let busy_a: u64 = ia.iter().map(|(s, e)| e - s).sum();
        if busy_a == 0 {
            return 0.0;
        }
        let ib = merge_busy(self.stream_intervals(b));
        overlap_us(&ia, &ib) as f64 / busy_a as f64
    }

    /// Renders an ASCII timeline of the kernel events, one row per stream,
    /// `width` columns.
    pub fn ascii_timeline(&self, width: usize) -> String {
        let events: Vec<&KernelStats> = self.kernels().collect();
        if events.is_empty() {
            return String::from("(no events)\n");
        }
        let t_min = events.iter().map(|e| e.start_us).min().unwrap_or(0);
        let t_max = events.iter().map(|e| e.end_us).max().unwrap_or(1).max(t_min + 1);
        let span = (t_max - t_min) as f64;
        let mut streams: Vec<&str> = events.iter().map(|e| e.stream.as_str()).collect();
        streams.sort_unstable();
        streams.dedup();
        let mut out = String::new();
        for s in &streams {
            let mut row = vec![b'.'; width];
            for e in events.iter().filter(|e| e.stream == *s) {
                let a = (((e.start_us - t_min) as f64 / span) * width as f64) as usize;
                let b = (((e.end_us - t_min) as f64 / span) * width as f64).ceil() as usize;
                for c in row.iter_mut().take(b.min(width)).skip(a.min(width.saturating_sub(1))) {
                    *c = b'#';
                }
            }
            out.push_str(&format!("{:<24} {}\n", s, String::from_utf8_lossy(&row)));
        }
        out
    }

    /// Renders an aggregated text report: top-`top_n` nodes by self time,
    /// per-stream busy time and fraction, pairwise copy/compute overlap,
    /// frame iteration and dead-token counts, rendezvous waits, memory
    /// high-water marks, and network transfers.
    pub fn summary_report(&self, top_n: usize) -> String {
        let mut out = String::new();
        if let Some(o) = &self.optimization {
            out.push_str(&format!(
                "graph optimization: {} folded, {} CSE'd, {} pruned, {} fused ({} nodes \
                 collapsed), {} us{}\n",
                o.folded,
                o.cse,
                o.pruned,
                o.fused,
                o.fused_away,
                o.wall_us,
                if o.cache_hit { " (cached compile)" } else { "" }
            ));
        }
        for dev in &self.devices {
            out.push_str(&format!("== {} ==\n", dev.device));

            // Top nodes by total self (dispatch-side) time.
            let mut per_node: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
            for n in &dev.node_stats {
                let e = per_node.entry(n.node.as_str()).or_insert((0, 0));
                e.0 += n.end_us - n.start_us;
                e.1 += 1;
            }
            let mut ranked: Vec<(&str, u64, u64)> =
                per_node.into_iter().map(|(name, (us, cnt))| (name, us, cnt)).collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            if !ranked.is_empty() {
                out.push_str(&format!("top {} nodes by self time:\n", top_n.min(ranked.len())));
                for (name, us, cnt) in ranked.iter().take(top_n) {
                    out.push_str(&format!("  {name:<32} {us:>10} us  ({cnt} activations)\n"));
                }
            }

            // Per-stream busy and overlap (this device's streams only).
            let span_us = dev
                .kernel_stats
                .iter()
                .map(|k| k.end_us)
                .max()
                .unwrap_or(0)
                .saturating_sub(dev.kernel_stats.iter().map(|k| k.start_us).min().unwrap_or(0));
            let mut streams: Vec<&str> =
                dev.kernel_stats.iter().map(|k| k.stream.as_str()).collect();
            streams.sort_unstable();
            streams.dedup();
            for s in &streams {
                let busy: u64 = dev
                    .kernel_stats
                    .iter()
                    .filter(|k| k.stream == *s)
                    .map(|k| k.end_us - k.start_us)
                    .sum();
                let pct = if span_us > 0 { 100.0 * busy as f64 / span_us as f64 } else { 0.0 };
                out.push_str(&format!("stream {s:<32} busy {busy:>10} us ({pct:5.1}%)\n"));
            }
            let compute = streams.iter().find(|s| s.ends_with("/compute")).copied();
            if let Some(c) = compute {
                for s in streams.iter().filter(|s| **s != c) {
                    out.push_str(&format!(
                        "overlap({s}, compute) = {:.3}\n",
                        self.overlap_fraction(s, c)
                    ));
                }
            }

            // Frames.
            for f in &dev.frames {
                out.push_str(&format!(
                    "frame {:<40} iterations {:>6}  dead tokens {:>6}\n",
                    f.frame, f.iterations, f.dead_tokens
                ));
            }

            // Rendezvous waits.
            if !dev.rendezvous.is_empty() {
                let (mut sends, mut recvs, mut send_us, mut recv_us, mut max_us) =
                    (0u64, 0u64, 0u64, 0u64, 0u64);
                for w in &dev.rendezvous {
                    match w.kind {
                        RendezvousKind::Send => {
                            sends += 1;
                            send_us += w.wait_us;
                        }
                        RendezvousKind::Recv => {
                            recvs += 1;
                            recv_us += w.wait_us;
                        }
                    }
                    max_us = max_us.max(w.wait_us);
                }
                out.push_str(&format!(
                    "rendezvous: {sends} sends ({send_us} us), {recvs} recvs ({recv_us} us), max wait {max_us} us\n"
                ));
            }

            if let Some(m) = &dev.memory {
                out.push_str(&format!(
                    "memory: peak {} B / {} B capacity, {} allocs ({} failed, {} over-frees)\n",
                    m.peak_bytes, m.capacity_bytes, m.total_allocs, m.failed_allocs, m.over_frees
                ));
            }
        }
        if !self.transfers.is_empty() {
            let bytes: u64 = self.transfers.iter().map(|t| t.bytes).sum();
            let delay: u64 = self.transfers.iter().map(|t| t.delay_us).sum();
            out.push_str(&format!(
                "network: {} transfers, {} B, {} us total modeled delay\n",
                self.transfers.len(),
                bytes,
                delay
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, start: u64, end: u64, dead: bool) -> NodeStats {
        NodeStats {
            node: name.into(),
            frame: "root".into(),
            iter: 0,
            worker: 0,
            scheduled_us: start,
            start_us: start,
            end_us: end,
            is_dead: dead,
        }
    }

    fn kernel(stream: &str, start: u64, end: u64) -> KernelStats {
        KernelStats { stream: stream.into(), kernel: "k".into(), start_us: start, end_us: end }
    }

    #[test]
    fn finish_merges_by_device() {
        let c = StepStatsCollector::new(TraceLevel::Full);
        let d0 = c.register_device("/machine:0/cpu:0");
        let d1 = c.register_device("/machine:0/k40:1");
        c.record_node(d0, node("a", 0, 5, false));
        c.record_node(d1, node("b", 1, 2, true));
        c.record_kernel(d1, kernel("/machine:0/k40:1/compute", 0, 10));
        c.record_frame(d0, FrameStats { frame: "root".into(), iterations: 1, dead_tokens: 0 });
        c.record_memory(d1, MemStats { peak_bytes: 7, ..Default::default() });
        let stats = c.finish();
        assert_eq!(stats.devices.len(), 2);
        assert_eq!(stats.devices[0].device, "/machine:0/cpu:0");
        assert_eq!(stats.devices[0].node_stats.len(), 1);
        assert_eq!(stats.devices[1].node_stats[0].node, "b");
        assert!(stats.devices[1].node_stats[0].is_dead);
        assert_eq!(stats.devices[1].kernel_stats.len(), 1);
        assert_eq!(stats.devices[0].frames[0].iterations, 1);
        assert_eq!(stats.devices[1].memory.unwrap().peak_bytes, 7);
        assert!(stats.devices[0].memory.is_none());
    }

    #[test]
    fn busy_and_overlap() {
        let c = StepStatsCollector::new(TraceLevel::Full);
        let d = c.register_device("dev");
        c.record_kernel(d, kernel("a", 0, 10_000));
        c.record_kernel(d, kernel("a", 20_000, 25_000));
        c.record_kernel(d, kernel("b", 5_000, 15_000));
        let stats = c.finish();
        let busy = stats.busy_per_stream();
        assert_eq!(busy["a"], 15_000);
        assert_eq!(busy["b"], 10_000);
        // a busy 15 ms, 5 ms of it overlapping b.
        assert!((stats.overlap_fraction("a", "b") - 5_000.0 / 15_000.0).abs() < 1e-9);
        assert_eq!(stats.overlap_fraction("missing", "b"), 0.0);
    }

    #[test]
    fn merged_intervals_do_not_double_count() {
        let c = StepStatsCollector::new(TraceLevel::Full);
        let d = c.register_device("dev");
        // Two overlapping events on `a` must merge before comparing to b.
        c.record_kernel(d, kernel("a", 0, 10));
        c.record_kernel(d, kernel("a", 5, 15));
        c.record_kernel(d, kernel("b", 0, 15));
        let stats = c.finish();
        assert!((stats.overlap_fraction("a", "b") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn report_and_timeline_render() {
        let c = StepStatsCollector::new(TraceLevel::Full);
        let d = c.register_device("/machine:0/k40:0");
        c.record_node(d, node("MatMul_1", 0, 50, false));
        c.record_kernel(d, kernel("/machine:0/k40:0/compute", 0, 50));
        c.record_kernel(d, kernel("/machine:0/k40:0/d2h", 25, 75));
        c.record_frame(d, FrameStats { frame: "root".into(), iterations: 1, dead_tokens: 2 });
        c.record_rendezvous(
            d,
            RendezvousWait {
                key: "m0>m1/x".into(),
                kind: RendezvousKind::Recv,
                start_us: 0,
                wait_us: 42,
            },
        );
        c.record_transfer(TransferStats {
            key: "m0>m1/x".into(),
            bytes: 1024,
            start_us: 0,
            delay_us: 10,
        });
        let stats = c.finish();
        let report = stats.summary_report(5);
        assert!(report.contains("MatMul_1"));
        assert!(report.contains("dead tokens"));
        assert!(report.contains("network: 1 transfers"));
        let art = stats.ascii_timeline(40);
        assert!(art.contains("compute"));
        assert!(art.contains('#'));
        assert_eq!(StepStats::default().ascii_timeline(10), "(no events)\n");
    }

    #[test]
    fn worker_ordinal_is_stable_and_threads_differ() {
        let a = thread_ordinal();
        assert_eq!(a, thread_ordinal());
        let b = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn trace_level_ordering() {
        assert!(!TraceLevel::None.is_enabled());
        assert!(TraceLevel::Software.is_enabled());
        assert!(TraceLevel::Full > TraceLevel::Software);
        assert_eq!(TraceLevel::default(), TraceLevel::None);
    }
}
