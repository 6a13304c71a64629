//! Per-replica serving metrics, threaded from each batched step's
//! `RunMetadata` into lock-free counters plus two fixed-size log-bucket
//! histograms (queue delay, step latency).
//!
//! Counters are atomics and histogram buckets are atomics, so the batcher
//! thread and any number of snapshot readers never contend on a lock; a
//! snapshot is a relaxed read of every cell, which is exactly as
//! consistent as serving dashboards need.
//!
//! Two kinds of cells coexist:
//!
//! * monotone **counters** (submitted, served, batches, …) and the two
//!   histograms — these merge across replicas by addition, which is how
//!   the crate-internal `RawMetrics` builds the aggregated view of a
//!   replicated model (including replicas that have since been evicted
//!   or scaled away);
//! * point-in-time **gauges** (`queued_rows`, `running_rows`) — the
//!   router's load signal. [`ServeMetrics::load`] reads them without a
//!   lock, which is what makes power-of-two-choices dispatch cheap.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets: bucket `i` holds values with
/// `floor(log2(us + 1)) == i`, so 40 buckets span ~18 minutes.
const BUCKETS: usize = 40;

/// Plain (non-atomic) histogram contents: per-bucket counts plus count and
/// sum. Mergeable by addition, so aggregated and *windowed* percentiles
/// (the delta between two snapshots, which drives the scaling policy) both
/// reduce to arithmetic on these.
#[derive(Clone, Debug)]
pub(crate) struct HistData {
    counts: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
}

impl Default for HistData {
    fn default() -> HistData {
        HistData { counts: [0; BUCKETS], count: 0, sum_us: 0 }
    }
}

impl HistData {
    pub(crate) fn merge(&mut self, other: &HistData) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    /// Per-cell `self - earlier`, for windowed percentiles between two
    /// cumulative snapshots. Saturating: a replica evicted mid-window can
    /// make the cumulative total dip below the window start.
    pub(crate) fn since(&self, earlier: &HistData) -> HistData {
        let mut out = HistData::default();
        for (o, (a, b)) in out.counts.iter_mut().zip(self.counts.iter().zip(&earlier.counts)) {
            *o = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum_us = self.sum_us.saturating_sub(earlier.sum_us);
        out
    }

    /// Upper-bound estimate of quantile `q` (0..=1), in milliseconds;
    /// `0.0` when empty. Resolution is the 2× bucket width — enough to
    /// tell a 1 ms queue delay from an 8 ms one, which is what the
    /// batching and scaling policy knobs act on.
    pub(crate) fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_raw(q) as f64 / 1e3
    }

    /// Upper-bound estimate of quantile `q` in the histogram's raw unit
    /// (µs for the latency histograms, rows for the iteration-occupancy
    /// histogram); `0` when empty.
    pub(crate) fn quantile_raw(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.counts.iter().enumerate() {
            seen += b;
            if seen >= target {
                // Upper edge of bucket i: 2^(i+1) - 1 raw units.
                return (1u64 << (i + 1)) - 1;
            }
        }
        (1u64 << BUCKETS) - 1
    }

    fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_us as f64 / self.count as f64 / 1e3
    }
}

/// A fixed-size log₂ histogram of microsecond durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn record_us(&self, us: u64) {
        let b = (64 - (us + 1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    fn data(&self) -> HistData {
        HistData {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// Live counters for one serving replica. All methods are callable from
/// any thread; the replica's batcher is the only writer of batch/step
/// cells.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests admitted into the queue.
    pub submitted: AtomicU64,
    /// Requests rejected at enqueue by signature validation (shape/dtype).
    pub rejected_shape: AtomicU64,
    /// Requests rejected at enqueue by a full queue (backpressure).
    pub rejected_overload: AtomicU64,
    /// Requests whose deadline expired before they reached a batch slot.
    pub expired: AtomicU64,
    /// Requests completed successfully.
    pub served: AtomicU64,
    /// Requests completed with an error from their batched step.
    pub failed: AtomicU64,
    /// Batched steps issued.
    pub batches: AtomicU64,
    /// Total rows across all batched steps.
    pub batched_rows: AtomicU64,
    /// Steps (batches and stream iterations) that a client ran on its own
    /// thread from `Ticket::wait`, instead of the worker thread.
    pub client_steps: AtomicU64,
    /// Batched steps that returned an error.
    pub steps_failed: AtomicU64,
    /// Batched steps that failed with no intervening success — the
    /// replica-health signal. Reset to zero by every successful step;
    /// a replica whose value reaches the scaling policy's threshold is
    /// evicted and replaced.
    pub consecutive_step_failures: AtomicU64,
    /// Transfer retries summed over batched steps' `RunMetadata`.
    pub retries: AtomicU64,
    /// Injected fault events summed over batched steps' `RunMetadata`.
    pub fault_events: AtomicU64,
    /// Gauge: rows currently waiting in the replica's queue.
    pub queued_rows: AtomicU64,
    /// Gauge: rows in the batch the replica is currently running.
    pub running_rows: AtomicU64,
    /// Streams opened (joins) on this replica's continuous batcher.
    pub streams_opened: AtomicU64,
    /// Streams retired: closed and drained, expired, failed, or dropped
    /// at shutdown — every opened stream eventually retires.
    pub streams_retired: AtomicU64,
    /// Stream opens rejected at the live-stream cap.
    pub streams_rejected: AtomicU64,
    /// Streams retired by deadline expiry (a subset of
    /// [`ServeMetrics::streams_retired`]).
    pub streams_expired: AtomicU64,
    /// Stream submissions admitted (each spans one or more rows).
    pub stream_submits: AtomicU64,
    /// Total rows served through continuous-batched iterations.
    pub stream_rows: AtomicU64,
    /// Continuous-batched iterations issued (one `Session::run` each).
    pub stream_iterations: AtomicU64,
    /// Gauge: streams currently live on this replica — the signal stream
    /// routing compares when picking a replica for `open_stream`.
    pub active_streams: AtomicU64,
    queue_delay: Histogram,
    step_latency: Histogram,
    iteration_rows: Histogram,
}

impl ServeMetrics {
    /// Records one request's time from enqueue to batch assembly.
    pub fn record_queue_delay_us(&self, us: u64) {
        self.queue_delay.record_us(us);
    }

    /// Records one batched step's wall latency.
    pub fn record_step_latency_us(&self, us: u64) {
        self.step_latency.record_us(us);
    }

    /// Records one continuous-batched iteration's row count (its batch
    /// occupancy). Same log₂ buckets as the latency histograms, read out
    /// in rows rather than µs.
    pub fn record_iteration_rows(&self, rows: u64) {
        self.iteration_rows.record_us(rows);
    }

    /// The replica's instantaneous load in rows: queued plus mid-step.
    /// Lock-free — this is the signal power-of-two-choices routing
    /// compares per request.
    pub fn load(&self) -> u64 {
        self.queued_rows.load(Ordering::Relaxed) + self.running_rows.load(Ordering::Relaxed)
    }

    /// A plain, mergeable copy of every cell.
    pub(crate) fn raw(&self) -> RawMetrics {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        RawMetrics {
            submitted: ld(&self.submitted),
            rejected_shape: ld(&self.rejected_shape),
            rejected_overload: ld(&self.rejected_overload),
            expired: ld(&self.expired),
            served: ld(&self.served),
            failed: ld(&self.failed),
            batches: ld(&self.batches),
            batched_rows: ld(&self.batched_rows),
            client_steps: ld(&self.client_steps),
            steps_failed: ld(&self.steps_failed),
            retries: ld(&self.retries),
            fault_events: ld(&self.fault_events),
            queued_rows: ld(&self.queued_rows),
            running_rows: ld(&self.running_rows),
            streams_opened: ld(&self.streams_opened),
            streams_retired: ld(&self.streams_retired),
            streams_rejected: ld(&self.streams_rejected),
            streams_expired: ld(&self.streams_expired),
            stream_submits: ld(&self.stream_submits),
            stream_rows: ld(&self.stream_rows),
            stream_iterations: ld(&self.stream_iterations),
            active_streams: ld(&self.active_streams),
            queue_delay: self.queue_delay.data(),
            step_latency: self.step_latency.data(),
            iteration_rows: self.iteration_rows.data(),
        }
    }

    /// A point-in-time copy of every counter, with derived rates. `max
    /// batch size` comes from the model's policy and fixes the occupancy
    /// denominator.
    pub fn snapshot(&self, max_batch_size: usize) -> MetricsSnapshot {
        self.raw().snapshot(max_batch_size)
    }
}

/// Plain mergeable counters: one replica's [`ServeMetrics`] read out, or
/// several replicas' summed. The aggregated view of a replicated model is
/// the merge of every live replica plus the retained totals of replicas
/// that were evicted or scaled away — counters never go backwards when
/// the replica set changes.
#[derive(Clone, Debug, Default)]
pub(crate) struct RawMetrics {
    pub submitted: u64,
    pub rejected_shape: u64,
    pub rejected_overload: u64,
    pub expired: u64,
    pub served: u64,
    pub failed: u64,
    pub batches: u64,
    pub batched_rows: u64,
    pub client_steps: u64,
    pub steps_failed: u64,
    pub retries: u64,
    pub fault_events: u64,
    pub queued_rows: u64,
    pub running_rows: u64,
    pub streams_opened: u64,
    pub streams_retired: u64,
    pub streams_rejected: u64,
    pub streams_expired: u64,
    pub stream_submits: u64,
    pub stream_rows: u64,
    pub stream_iterations: u64,
    pub active_streams: u64,
    pub queue_delay: HistData,
    pub step_latency: HistData,
    pub iteration_rows: HistData,
}

impl RawMetrics {
    pub(crate) fn merge(&mut self, other: &RawMetrics) {
        self.submitted += other.submitted;
        self.rejected_shape += other.rejected_shape;
        self.rejected_overload += other.rejected_overload;
        self.expired += other.expired;
        self.served += other.served;
        self.failed += other.failed;
        self.batches += other.batches;
        self.batched_rows += other.batched_rows;
        self.client_steps += other.client_steps;
        self.steps_failed += other.steps_failed;
        self.retries += other.retries;
        self.fault_events += other.fault_events;
        self.queued_rows += other.queued_rows;
        self.running_rows += other.running_rows;
        self.streams_opened += other.streams_opened;
        self.streams_retired += other.streams_retired;
        self.streams_rejected += other.streams_rejected;
        self.streams_expired += other.streams_expired;
        self.stream_submits += other.stream_submits;
        self.stream_rows += other.stream_rows;
        self.stream_iterations += other.stream_iterations;
        self.active_streams += other.active_streams;
        self.queue_delay.merge(&other.queue_delay);
        self.step_latency.merge(&other.step_latency);
        self.iteration_rows.merge(&other.iteration_rows);
    }

    /// The cumulative queue-delay histogram, for windowed (delta)
    /// percentiles in the scaling control loop.
    pub(crate) fn queue_delay_data(&self) -> &HistData {
        &self.queue_delay
    }

    pub(crate) fn snapshot(&self, max_batch_size: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted,
            rejected_shape: self.rejected_shape,
            rejected_overload: self.rejected_overload,
            expired: self.expired,
            served: self.served,
            failed: self.failed,
            batches: self.batches,
            batched_rows: self.batched_rows,
            client_steps: self.client_steps,
            steps_failed: self.steps_failed,
            retries: self.retries,
            fault_events: self.fault_events,
            queued_rows: self.queued_rows,
            running_rows: self.running_rows,
            mean_batch_rows: if self.batches == 0 {
                0.0
            } else {
                self.batched_rows as f64 / self.batches as f64
            },
            occupancy: if self.batches == 0 || max_batch_size == 0 {
                0.0
            } else {
                self.batched_rows as f64 / (self.batches as f64 * max_batch_size as f64)
            },
            queue_delay_mean_ms: self.queue_delay.mean_ms(),
            queue_delay_p50_ms: self.queue_delay.quantile_ms(0.50),
            queue_delay_p99_ms: self.queue_delay.quantile_ms(0.99),
            step_latency_p50_ms: self.step_latency.quantile_ms(0.50),
            step_latency_p99_ms: self.step_latency.quantile_ms(0.99),
            streams_opened: self.streams_opened,
            streams_retired: self.streams_retired,
            streams_rejected: self.streams_rejected,
            streams_expired: self.streams_expired,
            stream_submits: self.stream_submits,
            stream_rows: self.stream_rows,
            stream_iterations: self.stream_iterations,
            active_streams: self.active_streams,
            mean_iteration_rows: if self.stream_iterations == 0 {
                0.0
            } else {
                self.stream_rows as f64 / self.stream_iterations as f64
            },
            iteration_rows_p50: self.iteration_rows.quantile_raw(0.50),
            iteration_rows_p99: self.iteration_rows.quantile_raw(0.99),
        }
    }
}

/// A point-in-time copy of a replica's — or, merged, a whole model's —
/// [`ServeMetrics`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Enqueue-time signature rejections.
    pub rejected_shape: u64,
    /// Enqueue-time backpressure rejections.
    pub rejected_overload: u64,
    /// Deadline expirations before batching.
    pub expired: u64,
    /// Requests completed successfully.
    pub served: u64,
    /// Requests failed by their batched step.
    pub failed: u64,
    /// Batched steps issued.
    pub batches: u64,
    /// Rows across all batched steps.
    pub batched_rows: u64,
    /// Steps a waiting client ran on its own thread.
    pub client_steps: u64,
    /// Batched steps that errored.
    pub steps_failed: u64,
    /// Transfer retries across batched steps.
    pub retries: u64,
    /// Injected fault events across batched steps.
    pub fault_events: u64,
    /// Gauge at snapshot time: rows waiting in the queue.
    pub queued_rows: u64,
    /// Gauge at snapshot time: rows in currently executing batches.
    pub running_rows: u64,
    /// Average rows per batched step.
    pub mean_batch_rows: f64,
    /// `batched_rows / (batches * max_batch_size)` — how full batches ran.
    pub occupancy: f64,
    /// Mean enqueue→assembly delay, ms.
    pub queue_delay_mean_ms: f64,
    /// Median enqueue→assembly delay, ms.
    pub queue_delay_p50_ms: f64,
    /// 99th-percentile enqueue→assembly delay, ms.
    pub queue_delay_p99_ms: f64,
    /// Median batched-step wall latency, ms.
    pub step_latency_p50_ms: f64,
    /// 99th-percentile batched-step wall latency, ms.
    pub step_latency_p99_ms: f64,
    /// Streams opened (continuous batching joins).
    pub streams_opened: u64,
    /// Streams retired (closed, expired, failed, or dropped at shutdown).
    pub streams_retired: u64,
    /// Stream opens rejected at the live-stream cap.
    pub streams_rejected: u64,
    /// Streams retired by deadline expiry.
    pub streams_expired: u64,
    /// Stream submissions admitted.
    pub stream_submits: u64,
    /// Rows served through continuous-batched iterations.
    pub stream_rows: u64,
    /// Continuous-batched iterations issued.
    pub stream_iterations: u64,
    /// Gauge at snapshot time: live streams.
    pub active_streams: u64,
    /// Average rows per continuous-batched iteration — the occupancy the
    /// continuous batcher sustained as streams joined and retired.
    pub mean_iteration_rows: f64,
    /// Median iteration row count (upper bucket edge, in rows).
    pub iteration_rows_p50: u64,
    /// 99th-percentile iteration row count (upper bucket edge, in rows).
    pub iteration_rows_p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_upper_bounds() {
        let h = Histogram::default();
        for us in [100u64, 200, 400, 800, 100_000] {
            h.record_us(us);
        }
        // The median (3rd of 5) is 400µs, bucket 256..=511: upper edge 511.
        let d = h.data();
        assert!((d.quantile_ms(0.5) - 0.511).abs() < 1e-9, "{}", d.quantile_ms(0.5));
        // p99 falls in the 100ms value's bucket.
        assert!(d.quantile_ms(0.99) >= 100.0);
        assert_eq!(Histogram::default().data().quantile_ms(0.5), 0.0);
        assert!(d.mean_ms() > 0.0);
    }

    #[test]
    fn snapshot_derives_occupancy() {
        let m = ServeMetrics::default();
        m.batches.store(4, Ordering::Relaxed);
        m.batched_rows.store(24, Ordering::Relaxed);
        let s = m.snapshot(8);
        assert!((s.mean_batch_rows - 6.0).abs() < 1e-9);
        assert!((s.occupancy - 0.75).abs() < 1e-9);
        assert_eq!(ServeMetrics::default().snapshot(8).occupancy, 0.0);
    }

    #[test]
    fn raw_metrics_merge_and_window() {
        let a = ServeMetrics::default();
        let b = ServeMetrics::default();
        a.served.store(3, Ordering::Relaxed);
        b.served.store(4, Ordering::Relaxed);
        a.queued_rows.store(2, Ordering::Relaxed);
        b.running_rows.store(5, Ordering::Relaxed);
        a.record_queue_delay_us(100);
        b.record_queue_delay_us(100_000);
        let mut total = a.raw();
        total.merge(&b.raw());
        assert_eq!(total.served, 7);
        assert_eq!((total.queued_rows, total.running_rows), (2, 5));
        let snap = total.snapshot(8);
        assert_eq!(snap.served, 7);
        // Aggregated p99 sees the slow replica's sample.
        assert!(snap.queue_delay_p99_ms >= 100.0);

        // Windowed view: only what happened after the `earlier` snapshot.
        let earlier = total.queue_delay_data().clone();
        b.record_queue_delay_us(200);
        let mut later = a.raw();
        later.merge(&b.raw());
        let window = later.queue_delay_data().since(&earlier);
        assert_eq!(window.count, 1);
        assert!(window.quantile_ms(0.99) < 1.0);
    }

    #[test]
    fn stream_metrics_merge_and_derive_occupancy() {
        let a = ServeMetrics::default();
        let b = ServeMetrics::default();
        a.streams_opened.store(3, Ordering::Relaxed);
        b.streams_opened.store(2, Ordering::Relaxed);
        a.active_streams.store(1, Ordering::Relaxed);
        a.stream_iterations.store(4, Ordering::Relaxed);
        a.stream_rows.store(12, Ordering::Relaxed);
        a.record_iteration_rows(3);
        a.record_iteration_rows(3);
        a.record_iteration_rows(3);
        a.record_iteration_rows(3);
        let mut total = a.raw();
        total.merge(&b.raw());
        let snap = total.snapshot(8);
        assert_eq!(snap.streams_opened, 5);
        assert_eq!(snap.active_streams, 1);
        assert!((snap.mean_iteration_rows - 3.0).abs() < 1e-9);
        // 3 rows falls in the bucket with floor(log2(3+1)) == 2, whose
        // upper edge is 2^3 - 1 = 7.
        assert_eq!(snap.iteration_rows_p50, 7);
        assert_eq!(snap.iteration_rows_p99, 7);
        assert_eq!(ServeMetrics::default().snapshot(8).mean_iteration_rows, 0.0);
    }

    #[test]
    fn load_is_queued_plus_running() {
        let m = ServeMetrics::default();
        assert_eq!(m.load(), 0);
        m.queued_rows.store(3, Ordering::Relaxed);
        m.running_rows.store(4, Ordering::Relaxed);
        assert_eq!(m.load(), 7);
    }
}
