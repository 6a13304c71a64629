//! Simulated network: modeled transfer times stamped on rendezvous values,
//! retry/backoff, and (feature-gated) deterministic fault injection.

use crate::fault::{FaultLog, FaultPlan, RetryPolicy};
use dcf_device::{StepStatsCollector, TransferStats};
use dcf_exec::{ExecError, InMemoryRendezvous, RecvCallback, Rendezvous, StepId, Token};
use dcf_sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(feature = "faultinject")]
use crate::fault::FaultKind;

/// Latency/bandwidth model for tensor transfers.
///
/// The paper's cluster connects machines "by Ethernet across a production
/// networking fabric"; within a machine, GPUs communicate over PCIe. Both
/// are modeled as a fixed latency plus a bandwidth term over the *modeled*
/// tensor size (dimensions scaled by `shape_scale`, matching the devices).
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// One-way latency between machines.
    pub cross_latency: Duration,
    /// Cross-machine bandwidth, bytes/s.
    pub cross_bandwidth: f64,
    /// One-way latency between devices of one machine (PCIe hop).
    pub intra_latency: Duration,
    /// Intra-machine bandwidth, bytes/s.
    pub intra_bandwidth: f64,
    /// Dimension scale used when modeling payload size (keep equal to the
    /// devices' `shape_scale`).
    pub shape_scale: usize,
    /// Global multiplier on modeled delays (0.0 disables delays).
    pub time_scale: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            cross_latency: Duration::from_micros(25),
            cross_bandwidth: 1.25e9, // 10 Gb/s Ethernet
            intra_latency: Duration::from_micros(8),
            intra_bandwidth: 1.2e10, // PCIe 3 x16
            shape_scale: 1,
            time_scale: 1.0,
        }
    }
}

impl NetworkModel {
    /// A model with all delays disabled (functional tests).
    pub fn disabled() -> NetworkModel {
        NetworkModel { time_scale: 0.0, ..Default::default() }
    }

    /// Modeled on-the-wire size of `token` in bytes: a header-only message
    /// for dead signals, otherwise the shape-scaled payload size (matching
    /// the device cost model, which scales only the trailing two feature
    /// dimensions).
    pub fn modeled_bytes(&self, token: &Token) -> f64 {
        if token.is_dead {
            // A dead signal is a header-only message.
            return 16.0;
        }
        let s = self.shape_scale as f64;
        let dims = token.value.shape().dims();
        let rank = dims.len();
        let scaled: f64 = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| if i + 2 >= rank { d as f64 * s } else { d as f64 })
            .product::<f64>()
            .max(1.0);
        scaled * token.value.dtype().size_of() as f64
    }

    /// Modeled transfer time of `token` between `src` and `dst` machines.
    pub fn delay(&self, src_machine: usize, dst_machine: usize, token: &Token) -> Duration {
        if self.time_scale == 0.0 {
            return Duration::ZERO;
        }
        let (lat, bw) = if src_machine == dst_machine {
            (self.intra_latency, self.intra_bandwidth)
        } else {
            (self.cross_latency, self.cross_bandwidth)
        };
        let secs = (lat.as_secs_f64() + self.modeled_bytes(token) / bw) * self.time_scale;
        Duration::from_secs_f64(secs)
    }
}

/// Per-run transport context: how the run's transfers retry, what faults
/// they suffer, where retries/faults are logged, and (for traced runs)
/// where modeled transfers are recorded. Keyed by step id so concurrent
/// runs never observe each other's policies or stats.
struct RunCtx {
    retry: RetryPolicy,
    #[cfg_attr(not(feature = "faultinject"), allow(dead_code))]
    plan: Option<FaultPlan>,
    log: Arc<FaultLog>,
    collector: Option<Arc<StepStatsCollector>>,
}

/// Outcome of a transfer's delivery attempts, computed synchronously at
/// send time (the plan is deterministic, so the full attempt sequence is
/// known up front).
struct Fate {
    /// Modeled time until the value (or failure) reaches the receiver.
    total: Duration,
    /// Attempts made (1 + retries).
    attempts: u32,
    /// If set, a duplicate delivery is scheduled this long after `total`.
    duplicate_after: Option<Duration>,
    /// `None` to deliver the token; `Some(err)` if the retry budget or the
    /// per-transfer deadline ran out.
    error: Option<ExecError>,
}

impl Fate {
    fn clean(total: Duration) -> Fate {
        Fate { total, attempts: 1, duplicate_after: None, error: None }
    }
}

/// A rendezvous that injects modeled network delay — and, under the
/// `faultinject` feature, seeded faults with retry/backoff recovery — into
/// `send`.
///
/// Keys produced by the partitioner carry a `m{src}>m{dst}/` prefix naming
/// the endpoint machines. A transfer's whole fate is decided when it is
/// sent, so it is published into the underlying in-memory table at once,
/// stamped with the instant it arrives; the receiver waits out the modeled
/// transfer itself (the executor's driving thread does). No thread keeps a
/// clock here. Entries are step-scoped: [`Rendezvous::drop_step`] reclaims
/// a run's table entries, in-flight transfers included, so an aborted run
/// leaves the network verifiably quiescent.
pub struct NetworkRendezvous {
    inner: InMemoryRendezvous,
    model: NetworkModel,
    /// Per-run transport contexts, installed by the session around a run.
    /// The key set doubles as the set of in-flight steps for
    /// [`NetworkRendezvous::quiescent`].
    runs: Mutex<HashMap<StepId, RunCtx>>,
}

impl NetworkRendezvous {
    /// Creates a rendezvous with the given network model.
    pub fn new(model: NetworkModel) -> Arc<NetworkRendezvous> {
        Arc::new(NetworkRendezvous {
            inner: InMemoryRendezvous::new(),
            model,
            runs: Mutex::new(HashMap::new()),
        })
    }

    /// Installs the transport context for `step`: its retry policy,
    /// (optionally) a fault plan, and (optionally, for traced runs) the
    /// step-stats collector its transfers are recorded into. Call before
    /// the run's executors start.
    pub fn begin_run(
        &self,
        step: StepId,
        retry: RetryPolicy,
        plan: Option<FaultPlan>,
        collector: Option<Arc<StepStatsCollector>>,
    ) {
        self.runs
            .lock()
            .insert(step, RunCtx { retry, plan, log: Arc::new(FaultLog::default()), collector });
    }

    /// Removes the transport context for `step`, returning the retries
    /// performed and the faults injected over the run.
    pub fn end_run(&self, step: StepId) -> (u64, Vec<crate::fault::FaultEvent>) {
        match self.runs.lock().remove(&step) {
            Some(ctx) => ctx.log.snapshot(),
            None => (0, Vec::new()),
        }
    }

    /// Clears rendezvous state between unrelated runs (prefer
    /// [`Rendezvous::drop_step`] for per-run teardown).
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// `true` when no *leaked* state is live: every rendezvous entry (a
    /// value, arrived or in flight, or a blocked receiver) belongs to a
    /// step whose run is still active (between `begin_run` and `end_run`).
    /// An ended or never-begun step with live state is a teardown leak and
    /// reports non-quiescence; a concurrent step mid-flight does not.
    pub fn quiescent(&self) -> bool {
        let active: std::collections::HashSet<StepId> = self.runs.lock().keys().copied().collect();
        self.inner.steps_with_entries().iter().all(|s| active.contains(s))
    }

    /// `true` when `step` has no live rendezvous entry, in flight or not —
    /// the post-run/abort invariant the session asserts for one finished
    /// step, regardless of other concurrent steps.
    pub fn quiescent_step(&self, step: StepId) -> bool {
        self.inner.live_entries_for(step) == 0
    }

    /// Live rendezvous-table entries across all steps (diagnostics).
    pub fn live_entries(&self) -> usize {
        self.inner.live_entries()
    }

    /// Receivers blocked on values that have not arrived (diagnostics).
    pub fn pending_waiters(&self) -> usize {
        self.inner.pending_waiters()
    }

    fn parse_machines(key: &str) -> Option<(usize, usize)> {
        // Format: "m{a}>m{b}/...".
        let rest = key.strip_prefix('m')?;
        let (a, rest) = rest.split_once(">m")?;
        let (b, _) = rest.split_once('/')?;
        Some((a.parse().ok()?, b.parse().ok()?))
    }

    /// Decides the transfer's outcome: with a fault plan installed (and the
    /// `faultinject` feature on), walks the deterministic attempt sequence
    /// accumulating backoffs and injected delays; otherwise a clean
    /// delivery after the base network delay, still subject to the
    /// policy's per-transfer deadline. Also returns the owning step's
    /// collector (resolved under the same lock) so the transfer is
    /// recorded into exactly its own run's stats.
    fn decide_fate(
        &self,
        step: StepId,
        key: &str,
        src_machine: usize,
        base: Duration,
    ) -> (Fate, Option<Arc<StepStatsCollector>>) {
        let runs = self.runs.lock();
        let Some(ctx) = runs.get(&step) else {
            let _ = src_machine;
            return (Fate::clean(base), None);
        };
        let collector = ctx.collector.clone();
        let retry = ctx.retry;
        let mut fate = Fate::clean(base);

        #[cfg(feature = "faultinject")]
        if let Some(plan) = &ctx.plan {
            fate = Self::faulted_fate(plan, &ctx.log, &retry, key, src_machine, base);
        }

        if fate.error.is_none() {
            if let Some(deadline) = retry.transfer_deadline {
                if fate.total > deadline {
                    fate.error = Some(ExecError::TransferFailed {
                        key: key.to_string(),
                        attempts: fate.attempts,
                    });
                }
            }
        }
        (fate, collector)
    }

    /// Walks the attempt sequence under `plan`. Each attempt rolls drop /
    /// delay / duplicate / reorder independently; a dropped attempt costs
    /// its network delay plus the next backoff and is retried until the
    /// budget or the per-transfer deadline runs out.
    #[cfg(feature = "faultinject")]
    fn faulted_fate(
        plan: &FaultPlan,
        log: &FaultLog,
        retry: &RetryPolicy,
        key: &str,
        src_machine: usize,
        base: Duration,
    ) -> Fate {
        let max_attempts = 1 + retry.max_retries;
        let mut total = Duration::ZERO;

        // One-shot worker stall on the first transfer leaving the stalled
        // machine.
        if let Some(stall) = plan.stall {
            if stall.machine == src_machine && log.take_stall() {
                total += stall.delay;
                log.record(FaultKind::Stall, key, 1);
            }
        }

        for attempt in 1..=max_attempts {
            if attempt > 1 {
                total += retry.backoff(attempt - 1);
                log.add_retries(1);
            }
            total += base;
            if let Some(deadline) = retry.transfer_deadline {
                if total > deadline {
                    return Fate {
                        total,
                        attempts: attempt,
                        duplicate_after: None,
                        error: Some(ExecError::TransferFailed {
                            key: key.to_string(),
                            attempts: attempt,
                        }),
                    };
                }
            }
            if plan.roll(0, key, attempt) < plan.drop {
                log.record(FaultKind::Drop, key, attempt);
                continue;
            }
            // Delivered. Roll the non-fatal faults.
            let mut duplicate_after = None;
            if plan.roll(1, key, attempt) < plan.delay {
                let extra = plan.max_extra_delay.mul_f64(plan.roll(5, key, attempt));
                total += extra;
                log.record(FaultKind::Delay, key, attempt);
            }
            if plan.roll(3, key, attempt) < plan.reorder {
                // Hold the transfer long enough for later sends to overtake.
                total += base * 2 + plan.max_extra_delay;
                log.record(FaultKind::Reorder, key, attempt);
            }
            if plan.roll(2, key, attempt) < plan.duplicate {
                duplicate_after = Some(base.max(Duration::from_micros(50)));
                log.record(FaultKind::Duplicate, key, attempt);
            }
            return Fate { total, attempts: attempt, duplicate_after, error: None };
        }
        Fate {
            total,
            attempts: max_attempts,
            duplicate_after: None,
            error: Some(ExecError::TransferFailed { key: key.to_string(), attempts: max_attempts }),
        }
    }
}

impl Rendezvous for NetworkRendezvous {
    fn send(&self, step: StepId, key: String, token: Token) {
        let machines = Self::parse_machines(&key);
        let base = match machines {
            Some((a, b)) => self.model.delay(a, b, &token),
            None => Duration::ZERO,
        };
        let (fate, collector) = match machines {
            Some((src, _)) => self.decide_fate(step, &key, src, base),
            // Same-device (unprefixed) edges bypass the network model and
            // the fault plan entirely.
            None => (Fate::clean(Duration::ZERO), None),
        };
        if let Some(c) = collector {
            c.record_transfer(TransferStats {
                key: key.clone(),
                bytes: self.model.modeled_bytes(&token) as u64,
                start_us: c.now_us(),
                delay_us: fate.total.as_micros() as u64,
            });
        }
        // Stall, backoff, delay and reorder are only a later arrival; a
        // failed fate arrives as its error.
        let due = Instant::now() + fate.total;
        if let Some(err) = fate.error {
            self.inner.publish(step, key, Err(err), due);
            return;
        }
        let duplicate = fate.duplicate_after.map(|extra| (key.clone(), token.clone(), due + extra));
        self.inner.publish(step, key, Ok(token), due);
        if let Some((key, token, at)) = duplicate {
            // Published after the original, so the table's keep-first rule
            // absorbs it (and drop_step reclaims it if the original was
            // already consumed).
            self.inner.publish(step, key, Ok(token), at);
        }
    }

    fn send_error(&self, step: StepId, key: String, err: ExecError) {
        self.inner.send_error(step, key, err);
    }

    fn recv_async(&self, step: StepId, key: String, callback: RecvCallback) {
        self.inner.recv_async(step, key, callback);
    }

    fn drop_step(&self, step: StepId, err: ExecError) {
        self.inner.drop_step(step, err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_exec::RecvResult;
    use dcf_tensor::Tensor;
    use std::thread;

    type Received = Arc<Mutex<Option<(RecvResult, Instant)>>>;

    /// Registers a receiver for `key` that keeps what it is handed: the
    /// result and its arrival instant.
    fn receiver(r: &NetworkRendezvous, step: StepId, key: &str) -> Received {
        let got = Arc::new(Mutex::new(None));
        let g = got.clone();
        r.recv_async(step, key.into(), Box::new(move |res, at| *g.lock() = Some((res, at))));
        got
    }

    /// What `got` was handed; a receiver registered before the send is
    /// handed the transfer at send time, whatever its arrival instant.
    fn handed(got: &Received) -> (RecvResult, Instant) {
        got.lock().take().expect("a waiting receiver is handed the transfer when it is sent")
    }

    #[test]
    fn key_parsing() {
        assert_eq!(NetworkRendezvous::parse_machines("m3>m17/d1>d2/x"), Some((3, 17)));
        assert_eq!(NetworkRendezvous::parse_machines("nokey"), None);
    }

    #[test]
    fn delay_model_shapes() {
        let m = NetworkModel { shape_scale: 32, ..Default::default() };
        let small = Token::live(Tensor::scalar_f32(1.0));
        let big = Token::live(Tensor::ones(&[32, 32]));
        assert!(m.delay(0, 1, &big) > m.delay(0, 1, &small));
        assert!(m.delay(0, 1, &small) >= m.cross_latency);
        assert!(m.delay(0, 0, &small) < m.delay(0, 1, &small));
        let dead = Token::dead();
        assert!(m.delay(0, 1, &dead) < m.delay(0, 1, &big));
        assert_eq!(NetworkModel::disabled().delay(0, 1, &big), Duration::ZERO);
    }

    #[test]
    fn delayed_delivery_happens() {
        let latency = Duration::from_millis(20);
        let r =
            NetworkRendezvous::new(NetworkModel { cross_latency: latency, ..Default::default() });
        let got = receiver(&r, 0, "m0>m1/x");
        let t0 = Instant::now();
        r.send(0, "m0>m1/x".into(), Token::live(Tensor::scalar_f32(1.0)));
        let (res, at) = handed(&got);
        assert!(res.is_ok());
        assert!(at >= t0 + latency, "arrives one modeled latency after the send");
        assert!(r.quiescent());
    }

    #[test]
    fn unprefixed_keys_deliver_immediately() {
        let r = NetworkRendezvous::new(NetworkModel::default());
        let got = receiver(&r, 0, "plain");
        r.send(0, "plain".into(), Token::dead());
        let (res, at) = handed(&got);
        assert!(res.is_ok());
        assert!(at <= Instant::now(), "an unprefixed edge has no modeled transfer");
    }

    #[test]
    fn drop_step_purges_in_flight_transfers() {
        let model =
            NetworkModel { cross_latency: Duration::from_millis(50), ..NetworkModel::default() };
        let r = NetworkRendezvous::new(model);
        r.send(7, "m0>m1/x".into(), Token::live(Tensor::scalar_f32(1.0)));
        assert!(!r.quiescent(), "transfer is in flight");
        r.drop_step(7, ExecError::Cancelled("abort".into()));
        assert!(r.quiescent(), "drop_step reclaimed the in-flight transfer");
        // Nothing lands later either.
        thread::sleep(Duration::from_millis(70));
        assert_eq!(r.live_entries(), 0);
    }

    #[test]
    fn quiescent_ignores_active_steps_but_not_leaks() {
        let model =
            NetworkModel { cross_latency: Duration::from_millis(50), ..NetworkModel::default() };
        let r = NetworkRendezvous::new(model);
        r.begin_run(11, RetryPolicy::default(), None, None);
        r.send(11, "m0>m1/x".into(), Token::live(Tensor::scalar_f32(1.0)));
        assert!(!r.quiescent_step(11), "step 11 has live transfer state");
        assert!(r.quiescent(), "an active step mid-flight is not a leak");
        r.end_run(11);
        assert!(!r.quiescent(), "an ended step with live state is a leak");
        r.drop_step(11, ExecError::Cancelled("cleanup".into()));
        assert!(r.quiescent());
        assert!(r.quiescent_step(11));
    }

    #[test]
    fn transfer_deadline_fails_structurally() {
        let latency = Duration::from_millis(20);
        let r =
            NetworkRendezvous::new(NetworkModel { cross_latency: latency, ..Default::default() });
        let retry = RetryPolicy {
            transfer_deadline: Some(Duration::from_millis(1)),
            ..RetryPolicy::default()
        };
        r.begin_run(9, retry, None, None);
        let got = receiver(&r, 9, "m0>m1/slow");
        let t0 = Instant::now();
        r.send(9, "m0>m1/slow".into(), Token::live(Tensor::scalar_f32(1.0)));
        let (res, at) = handed(&got);
        assert!(matches!(res, Err(ExecError::TransferFailed { .. })), "got {res:?}");
        assert!(at >= t0 + latency, "the failure arrives when the transfer would have");
        r.end_run(9);
    }

    #[cfg(feature = "faultinject")]
    #[test]
    fn dropped_transfers_retry_and_deliver() {
        let r = NetworkRendezvous::new(NetworkModel::disabled());
        // Heavy drop probability, generous retry budget: every transfer
        // still gets through, with retries logged.
        let plan = FaultPlan::seeded(7).with_drop(0.6);
        let retry = RetryPolicy { max_retries: 16, ..RetryPolicy::default() };
        r.begin_run(1, retry, Some(plan), None);
        let mut delivered = 0;
        for i in 0..32 {
            let key = format!("m0>m1/k{i}");
            let got = receiver(&r, 1, &key);
            r.send(1, key, Token::live(Tensor::scalar_f32(i as f32)));
            let (res, _) = handed(&got);
            assert!(res.is_ok(), "k{i} never delivered");
            delivered += 1;
        }
        let (retries, events) = r.end_run(1);
        assert_eq!(delivered, 32);
        assert!(retries > 0, "drop rate 0.6 must force retries");
        assert!(events.iter().any(|e| e.kind == FaultKind::Drop));
    }

    #[cfg(feature = "faultinject")]
    #[test]
    fn retry_budget_exhaustion_is_structured() {
        let r = NetworkRendezvous::new(NetworkModel::disabled());
        let plan = FaultPlan::seeded(3).with_drop(1.0); // every attempt drops
        r.begin_run(2, RetryPolicy { max_retries: 2, ..RetryPolicy::default() }, Some(plan), None);
        let got = receiver(&r, 2, "m0>m1/doomed");
        r.send(2, "m0>m1/doomed".into(), Token::live(Tensor::scalar_f32(1.0)));
        match handed(&got).0 {
            Err(ExecError::TransferFailed { attempts, .. }) => {
                assert_eq!(attempts, 3, "1 initial + 2 retries");
            }
            other => panic!("expected TransferFailed, got {other:?}"),
        }
        r.end_run(2);
    }

    #[cfg(feature = "faultinject")]
    #[test]
    fn duplicates_are_absorbed() {
        let r = NetworkRendezvous::new(NetworkModel::disabled());
        let plan = FaultPlan::seeded(11).with_duplicate(1.0);
        r.begin_run(4, RetryPolicy::default(), Some(plan), None);
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hits.clone();
        r.recv_async(
            4,
            "m0>m1/dup".into(),
            Box::new(move |_, _| {
                h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }),
        );
        r.send(4, "m0>m1/dup".into(), Token::live(Tensor::scalar_f32(2.0)));
        // The duplicate is published too; the receiver must fire once.
        assert_eq!(
            hits.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "duplicate absorbed by rendezvous"
        );
        assert_eq!(r.live_entries(), 1, "the absorbed duplicate waits for drop_step");
        let (_, events) = r.end_run(4);
        assert!(events.iter().any(|e| e.kind == FaultKind::Duplicate));
        r.drop_step(4, ExecError::Cancelled("cleanup".into()));
        assert!(r.quiescent());
    }

    #[cfg(feature = "faultinject")]
    #[test]
    fn stall_is_one_shot() {
        let stall = Duration::from_millis(30);
        let r = NetworkRendezvous::new(NetworkModel::disabled());
        let plan = FaultPlan::seeded(5).with_stall(0, stall);
        r.begin_run(6, RetryPolicy::default(), Some(plan), None);
        let t0 = Instant::now();
        let a = receiver(&r, 6, "m0>m1/a");
        r.send(6, "m0>m1/a".into(), Token::live(Tensor::scalar_f32(1.0)));
        assert!(handed(&a).1 >= t0 + stall, "first send stalls");
        // Second send from the same machine is not stalled.
        let t1 = Instant::now();
        let b = receiver(&r, 6, "m0>m1/b");
        r.send(6, "m0>m1/b".into(), Token::live(Tensor::scalar_f32(2.0)));
        assert!(handed(&b).1 < t1 + Duration::from_millis(25), "stall was consumed");
        let (_, events) = r.end_run(6);
        assert_eq!(events.iter().filter(|e| e.kind == FaultKind::Stall).count(), 1);
    }
}
