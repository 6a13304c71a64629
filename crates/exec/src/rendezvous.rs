//! The Send/Recv rendezvous (§3).
//!
//! `Send(t, k)` publishes tensor `t` under rendezvous key `k`; `Recv(k)`
//! pulls it, asynchronously. Keys combine the static edge name with the
//! dynamic frame tag, so each loop iteration's transfer rendezvouses
//! independently (§3: "the unique names and rendezvous keys must be
//! generated dynamically to distinguish multiple invocations of the same
//! operations"). Deadness crosses the rendezvous too, implementing the
//! distributed is_dead propagation of §4.4.
//!
//! Every entry is additionally scoped by a **step id** — the run that
//! produced it. A run that aborts (deadline, kernel failure, injected
//! fault) tears down exactly its own entries with [`Rendezvous::drop_step`]:
//! published-but-unconsumed values are reclaimed and blocked receivers get
//! `Err(Cancelled)`, so back-to-back runs on one rendezvous can never
//! observe a stale tensor from an earlier step.
//!
//! Every published value carries its **arrival instant**: a transfer over a
//! modeled network is published when it is sent, stamped with the moment
//! it reaches the receiver, and the receiver does not consume it earlier.
//! Waiting out the transfer is the receiver's business.

use crate::token::{ExecError, Token};
use dcf_sync::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Identifier of one run ("step") sharing a rendezvous. Step 0 is the
/// default for single-executor runs that never overlap.
pub type StepId = u64;

/// What a pending `Recv` resolves to: the sent token, or a structured
/// error when the transfer failed or its step was torn down.
pub type RecvResult = crate::Result<Token>;

/// Callback invoked when the value (or failure) for a pending `Recv` is
/// known, with the instant it arrives. The receiver must not consume the
/// result before that instant.
pub type RecvCallback = Box<dyn FnOnce(RecvResult, Instant) + Send>;

/// Abstract rendezvous between device executors.
pub trait Rendezvous: Send + Sync {
    /// Publishes `token` under `key` within `step`. Never blocks.
    fn send(&self, step: StepId, key: String, token: Token);
    /// Publishes a delivery failure under `key` within `step`: a pending
    /// (or future) `recv_async` for the key observes `Err(err)` instead of
    /// a value. Used by fault-injecting transports whose retries ran out.
    fn send_error(&self, step: StepId, key: String, err: ExecError);
    /// Requests the value for `key` within `step`. `callback` fires once
    /// the value (or the transfer's failure) is published: immediately on
    /// this thread if it already is, otherwise on the publisher's thread.
    /// It is handed the result's arrival instant, which may still be ahead
    /// (a modeled transfer in flight); waiting until then is the receiver's
    /// job.
    fn recv_async(&self, step: StepId, key: String, callback: RecvCallback);
    /// Reclaims every entry of `step`: unconsumed values are dropped and
    /// blocked receivers observe `Err(err)`. Called by the session when a
    /// run finishes or aborts, so one step's leftovers cannot leak into
    /// the next.
    fn drop_step(&self, step: StepId, err: ExecError);
}

enum Slot {
    /// A published result and its arrival instant.
    Value(RecvResult, Instant),
    Waiting(Vec<RecvCallback>),
}

/// A process-local rendezvous table.
///
/// `dcf-runtime` layers simulated network latency (and injected faults)
/// on top of this for cross-machine edges.
#[derive(Clone, Default)]
pub struct InMemoryRendezvous {
    state: Arc<Mutex<TableState>>,
}

#[derive(Default)]
struct TableState {
    table: HashMap<StepId, HashMap<String, Slot>>,
    /// Steps already torn down. A straggler `send` racing `drop_step`
    /// (e.g. a peer partition still sending while the session tears the
    /// step down) must not resurrect a table entry, and a straggler
    /// `recv_async` must observe the teardown rather than block forever.
    /// One `u64` per completed run; cleared by [`InMemoryRendezvous::clear`].
    dropped: HashSet<StepId>,
}

impl InMemoryRendezvous {
    /// Creates an empty rendezvous.
    pub fn new() -> InMemoryRendezvous {
        InMemoryRendezvous::default()
    }

    /// Number of published-but-unconsumed values across all steps
    /// (diagnostics).
    pub fn pending_values(&self) -> usize {
        self.state
            .lock()
            .table
            .values()
            .flat_map(|step| step.values())
            .filter(|s| matches!(s, Slot::Value(..)))
            .count()
    }

    /// Number of receivers blocked on values that have not arrived, across
    /// all steps (diagnostics / quiescence checks).
    pub fn pending_waiters(&self) -> usize {
        self.state
            .lock()
            .table
            .values()
            .flat_map(|step| step.values())
            .map(|s| match s {
                Slot::Waiting(w) => w.len(),
                Slot::Value(..) => 0,
            })
            .sum()
    }

    /// Total live entries (values + waiter slots) across all steps. Zero
    /// means the table is fully quiescent.
    pub fn live_entries(&self) -> usize {
        self.state.lock().table.values().map(|step| step.len()).sum()
    }

    /// Live entries (values + waiter slots) belonging to `step`. Zero
    /// means the step left no rendezvous state behind.
    pub fn live_entries_for(&self, step: StepId) -> usize {
        self.state.lock().table.get(&step).map(|entries| entries.len()).unwrap_or(0)
    }

    /// Steps that currently hold at least one live entry, so callers
    /// tracking the set of in-flight runs can distinguish their state from
    /// leaked state of already-ended steps.
    pub fn steps_with_entries(&self) -> Vec<StepId> {
        self.state.lock().table.keys().copied().collect()
    }

    /// Clears all state across every step, including the tombstones of
    /// dropped steps (between unrelated test runs; prefer
    /// [`Rendezvous::drop_step`] for per-run teardown).
    pub fn clear(&self) {
        let cleared: (HashMap<StepId, HashMap<String, Slot>>, HashSet<StepId>) = {
            let mut st = self.state.lock();
            (std::mem::take(&mut st.table), std::mem::take(&mut st.dropped))
        };
        // Waiting callbacks are dropped (not invoked) here: `clear` is the
        // blunt whole-table reset, only used when no run is in flight.
        drop(cleared);
    }

    /// Publishes `result` under `key` within `step`, arriving at `at`: a
    /// receiver already waiting is handed it now, together with `at`; a
    /// later one finds it in the table. A transport that models transfer
    /// time publishes at send time with a future `at`. A second publish on
    /// one key keeps the first (a duplicated transfer, or a graph bug).
    pub fn publish(&self, step: StepId, key: String, result: RecvResult, at: Instant) {
        let waiters = {
            let mut st = self.state.lock();
            if st.dropped.contains(&step) {
                // The step was torn down; discard the straggler.
                return;
            }
            let (w, now_empty) = {
                let entries = st.table.entry(step).or_default();
                match entries.remove(&key) {
                    None => {
                        entries.insert(key, Slot::Value(result, at));
                        return;
                    }
                    Some(Slot::Waiting(w)) => {
                        let empty = entries.is_empty();
                        (w, empty)
                    }
                    Some(prev @ Slot::Value(..)) => {
                        entries.insert(key, prev);
                        return;
                    }
                }
            };
            if now_empty {
                st.table.remove(&step);
            }
            w
        };
        // Invoke callbacks outside the lock. Multiple waiters each get a
        // clone (only ever one in practice).
        let n = waiters.len();
        for (i, cb) in waiters.into_iter().enumerate() {
            if i + 1 == n {
                cb(result, at);
                break;
            }
            cb(result.clone(), at);
        }
    }
}

impl Rendezvous for InMemoryRendezvous {
    fn send(&self, step: StepId, key: String, token: Token) {
        self.publish(step, key, Ok(token), Instant::now());
    }

    fn send_error(&self, step: StepId, key: String, err: ExecError) {
        self.publish(step, key, Err(err), Instant::now());
    }

    fn recv_async(&self, step: StepId, key: String, callback: RecvCallback) {
        let (value, at) = {
            let mut st = self.state.lock();
            if st.dropped.contains(&step) {
                drop(st);
                let err = ExecError::Cancelled(format!("step {step} torn down"));
                callback(Err(err), Instant::now());
                return;
            }
            let (value, now_empty) = {
                let entries = st.table.entry(step).or_default();
                match entries.remove(&key) {
                    Some(Slot::Value(t, at)) => {
                        let empty = entries.is_empty();
                        ((t, at), empty)
                    }
                    Some(Slot::Waiting(mut w)) => {
                        w.push(callback);
                        entries.insert(key, Slot::Waiting(w));
                        return;
                    }
                    None => {
                        entries.insert(key, Slot::Waiting(vec![callback]));
                        return;
                    }
                }
            };
            if now_empty {
                st.table.remove(&step);
            }
            value
        };
        callback(value, at);
    }

    fn drop_step(&self, step: StepId, err: ExecError) {
        let entries = {
            let mut st = self.state.lock();
            st.dropped.insert(step);
            st.table.remove(&step)
        };
        let Some(entries) = entries else { return };
        // Fire stranded receivers outside the lock: they re-enter the
        // executor (which drains them as no-ops once its run has failed).
        // Values still in flight are reclaimed with the rest.
        let now = Instant::now();
        for (_, slot) in entries {
            if let Slot::Waiting(waiters) = slot {
                for cb in waiters {
                    cb(Err(err.clone()), now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_tensor::Tensor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn send_then_recv() {
        let r = InMemoryRendezvous::new();
        r.send(1, "k1".into(), Token::live(Tensor::scalar_f32(5.0)));
        assert_eq!(r.pending_values(), 1);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        r.recv_async(
            1,
            "k1".into(),
            Box::new(move |t, _| {
                assert_eq!(t.unwrap().value.scalar_as_f32().unwrap(), 5.0);
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(r.pending_values(), 0);
        assert_eq!(r.live_entries(), 0);
    }

    #[test]
    fn recv_then_send() {
        let r = InMemoryRendezvous::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        r.recv_async(
            0,
            "k1".into(),
            Box::new(move |t, _| {
                assert!(t.unwrap().is_dead);
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(r.pending_waiters(), 1);
        r.send(0, "k1".into(), Token::dead());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(r.pending_waiters(), 0);
    }

    #[test]
    fn keys_are_independent() {
        let r = InMemoryRendezvous::new();
        r.send(0, "a".into(), Token::live(Tensor::scalar_i64(1)));
        r.send(0, "b".into(), Token::live(Tensor::scalar_i64(2)));
        let got = Arc::new(Mutex::new(Vec::new()));
        for key in ["b", "a"] {
            let g = got.clone();
            r.recv_async(
                0,
                key.into(),
                Box::new(move |t, _| g.lock().push(t.unwrap().value.scalar_as_i64().unwrap())),
            );
        }
        assert_eq!(*got.lock(), vec![2, 1]);
    }

    #[test]
    fn steps_are_isolated() {
        // The same key in two different steps holds two different values:
        // a stale tensor from step 7 can never satisfy step 8's recv.
        let r = InMemoryRendezvous::new();
        r.send(7, "x".into(), Token::live(Tensor::scalar_i64(70)));
        r.send(8, "x".into(), Token::live(Tensor::scalar_i64(80)));
        let got = Arc::new(AtomicUsize::new(0));
        let g = got.clone();
        r.recv_async(
            8,
            "x".into(),
            Box::new(move |t, _| {
                g.store(t.unwrap().value.scalar_as_i64().unwrap() as usize, Ordering::SeqCst)
            }),
        );
        assert_eq!(got.load(Ordering::SeqCst), 80);
        assert_eq!(r.pending_values(), 1, "step 7's value is untouched");
        assert_eq!(r.live_entries_for(7), 1);
        assert_eq!(r.live_entries_for(8), 0, "step 8 consumed its value");
        assert_eq!(r.steps_with_entries(), vec![7]);
    }

    #[test]
    fn drop_step_reclaims_values_and_cancels_waiters() {
        let r = InMemoryRendezvous::new();
        r.send(3, "stale".into(), Token::live(Tensor::scalar_i64(1)));
        let errs = Arc::new(AtomicUsize::new(0));
        let e = errs.clone();
        r.recv_async(
            3,
            "never".into(),
            Box::new(move |t, _| {
                assert!(matches!(t, Err(ExecError::Cancelled(_))), "got {t:?}");
                e.fetch_add(1, Ordering::SeqCst);
            }),
        );
        r.send(4, "other".into(), Token::live(Tensor::scalar_i64(2)));
        r.drop_step(3, ExecError::Cancelled("test abort".into()));
        assert_eq!(errs.load(Ordering::SeqCst), 1, "blocked recv observed cancellation");
        assert_eq!(r.pending_values(), 1, "other steps survive");
        r.drop_step(3, ExecError::Cancelled("idempotent".into()));
    }

    #[test]
    fn dropped_step_discards_stragglers() {
        // A send racing (and losing to) drop_step must not resurrect the
        // step, and a late recv must observe the teardown immediately.
        let r = InMemoryRendezvous::new();
        r.drop_step(5, ExecError::Cancelled("torn down".into()));
        r.send(5, "late".into(), Token::live(Tensor::scalar_i64(9)));
        assert_eq!(r.live_entries(), 0, "straggler send discarded");
        let errs = Arc::new(AtomicUsize::new(0));
        let e = errs.clone();
        r.recv_async(
            5,
            "late".into(),
            Box::new(move |t, _| {
                assert!(matches!(t, Err(ExecError::Cancelled(_))));
                e.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(errs.load(Ordering::SeqCst), 1, "late recv fails fast");
        assert_eq!(r.live_entries(), 0);
        // `clear` forgets the tombstone: step ids are then reusable.
        r.clear();
        r.send(5, "fresh".into(), Token::live(Tensor::scalar_i64(1)));
        assert_eq!(r.pending_values(), 1);
    }

    #[test]
    fn send_error_reaches_receiver() {
        let r = InMemoryRendezvous::new();
        r.send_error(0, "k".into(), ExecError::TransferFailed { key: "k".into(), attempts: 5 });
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        r.recv_async(
            0,
            "k".into(),
            Box::new(move |t, _| {
                assert!(matches!(t, Err(ExecError::TransferFailed { .. })));
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn future_instant_reaches_early_and_late_receivers() {
        // A value still in flight is in the table at once, stamped with its
        // arrival: a receiver registered before the publish and one
        // registered after it are both handed that instant, not "now".
        let r = InMemoryRendezvous::new();
        let at = Instant::now() + std::time::Duration::from_secs(60);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        r.recv_async(0, "early".into(), Box::new(move |t, when| g.lock().push((t.is_ok(), when))));
        r.publish(0, "early".into(), Ok(Token::dead()), at);
        r.publish(0, "late".into(), Ok(Token::dead()), at);
        assert_eq!(r.pending_values(), 1, "the late key waits in the table");
        let g = got.clone();
        r.recv_async(0, "late".into(), Box::new(move |t, when| g.lock().push((t.is_ok(), when))));
        assert_eq!(*got.lock(), vec![(true, at), (true, at)]);
        assert_eq!(r.live_entries(), 0);
    }

    #[test]
    fn clear_resets() {
        let r = InMemoryRendezvous::new();
        r.send(0, "x".into(), Token::dead());
        r.send(9, "y".into(), Token::dead());
        r.clear();
        assert_eq!(r.pending_values(), 0);
        assert_eq!(r.live_entries(), 0);
    }
}
