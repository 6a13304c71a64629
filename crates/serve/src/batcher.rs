//! The batching worker: one per replica, coalescing what clients enqueue
//! into batched `Session::run` steps and scattering the results back.
//!
//! A worker is one thread, one state mutex and one [`ServeMetrics`], and
//! its kind is fixed at construction:
//!
//! * a **one-shot** worker ([`Batcher::new`]) queues stateless
//!   [`Request`]s in two lanes and packs them into `"<model>/batch-<seq>"`
//!   steps under a [`BatchPolicy`];
//! * a **streaming** worker (built by the replica router for a model
//!   registered with a [`StreamSpec`]) keeps a table of live streams and
//!   runs `"<model>/iter-<seq>"` iterations of one row per ready stream
//!   (see [`crate::stream`]).
//!
//! Both kinds share everything but the gather policy. The loop is:
//!
//! 1. **decide** — under the lock, describe what is waiting as plain
//!    [`Waiting`] values and ask the kind's pure policy function
//!    ([`admit_requests`] or [`gather_streams`]) for a [`Decision`];
//! 2. **apply** — complete expired entries with
//!    [`ExecError::DeadlineExceeded`], move the taken rows out of the
//!    queue, or sleep until the decision's wake instant;
//! 3. **run** — outside the lock, `run_step`: one `concat0` per signature
//!    feed, one tagged `Session::run`, one `split0` per fetch;
//! 4. **deliver** — hand each member its slice, or fan the step's error
//!    out to exactly the members of that step. The worker survives a
//!    failed step and keeps serving.
//!
//! # Who runs a step
//!
//! A step is run by the thread that would otherwise sleep waiting for it,
//! the way the executor runs an activation on the thread that made it
//! ready. A cross-thread wake-up costs 7 or 40 µs on the benchmark box
//! depending on where the scheduler put the two threads, about as much as
//! a small model's whole step, so a hand-off per batch is both the largest
//! and the least steady part of a request. Three rules:
//!
//! 1. **A client that waits, runs.** [`Ticket::wait`] first runs the
//!    worker's due steps on the calling thread (decide, apply, run,
//!    deliver — the loop above) until its own answer is there, nothing is
//!    due, or a step is in flight elsewhere; only then does it park. A
//!    replica runs one step at a time, whoever runs it.
//! 2. **The worker thread keeps the clock.** It dispatches what a linger
//!    window or a deadline makes due, for clients that are parked or that
//!    never wait. While clients keep calling it merely looks again one
//!    look period later (`LOOK_AGAIN`, or the linger period if that is
//!    longer); once a client parks on it, or none has called since it
//!    last looked, it sleeps until the exact instant.
//! 3. **A wake-up is sent only to someone who is needed.** A submission
//!    wakes the worker thread when that thread sleeps on no timer at all,
//!    or when clients are parked on the worker and the submission makes
//!    something due sooner. A step that fills up under a client that is
//!    still calling is left to that client, which most likely waits next
//!    and runs it under rule 1; the client owes the wake-up and pays it as
//!    soon as it turns to another worker, parks, or exits, so a pipelined
//!    client still keeps several replicas busy. A client that has run a
//!    step and leaves summons the worker thread to whatever filled up
//!    meanwhile.
//!
//! What a client can observe of a submission it can only observe through
//! `wait`, and `wait` runs what is due at once, so the bounds of
//! [`BatchPolicy`] hold for every client that waits. A submission whose
//! client stays away is dispatched by one of the worker thread's next two
//! looks: no later than two look periods after it was queued.
//!
//! Admission is structural: the queue is bounded in **rows** and a full
//! queue rejects at once with [`ExecError::Overloaded`]; shapes are
//! validated at enqueue; a deadline is checked at enqueue and again at
//! every decision, so an expired entry never occupies a batch slot.
//!
//! Lifecycle: dropping the worker **drains** — nothing new is admitted,
//! what was accepted is served without lingering, then the thread exits.
//! `close` (the replica is being retired) instead fails everything queued
//! at once.

use crate::admission::{admit_requests, gather_streams, Decision, Waiting};
use crate::metrics::ServeMetrics;
use crate::oneshot;
use crate::signature::ModelSignature;
use crate::stream::{StreamSpec, StreamTable};
use crate::Result;
use dcf_exec::ExecError;
use dcf_graph::TensorRef;
use dcf_runtime::{RunOptions, Session};
use dcf_sync::{Condvar, Mutex};
use dcf_tensor::Tensor;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// How soon, at the earliest, the worker thread looks again after clients
/// have called. A timed wake-up of that thread costs about 15 µs of CPU on
/// the 2-vCPU benchmark box (6 400 wake-ups a second used 96 ms), and it
/// costs the client that much when the two share a core; at one a
/// millisecond it is 1.5 %.
const LOOK_AGAIN: Duration = Duration::from_millis(1);

/// Error text of the [`ExecError::Cancelled`] a worker answers with once
/// it is draining, and a one-shot worker once it is closed. The replica
/// router retries exactly this rejection: it means "this replica went
/// away", not "your request failed".
pub(crate) const SHUTDOWN_MSG: &str = "batcher shut down";

/// Which lane a request queues in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive: drained into batches before any
    /// [`Priority::Batch`] request, regardless of arrival order.
    Interactive,
    /// Bulk/offline traffic (the default): fills whatever batch capacity
    /// the interactive lane left.
    #[default]
    Batch,
}

/// Per-model batching policy.
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    /// Maximum rows per batched step. A step that has this many rows is
    /// due: it runs as soon as a client waits on the worker, or the client
    /// that filled it turns elsewhere (see the module docs).
    pub max_batch_size: usize,
    /// Maximum time the oldest queued request waits before a (possibly
    /// partial) batch dispatches anyway.
    pub max_queue_delay: Duration,
    /// Bound on queued rows across both lanes; requests beyond it are
    /// rejected with [`ExecError::Overloaded`] at enqueue.
    pub queue_capacity: usize,
    /// Template for every batched step's `RunOptions` (trace level,
    /// timeout, retry policy, fault plan). The tag is extended per batch
    /// with `"<model>/batch-<seq>"` so traces of batched steps stay
    /// distinguishable.
    pub run_options: RunOptions,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy {
            max_batch_size: 16,
            max_queue_delay: Duration::from_millis(2),
            queue_capacity: 1024,
            run_options: RunOptions::default(),
        }
    }
}

impl BatchPolicy {
    pub(crate) fn check(&self) -> Result<()> {
        if self.max_batch_size == 0 {
            return Err(ExecError::InvalidConfig("max_batch_size is 0".into()));
        }
        if self.queue_capacity < self.max_batch_size {
            return Err(ExecError::InvalidConfig(format!(
                "queue_capacity {} is smaller than max_batch_size {}",
                self.queue_capacity, self.max_batch_size
            )));
        }
        Ok(())
    }
}

/// One client request: batch-major feed tensors plus scheduling hints.
#[derive(Clone, Debug)]
pub struct Request {
    /// Feed tensors, one per signature feed, each `[rows] + example_dims`.
    pub feeds: HashMap<String, Tensor>,
    /// Lane to queue in.
    pub priority: Priority,
    /// Absolute expiry; once past, the request is completed with
    /// [`ExecError::DeadlineExceeded`] instead of occupying a batch slot.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A bulk-lane request with no deadline.
    pub fn new(feeds: HashMap<String, Tensor>) -> Request {
        Request { feeds, priority: Priority::default(), deadline: None }
    }

    /// Moves the request to the interactive lane (builder style).
    pub fn interactive(mut self) -> Request {
        self.priority = Priority::Interactive;
        self
    }

    /// Sets the deadline to `budget` from now (builder style).
    pub fn with_deadline_in(mut self, budget: Duration) -> Request {
        self.deadline = Some(Instant::now() + budget);
        self
    }
}

/// What a completed request returns.
#[derive(Clone, Debug)]
pub struct Response {
    /// This request's slice of each fetched tensor, in signature fetch
    /// order; every output has this request's row count as its leading
    /// dimension.
    pub outputs: Vec<Tensor>,
    /// Time the request spent queued before its batch was assembled.
    pub queue_delay: Duration,
    /// Step id of the batched run that served this request.
    pub step: u64,
    /// The batched step's tag (e.g. `"lstm/batch-42"`).
    pub tag: String,
    /// Total rows in the batched step that served this request.
    pub batch_rows: usize,
}

/// A submission's completion handle: `Ticket` for a one-shot
/// [`Response`], [`crate::StreamTicket`] for a stream submission.
pub struct Ticket<R = Response> {
    rx: oneshot::Receiver<Result<R>>,
    /// The worker that queued the submission; [`Ticket::wait`] drives it.
    worker: Arc<Shared>,
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ticket")
    }
}

impl<R> Ticket<R> {
    /// A connected completion sender and ticket for a submission queued
    /// on `worker`.
    pub(crate) fn channel(worker: Arc<Shared>) -> (oneshot::Sender<Result<R>>, Ticket<R>) {
        let (tx, rx) = oneshot::channel();
        (tx, Ticket { rx, worker })
    }

    /// Blocks until the submission completes (or is rejected). A thread
    /// that would otherwise park here first runs the worker's due steps
    /// itself (see the module docs): a client that submits and waits
    /// crosses no thread boundary when its step is ready to go.
    pub fn wait(self) -> Result<R> {
        let Ticket { rx, worker } = self;
        settle(&worker, true);
        let blocked = worker.drive(|| rx.is_ready());
        if blocked {
            settle(&worker, false);
        }
        let result = rx.recv();
        if blocked {
            worker.state.lock().blocked -= 1;
        }
        result.unwrap_or_else(|| {
            Err(ExecError::Internal("worker dropped the submission without completing it".into()))
        })
    }
}

/// The wake-up a client thread owes: the worker whose step its last
/// submission filled while the worker thread slept on a timer. The thread
/// most likely waits for that step next and then runs it itself; it pays
/// as soon as it turns to another worker, parks, or exits. Should it do
/// none of these, the worker thread's next looks bound the delay.
struct Debt(Option<Weak<Shared>>);

impl Drop for Debt {
    fn drop(&mut self) {
        if let Some(worker) = self.0.take().and_then(|w| w.upgrade()) {
            worker.poke(&mut worker.state.lock(), true);
        }
    }
}

thread_local! {
    static DEBT: RefCell<Debt> = const { RefCell::new(Debt(None)) };
}

/// Pays what this thread owes to a worker other than `own`. What it owes
/// to `own` stays owed if `keep`, and is forgotten otherwise: the caller
/// has just poked `own` itself.
pub(crate) fn settle(own: &Arc<Shared>, keep: bool) {
    let debt = DEBT.with(|d| {
        let mut d = d.borrow_mut();
        let to_own = d.0.as_ref().is_some_and(|w| std::ptr::eq(Arc::as_ptr(own), w.as_ptr()));
        if to_own && !keep {
            d.0 = None;
        }
        if to_own {
            Debt(None)
        } else {
            std::mem::replace(&mut *d, Debt(None))
        }
    });
    // Dropping the debt pays it, outside the thread-local borrow.
    drop(debt);
}

/// Records that this thread left a full step on `worker` unannounced.
pub(crate) fn owe(worker: &Arc<Shared>) {
    DEBT.with(|d| d.borrow_mut().0 = Some(Arc::downgrade(worker)));
}

/// The [`ExecError::DeadlineExceeded`] of an entry enqueued at `enqueued`
/// whose `deadline` had passed at `now`.
pub(crate) fn deadline_exceeded(now: Instant, enqueued: Instant, deadline: Instant) -> ExecError {
    ExecError::DeadlineExceeded {
        waited: now.saturating_duration_since(enqueued),
        past_deadline: now.saturating_duration_since(deadline),
    }
}

/// A queued one-shot request.
pub(crate) struct Pending {
    /// Feed tensors in signature feed order.
    feeds: Vec<Tensor>,
    at: Waiting,
    tx: oneshot::Sender<Result<Response>>,
}

/// What a worker queues, fixed at construction.
pub(crate) enum Queue {
    /// One-shot requests in arrival order; the policy separates lanes.
    Requests(Vec<Pending>),
    /// Live streams and their pending submissions.
    Streams(StreamTable),
}

/// Worker lifecycle.
pub(crate) enum Mode {
    Running,
    /// The worker was dropped: admit nothing, serve what was accepted
    /// without lingering, then exit.
    Draining,
    /// The replica was retired: everything queued was failed with this
    /// error, and so is every later call.
    Closed(ExecError),
}

impl Mode {
    /// `Ok` while new work is admitted, the structured refusal otherwise.
    pub(crate) fn admitting(&self) -> Result<()> {
        match self {
            Mode::Running => Ok(()),
            Mode::Draining => Err(ExecError::Cancelled(SHUTDOWN_MSG.into())),
            Mode::Closed(e) => Err(e.clone()),
        }
    }
}

pub(crate) struct State {
    pub(crate) mode: Mode,
    /// Rows accepted but not yet taken into a step: the quantity the
    /// queue capacity bounds.
    pub(crate) queued_rows: usize,
    /// Members taken into steps so far; rotates stream gathering.
    pub(crate) cursor: usize,
    /// A step is in flight, on the worker thread or on a waiting client's.
    /// A replica runs one step at a time: stream iterations read and write
    /// the same state slots, and a one-shot replica's capacity is one
    /// session.
    pub(crate) stepping: bool,
    /// The worker thread is parked, until this instant if there is one:
    /// what [`Shared::poke`] compares a fresh decision with.
    parked: Option<Option<Instant>>,
    /// Something was submitted, opened or run since the worker thread
    /// last parked.
    active: bool,
    /// Clients parked in [`Ticket::wait`]: they look at the queue no more.
    blocked: usize,
    /// A step that is full is the worker thread's to run: it was told so,
    /// or it is running steps already. Otherwise it runs what a linger
    /// window or a deadline makes due and leaves a full step to the
    /// client that filled it.
    summoned: bool,
    pub(crate) queue: Queue,
}

/// What the holder of the state lock should do next.
enum Next {
    /// Run this step; [`State::stepping`] is set.
    Run(Step),
    /// Nothing to run: look again at the instant, or when notified.
    Wait(Option<Instant>),
}

/// Clears [`State::stepping`] when a step has been delivered (or has
/// panicked).
struct InFlight<'a>(&'a Shared);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.stepping = false;
        st.active = true;
        if !matches!(st.mode, Mode::Running) {
            // A worker that drains exits once nothing is queued or in
            // flight: this may have been the last thing.
            self.0.cv.notify_all();
        }
    }
}

/// Who rides a step, in batch-row order.
pub(crate) enum Members {
    Requests(Vec<Pending>),
    /// Stream slots, one row each.
    Streams(Vec<u64>),
}

/// One step's inputs, gathered under the lock and run outside it.
pub(crate) struct Step {
    /// `parts[f][m]`: member `m`'s tensor for signature feed `f`.
    pub(crate) parts: Vec<Vec<Tensor>>,
    /// Rows per member.
    pub(crate) rows: Vec<usize>,
    /// A feed the worker itself supplies: a stream iteration's slot ids.
    pub(crate) extra_feed: Option<(String, Tensor)>,
    pub(crate) members: Members,
    /// When the step was gathered; ends its members' queue delay.
    pub(crate) gathered: Instant,
}

/// A successful step, scattered: `sliced[f][m]` is member `m`'s slice of
/// signature fetch `f`.
pub(crate) struct Ran {
    pub(crate) sliced: Vec<Vec<Tensor>>,
    pub(crate) step: u64,
    pub(crate) tag: String,
}

/// The per-replica batching worker. Dropping it drains the queue and
/// joins the thread (see the module docs).
pub struct Batcher {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

pub(crate) struct Shared {
    pub(crate) name: String,
    pub(crate) session: Arc<Session>,
    pub(crate) signature: ModelSignature,
    policy: BatchPolicy,
    /// Signature fetches, then a stream spec's forced state fetches.
    fetches: Vec<TensorRef>,
    pub(crate) metrics: Arc<ServeMetrics>,
    step_seq: AtomicU64,
    pub(crate) state: Mutex<State>,
    pub(crate) cv: Condvar,
}

impl Batcher {
    /// Validates `policy` against `signature` and spawns a one-shot
    /// worker for model `name`.
    pub fn new(
        name: impl Into<String>,
        session: Arc<Session>,
        signature: ModelSignature,
        policy: BatchPolicy,
    ) -> Result<Batcher> {
        Batcher::spawn(name.into(), session, signature, policy, None)
    }

    /// Spawns a worker: streaming under `stream` when set (its iterations
    /// run under `policy.run_options`), one-shot otherwise.
    pub(crate) fn spawn(
        name: String,
        session: Arc<Session>,
        signature: ModelSignature,
        policy: BatchPolicy,
        stream: Option<StreamSpec>,
    ) -> Result<Batcher> {
        policy.check()?;
        if signature.feeds.is_empty() || signature.fetches.is_empty() {
            return Err(ExecError::InvalidConfig(
                "serving signature needs at least one feed and one fetch".into(),
            ));
        }
        let mut fetches = signature.fetches.clone();
        let queue = match stream {
            Some(spec) => {
                fetches.extend(spec.state_fetches.iter().copied());
                Queue::Streams(StreamTable::new(spec))
            }
            None => Queue::Requests(Vec::new()),
        };
        let shared = Arc::new(Shared {
            name,
            session,
            signature,
            policy,
            fetches,
            metrics: Arc::new(ServeMetrics::default()),
            step_seq: AtomicU64::new(0),
            state: Mutex::new(State {
                mode: Mode::Running,
                queued_rows: 0,
                cursor: 0,
                stepping: false,
                parked: None,
                active: false,
                blocked: 0,
                summoned: false,
                queue,
            }),
            cv: Condvar::new(),
        });
        let worker = shared.clone();
        let thread = std::thread::Builder::new()
            .name(format!("dcf-serve/{}", worker.name))
            .spawn(move || worker.run_loop())
            .map_err(|e| ExecError::Internal(format!("spawning batcher thread: {e}")))?;
        Ok(Batcher { shared, thread: Some(thread) })
    }

    /// The model name this worker serves.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The batching policy in force.
    pub fn policy(&self) -> &BatchPolicy {
        &self.shared.policy
    }

    /// The live metrics handle.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.shared.metrics
    }

    /// Instantaneous load in rows (queued + mid-step), lock-free. The
    /// signal the replica router's power-of-two-choices dispatch compares.
    pub fn load(&self) -> u64 {
        self.shared.metrics.load()
    }

    /// A point-in-time metrics snapshot (occupancy uses this worker's
    /// `max_batch_size`).
    pub fn snapshot(&self) -> crate::MetricsSnapshot {
        self.shared.metrics.snapshot(self.shared.policy.max_batch_size)
    }

    /// Validates and enqueues `request`, returning a [`Ticket`] for its
    /// completion. Every rejection is immediate and structured:
    /// [`ExecError::BadFeedOrFetch`] for a signature mismatch,
    /// [`ExecError::Overloaded`] for a full queue,
    /// [`ExecError::DeadlineExceeded`] for an already-expired deadline,
    /// [`ExecError::InvalidConfig`] for a request larger than any batch
    /// or a one-shot request to a streaming model.
    pub fn submit(&self, mut request: Request) -> Result<Ticket> {
        let sh = &*self.shared;
        settle(&self.shared, true);
        let rows = sh.validated_rows(&request.feeds)?;
        if rows > sh.policy.max_batch_size {
            sh.metrics.rejected_shape.fetch_add(1, Ordering::Relaxed);
            return Err(ExecError::InvalidConfig(format!(
                "request has {rows} rows, max_batch_size is {}",
                sh.policy.max_batch_size
            )));
        }
        let now = Instant::now();
        if let Some(d) = request.deadline.filter(|d| *d <= now) {
            sh.metrics.expired.fetch_add(1, Ordering::Relaxed);
            // Expired on arrival: it waited nothing in the queue.
            return Err(deadline_exceeded(now, now, d));
        }
        let feeds = sh
            .signature
            .feeds
            .iter()
            .map(|spec| request.feeds.remove(&spec.name).expect("validated above"))
            .collect();
        let at = Waiting {
            rows,
            lane: request.priority,
            deadline: request.deadline,
            enqueued: now,
            started: false,
        };
        let (tx, ticket) = Ticket::channel(self.shared.clone());
        {
            let st = &mut *sh.state.lock();
            let State { mode, queued_rows, queue, .. } = st;
            let Queue::Requests(q) = queue else {
                return Err(ExecError::InvalidConfig(format!(
                    "model '{}' is a streaming model; use open_stream",
                    sh.name
                )));
            };
            sh.reserve(mode, queued_rows, sh.policy.queue_capacity, rows)?;
            q.push(Pending { feeds, at, tx });
            if sh.poke(st, false) {
                owe(&self.shared);
            }
        }
        Ok(ticket)
    }

    /// Convenience: [`Batcher::submit`] then block for the response.
    pub fn run(&self, request: Request) -> Result<Response> {
        self.submit(request)?.wait()
    }

    /// The worker's shared half, for the stream front door.
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Gauge: live streams on this worker — the signal stream routing
    /// compares. Always zero on a one-shot worker.
    pub(crate) fn active_streams(&self) -> u64 {
        self.shared.metrics.active_streams.load(Ordering::Relaxed)
    }

    /// Fails everything queued and rejects all future use — the replica
    /// is going away. One-shot requests get the `Cancelled` the router
    /// re-routes; streams, whose state dies with the replica, get
    /// [`ExecError::StreamClosed`] carrying `reason`. Synchronous:
    /// completions are delivered before this returns.
    pub(crate) fn close(&self, reason: &str) {
        let sh = &*self.shared;
        {
            let State { mode, queued_rows, queue, .. } = &mut *sh.state.lock();
            *mode = Mode::Closed(match queue {
                Queue::Requests(q) => {
                    let err = ExecError::Cancelled(SHUTDOWN_MSG.into());
                    for p in q.drain(..) {
                        sh.release(queued_rows, p.at.rows);
                        p.tx.send(Err(err.clone()));
                    }
                    err
                }
                Queue::Streams(t) => {
                    let err = ExecError::StreamClosed(reason.to_string());
                    sh.close_streams(t, queued_rows, &err);
                    err
                }
            });
        }
        sh.cv.notify_all();
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            if matches!(st.mode, Mode::Running) {
                st.mode = Mode::Draining;
            }
        }
        self.shared.cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Shared {
    /// Shape admission: the row count of `feeds` under the signature.
    pub(crate) fn validated_rows(&self, feeds: &HashMap<String, Tensor>) -> Result<usize> {
        self.signature.validate(feeds).inspect_err(|_| {
            self.metrics.rejected_shape.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Capacity admission, under the lock: refuses when the worker is
    /// shutting down or `rows` more would exceed the queued-rows bound,
    /// and accounts for them otherwise.
    pub(crate) fn reserve(
        &self,
        mode: &Mode,
        queued_rows: &mut usize,
        capacity: usize,
        rows: usize,
    ) -> Result<()> {
        mode.admitting()?;
        if *queued_rows + rows > capacity {
            self.metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return Err(ExecError::Overloaded(format!(
                "model '{}' queue is full ({queued_rows} of {capacity} rows)",
                self.name
            )));
        }
        *queued_rows += rows;
        self.metrics.queued_rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rows leaving the queue: taken into a step, expired or failed.
    pub(crate) fn release(&self, queued_rows: &mut usize, rows: usize) {
        *queued_rows -= rows;
        self.metrics.queued_rows.fetch_sub(rows as u64, Ordering::Relaxed);
    }

    /// The worker thread: decide, apply, run one step, deliver. Runs
    /// until closed, or until drained after the worker is dropped.
    fn run_loop(&self) {
        let mut guard = self.state.lock();
        loop {
            if matches!(guard.mode, Mode::Closed(_)) {
                return;
            }
            // With no client call since it last looked, nobody is left to
            // run a step that has filled up.
            let summoned = std::mem::take(&mut guard.summoned) || !guard.active;
            let wake = match self.next(&mut guard, summoned) {
                Next::Run(step) => {
                    // What filled up meanwhile is this thread's too.
                    guard.summoned = true;
                    drop(guard);
                    self.run_and_deliver(step, true);
                    guard = self.state.lock();
                    continue;
                }
                Next::Wait(wake) => wake,
            };
            let st = &mut *guard;
            if matches!(st.mode, Mode::Draining) && st.queued_rows == 0 && !st.stepping {
                // Everything accepted has been served; a stream table
                // still holds idle streams' state slots.
                if let Queue::Streams(t) = &mut st.queue {
                    let gone = ExecError::Cancelled(SHUTDOWN_MSG.into());
                    self.close_streams(t, &mut st.queued_rows, &gone);
                }
                return;
            }
            // Clients that call drive the queue themselves: while they do,
            // this thread only looks again, later. The linger and deadline
            // instants are its to keep when clients are parked on it, or
            // when none has called since it last looked.
            let active = std::mem::take(&mut guard.active);
            let wake = wake.filter(|_| guard.blocked > 0 || !active);
            let look = active.then(|| Instant::now() + self.linger(&guard).max(LOOK_AGAIN));
            let wake = wake.into_iter().chain(look).min();
            guard.parked = Some(wake);
            match wake {
                Some(wake) => {
                    self.cv.wait_until(&mut guard, wake);
                }
                None => self.cv.wait(&mut guard),
            }
            guard.parked = None;
        }
    }

    /// How long a submission may wait for company before it is dispatched.
    fn linger(&self, st: &State) -> Duration {
        match &st.queue {
            Queue::Requests(_) => self.policy.max_queue_delay,
            Queue::Streams(t) => t.spec.iteration_delay,
        }
    }

    /// After a change to what is waiting, under the lock: wakes the worker
    /// thread if somebody depends on it and it would otherwise look too
    /// late. Somebody does when the caller says so (`by_count`: a client
    /// that is about to park, or has delivered a step and leaves), when
    /// clients are parked on this worker, or when the worker thread sleeps
    /// on no timer at all. It is then woken for a linger window or a
    /// deadline that ends before it would look, and summoned to a step
    /// that has filled up. Otherwise the caller is a client that most
    /// likely waits next and then runs what is due itself; the worker
    /// thread's next look is the safety net, and `true` is returned when
    /// the caller leaves a full step behind: it owes the wake-up (see
    /// [`Debt`]).
    pub(crate) fn poke(&self, st: &mut State, by_count: bool) -> bool {
        st.active = true;
        let d = self.decide(st, Instant::now(), true);
        let full = !d.take.is_empty();
        if !(by_count || st.blocked > 0 || st.parked == Some(None)) {
            return full;
        }
        st.summoned |= full;
        // A worker that is not parked decides again before it parks, and
        // while a step is in flight the thread running it pokes when it
        // is delivered.
        let Some(until) = st.parked.filter(|_| !st.stepping) else { return false };
        let sooner = d.wake.is_some_and(|w| until.is_none_or(|u| w < u));
        if sooner || full || !d.expire.is_empty() {
            // It decides again before it parks: no second wake-up.
            st.parked = None;
            self.cv.notify_all();
        }
        false
    }

    /// The kind's pure policy on what is waiting now; without `by_count`,
    /// as if no number of rows filled a step.
    fn decide(&self, st: &State, now: Instant, by_count: bool) -> Decision {
        let draining = matches!(st.mode, Mode::Draining);
        let cap = |rows: usize| if by_count { rows } else { usize::MAX };
        match &st.queue {
            Queue::Requests(q) => admit_requests(
                &q.iter().map(|p| p.at).collect::<Vec<_>>(),
                cap(self.policy.max_batch_size),
                self.policy.max_queue_delay,
                draining,
                now,
            ),
            Queue::Streams(t) => gather_streams(
                &t.view(now),
                cap(t.spec.max_iteration_rows),
                t.spec.iteration_delay,
                draining,
                st.cursor,
                now,
            ),
        }
    }

    /// Runs the worker's due steps on the calling thread until `done()`
    /// holds, nothing is due, or a step is in flight on another thread.
    /// What is left is the worker thread's: it owns the linger and
    /// deadline timers, and it is summoned to whatever has filled up by
    /// the time this client leaves or parks. Returns whether the caller,
    /// about to park, was counted in [`State::blocked`].
    fn drive(&self, done: impl Fn() -> bool) -> bool {
        let mut ran = false;
        loop {
            let mut st = self.state.lock();
            if done() || matches!(st.mode, Mode::Closed(_)) {
                if ran {
                    self.poke(&mut st, true);
                }
                return false;
            }
            match self.next(&mut st, true) {
                Next::Run(step) => {
                    drop(st);
                    self.run_and_deliver(step, false);
                    ran = true;
                }
                Next::Wait(_) => {
                    st.blocked += 1;
                    self.poke(&mut st, true);
                    return true;
                }
            }
        }
    }

    /// Decides and applies under the lock: the step to run now, marked in
    /// flight, or when to look again; without `by_count`, a step that is
    /// merely full is not taken. The mode is not [`Mode::Closed`].
    fn next(&self, st: &mut State, by_count: bool) -> Next {
        if st.stepping {
            // Whoever runs it looks again, or says so, once it is delivered.
            return Next::Wait(None);
        }
        let now = Instant::now();
        let decision = self.decide(st, now, by_count);
        match self.apply(st, &decision, now) {
            Some(step) => {
                st.stepping = true;
                Next::Run(step)
            }
            None => Next::Wait(decision.wake),
        }
    }

    /// Runs `step` outside the lock and hands every member its result.
    fn run_and_deliver(&self, step: Step, on_worker: bool) {
        let _in_flight = InFlight(self);
        if !on_worker {
            self.metrics.client_steps.fetch_add(1, Ordering::Relaxed);
        }
        let result = self.run_step(&step);
        match (step.members, result) {
            (Members::Requests(batch), Ok(ran)) => {
                self.deliver_batch(batch, step.rows.iter().sum(), step.gathered, ran)
            }
            (Members::Requests(batch), Err(e)) => {
                for p in batch {
                    self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    p.tx.send(Err(e.clone()));
                }
            }
            (Members::Streams(slots), Ok(ran)) => self.deliver_rows(&slots, &ran),
            (Members::Streams(slots), Err(e)) => self.fail_streams(&slots, &e),
        }
    }

    /// Applies `decision` to the queue it was computed from: expired
    /// entries complete with `DeadlineExceeded`, taken ones leave the
    /// queue as the next step.
    fn apply(&self, st: &mut State, decision: &Decision, now: Instant) -> Option<Step> {
        let State { queue, queued_rows, cursor, .. } = st;
        *cursor = cursor.wrapping_add(decision.take.len());
        let q = match queue {
            Queue::Streams(t) => return self.apply_streams(t, queued_rows, decision, now),
            Queue::Requests(q) => q,
        };
        if decision.expire.is_empty() && decision.take.is_empty() {
            return None;
        }
        let mut slots: Vec<Option<Pending>> = std::mem::take(q).into_iter().map(Some).collect();
        let mut pull = |i: usize| {
            let p = slots[i].take().expect("policy indices are distinct");
            self.release(queued_rows, p.at.rows);
            p
        };
        for &i in &decision.expire {
            let p = pull(i);
            self.metrics.expired.fetch_add(1, Ordering::Relaxed);
            let deadline = p.at.deadline.expect("only a deadline expires a request");
            p.tx.send(Err(deadline_exceeded(now, p.at.enqueued, deadline)));
        }
        let batch: Vec<Pending> = decision.take.iter().map(|&i| pull(i)).collect();
        *q = slots.into_iter().flatten().collect();
        if batch.is_empty() {
            return None;
        }
        let mut parts = vec![Vec::with_capacity(batch.len()); self.signature.feeds.len()];
        for p in &batch {
            self.metrics.record_queue_delay_us(
                now.saturating_duration_since(p.at.enqueued).as_micros() as u64,
            );
            for (per_feed, t) in parts.iter_mut().zip(&p.feeds) {
                per_feed.push(t.clone());
            }
        }
        let rows = batch.iter().map(|p| p.at.rows).collect();
        let members = Members::Requests(batch);
        Some(Step { parts, rows, extra_feed: None, members, gathered: now })
    }

    /// Runs one step: concatenates each signature feed over the members,
    /// issues one tagged `Session::run`, and splits each signature fetch
    /// back by per-member rows. Step metrics are recorded here; what a
    /// failure means for the members is the caller's business.
    fn run_step(&self, step: &Step) -> Result<Ran> {
        let total: usize = step.rows.iter().sum();
        let mut merged: HashMap<String, Tensor> =
            HashMap::with_capacity(self.signature.feeds.len() + 1);
        for (spec, parts) in self.signature.feeds.iter().zip(&step.parts) {
            let t = Tensor::concat0(parts).map_err(|e| {
                ExecError::Internal(format!(
                    "batch concat of feed '{}' failed after enqueue validation: {e}",
                    spec.name
                ))
            })?;
            merged.insert(spec.name.clone(), t);
        }
        merged.extend(step.extra_feed.clone());
        let m = &self.metrics;
        let (kind, steps, rows) = match step.members {
            Members::Requests(_) => ("batch", &m.batches, &m.batched_rows),
            Members::Streams(_) => {
                m.record_iteration_rows(total as u64);
                ("iter", &m.stream_iterations, &m.stream_rows)
            }
        };
        let base = &self.policy.run_options.tag;
        let seq = self.step_seq.fetch_add(1, Ordering::Relaxed);
        let tag = format!("{}/{kind}-{seq}", if base.is_empty() { &self.name } else { base });
        let options = self.policy.run_options.clone().with_tag(tag.clone());

        steps.fetch_add(1, Ordering::Relaxed);
        rows.fetch_add(total as u64, Ordering::Relaxed);
        m.running_rows.fetch_add(total as u64, Ordering::Relaxed);
        let (result, meta) = self.session.run(&options, &merged, &self.fetches);
        m.running_rows.fetch_sub(total as u64, Ordering::Relaxed);
        m.record_step_latency_us(meta.wall.as_micros() as u64);
        m.retries.fetch_add(meta.retries, Ordering::Relaxed);
        m.fault_events.fetch_add(meta.fault_events.len() as u64, Ordering::Relaxed);
        let outputs = result.inspect_err(|_| {
            m.steps_failed.fetch_add(1, Ordering::Relaxed);
            m.consecutive_step_failures.fetch_add(1, Ordering::Relaxed);
        })?;
        m.consecutive_step_failures.store(0, Ordering::Relaxed);

        // Only the signature fetches are scattered; a stream spec's
        // trailing state fetches exist to force the state writes.
        let mut sliced = Vec::with_capacity(self.signature.fetches.len());
        for (f, out) in outputs.iter().take(self.signature.fetches.len()).enumerate() {
            if out.shape().is_scalar() || out.shape().dim(0) != total {
                return Err(ExecError::InvalidConfig(format!(
                    "fetch #{f} of model '{}' is not batch-major: got shape {:?}, \
                     expected leading dimension {total}",
                    self.name,
                    out.shape().dims()
                )));
            }
            sliced.push(out.split0(&step.rows).map_err(|e| {
                ExecError::Internal(format!("scattering fetch #{f} of a step: {e}"))
            })?);
        }
        Ok(Ran { sliced, step: meta.step, tag })
    }

    /// Completes every request of a successful batch with its slices.
    fn deliver_batch(&self, batch: Vec<Pending>, batch_rows: usize, gathered: Instant, ran: Ran) {
        for (r, p) in batch.into_iter().enumerate() {
            self.metrics.served.fetch_add(1, Ordering::Relaxed);
            p.tx.send(Ok(Response {
                outputs: ran.sliced.iter().map(|per_fetch| per_fetch[r].clone()).collect(),
                queue_delay: gathered.saturating_duration_since(p.at.enqueued),
                step: ran.step,
                tag: ran.tag.clone(),
                batch_rows,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_graph::GraphBuilder;
    use dcf_tensor::DType;

    fn double_model() -> (Arc<Session>, ModelSignature) {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let two = b.scalar_f32(2.0);
        let y = b.mul(x, two).unwrap();
        let sig = ModelSignature::new().feed("x", DType::F32, &[2]).fetch(y);
        let sess = Arc::new(Session::local(b.finish().unwrap()).unwrap());
        (sess, sig)
    }

    #[test]
    fn batcher_serves_and_scatters() {
        let (sess, sig) = double_model();
        let batcher = Batcher::new(
            "double",
            sess,
            sig,
            BatchPolicy { max_queue_delay: Duration::from_millis(1), ..BatchPolicy::default() },
        )
        .unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("x".into(), Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let resp = batcher.run(Request::new(feeds)).unwrap();
        assert_eq!(resp.outputs.len(), 1);
        assert_eq!(resp.outputs[0].shape().dims(), &[2, 2]);
        assert_eq!(resp.outputs[0].as_f32_slice().unwrap(), &[2.0, 4.0, 6.0, 8.0]);
        assert!(resp.tag.starts_with("double/batch-"));
        assert!(resp.step > 0);
        let snap = batcher.snapshot();
        assert_eq!(snap.served, 1);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.batched_rows, 2);
    }

    /// A worker whose steps fill at two rows and whose linger window never
    /// ends within a test, so nothing is dispatched by the clock; warmed up
    /// with one full request, then left until its thread is parked on a
    /// timer, so that what follows races no wake-up.
    fn warm(name: &str) -> Batcher {
        let (sess, sig) = double_model();
        let policy = BatchPolicy {
            max_batch_size: 2,
            max_queue_delay: Duration::from_secs(3600),
            ..BatchPolicy::default()
        };
        let batcher = Batcher::new(name, sess, sig, policy).unwrap();
        batcher.run(rows(2)).unwrap();
        eventually(|| matches!(batcher.shared.state.lock().parked, Some(Some(_))));
        batcher
    }

    fn rows(n: usize) -> Request {
        let x = Tensor::from_vec_f32(vec![1.0; 2 * n], &[n, 2]).unwrap();
        Request::new(HashMap::from([("x".to_string(), x)]))
    }

    fn eventually(cond: impl Fn() -> bool) {
        let begin = Instant::now();
        while !cond() {
            assert!(begin.elapsed() < Duration::from_secs(20), "condition never held");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn counts(b: &Batcher) -> (u64, u64) {
        let snap = b.snapshot();
        (snap.batches, snap.client_steps)
    }

    #[test]
    fn a_client_that_fills_a_step_and_waits_runs_it_itself() {
        let batcher = warm("own");
        let (batches, by_clients) = counts(&batcher);
        for _ in 0..20 {
            let first = batcher.submit(rows(1)).unwrap();
            let second = batcher.submit(rows(1)).unwrap();
            // Either ticket drives the step; the other finds its answer.
            assert_eq!(first.wait().unwrap().batch_rows, 2);
            assert_eq!(second.wait().unwrap().batch_rows, 2);
        }
        assert_eq!(counts(&batcher), (batches + 20, by_clients + 20));
    }

    #[test]
    fn a_full_step_is_the_worker_threads_once_its_submitter_turns_elsewhere() {
        let (a, b) = (warm("a"), warm("b"));
        let (batches, by_clients) = counts(&a);
        let left = a.submit(rows(2)).unwrap();
        // Nobody waits on `a`, and its linger window never ends: only the
        // wake-up this thread pays when it turns to `b` gets the step run.
        let other = b.submit(rows(1)).unwrap();
        eventually(|| counts(&a) == (batches + 1, by_clients));
        assert_eq!(left.wait().unwrap().batch_rows, 2);
        drop(other);
    }

    #[test]
    fn a_thread_that_exits_pays_what_it_owes() {
        let a = Arc::new(warm("exit"));
        let (batches, by_clients) = counts(&a);
        let submitter = a.clone();
        let left = std::thread::spawn(move || submitter.submit(rows(2)).unwrap()).join().unwrap();
        eventually(|| counts(&a) == (batches + 1, by_clients));
        assert_eq!(left.wait().unwrap().batch_rows, 2);
    }

    #[test]
    fn a_parked_client_is_served_when_someone_else_fills_its_step() {
        let a = Arc::new(warm("parked"));
        let (batches, by_clients) = counts(&a);
        let waiter = a.clone();
        let parked = std::thread::spawn(move || waiter.run(rows(1)).unwrap());
        eventually(|| a.shared.state.lock().blocked == 1);
        // This thread neither waits nor turns elsewhere: the parked client
        // alone is why the worker thread is summoned.
        let filler = a.submit(rows(1)).unwrap();
        assert_eq!(parked.join().unwrap().batch_rows, 2);
        assert_eq!(counts(&a), (batches + 1, by_clients));
        assert_eq!(filler.wait().unwrap().batch_rows, 2);
        assert_eq!(a.shared.state.lock().blocked, 0);
    }

    #[test]
    fn a_drained_worker_exits_when_a_clients_step_was_the_last_thing_in_flight() {
        let batcher = warm("drain");
        let shared = batcher.shared.clone();
        // A client is running a step when the worker is dropped.
        shared.state.lock().stepping = true;
        let in_flight = InFlight(&shared);
        let dropped = std::thread::spawn(move || drop(batcher));
        eventually(|| matches!(shared.state.lock().mode, Mode::Draining));
        eventually(|| shared.state.lock().parked.is_some());
        drop(in_flight);
        dropped.join().unwrap();
    }

    /// Clients that wait at once, wait late, wait out of order, turn to
    /// the other worker first or drop their tickets, on two workers with a
    /// short linger window: every request is answered, with its own rows,
    /// and nobody is left counted as parked.
    #[test]
    fn mixed_clients_all_get_their_own_answers() {
        let workers: Vec<Arc<Batcher>> = (0..2)
            .map(|i| {
                let (sess, sig) = double_model();
                let policy = BatchPolicy {
                    max_batch_size: 3,
                    max_queue_delay: Duration::from_micros(300),
                    ..BatchPolicy::default()
                };
                Arc::new(Batcher::new(format!("mixed{i}"), sess, sig, policy).unwrap())
            })
            .collect();
        let request = |v: f32| {
            let x = Tensor::from_vec_f32(vec![v, v + 0.5], &[1, 2]).unwrap();
            Request::new(HashMap::from([("x".to_string(), x)]))
        };
        let check = |v: f32, ticket: Ticket| {
            let out = ticket.wait().unwrap().outputs.remove(0);
            assert_eq!(out.as_f32_slice().unwrap(), &[2.0 * v, 2.0 * v + 1.0]);
        };
        std::thread::scope(|scope| {
            for client in 0..6u64 {
                let (workers, request, check) = (&workers, &request, &check);
                scope.spawn(move || {
                    let mut seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client + 1);
                    let mut held: Vec<(f32, Ticket)> = Vec::new();
                    for op in 0..400u32 {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let v = (client * 1000 + op as u64) as f32;
                        let ticket = workers[(seed >> 33) as usize % 2].submit(request(v)).unwrap();
                        match (seed >> 40) % 5 {
                            0 | 1 => check(v, ticket),
                            2 => held.push((v, ticket)),
                            3 => drop(ticket),
                            _ => {
                                held.push((v, ticket));
                                let (v, ticket) =
                                    held.swap_remove((seed >> 48) as usize % held.len());
                                check(v, ticket);
                            }
                        }
                        if held.len() > 8 {
                            for (v, ticket) in held.drain(..) {
                                check(v, ticket);
                            }
                        }
                    }
                    for (v, ticket) in held {
                        check(v, ticket);
                    }
                });
            }
        });
        for w in &workers {
            eventually(|| w.snapshot().served == w.snapshot().submitted);
            assert_eq!(w.shared.state.lock().blocked, 0);
            assert_eq!(w.snapshot().failed, 0);
        }
    }

    #[test]
    fn oversized_request_and_bad_policy_are_invalid_config() {
        let (sess, sig) = double_model();
        assert!(matches!(
            Batcher::new(
                "m",
                sess.clone(),
                sig.clone(),
                BatchPolicy { max_batch_size: 0, ..BatchPolicy::default() }
            ),
            Err(ExecError::InvalidConfig(_))
        ));
        assert!(matches!(
            Batcher::new(
                "m",
                sess.clone(),
                sig.clone(),
                BatchPolicy { max_batch_size: 8, queue_capacity: 4, ..BatchPolicy::default() }
            ),
            Err(ExecError::InvalidConfig(_))
        ));
        let batcher = Batcher::new(
            "m",
            sess,
            sig,
            BatchPolicy { max_batch_size: 2, ..BatchPolicy::default() },
        )
        .unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("x".into(), Tensor::from_vec_f32(vec![0.0; 6], &[3, 2]).unwrap());
        assert!(matches!(
            batcher.submit(Request::new(feeds)).unwrap_err(),
            ExecError::InvalidConfig(_)
        ));
    }
}
