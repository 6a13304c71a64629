//! Streaming stateful inference: sticky stream sessions, served by
//! continuous batching.
//!
//! A one-shot request is stateless: it can ride any batch on any replica.
//! A *stream* owns in-graph state (an RNN decoder's hidden state) that
//! must persist across submissions, so a stream is **sticky**: opened
//! against one replica, whose session holds a per-stream state slot
//! (minted from the executor's `ResourceManager`, ids never reused) for
//! each declared state cell.
//!
//! A streaming model's replicas run the same worker as a one-shot model's
//! (see [`crate::batcher`]); what differs is the queue, which is the
//! table of live streams kept here, and the policy,
//! [`crate::admission::gather_streams`]. Each step is one *iteration*: a
//! `[B, …]` batch with exactly one row per participating stream, plus a
//! worker-fed `[B]` `i64` slots tensor the graph's
//! `StreamStateRead`/`StreamStateWrite` ops gather and scatter state
//! through. Batch membership is recomputed **between iterations** — a
//! stream that joins is gathered into the very next iteration, and a
//! stream that finishes is compacted out — instead of the stop-the-world
//! alternative (freeze a batch, run every member to completion, only then
//! admit waiters). That is the serving-side mirror of the paper's dynamic
//! control flow: work enters and leaves the computation at iteration
//! granularity, not step granularity.
//!
//! Structured failure surface:
//!
//! * [`ExecError::Overloaded`] — opening a stream beyond
//!   [`StreamSpec::max_streams`], or submitting past
//!   [`StreamSpec::queue_capacity`] queued rows;
//! * [`ExecError::DeadlineExceeded`] — a stream's deadline passed; its
//!   pending rows fail and the stream is retired;
//! * [`ExecError::StreamClosed`] — any use of a stream that no longer
//!   exists: client-closed, deadline-retired, destroyed by a failed
//!   iteration (state integrity is lost mid-decode), or its replica was
//!   evicted/retired.
//!
//! Dropping the last handle (model unload) **drains**: no new streams or
//! rows are admitted, pending rows keep being served iteration by
//! iteration until every accepted submission has completed, then the
//! remaining slots are dropped and the worker exits.

use crate::admission::{Decision, Waiting};
use crate::batcher::{
    deadline_exceeded, owe, settle, Batcher, Members, Priority, Queue, Ran, Shared, State, Step,
    Ticket,
};
use crate::oneshot;
use crate::signature::ModelSignature;
use crate::Result;
use dcf_exec::ExecError;
use dcf_graph::{Graph, OpKind, TensorRef};
use dcf_tensor::{DType, Tensor};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a model serves streams: which placeholder carries the per-row
/// stream slots, which state cells a new stream starts with, and the
/// admission/batching knobs of the streaming worker.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// Name of the `i64` placeholder the worker feeds with the `[B]`
    /// stream-slot handles of the iteration's participants. Must name a
    /// placeholder in the graph and must **not** appear in the serving
    /// signature (clients never feed it).
    pub slots_feed: String,
    /// Per-stream state cells as `(name, row dims)`. A freshly opened
    /// stream starts every cell at `f32` zeros of `[1] + dims`.
    pub state_cells: Vec<(String, Vec<usize>)>,
    /// Extra tensors fetched by every iteration besides the signature
    /// fetches — the `StreamStateWrite` passthroughs, so fetching them
    /// forces the state writes. Their outputs are not returned to
    /// clients.
    pub state_fetches: Vec<TensorRef>,
    /// Maximum live streams per replica; `open` beyond it is rejected
    /// with [`ExecError::Overloaded`].
    pub max_streams: usize,
    /// Maximum rows (= participating streams) per iteration. When more
    /// streams have pending rows, a rotating cursor shares iterations
    /// fairly.
    pub max_iteration_rows: usize,
    /// Bound on queued rows across all of a replica's streams; submits
    /// beyond it are rejected with [`ExecError::Overloaded`].
    pub queue_capacity: usize,
    /// How long the worker lingers for co-batchable rows before running
    /// an under-full iteration. A stream mid-chunk never lingers: its
    /// next row dispatches immediately.
    pub iteration_delay: Duration,
}

impl StreamSpec {
    /// A spec reading stream slots from placeholder `slots_feed`, with
    /// default knobs and no state cells yet (add them with
    /// [`StreamSpec::with_cell`]).
    pub fn new(slots_feed: impl Into<String>) -> StreamSpec {
        StreamSpec {
            slots_feed: slots_feed.into(),
            state_cells: Vec::new(),
            state_fetches: Vec::new(),
            max_streams: 64,
            max_iteration_rows: 16,
            queue_capacity: 1024,
            iteration_delay: Duration::from_micros(500),
        }
    }

    /// Adds a state cell (builder style): `dims` is the per-stream row
    /// shape, without the leading slot axis.
    pub fn with_cell(mut self, name: impl Into<String>, dims: &[usize]) -> StreamSpec {
        self.state_cells.push((name.into(), dims.to_vec()));
        self
    }

    /// Adds a force-fetched tensor (builder style) — typically a
    /// `StreamStateWrite` passthrough.
    pub fn with_state_fetch(mut self, t: TensorRef) -> StreamSpec {
        self.state_fetches.push(t);
        self
    }

    /// Sets the per-replica live-stream cap (builder style).
    pub fn with_max_streams(mut self, n: usize) -> StreamSpec {
        self.max_streams = n;
        self
    }

    /// Sets the per-iteration row cap (builder style).
    pub fn with_iteration_rows(mut self, n: usize) -> StreamSpec {
        self.max_iteration_rows = n;
        self
    }

    /// Sets the queued-rows bound (builder style).
    pub fn with_queue_capacity(mut self, rows: usize) -> StreamSpec {
        self.queue_capacity = rows;
        self
    }

    /// Sets the co-batching linger (builder style).
    pub fn with_iteration_delay(mut self, d: Duration) -> StreamSpec {
        self.iteration_delay = d;
        self
    }

    /// Full validation against the model's graph and serving signature,
    /// run at registration so a bad streaming model fails before any
    /// client opens a stream.
    pub(crate) fn check(&self, graph: &Graph, signature: &ModelSignature) -> Result<()> {
        if self.max_streams == 0 {
            return Err(ExecError::InvalidConfig("stream max_streams is 0".into()));
        }
        if self.max_iteration_rows == 0 {
            return Err(ExecError::InvalidConfig("stream max_iteration_rows is 0".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ExecError::InvalidConfig("stream queue_capacity is 0".into()));
        }
        if self.state_cells.is_empty() {
            return Err(ExecError::InvalidConfig(
                "stream spec declares no state cells: nothing is sticky".into(),
            ));
        }
        for (i, (name, _)) in self.state_cells.iter().enumerate() {
            if self.state_cells[..i].iter().any(|(n, _)| n == name) {
                return Err(ExecError::InvalidConfig(format!(
                    "stream spec declares state cell '{name}' twice"
                )));
            }
        }
        let mut found = None;
        for node in graph.nodes() {
            if let OpKind::Placeholder { name, dtype, .. } = &node.op {
                if name == &self.slots_feed {
                    found = Some(*dtype);
                }
            }
        }
        match found {
            None => {
                return Err(ExecError::InvalidConfig(format!(
                    "stream slots feed '{}' names no placeholder in the graph",
                    self.slots_feed
                )))
            }
            Some(dt) if dt != DType::I64 => {
                return Err(ExecError::InvalidConfig(format!(
                    "stream slots feed '{}' must be an I64 placeholder, found {dt:?}",
                    self.slots_feed
                )))
            }
            Some(_) => {}
        }
        if signature.feeds.iter().any(|f| f.name == self.slots_feed) {
            return Err(ExecError::InvalidConfig(format!(
                "stream slots feed '{}' is also a signature feed; clients must not feed it",
                self.slots_feed
            )));
        }
        for t in &self.state_fetches {
            if t.node.0 >= graph.nodes().len() {
                return Err(ExecError::InvalidConfig(format!(
                    "stream state fetch references node {} outside the graph",
                    t.node.0
                )));
            }
        }
        Ok(())
    }
}

/// What a completed stream submission returns.
#[derive(Clone, Debug)]
pub struct StreamResponse {
    /// One tensor per signature fetch, the per-iteration rows of this
    /// submission concatenated back in order: shape `[rows] + …`.
    pub outputs: Vec<Tensor>,
    /// Rows (= iterations) this submission spanned.
    pub rows: usize,
    /// Time from enqueue until the first row was gathered into an
    /// iteration.
    pub queue_delay: Duration,
    /// Step id of the iteration that served the final row.
    pub last_step: u64,
    /// Tag of that final iteration (e.g. `"decoder[r0]/iter-17"`).
    pub tag: String,
}

/// A submitted stream chunk's completion handle.
pub type StreamTicket = Ticket<StreamResponse>;

/// One submitted chunk: `rows` decode steps served over `rows`
/// successive iterations.
struct Chunk {
    /// `row_feeds[t][f]` = row `t`'s tensor for signature feed `f`
    /// (shape `[1] + example_dims`), pre-split at submit.
    row_feeds: Vec<Vec<Tensor>>,
    /// Served outputs per signature fetch, accumulated row by row.
    acc: Vec<Vec<Tensor>>,
    /// Rows already gathered into an iteration (the queue's consumed
    /// prefix). `acc` trails it by at most the in-flight row.
    next_row: usize,
    enqueued: Instant,
    /// Enqueue to first gather; set when the first row is gathered.
    queue_delay: Duration,
    tx: oneshot::Sender<Result<StreamResponse>>,
}

impl Chunk {
    fn rows(&self) -> usize {
        self.row_feeds.len()
    }
}

/// One live stream's queue and lifecycle flags.
struct LiveStream {
    slot: u64,
    pending: VecDeque<Chunk>,
    deadline: Option<Instant>,
    /// Client closed the stream; it retires once `pending` drains.
    closing: bool,
}

/// A streaming worker's queue: the live streams of one replica.
pub(crate) struct StreamTable {
    pub(crate) spec: StreamSpec,
    /// Admission order: the order the gather policy sees and iterations
    /// batch in.
    live: Vec<LiveStream>,
    /// Why a stream that no longer exists closed, so a late submit gets a
    /// precise [`ExecError::StreamClosed`]. The handle's drop reaps it.
    closed: HashMap<u64, String>,
}

impl StreamTable {
    pub(crate) fn new(spec: StreamSpec) -> StreamTable {
        StreamTable { spec, live: Vec::new(), closed: HashMap::new() }
    }

    /// The live streams as the gather policy sees them, in admission
    /// order.
    pub(crate) fn view(&self, now: Instant) -> Vec<Waiting> {
        self.live
            .iter()
            .map(|s| {
                let front = s.pending.front();
                Waiting {
                    rows: front.map_or(0, |c| c.rows() - c.next_row),
                    lane: Priority::default(),
                    deadline: s.deadline,
                    enqueued: front.map_or(now, |c| c.enqueued),
                    started: front.is_some_and(|c| c.next_row > 0),
                }
            })
            .collect()
    }

    fn position(&self, slot: u64) -> Option<usize> {
        self.live.iter().position(|s| s.slot == slot)
    }
}

/// The stream front door and the stream halves of the worker loop.
impl Shared {
    fn not_streaming(&self) -> ExecError {
        ExecError::InvalidConfig(format!(
            "model '{}' was registered without a stream spec",
            self.name
        ))
    }

    /// Opens a stream: mints a state slot, zero-initializes every
    /// declared cell, and admits the stream into the iteration loop.
    /// Returns the slot id. Rejects with [`ExecError::Overloaded`] at
    /// the live-stream cap.
    pub(crate) fn open(self: &Arc<Self>, deadline: Option<Instant>) -> Result<u64> {
        settle(self, true);
        let m = &self.metrics;
        let slot = {
            let st = &mut *self.state.lock();
            let State { mode, queue, .. } = st;
            let Queue::Streams(t) = queue else { return Err(self.not_streaming()) };
            mode.admitting()?;
            if t.live.len() >= t.spec.max_streams {
                m.streams_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ExecError::Overloaded(format!(
                    "model '{}' already serves {} of {} streams",
                    self.name,
                    t.live.len(),
                    t.spec.max_streams
                )));
            }
            let rm = self.session.resources();
            let slot = rm.stream_create();
            for (cell, dims) in &t.spec.state_cells {
                let mut row = vec![1];
                row.extend(dims);
                if let Err(e) = rm.stream_init_cell(slot, cell, Tensor::zeros(DType::F32, &row)) {
                    rm.stream_drop(slot);
                    return Err(ExecError::Internal(format!(
                        "initializing stream state cell '{cell}': {e}"
                    )));
                }
            }
            t.live.push(LiveStream { slot, pending: VecDeque::new(), deadline, closing: false });
            m.streams_opened.fetch_add(1, Ordering::Relaxed);
            m.active_streams.fetch_add(1, Ordering::Relaxed);
            // A fresh deadline may be the worker's next wake target.
            self.poke(st, false);
            slot
        };
        Ok(slot)
    }

    /// Validates and enqueues `feeds` (each `[rows] + example_dims`) on
    /// stream `stream`; the rows are served over `rows` successive
    /// iterations.
    pub(crate) fn submit_rows(
        self: &Arc<Self>,
        stream: u64,
        feeds: HashMap<String, Tensor>,
    ) -> Result<StreamTicket> {
        settle(self, true);
        let rows = self.validated_rows(&feeds)?;
        // Pre-split into per-row feeds outside the lock; gathering then
        // only clones tensor handles.
        let mut row_feeds = vec![Vec::with_capacity(self.signature.feeds.len()); rows];
        for spec in &self.signature.feeds {
            let parts = feeds[&spec.name].split0(&vec![1; rows]).map_err(|e| {
                ExecError::Internal(format!("splitting stream feed '{}': {e}", spec.name))
            })?;
            for (row, part) in row_feeds.iter_mut().zip(parts) {
                row.push(part);
            }
        }
        let (tx, ticket) = Ticket::channel(self.clone());
        {
            let st = &mut *self.state.lock();
            let State { mode, queued_rows, queue, .. } = st;
            let Queue::Streams(t) = queue else { return Err(self.not_streaming()) };
            mode.admitting()?;
            let Some(live) = t.live.iter_mut().find(|s| s.slot == stream) else {
                return Err(ExecError::StreamClosed(
                    t.closed
                        .get(&stream)
                        .cloned()
                        .unwrap_or_else(|| format!("no stream {stream} on model '{}'", self.name)),
                ));
            };
            if live.closing {
                return Err(ExecError::StreamClosed("stream closed by the client".into()));
            }
            self.reserve(mode, queued_rows, t.spec.queue_capacity, rows)?;
            live.pending.push_back(Chunk {
                row_feeds,
                acc: vec![Vec::new(); self.signature.fetches.len()],
                next_row: 0,
                enqueued: Instant::now(),
                queue_delay: Duration::ZERO,
                tx,
            });
            if self.poke(st, false) {
                owe(self);
            }
        }
        self.metrics.stream_submits.fetch_add(1, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Closes a stream. Pending rows still complete; the stream retires
    /// (slot dropped) once drained.
    pub(crate) fn close_stream(&self, stream: u64) {
        let st = &mut *self.state.lock();
        let Queue::Streams(t) = &mut st.queue else { return };
        // The handle is gone; nobody will ask why the stream closed.
        t.closed.remove(&stream);
        if let Some(i) = t.position(stream) {
            if t.live[i].pending.is_empty() {
                self.retire(t, i);
            } else {
                t.live[i].closing = true;
            }
        }
    }

    /// Removes live stream `i`: drops its state slot and counts the
    /// retirement. Its pending submissions are the caller's to settle.
    fn retire(&self, t: &mut StreamTable, i: usize) -> LiveStream {
        let s = t.live.remove(i);
        self.session.resources().stream_drop(s.slot);
        self.metrics.streams_retired.fetch_add(1, Ordering::Relaxed);
        self.metrics.active_streams.fetch_sub(1, Ordering::Relaxed);
        s
    }

    /// Retires live stream `i` and fails each pending submission with
    /// `err(chunk)`, counted in `counter`. `why` is what a later submit
    /// on the stream is answered with.
    fn destroy(
        &self,
        t: &mut StreamTable,
        queued_rows: &mut usize,
        i: usize,
        why: String,
        counter: &AtomicU64,
        err: impl Fn(&Chunk) -> ExecError,
    ) {
        let s = self.retire(t, i);
        for chunk in s.pending {
            self.release(queued_rows, chunk.rows() - chunk.next_row);
            counter.fetch_add(1, Ordering::Relaxed);
            let e = err(&chunk);
            chunk.tx.send(Err(e));
        }
        t.closed.insert(s.slot, why);
    }

    /// The stream half of applying a decision: gathers one row from each
    /// taken stream, then retires the expired ones, failing their pending
    /// rows.
    pub(crate) fn apply_streams(
        &self,
        t: &mut StreamTable,
        queued_rows: &mut usize,
        decision: &Decision,
        now: Instant,
    ) -> Option<Step> {
        let m = &self.metrics;
        let step = (!decision.take.is_empty()).then(|| {
            let mut parts = vec![Vec::new(); self.signature.feeds.len()];
            let mut slots = Vec::with_capacity(decision.take.len());
            for &i in &decision.take {
                let s = &mut t.live[i];
                let Some(chunk) = s.pending.front_mut().filter(|c| c.next_row < c.rows()) else {
                    continue;
                };
                if chunk.next_row == 0 {
                    chunk.queue_delay = now.saturating_duration_since(chunk.enqueued);
                    m.record_queue_delay_us(chunk.queue_delay.as_micros() as u64);
                }
                for (per_feed, row) in parts.iter_mut().zip(&chunk.row_feeds[chunk.next_row]) {
                    per_feed.push(row.clone());
                }
                chunk.next_row += 1;
                slots.push(s.slot);
                self.release(queued_rows, 1);
            }
            let ids = slots.iter().map(|&s| s as i64).collect();
            let ids = Tensor::from_vec_i64(ids, &[slots.len()]).expect("one id per gathered row");
            Step {
                parts,
                rows: vec![1; slots.len()],
                extra_feed: Some((t.spec.slots_feed.clone(), ids)),
                members: Members::Streams(slots),
                gathered: now,
            }
        });
        // Highest index first, so the indices still to go stay valid.
        for &i in decision.expire.iter().rev() {
            let deadline = t.live[i].deadline.expect("only a deadline expires a stream");
            m.streams_expired.fetch_add(1, Ordering::Relaxed);
            self.destroy(t, queued_rows, i, "stream deadline exceeded".into(), &m.expired, |c| {
                deadline_exceeded(now, c.enqueued, deadline)
            });
        }
        step
    }

    /// Appends a successful iteration's rows to their streams' front
    /// submissions, completing each submission whose last row this was.
    pub(crate) fn deliver_rows(&self, slots: &[u64], ran: &Ran) {
        let m = &self.metrics;
        let st = &mut *self.state.lock();
        let Queue::Streams(t) = &mut st.queue else { return };
        for (r, &slot) in slots.iter().enumerate() {
            // A stream closed mid-iteration is gone, its submissions
            // already failed.
            let Some(i) = t.position(slot) else { continue };
            let live = &mut t.live[i];
            let Some(chunk) = live.pending.front_mut() else { continue };
            for (acc, per_fetch) in chunk.acc.iter_mut().zip(&ran.sliced) {
                acc.push(per_fetch[r].clone());
            }
            if chunk.acc[0].len() < chunk.rows() {
                continue;
            }
            let Some(chunk) = live.pending.pop_front() else { continue };
            let outputs: std::result::Result<Vec<Tensor>, _> =
                chunk.acc.iter().map(|rows| Tensor::concat0(rows)).collect();
            match outputs {
                Ok(outputs) => {
                    m.served.fetch_add(1, Ordering::Relaxed);
                    chunk.tx.send(Ok(StreamResponse {
                        outputs,
                        rows: chunk.row_feeds.len(),
                        queue_delay: chunk.queue_delay,
                        last_step: ran.step,
                        tag: ran.tag.clone(),
                    }));
                }
                Err(e) => {
                    m.failed.fetch_add(1, Ordering::Relaxed);
                    chunk.tx.send(Err(ExecError::Internal(format!(
                        "reassembling stream outputs: {e}"
                    ))));
                }
            }
            if live.closing && live.pending.is_empty() {
                self.retire(t, i);
            }
        }
    }

    /// A failed iteration destroys the participating streams: their
    /// state slots may hold a half-applied update, so transparent
    /// continuation is impossible. Pending submissions fail with the
    /// step's error and the slots are dropped.
    pub(crate) fn fail_streams(&self, slots: &[u64], err: &ExecError) {
        let State { queued_rows, queue, .. } = &mut *self.state.lock();
        let Queue::Streams(t) = queue else { return };
        for &slot in slots {
            let Some(i) = t.position(slot) else { continue };
            let why = format!("a batched iteration failed: {err}");
            self.destroy(t, queued_rows, i, why, &self.metrics.failed, |_| err.clone());
        }
    }

    /// Retires every live stream, failing pending submissions with
    /// `err`. The worker is closed or has drained, so no tombstones are
    /// kept: the worker's mode answers every later call.
    pub(crate) fn close_streams(
        &self,
        t: &mut StreamTable,
        queued_rows: &mut usize,
        err: &ExecError,
    ) {
        while let Some(last) = t.live.len().checked_sub(1) {
            self.destroy(t, queued_rows, last, String::new(), &self.metrics.failed, |_| {
                err.clone()
            });
        }
        t.closed.clear();
    }
}

/// A sticky stream session: pinned to one replica, whose in-graph state
/// persists across [`StreamHandle::submit`] calls. Obtained from
/// [`crate::ModelHandle::open_stream`]. Dropping the handle closes the
/// stream (pending rows still complete).
pub struct StreamHandle {
    worker: Arc<Batcher>,
    stream: u64,
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle").field("stream", &self.stream).finish()
    }
}

impl StreamHandle {
    /// Opens a stream on `worker` and wraps it.
    pub(crate) fn open(worker: Arc<Batcher>, deadline: Option<Instant>) -> Result<StreamHandle> {
        let stream = worker.shared().open(deadline)?;
        Ok(StreamHandle { worker, stream })
    }

    /// The stream's slot id (unique per replica session, never reused).
    pub fn id(&self) -> u64 {
        self.stream
    }

    /// Enqueues `feeds` (each `[rows] + example_dims`); the rows are
    /// decoded over `rows` successive iterations against this stream's
    /// state.
    pub fn submit(&self, feeds: HashMap<String, Tensor>) -> Result<StreamTicket> {
        self.worker.shared().submit_rows(self.stream, feeds)
    }

    /// [`StreamHandle::submit`] then block for the response.
    pub fn send(&self, feeds: HashMap<String, Tensor>) -> Result<StreamResponse> {
        self.submit(feeds)?.wait()
    }

    /// Closes the stream explicitly (equivalent to dropping the handle):
    /// pending rows still complete, then the state slot is dropped.
    pub fn close(self) {}
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        self.worker.shared().close_stream(self.stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchPolicy;
    use dcf_graph::GraphBuilder;
    use dcf_runtime::Session;

    /// A running-sum model: y = acc + x, with the sum written back to
    /// the per-stream cell — the smallest model whose outputs prove
    /// state stickiness (each response depends on the stream's whole
    /// history).
    fn acc_batcher(spec: StreamSpec) -> Batcher {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let slots = b.placeholder("slots", DType::I64);
        let acc = b.stream_state_read(slots, "acc").unwrap();
        let y = b.add(acc, x).unwrap();
        let w = b.stream_state_write(slots, y, "acc").unwrap();
        let sig = ModelSignature::new().feed("x", DType::F32, &[1]).fetch(y);
        let spec = spec.with_cell("acc", &[1]).with_state_fetch(w);
        let sess = Arc::new(Session::local(b.finish().unwrap()).unwrap());
        Batcher::spawn("acc".into(), sess, sig, BatchPolicy::default(), Some(spec)).unwrap()
    }

    fn rows(vals: &[f32]) -> HashMap<String, Tensor> {
        let mut m = HashMap::new();
        m.insert("x".into(), Tensor::from_vec_f32(vals.to_vec(), &[vals.len(), 1]).unwrap());
        m
    }

    #[test]
    fn streams_are_sticky_and_transparent() {
        let cb = acc_batcher(StreamSpec::new("slots"));
        let a = cb.shared().open(None).unwrap();
        let b = cb.shared().open(None).unwrap();
        assert_eq!(cb.active_streams(), 2);

        // Both streams in flight together; each must see only its own
        // running sum whatever batches they shared.
        let ta = cb.shared().submit_rows(a, rows(&[1.0, 2.0, 3.0])).unwrap();
        let tb = cb.shared().submit_rows(b, rows(&[10.0])).unwrap();
        let ra = ta.wait().unwrap();
        assert_eq!(ra.rows, 3);
        assert_eq!(ra.outputs[0].as_f32_slice().unwrap(), &[1.0, 3.0, 6.0]);
        assert!(ra.tag.contains("/iter-"), "{}", ra.tag);
        let rb = tb.wait().unwrap();
        assert_eq!(rb.outputs[0].as_f32_slice().unwrap(), &[10.0]);

        // State persists across submits: stream b continues from 10.
        let rb2 = cb.shared().submit_rows(b, rows(&[20.0])).unwrap().wait().unwrap();
        assert_eq!(rb2.outputs[0].as_f32_slice().unwrap(), &[30.0]);

        let m = cb.metrics();
        assert!(m.stream_iterations.load(Ordering::Relaxed) >= 3);
        assert_eq!(m.stream_rows.load(Ordering::Relaxed), 5);
        assert_eq!(m.served.load(Ordering::Relaxed), 3);

        cb.shared().close_stream(a);
        cb.shared().close_stream(b);
        assert_eq!(cb.active_streams(), 0);
        assert_eq!(m.streams_retired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn overload_and_closed_are_structured() {
        let cb = acc_batcher(StreamSpec::new("slots").with_max_streams(1).with_queue_capacity(2));
        let a = cb.shared().open(None).unwrap();
        assert!(matches!(cb.shared().open(None).unwrap_err(), ExecError::Overloaded(_)));
        assert_eq!(cb.metrics().streams_rejected.load(Ordering::Relaxed), 1);
        // Queue bound is in rows.
        assert!(matches!(
            cb.shared().submit_rows(a, rows(&[1.0, 2.0, 3.0])).unwrap_err(),
            ExecError::Overloaded(_)
        ));
        // A closed stream rejects with StreamClosed; an unknown slot too.
        cb.shared().close_stream(a);
        assert!(matches!(
            cb.shared().submit_rows(a, rows(&[1.0])).unwrap_err(),
            ExecError::StreamClosed(_)
        ));
        assert!(matches!(
            cb.shared().submit_rows(999, rows(&[1.0])).unwrap_err(),
            ExecError::StreamClosed(_)
        ));
    }

    #[test]
    fn deadline_retires_the_stream() {
        let cb = acc_batcher(StreamSpec::new("slots"));
        let s = cb.shared().open(Some(Instant::now() + Duration::from_millis(5))).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        // Whether the sweep beat the submit or not, the outcome is
        // structured: the pending rows expire or the submit is rejected.
        match cb.shared().submit_rows(s, rows(&[1.0])) {
            Ok(t) => match t.wait() {
                Err(ExecError::DeadlineExceeded { .. }) | Err(ExecError::StreamClosed(_)) => {}
                other => panic!("expired stream returned {other:?}"),
            },
            Err(ExecError::StreamClosed(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
        // Give the worker a moment to sweep if it has not yet.
        for _ in 0..100 {
            if cb.metrics().streams_expired.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(cb.metrics().streams_expired.load(Ordering::Relaxed), 1);
        assert!(matches!(
            cb.shared().submit_rows(s, rows(&[1.0])).unwrap_err(),
            ExecError::StreamClosed(_)
        ));
    }

    #[test]
    fn dropping_the_batcher_drains_pending_rows() {
        let cb = acc_batcher(StreamSpec::new("slots"));
        let s = cb.shared().open(None).unwrap();
        let t = cb.shared().submit_rows(s, rows(&[1.0, 2.0, 3.0])).unwrap();
        drop(cb); // Drain: accepted rows complete, then the worker exits.
        let r = t.wait().unwrap();
        assert_eq!(r.outputs[0].as_f32_slice().unwrap(), &[1.0, 3.0, 6.0]);
    }

    #[test]
    fn close_all_fails_streams_with_stream_closed() {
        let cb = acc_batcher(StreamSpec::new("slots").with_iteration_delay(Duration::from_secs(5)));
        let s = cb.shared().open(None).unwrap();
        // Long linger so the rows are still queued when the axe falls.
        let extra = cb.shared().submit_rows(s, rows(&[1.0, 2.0])).unwrap();
        cb.close("replica retired");
        match extra.wait() {
            // The worker may have gathered the first row before the
            // close; either way the ticket resolves with StreamClosed.
            Err(ExecError::StreamClosed(r)) => assert!(r.contains("replica retired"), "{r}"),
            other => {
                let err = other.expect_err("close_all must fail pending submissions");
                panic!("expected StreamClosed, got {err}");
            }
        }
        assert!(matches!(cb.shared().open(None).unwrap_err(), ExecError::StreamClosed(_)));
        assert!(matches!(
            cb.shared().submit_rows(s, rows(&[1.0])).unwrap_err(),
            ExecError::StreamClosed(_)
        ));
        assert_eq!(cb.active_streams(), 0);
    }

    #[test]
    fn spec_validation_catches_bad_wiring() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let slots = b.placeholder("slots", DType::I64);
        let acc = b.stream_state_read(slots, "acc").unwrap();
        let y = b.add(acc, x).unwrap();
        let sig = ModelSignature::new().feed("x", DType::F32, &[1]).fetch(y);
        let g = b.finish().unwrap();
        let ok = StreamSpec::new("slots").with_cell("acc", &[1]);
        ok.check(&g, &sig).unwrap();
        // Unknown slots placeholder.
        let e = StreamSpec::new("nope").with_cell("acc", &[1]).check(&g, &sig).unwrap_err();
        assert!(matches!(e, ExecError::InvalidConfig(_)));
        // Wrong dtype for the slots placeholder.
        let e = StreamSpec::new("x").with_cell("acc", &[1]).check(&g, &sig).unwrap_err();
        assert!(matches!(e, ExecError::InvalidConfig(_)));
        // Slots feed must not be a client feed.
        let sig2 = ModelSignature::new()
            .feed("x", DType::F32, &[1])
            .feed("slots", DType::I64, &[])
            .fetch(y);
        let e = StreamSpec::new("slots").with_cell("acc", &[1]).check(&g, &sig2).unwrap_err();
        assert!(matches!(e, ExecError::InvalidConfig(_)));
        // No cells, duplicate cells, zero caps.
        let bad = |spec: StreamSpec| spec.check(&g, &sig).is_err();
        assert!(bad(StreamSpec::new("slots")));
        assert!(bad(StreamSpec::new("slots").with_cell("acc", &[1]).with_cell("acc", &[2])));
        assert!(bad(ok.clone().with_max_streams(0)));
        assert!(bad(ok.clone().with_iteration_rows(0)));
    }
}
