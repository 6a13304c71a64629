//! `serve_oneshot`: one-shot requests through the replicated serving tier.
//! A 6-trip `while_loop` of `tanh(x·W)` on `[B,8]` behind a `ModelRegistry`,
//! 2 replicas, `max_batch_size` 8, `max_queue_delay` 200 µs. The batcher is
//! used two ways in every round, so a gain for one that costs the other
//! shows:
//!
//! * phase A, closed loop: one thread keeps 16 `submit`s outstanding, so
//!   batches run full. Its requests per second are `throughput_per_s`.
//! * phase B, open loop: seeded Poisson arrivals at a fixed 2 000 req/s,
//!   about a tenth of phase A's capacity, so batches hold 1–2 rows and the
//!   queue stays short. Each request is timed from when it was due; those
//!   times are `op_ms_*`.

use super::{corrupted, direct, Round, RoundCfg};
use crate::gen::{poisson_schedule, run_open_loop, Rng};
use crate::metrics::Values;
use crate::stats::percentile;
use crate::trace::{p50, TraceLog};
use dcf::prelude::*;
use dcf::serve::Response;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const FEATURES: usize = 8;
const TRIPS: i64 = 6;
const REPLICAS: usize = 2;
const MAX_BATCH: usize = 8;
/// Two full batches per replica in flight: enough that neither replica
/// waits for the client, few enough that the queue never nears capacity.
const WINDOW: usize = 16;
/// Phase B's arrival rate: ~10 % of what phase A sustains on this box, where
/// latency is queueing-free and the generator thread keeps up.
const RATE_PER_S: f64 = 2000.0;
/// Distinct request rows per round; each has a private-session baseline.
const FEED_POOL: usize = 64;

struct Model {
    w: Vec<f32>,
    rows: Vec<Tensor>,
}

impl Model {
    fn new(cfg: &RoundCfg) -> Model {
        let mut rng = Rng::new(cfg.seed, cfg.round, 0x0E57);
        let w = rng.f32s(FEATURES * FEATURES, -0.5, 0.5);
        let rows = (0..FEED_POOL)
            .map(|_| {
                Tensor::from_vec_f32(rng.f32s(FEATURES, -1.0, 1.0), &[1, FEATURES]).expect("row")
            })
            .collect();
        Model { w, rows }
    }

    /// Builds the served graph; returns its one fetch. The feed is `"x"`.
    fn build(&self, g: &mut GraphBuilder) -> TensorRef {
        let x = g.placeholder("x", DType::F32);
        let w = g.constant(Tensor::from_vec_f32(self.w.clone(), &[FEATURES, FEATURES]).expect("w"));
        let (i0, limit) = (g.scalar_i64(0), g.scalar_i64(TRIPS));
        let outs = g
            .while_loop(
                &[i0, x],
                |g, v| g.less(v[0], limit),
                |g, v| {
                    let one = g.scalar_i64(1);
                    let h = g.matmul(v[1], w)?;
                    Ok(vec![g.add(v[0], one)?, g.tanh(h)?])
                },
                WhileOptions::default(),
            )
            .expect("served loop builds");
        outs[1]
    }

    fn spec(&self) -> ModelSpec {
        let mut g = GraphBuilder::new();
        let y = self.build(&mut g);
        let signature = ModelSignature::new().feed("x", DType::F32, &[FEATURES]).fetch(y);
        let policy = BatchPolicy {
            max_batch_size: MAX_BATCH,
            max_queue_delay: Duration::from_micros(200),
            ..Default::default()
        };
        ModelSpec::local(g.finish().expect("graph validates"), signature)
            .with_policy(policy)
            .with_replicas(REPLICAS)
    }

    fn request(&self, row: usize) -> Request {
        Request::new(HashMap::from([("x".to_string(), self.rows[row].clone())]))
    }

    /// What a private session of the same graph returns for each pooled row.
    fn baselines(&self) -> Vec<Tensor> {
        let mut g = GraphBuilder::new();
        let y = self.build(&mut g);
        let sess = Session::local(g.finish().expect("graph validates")).expect("baseline session");
        self.rows
            .iter()
            .map(|row| {
                let feeds = HashMap::from([("x".to_string(), row.clone())]);
                sess.eval(&feeds, &[y]).expect("baseline run").remove(0)
            })
            .collect()
    }
}

/// One completed (or refused) request as the client saw it.
struct Seen {
    /// When the request was due (phase B) or `submit` was called (phase A).
    from: Instant,
    /// `ModelHandle::submit` called and returned, `Ticket::wait` returned.
    sent: Instant,
    submitted: Instant,
    done: Instant,
    /// `None` for a request that was refused or failed.
    answer: Option<Answer>,
    ok: bool,
}

/// The `Response` fields the traced run reads; the outputs are checked and
/// dropped at once, or a round would hold a few hundred thousand tensors.
struct Answer {
    queue_delay: Duration,
    batch_rows: usize,
    step: u64,
}

impl Seen {
    fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.from).as_secs_f64() * 1e3
    }
}

/// A model registered and serving, with what its answers are checked against.
struct Served<'a> {
    model: &'a Model,
    handle: ModelHandle,
    baselines: Vec<Tensor>,
    corrupt: bool,
}

impl Served<'_> {
    fn verdict(
        &self,
        row: usize,
        result: Result<Response, String>,
        first: bool,
    ) -> (bool, Option<Answer>) {
        match result {
            Ok(mut resp) => {
                if self.corrupt && first {
                    resp.outputs[0] = corrupted(&resp.outputs[0]);
                }
                let ok = resp.outputs.len() == 1 && resp.outputs[0].value_eq(&self.baselines[row]);
                let Response { queue_delay, batch_rows, step, .. } = resp;
                (ok, Some(Answer { queue_delay, batch_rows, step }))
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                (false, None)
            }
        }
    }

    /// Phase A: keeps [`WINDOW`] submits outstanding for `budget`. Returns
    /// what was seen and the phase's wall time.
    fn closed_loop(&self, rng: &mut Rng, budget: Duration) -> (Vec<Seen>, f64) {
        let mut seen = Vec::new();
        let mut inflight = VecDeque::with_capacity(WINDOW);
        let begin = Instant::now();
        loop {
            let open = begin.elapsed() < budget;
            while open && inflight.len() < WINDOW {
                let row = rng.range(0, FEED_POOL as u64 - 1) as usize;
                let sent = Instant::now();
                let ticket = self.handle.submit(self.model.request(row)).map_err(|e| e.to_string());
                inflight.push_back((row, sent, Instant::now(), ticket));
            }
            let Some((row, sent, submitted, ticket)) = inflight.pop_front() else {
                return (seen, begin.elapsed().as_secs_f64());
            };
            let result = ticket.and_then(|t| t.wait().map_err(|e| e.to_string()));
            let done = Instant::now();
            let (ok, answer) = self.verdict(row, result, seen.is_empty());
            seen.push(Seen { from: sent, sent, submitted, done, answer, ok });
        }
    }

    /// Phase B: Poisson arrivals at [`RATE_PER_S`] for `budget` from this
    /// thread, a second thread waiting the tickets in submit order and
    /// timing each from its due time. Returns what was seen and how late
    /// each send started, ms.
    fn open_loop(&self, rng: &mut Rng, budget: Duration) -> (Vec<Seen>, Vec<f64>) {
        let schedule = poisson_schedule(rng, RATE_PER_S, budget);
        let rows: Vec<usize> =
            schedule.iter().map(|_| rng.range(0, FEED_POOL as u64 - 1) as usize).collect();
        let (tx, rx) = mpsc::channel();
        let send = move |i: usize, due: Instant| {
            let sent = Instant::now();
            let ticket = self.handle.submit(self.model.request(rows[i])).map_err(|e| e.to_string());
            tx.send((rows[i], due, sent, Instant::now(), ticket)).expect("waiter thread is alive");
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(move || {
                let mut seen = Vec::new();
                for (row, from, sent, submitted, ticket) in rx {
                    let result = ticket.and_then(|t| t.wait().map_err(|e| e.to_string()));
                    let done = Instant::now();
                    let (ok, answer) = self.verdict(row, result, false);
                    seen.push(Seen { from, sent, submitted, done, answer, ok });
                }
                seen
            });
            // `send` owns the channel's sender: the waiter's loop ends when
            // the generator returns and drops it.
            let late_ms = run_open_loop(Instant::now(), &schedule, send);
            (waiter.join().expect("waiter thread"), late_ms)
        })
    }
}

/// Registers the model and serves one request: the set-up a user waits for.
fn set_up<'a>(
    model: &'a Model,
    registry: &ModelRegistry,
    cfg: &RoundCfg,
) -> (Served<'a>, f64, bool) {
    let t0 = Instant::now();
    let handle = registry.register("oneshot", model.spec()).expect("spec registers");
    let first = handle.serve(model.request(0)).map_err(|e| e.to_string());
    let setup_s = t0.elapsed().as_secs_f64();
    let served = Served { model, handle, baselines: model.baselines(), corrupt: cfg.corrupt };
    let (first_ok, _) = served.verdict(0, first, false);
    (served, setup_s, first_ok)
}

pub fn round(cfg: &RoundCfg) -> Round {
    let model = Model::new(cfg);
    let registry = ModelRegistry::new();
    let (served, setup_s, first_ok) = set_up(&model, &registry, cfg);
    let mut rng = Rng::new(cfg.seed, cfg.round, 0xA221);
    let (closed, wall_s) = served.closed_loop(&mut rng, cfg.budget / 2);
    let (open, _) = served.open_loop(&mut rng, cfg.budget / 2);
    let wrong = |seen: &[Seen]| seen.iter().filter(|s| !s.ok).count() as u64;
    Round {
        setup_s,
        units: closed.iter().filter(|s| s.ok).count() as f64,
        wall_s,
        op_ms: open.iter().map(|s| if s.ok { s.latency_ms() } else { f64::INFINITY }).collect(),
        attempted: 1 + (closed.len() + open.len()) as u64,
        failed: u64::from(!first_ok) + wrong(&closed) + wrong(&open),
    }
}

pub fn traced(cfg: &RoundCfg, log: &mut TraceLog) -> (Values, bool) {
    let mut v = Values::new();
    let model = Model::new(cfg);
    let direct = direct::measure(
        &|g| vec![model.build(g)],
        &|_, rows| {
            let batch = Tensor::concat0(&model.rows[..rows]).expect("rows concatenate");
            HashMap::from([("x".to_string(), batch)])
        },
        log,
        &mut v,
    );
    v.insert("serve.direct_step_ms_b1", direct.b1_ms);
    v.insert("serve.direct_step_ms_b8", direct.b8_ms);

    let registry = ModelRegistry::new();
    let (served, _, first_ok) = set_up(&model, &registry, cfg);
    let mut rng = Rng::new(cfg.seed, cfg.round, 0xA221);
    let (closed, _) = served.closed_loop(&mut rng, cfg.budget / 3);
    let after_a = served.handle.metrics().aggregate;
    let (open, late_ms) = served.open_loop(&mut rng, cfg.budget / 3);
    let metrics = served.handle.metrics();
    let after_b = &metrics.aggregate;

    // Batches ran full in phase A and nearly empty in phase B: both are
    // guards on the workload as much as measurements of the batcher.
    let rows_per_batch = |rows: u64, batches: u64| rows as f64 / batches.max(1) as f64;
    v.insert(
        "serve.occupancy",
        rows_per_batch(after_a.batched_rows, after_a.batches) / MAX_BATCH as f64,
    );
    v.insert(
        "serve.batch_rows_mean",
        rows_per_batch(
            after_b.batched_rows - after_a.batched_rows,
            after_b.batches - after_a.batches,
        ),
    );
    v.insert("serve.step_ms_p50", after_b.step_latency_p50_ms);
    v.insert("serve.rejected_overload", after_b.rejected_overload as f64);
    v.insert("serve.expired", after_b.expired as f64);
    let per_replica: Vec<u64> = metrics.replicas.iter().map(|r| r.snapshot.served).collect();
    let (most, least) = (per_replica.iter().max(), per_replica.iter().min());
    v.insert(
        "serve.replica_imbalance",
        (most.unwrap_or(&0) - least.unwrap_or(&0)) as f64 / after_b.served.max(1) as f64,
    );

    // Phase B, request by request: what the client saw, less the queue wait
    // the tier reports and a direct step of the same graph, is the tier's
    // own share (assemble, route, scatter, wake-ups).
    let answered = || open.iter().filter_map(|s| s.answer.as_ref().map(|r| (s, r)));
    let latency: Vec<f64> = open.iter().map(Seen::latency_ms).collect();
    let submit_us: Vec<f64> =
        open.iter().map(|s| s.submitted.duration_since(s.sent).as_secs_f64() * 1e6).collect();
    let queue_ms: Vec<f64> = answered().map(|(_, r)| r.queue_delay.as_secs_f64() * 1e3).collect();
    let overhead: Vec<f64> = answered()
        .map(|(s, r)| s.latency_ms() - r.queue_delay.as_secs_f64() * 1e3 - direct.b1_ms)
        .collect();
    v.insert("serve.submit_us_p50", p50(&submit_us));
    v.insert("serve.queue_wait_ms_p50", p50(&queue_ms));
    v.insert("serve.overhead_ms_p50", p50(&overhead));
    v.insert("serve.op_ms_p99", percentile(&latency, 0.99).unwrap_or(0.0));
    v.insert("host.gen_late_ms_p99", percentile(&late_ms, 0.99).unwrap_or(0.0));
    v.insert("trace.unattributed_share", p50(&overhead) / p50(&latency).max(f64::MIN_POSITIVE));

    record_spans(log, "closed-loop request", &closed, 0);
    record_spans(log, "open-loop request", &open, closed.len() as u64);
    let ok = first_ok && closed.iter().chain(&open).all(|s| s.ok);
    (v, ok)
}

/// Writes the first requests of a phase as spans: the request from its due
/// time to its answer, `submit` and `wait` nested under it, the `Response`
/// fields attached.
fn record_spans(log: &mut TraceLog, name: &'static str, seen: &[Seen], first_op: u64) {
    /// Enough to read the pattern; the files stay small.
    const SPANS_PER_PHASE: usize = 2000;
    for (i, s) in seen.iter().take(SPANS_PER_PHASE).enumerate() {
        let op = first_op + i as u64;
        let fields = s.answer.as_ref().map_or("\"refused\":true".to_string(), |r| {
            format!(
                "\"queue_delay_us\":{:.1},\"batch_rows\":{},\"step\":{}",
                r.queue_delay.as_secs_f64() * 1e6,
                r.batch_rows,
                r.step
            )
        });
        let request = log.span(name, op, None, s.from, s.done, fields);
        log.span("ModelHandle::submit", op, Some(request), s.sent, s.submitted, String::new());
        log.span("Ticket::wait", op, Some(request), s.submitted, s.done, String::new());
    }
}
