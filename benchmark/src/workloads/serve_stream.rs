//! `serve_stream`: streaming stateful inference through the continuous
//! batcher. `decode_step_model` (input 3, hidden 8, output 4) behind
//! `with_stream`: 1 replica, 8 rows an iteration, at most 32 streams, a
//! 100 µs linger. One client thread holds 8 live `StreamHandle`s in a closed
//! loop: submit one row on each, wait for all, repeat; a stream that has
//! sent its seeded length (3..=20 rows) is dropped and a new one opened, so
//! the batcher's join/retire path runs about every other tick. One op is
//! one row, submit → response; throughput counts rows.

use super::{corrupted, direct, Round, RoundCfg};
use crate::gen::Rng;
use crate::metrics::Values;
use crate::trace::{p50, TraceLog};
use dcf::ml::{decode_reference_model, decode_step_model};
use dcf::prelude::*;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const INPUT: usize = 3;
const HIDDEN: usize = 8;
const OUTPUT: usize = 4;
/// Streams the client keeps live: one full iteration's rows.
const LIVE: usize = 8;
const ITERATION_ROWS: usize = 8;
const MAX_STREAMS: usize = 32;
const LINGER: Duration = Duration::from_micros(100);
const LENGTHS: (u64, u64) = (3, 20);
/// One finished stream in this many is compared with the reference decode.
const SAMPLE_EVERY: u64 = 64;

fn weight_seed(cfg: &RoundCfg) -> u64 {
    Rng::new(cfg.seed, cfg.round, 0x57E4).next_u64()
}

fn row_tensor(row: &[f32]) -> Tensor {
    Tensor::from_vec_f32(row.to_vec(), &[1, INPUT]).expect("one input row")
}

/// Registers the decode-step model for streaming; returns the registry (it
/// owns the replicas), the handle and the set-up time through the first row
/// served on a first stream.
fn set_up(cfg: &RoundCfg) -> (ModelRegistry, ModelHandle, f64, bool) {
    let t0 = Instant::now();
    let mut g = GraphBuilder::new();
    let m =
        decode_step_model(&mut g, INPUT, HIDDEN, OUTPUT, weight_seed(cfg)).expect("decode step");
    let signature = ModelSignature::new().feed(&m.x_feed, DType::F32, &[INPUT]).fetch(m.y);
    let mut stream = StreamSpec::new(&m.slots_feed)
        .with_max_streams(MAX_STREAMS)
        .with_iteration_rows(ITERATION_ROWS)
        .with_iteration_delay(LINGER);
    for (cell, dims) in &m.state_cells {
        stream = stream.with_cell(cell, dims);
    }
    for &w in &m.writes {
        stream = stream.with_state_fetch(w);
    }
    let spec =
        ModelSpec::local(g.finish().expect("graph validates"), signature).with_stream(stream);
    let registry = ModelRegistry::new();
    let handle = registry.register("decoder", spec).expect("spec registers");
    let first = handle
        .open_stream()
        .and_then(|s| s.send(HashMap::from([("x".to_string(), row_tensor(&[0.0; INPUT]))])));
    if let Err(e) = &first {
        eprintln!("first stream row failed: {e}");
    }
    (registry, handle, t0.elapsed().as_secs_f64(), first.is_ok())
}

/// One row as the client saw it.
struct RowSeen {
    sent: Instant,
    submitted: Instant,
    done: Instant,
    /// `StreamResponse::queue_delay`; `None` for a row that failed.
    queue_delay: Option<Duration>,
}

impl RowSeen {
    fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// A live stream: its seeded inputs and the outputs received so far.
struct Live {
    handle: StreamHandle,
    index: u64,
    inputs: Vec<f32>,
    outputs: Vec<Tensor>,
}

impl Live {
    fn len(&self) -> usize {
        self.inputs.len() / INPUT
    }
}

/// What the closed loop did.
struct Driven {
    rows: Vec<RowSeen>,
    /// `open_stream` calls: (called, returned).
    opens: Vec<(Instant, Instant)>,
    /// Sampled finished streams: (inputs, outputs), checked after the clock
    /// has stopped.
    sampled: Vec<(Vec<f32>, Vec<Tensor>)>,
    wall_s: f64,
    /// Rows and opens that failed or were refused.
    failed: u64,
}

fn drive(handle: &ModelHandle, cfg: &RoundCfg, budget: Duration) -> Driven {
    let mut rng = Rng::new(cfg.seed, cfg.round, 0x1E46);
    let mut d =
        Driven { rows: Vec::new(), opens: Vec::new(), sampled: Vec::new(), wall_s: 0.0, failed: 0 };
    let mut next_index = 0;
    let mut open = |d: &mut Driven| loop {
        let len = rng.range(LENGTHS.0, LENGTHS.1) as usize;
        let inputs = rng.f32s(len * INPUT, -1.0, 1.0);
        let called = Instant::now();
        let opened = handle.open_stream();
        d.opens.push((called, Instant::now()));
        next_index += 1;
        match opened {
            Ok(handle) => {
                return Live { handle, index: next_index - 1, inputs, outputs: Vec::new() }
            }
            Err(e) => {
                eprintln!("open_stream refused: {e}");
                d.failed += 1;
            }
        }
    };
    let begin = Instant::now();
    let mut live: Vec<Live> = (0..LIVE).map(|_| open(&mut d)).collect();
    while begin.elapsed() < budget {
        let tickets: Vec<_> = live
            .iter()
            .map(|s| {
                let t = s.outputs.len();
                let row = row_tensor(&s.inputs[t * INPUT..(t + 1) * INPUT]);
                let sent = Instant::now();
                let ticket = s.handle.submit(HashMap::from([("x".to_string(), row)]));
                (sent, Instant::now(), ticket)
            })
            .collect();
        for (s, (sent, submitted, ticket)) in live.iter_mut().zip(tickets) {
            let result = ticket.and_then(|t| t.wait());
            let done = Instant::now();
            let queue_delay = match result {
                Ok(mut resp) => {
                    s.outputs.push(resp.outputs.remove(0));
                    Some(resp.queue_delay)
                }
                Err(e) => {
                    eprintln!("stream row failed: {e}");
                    d.failed += 1;
                    // Keeps the stream's row count in step; the stream's
                    // comparison with the reference then fails too.
                    s.outputs.push(Tensor::zeros(DType::F32, &[1, OUTPUT]));
                    None
                }
            };
            d.rows.push(RowSeen { sent, submitted, done, queue_delay });
        }
        for s in &mut live {
            if s.outputs.len() == s.len() {
                let finished = std::mem::replace(s, open(&mut d));
                if finished.index % SAMPLE_EVERY == 0 {
                    d.sampled.push((finished.inputs, finished.outputs));
                }
            }
        }
    }
    d.wall_s = begin.elapsed().as_secs_f64();
    d
}

/// Compares every sampled stream with `decode_reference_model` run on the
/// whole sequence at once; returns how many differ.
fn wrong_streams(cfg: &RoundCfg, sampled: &mut [(Vec<f32>, Vec<Tensor>)]) -> u64 {
    // The reference graph bakes its length in: one session per length.
    let mut by_len: HashMap<usize, (Session, TensorRef)> = HashMap::new();
    let mut wrong = 0;
    for (i, (inputs, outputs)) in sampled.iter_mut().enumerate() {
        if cfg.corrupt && i == 0 {
            outputs[0] = corrupted(&outputs[0]);
        }
        let steps = inputs.len() / INPUT;
        let (sess, y) = by_len.entry(steps).or_insert_with(|| {
            let mut g = GraphBuilder::new();
            let y = decode_reference_model(&mut g, INPUT, HIDDEN, OUTPUT, weight_seed(cfg), steps)
                .expect("reference decode");
            (Session::local(g.finish().expect("graph validates")).expect("reference session"), y)
        });
        let x = Tensor::from_vec_f32(inputs.clone(), &[steps, INPUT]).expect("sequence");
        let want = sess.eval(&HashMap::from([("x".to_string(), x)]), &[*y]).expect("reference run");
        let got = Tensor::concat0(outputs).expect("rows concatenate");
        wrong += u64::from(!got.value_eq(&want[0]));
    }
    wrong
}

pub fn round(cfg: &RoundCfg) -> Round {
    let (_registry, handle, setup_s, first_ok) = set_up(cfg);
    let mut d = drive(&handle, cfg, cfg.budget);
    let wrong = wrong_streams(cfg, &mut d.sampled);
    assert!(!d.sampled.is_empty(), "no stream was sampled: the round checked nothing");
    Round {
        setup_s,
        units: d.rows.iter().filter(|r| r.queue_delay.is_some()).count() as f64,
        wall_s: d.wall_s,
        op_ms: d
            .rows
            .iter()
            .map(|r| if r.queue_delay.is_some() { r.latency_ms() } else { f64::INFINITY })
            .collect(),
        attempted: 1 + (d.rows.len() + d.opens.len()) as u64,
        failed: u64::from(!first_ok) + d.failed + wrong,
    }
}

pub fn traced(cfg: &RoundCfg, log: &mut TraceLog) -> (Values, bool) {
    let mut v = Values::new();
    // The names and state cells the decode graph declares, for the direct
    // steps' feeds; every build with one seed is the same graph.
    let m = decode_step_model(&mut GraphBuilder::new(), INPUT, HIDDEN, OUTPUT, weight_seed(cfg))
        .expect("decode step");
    let direct = direct::measure(
        &|g| {
            let m =
                decode_step_model(g, INPUT, HIDDEN, OUTPUT, weight_seed(cfg)).expect("decode step");
            std::iter::once(m.y).chain(m.writes).collect()
        },
        &|sess, rows| {
            let resources = sess.resources();
            let slots = (0..rows)
                .map(|_| {
                    let id = resources.stream_create();
                    for (cell, dims) in &m.state_cells {
                        let shape: Vec<usize> =
                            std::iter::once(1).chain(dims.iter().copied()).collect();
                        resources
                            .stream_init_cell(id, cell, Tensor::zeros(DType::F32, &shape))
                            .expect("state cell initialises");
                    }
                    id as i64
                })
                .collect();
            let x = Rng::new(cfg.seed, cfg.round, 0xD1EC).f32s(rows * INPUT, -1.0, 1.0);
            HashMap::from([
                (m.x_feed.clone(), Tensor::from_vec_f32(x, &[rows, INPUT]).expect("batch")),
                (m.slots_feed.clone(), Tensor::from_vec_i64(slots, &[rows]).expect("slots")),
            ])
        },
        log,
        &mut v,
    );
    v.insert("serve.direct_decode_step_ms_b8", direct.b8_ms);

    let (_registry, handle, _, first_ok) = set_up(cfg);
    let before = handle.metrics().aggregate;
    let mut d = drive(&handle, cfg, cfg.budget / 2);
    let after = handle.metrics().aggregate;
    let wrong = wrong_streams(cfg, &mut d.sampled);

    v.insert("serve.iteration_rows_mean", after.mean_iteration_rows);
    v.insert(
        "serve.iterations_per_s",
        (after.stream_iterations - before.stream_iterations) as f64 / d.wall_s,
    );
    v.insert("serve.step_ms_p50", after.step_latency_p50_ms);
    v.insert("serve.rejected_overload", (after.rejected_overload + after.streams_rejected) as f64);
    v.insert("serve.expired", (after.expired + after.streams_expired) as f64);
    let us = |(a, b): (Instant, Instant)| b.duration_since(a).as_secs_f64() * 1e6;
    let open_us: Vec<f64> = d.opens.iter().map(|&o| us(o)).collect();
    let submit_us: Vec<f64> = d.rows.iter().map(|r| us((r.sent, r.submitted))).collect();
    let latency: Vec<f64> = d.rows.iter().map(RowSeen::latency_ms).collect();
    let answered =
        || d.rows.iter().filter_map(|r| r.queue_delay.map(|q| (r, q.as_secs_f64() * 1e3)));
    let queue_ms: Vec<f64> = answered().map(|(_, q)| q).collect();
    // A row waits in the queue, then rides one iteration of (up to) 8 rows.
    let overhead: Vec<f64> = answered().map(|(r, q)| r.latency_ms() - q - direct.b8_ms).collect();
    v.insert("serve.stream_open_us_p50", p50(&open_us));
    v.insert("serve.submit_us_p50", p50(&submit_us));
    v.insert("serve.stream_queue_wait_ms_p50", p50(&queue_ms));
    v.insert("serve.overhead_ms_p50", p50(&overhead));
    v.insert("trace.unattributed_share", p50(&overhead) / p50(&latency).max(f64::MIN_POSITIVE));

    /// Enough to read the pattern; the files stay small.
    const SPANS: usize = 2000;
    for (i, &(called, returned)) in d.opens.iter().take(SPANS).enumerate() {
        log.span("ModelHandle::open_stream", i as u64, None, called, returned, String::new());
    }
    for (i, r) in d.rows.iter().take(SPANS).enumerate() {
        let op = (d.opens.len() + i) as u64;
        let fields = r.queue_delay.map_or("\"failed\":true".to_string(), |q| {
            format!("\"queue_delay_us\":{:.1}", q.as_secs_f64() * 1e6)
        });
        let row = log.span("stream row", op, None, r.sent, r.done, fields);
        log.span("StreamHandle::submit", op, Some(row), r.sent, r.submitted, String::new());
        log.span("StreamTicket::wait", op, Some(row), r.submitted, r.done, String::new());
    }
    (v, first_ok && d.failed + wrong == 0)
}
