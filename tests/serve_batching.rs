//! Integration tests for the `dcf-serve` dynamic batcher.
//!
//! The load-bearing property is **bit-identity**: for a batch-linear model
//! (every op treats axis 0 rows independently), concat→run→scatter must
//! produce exactly the bytes each request would have gotten from its own
//! private step. That is what makes dynamic batching transparent to
//! clients. The rest of the file covers the admission-control contract:
//! full queues reject promptly, expired requests never occupy a batch
//! slot, and an aborted batched step fails only its own batch.
//!
//! The `faults` module at the bottom (needs `--features faultinject`)
//! re-checks bit-identity while the batched steps run over a lossy
//! simulated network with retries.

use dcf::device::chrome_trace_json;
use dcf::exec::ExecError;
use dcf::graph::Graph;
use dcf::prelude::*;
use dcf::serve::Batcher;
use dcf::tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small batch-linear model with real control flow: three unrolled-by-
/// loop iterations of `y = tanh(y · W)` on `x: [B, 4]`, fetching both the
/// loop result and its square. Row `i` of a matmul only reads row `i` of
/// the left operand, and tanh/square are elementwise, so every op is
/// row-independent — the precondition for bit-identical scatter.
fn mlp_loop_model() -> (Graph, ModelSignature) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", DType::F32);
    let w = g.constant(TensorRng::new(7).uniform(&[4, 4], -0.8, 0.8));
    let i0 = g.scalar_i64(0);
    let trips = g.scalar_i64(3);
    let outs = g
        .while_loop(
            &[i0, x],
            |g, v| g.less(v[0], trips),
            |g, v| {
                let one = g.scalar_i64(1);
                let h = g.matmul(v[1], w)?;
                let h = g.tanh(h)?;
                Ok(vec![g.add(v[0], one)?, h])
            },
            WhileOptions::default(),
        )
        .expect("while_loop builds");
    let y = outs[1];
    let sq = g.square(y).unwrap();
    let sig = ModelSignature::new().feed("x", DType::F32, &[4]).fetch(y).fetch(sq);
    (g.finish().expect("graph validates"), sig)
}

#[test]
fn batched_scatter_is_bit_identical_to_individual_runs() {
    let (graph, sig) = mlp_loop_model();
    let session = Arc::new(Session::local(graph).unwrap());
    let batcher = Batcher::new(
        "mlp",
        session,
        sig.clone(),
        BatchPolicy {
            max_batch_size: 8,
            max_queue_delay: Duration::from_millis(25),
            ..BatchPolicy::default()
        },
    )
    .unwrap();

    // An independent reference session, built from scratch, runs every
    // request alone. The builder is deterministic, so the fetch refs from
    // its signature address the same nodes.
    let (ref_graph, ref_sig) = mlp_loop_model();
    let reference = Session::local(ref_graph).unwrap();

    let mut total = 0u64;
    for seed in [11u64, 42, 1234] {
        let mut rng = TensorRng::new(seed);
        let requests: Vec<HashMap<String, Tensor>> = (0..10)
            .map(|_| {
                let rows = 1 + rng.sample_index(3);
                let mut feeds = HashMap::new();
                feeds.insert("x".to_string(), rng.uniform(&[rows, 4], -2.0, 2.0));
                feeds
            })
            .collect();
        total += requests.len() as u64;

        // Enqueue everything before waiting on anything, so the linger
        // window actually coalesces the burst.
        let tickets: Vec<_> = requests
            .iter()
            .map(|feeds| batcher.submit(Request::new(feeds.clone())).unwrap())
            .collect();

        for (feeds, ticket) in requests.iter().zip(tickets) {
            let resp = ticket.wait().unwrap();
            let rows = feeds["x"].shape().dim(0);
            let alone = reference.eval(feeds, &ref_sig.fetches).unwrap();
            assert_eq!(resp.outputs.len(), 2);
            for (got, want) in resp.outputs.iter().zip(&alone) {
                assert_eq!(got.shape().dims(), &[rows, 4]);
                assert!(
                    got.value_eq(want),
                    "batched slice differs from a private run (seed {seed})"
                );
            }
            assert!(resp.batch_rows >= rows);
            assert!(resp.tag.starts_with("mlp/batch-"));
        }
    }

    let snap = batcher.snapshot();
    assert_eq!(snap.served, total);
    assert_eq!(snap.failed + snap.expired + snap.rejected_shape, 0);
    // Batching must actually have happened: fewer steps than requests and
    // more than one row per step on average.
    assert!(snap.batches < total, "no coalescing: {} batches for {} requests", snap.batches, total);
    assert!(snap.mean_batch_rows > 1.0);
    assert!(snap.queue_delay_p99_ms >= snap.queue_delay_p50_ms);
}

#[test]
fn full_queue_rejects_promptly_and_recovers() {
    let (graph, sig) = mlp_loop_model();
    let session = Arc::new(Session::local(graph).unwrap());
    let batcher = Batcher::new(
        "mlp",
        session,
        sig,
        BatchPolicy {
            max_batch_size: 4,
            queue_capacity: 4,
            max_queue_delay: Duration::from_millis(200),
            ..BatchPolicy::default()
        },
    )
    .unwrap();

    let feed = |rows: usize| {
        let mut m = HashMap::new();
        m.insert("x".to_string(), Tensor::fill_f32(0.5, &[rows, 4]));
        m
    };

    // 3 of 4 capacity rows queued; the batcher lingers (3 < max_batch_size
    // and the oldest request is younger than max_queue_delay).
    let queued = batcher.submit(Request::new(feed(3))).unwrap();
    // 2 more rows would exceed capacity: reject *now*, not after a queue
    // timeout.
    let t0 = Instant::now();
    let err = batcher.submit(Request::new(feed(2))).unwrap_err();
    assert!(matches!(err, ExecError::Overloaded(_)), "got {err:?}");
    assert!(t0.elapsed() < Duration::from_millis(100), "backpressure rejection should not block");

    // The queued request still completes once the linger window closes,
    // and the drained queue admits new work again.
    assert_eq!(queued.wait().unwrap().outputs[0].shape().dims(), &[3, 4]);
    assert!(batcher.run(Request::new(feed(2))).is_ok());

    let snap = batcher.snapshot();
    assert_eq!(snap.rejected_overload, 1);
    assert_eq!(snap.served, 2);
}

#[test]
fn expired_request_never_occupies_a_batch_slot() {
    let (graph, sig) = mlp_loop_model();
    let session = Arc::new(Session::local(graph).unwrap());
    let batcher = Batcher::new(
        "mlp",
        session,
        sig,
        BatchPolicy {
            max_batch_size: 8,
            max_queue_delay: Duration::from_millis(150),
            ..BatchPolicy::default()
        },
    )
    .unwrap();

    let feed = |rows: usize| {
        let mut m = HashMap::new();
        m.insert("x".to_string(), Tensor::fill_f32(0.25, &[rows, 4]));
        m
    };

    // Already-expired deadline: rejected synchronously at enqueue.
    let err = batcher.submit(Request::new(feed(1)).with_deadline_in(Duration::ZERO)).unwrap_err();
    assert!(matches!(err, ExecError::DeadlineExceeded { .. }), "got {err:?}");

    // A deadline shorter than the linger window: the batcher must wake for
    // the deadline, complete the request with DeadlineExceeded, and issue
    // **no** step for it.
    let doomed =
        batcher.submit(Request::new(feed(2)).with_deadline_in(Duration::from_millis(20))).unwrap();
    let err = doomed.wait().unwrap_err();
    assert!(matches!(err, ExecError::DeadlineExceeded { .. }), "got {err:?}");
    let snap = batcher.snapshot();
    assert_eq!(snap.expired, 2);
    assert_eq!(snap.batches, 0, "an expired request must never reach a batch");

    // A live request afterwards is served, and its batch contains only its
    // own rows — the expired rows really were discarded.
    let resp = batcher.run(Request::new(feed(1))).unwrap();
    assert_eq!(resp.batch_rows, 1);
    let snap = batcher.snapshot();
    assert_eq!((snap.batches, snap.batched_rows, snap.served), (1, 1, 1));
}

/// A model whose running time is controlled by a feed: loop `y = tanh(y)`
/// until the counter reaches `max(n)`. Huge `n` makes the step overrun its
/// timeout and abort; the abort must fail exactly that batch and leave the
/// batcher (and its session) serving.
fn feed_controlled_loop_model() -> (Graph, ModelSignature) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", DType::F32);
    let n = g.placeholder("n", DType::F32);
    let lim = g.reduce_max(n).unwrap();
    let i0 = g.scalar_f32(0.0);
    let outs = g
        .while_loop(
            &[i0, x],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_f32(1.0);
                Ok(vec![g.add(v[0], one)?, g.tanh(v[1])?])
            },
            WhileOptions::default(),
        )
        .expect("while_loop builds");
    let sig =
        ModelSignature::new().feed("x", DType::F32, &[]).feed("n", DType::F32, &[]).fetch(outs[1]);
    (g.finish().expect("graph validates"), sig)
}

#[test]
fn aborted_batched_step_fails_only_its_batch() {
    let (graph, sig) = feed_controlled_loop_model();
    let session = Arc::new(Session::local(graph).unwrap());
    let batcher = Batcher::new(
        "looper",
        session.clone(),
        sig,
        BatchPolicy {
            max_batch_size: 8,
            max_queue_delay: Duration::from_millis(2),
            run_options: RunOptions::default().with_timeout(Duration::from_millis(50)),
            ..BatchPolicy::default()
        },
    )
    .unwrap();

    let feed = |trips: f32| {
        let mut m = HashMap::new();
        m.insert("x".to_string(), Tensor::fill_f32(0.5, &[1]));
        m.insert("n".to_string(), Tensor::fill_f32(trips, &[1]));
        m
    };

    // A poison request that loops ~forever: its batched step hits the
    // policy timeout and aborts.
    let err = batcher.run(Request::new(feed(1e9))).unwrap_err();
    assert!(matches!(err, ExecError::DeadlineExceeded { .. }), "got {err:?}");
    let snap = batcher.snapshot();
    assert_eq!((snap.steps_failed, snap.failed), (1, 1));

    // The abort machinery must leave the shared session quiescent and the
    // batcher thread alive: a well-behaved request right after succeeds.
    assert!(session.quiescent(), "aborted batched step leaked run state");
    let resp = batcher.run(Request::new(feed(3.0))).unwrap();
    assert_eq!(resp.outputs[0].shape().dims(), &[1]);
    let snap = batcher.snapshot();
    assert_eq!(snap.served, 1);
    assert!(session.quiescent());
}

#[test]
fn batch_tags_mark_chrome_trace_tracks() {
    // Satellite check, end to end at the session layer the batcher uses:
    // a tagged traced step must carry its tag into every Chrome-trace
    // track (process/thread) name, so concurrently traced batched steps
    // stay distinguishable in the viewer.
    let (graph, sig) = mlp_loop_model();
    let session = Session::local(graph).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::fill_f32(0.1, &[2, 4]));
    let opts = RunOptions::traced(TraceLevel::Full).with_tag("mlp/batch-0");
    let (result, meta) = session.run(&opts, &feeds, &sig.fetches);
    result.unwrap();
    assert_eq!(meta.tag, "mlp/batch-0");
    let trace = chrome_trace_json(&meta.step_stats.expect("trace requested"));
    assert!(trace.contains("[mlp/batch-0]"), "trace track names should carry the batch tag");
}

#[cfg(feature = "faultinject")]
mod faults {
    //! Bit-identity under injected network faults: batched steps hop
    //! machines inside the loop body, the policy's `FaultPlan` drops,
    //! delays, and duplicates those transfers, and generous retries must
    //! absorb all of it without perturbing a single bit of any client's
    //! slice.

    use super::*;
    use dcf::device::DeviceProfile;
    use dcf::runtime::{FaultPlan, RetryPolicy};

    fn two_machines() -> Cluster {
        let mut c = Cluster::new();
        c.add_device(0, DeviceProfile::cpu());
        c.add_device(1, DeviceProfile::cpu());
        c
    }

    /// Like [`mlp_loop_model`] but the tanh lives on machine 1 while the
    /// matmul and loop control live on machine 0, so every iteration of
    /// every batched step crosses the simulated network twice.
    fn distributed_model() -> (Graph, ModelSignature) {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", DType::F32);
        let w = g.constant(TensorRng::new(7).uniform(&[4, 4], -0.8, 0.8));
        let i0 = g.scalar_i64(0);
        let trips = g.scalar_i64(3);
        let outs = g
            .while_loop(
                &[i0, x],
                |g, v| g.less(v[0], trips),
                |g, v| {
                    let one = g.scalar_i64(1);
                    let h = g.matmul(v[1], w)?;
                    let h = g.with_device("/machine:1/cpu:0", |g| g.tanh(h))?;
                    Ok(vec![g.add(v[0], one)?, h])
                },
                WhileOptions::default(),
            )
            .expect("while_loop builds");
        let sig = ModelSignature::new().feed("x", DType::F32, &[4]).fetch(outs[1]);
        (g.finish().expect("graph validates"), sig)
    }

    #[test]
    fn fault_injected_batches_stay_bit_identical() {
        // Fault-free baseline session.
        let (ref_graph, ref_sig) = distributed_model();
        let reference =
            Session::new(ref_graph, two_machines(), SessionOptions::functional()).unwrap();

        let generous = RetryPolicy { max_retries: 16, ..RetryPolicy::default() };
        let mut fault_events_total = 0u64;
        for seed in [1u64, 2, 3, 4] {
            let plan = FaultPlan::seeded(seed)
                .with_drop(0.2)
                .with_delay(0.3, Duration::from_millis(2))
                .with_duplicate(0.2);
            let (graph, sig) = distributed_model();
            let session = Arc::new(
                Session::new(graph, two_machines(), SessionOptions::functional()).unwrap(),
            );
            let batcher = Batcher::new(
                "dist",
                session.clone(),
                sig,
                BatchPolicy {
                    max_batch_size: 8,
                    max_queue_delay: Duration::from_millis(10),
                    run_options: RunOptions::default().with_retry(generous).with_fault_plan(plan),
                    ..BatchPolicy::default()
                },
            )
            .unwrap();

            let mut rng = TensorRng::new(seed ^ 0xD1CE);
            let requests: Vec<HashMap<String, Tensor>> = (0..6)
                .map(|_| {
                    let rows = 1 + rng.sample_index(2);
                    let mut feeds = HashMap::new();
                    feeds.insert("x".to_string(), rng.uniform(&[rows, 4], -1.5, 1.5));
                    feeds
                })
                .collect();
            let tickets: Vec<_> = requests
                .iter()
                .map(|feeds| batcher.submit(Request::new(feeds.clone())).unwrap())
                .collect();
            for (feeds, ticket) in requests.iter().zip(tickets) {
                let resp = ticket.wait().unwrap_or_else(|e| {
                    panic!("fault-injected batch failed past retries (seed {seed}): {e}")
                });
                let alone = reference.eval(feeds, &ref_sig.fetches).unwrap();
                assert!(
                    resp.outputs[0].value_eq(&alone[0]),
                    "faults perturbed a batched slice (seed {seed})"
                );
            }
            let snap = batcher.snapshot();
            assert_eq!(snap.served, 6);
            fault_events_total += snap.fault_events;
            assert!(session.quiescent());
        }
        // The sweep must actually have exercised the fault path.
        assert!(fault_events_total > 0, "no faults fired across the sweep");
    }
}

/// Seeded randomized sweep of the one-shot admission policy against an
/// independent model. The policy is a pure function of plain rows, so
/// the sweep needs no session, thread or channel.
#[test]
fn assemble_policy_matches_model_on_seeded_random_lanes() {
    use dcf::serve::admission::{admit_requests, Waiting};
    use dcf::serve::Priority;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Outcome {
        Batched(usize),
        Expired,
        Queued,
    }

    // The intended policy, restated independently: per lane (interactive
    // first), expired entries are removed wherever they sit; live entries
    // are taken FIFO while they fit; the first live entry that does not
    // fit blocks all live entries behind it, but expiry continues.
    fn model(entries: &[Waiting], max_rows: usize, now: Instant) -> Vec<Outcome> {
        let mut outcomes = vec![Outcome::Queued; entries.len()];
        let (mut rows, mut pos) = (0usize, 0usize);
        for lane in [Priority::Interactive, Priority::Batch] {
            let mut blocked = false;
            for (i, e) in entries.iter().enumerate().filter(|(_, e)| e.lane == lane) {
                if e.deadline.is_some_and(|d| d <= now) {
                    outcomes[i] = Outcome::Expired;
                } else if !blocked && rows + e.rows <= max_rows {
                    rows += e.rows;
                    outcomes[i] = Outcome::Batched(pos);
                    pos += 1;
                } else {
                    blocked = true;
                }
            }
        }
        outcomes
    }

    let mut s = 0x9e37_79b9_7f4a_7c15u64; // splitmix64 stream
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let now = Instant::now();
    for case in 0..500 {
        let n = (next() % 24) as usize;
        let entries: Vec<Waiting> = (0..n)
            .map(|_| Waiting {
                rows: 1 + (next() % 5) as usize,
                lane: if next() % 2 == 0 { Priority::Interactive } else { Priority::Batch },
                deadline: (next() % 2 == 0).then(|| now - Duration::from_millis(5)),
                enqueued: now - Duration::from_millis(10),
                started: false,
            })
            .collect();
        let max_rows = 1 + (next() % 11) as usize;
        // Linger elapsed: assembly is due, so the lane policy decides.
        let d = admit_requests(&entries, max_rows, Duration::ZERO, false, now);

        let mut outcomes = vec![Outcome::Queued; n];
        for &i in &d.expire {
            outcomes[i] = Outcome::Expired;
        }
        for (pos, &i) in d.take.iter().enumerate() {
            assert_eq!(outcomes[i], Outcome::Queued, "case {case}: entry {i} decided twice");
            outcomes[i] = Outcome::Batched(pos);
        }
        assert_eq!(
            outcomes,
            model(&entries, max_rows, now),
            "case {case}: entries {entries:?} cap {max_rows}"
        );
        let batched_rows: usize = d.take.iter().map(|&i| entries[i].rows).sum();
        assert!(batched_rows <= max_rows, "case {case}: cap violated");
        assert!(
            d.wake.is_none_or(|w| w > now),
            "case {case}: wake target {:?} is not ahead",
            d.wake
        );
    }
}
