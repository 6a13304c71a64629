//! Integration tests for the replica router behind the `ModelHandle` API.
//!
//! Three properties carry the tier:
//!
//! * **Routing** — power-of-two-choices dispatch must actually prefer the
//!   less-loaded replica: traffic fired while one replica's queue is
//!   occupied has to land on the idle one.
//! * **Transparency** — replication is invisible to clients: every
//!   response of a replicated model, whichever replica and batch served
//!   it, is bit-identical to what a private single-replica session
//!   returns for the same feed.
//! * **Self-healing** (`--features faultinject`) — a replica whose steps
//!   keep aborting is evicted and replaced while the model keeps serving.

use dcf::graph::Graph;
use dcf::prelude::*;
use dcf::serve::ModelMetrics;
use std::collections::HashMap;
use std::time::Duration;

/// The same batch-linear loop model the batcher tests pin bit-identity
/// on: three loop iterations of `y = tanh(y · W)` over `x: [B, 4]`.
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
    let sig = ModelSignature::new().feed("x", DType::F32, &[4]).fetch(outs[1]);
    (g.finish().expect("graph validates"), sig)
}

fn feed_rows(rows: usize, value: f32) -> HashMap<String, Tensor> {
    let mut m = HashMap::new();
    m.insert("x".to_string(), Tensor::fill_f32(value, &[rows, 4]));
    m
}

/// The replica a response was served by, recovered from its batch tag
/// (`"mlp[r0]/batch-3"` → `"mlp[r0]"`).
fn replica_of(tag: &str) -> String {
    tag.split("/batch-").next().unwrap().to_string()
}

#[test]
fn p2c_routes_around_a_loaded_replica() {
    let (graph, sig) = mlp_loop_model();
    let reg = ModelRegistry::new();
    let handle = reg
        .register(
            "mlp",
            ModelSpec::local(graph, sig)
                .with_policy(BatchPolicy {
                    max_batch_size: 8,
                    // Long linger: a partial batch occupies its replica's
                    // queue for the whole window, so the load imbalance is
                    // stable while we fire the probe traffic.
                    max_queue_delay: Duration::from_millis(300),
                    ..BatchPolicy::default()
                })
                .with_replicas(2),
        )
        .unwrap();

    // Occupy one replica with a 4-row request that will linger...
    let occupant = handle.submit(Request::new(feed_rows(4, 0.5))).unwrap();
    // ...then probe with single-row requests. Each sees loads like
    // [4, 0] / [4, 1] / [4, 2]: strictly less-loaded, so every probe must
    // route to the idle replica no matter which pair order the hash picks.
    let probes: Vec<_> =
        (0..3).map(|i| handle.submit(Request::new(feed_rows(1, i as f32))).unwrap()).collect();

    let occupant_replica = replica_of(&occupant.wait().unwrap().tag);
    let probe_replicas: Vec<String> =
        probes.into_iter().map(|t| replica_of(&t.wait().unwrap().tag)).collect();
    for p in &probe_replicas {
        assert_ne!(
            *p, occupant_replica,
            "probe landed on the loaded replica (occupant on {occupant_replica})"
        );
    }

    let m: ModelMetrics = handle.metrics();
    assert!(m.instantiated);
    assert_eq!(m.replicas.len(), 2);
    assert_eq!(m.aggregate.served, 4);
    let mut served: Vec<u64> = m.replicas.iter().map(|r| r.snapshot.served).collect();
    served.sort();
    assert_eq!(served, vec![1, 3], "one replica took the occupant, the other all probes");
    assert_eq!(handle.replicas(), 2);
}

#[test]
fn fixed_replicas_stay_bit_identical_to_a_single_replica() {
    let (graph, sig) = mlp_loop_model();
    // Private single-replica reference: the builder is deterministic, so
    // its signature's fetch refs address the same nodes.
    let (ref_graph, ref_sig) = mlp_loop_model();
    let reference = Session::local(ref_graph).unwrap();

    let reg = ModelRegistry::new();
    let handle = reg
        .register(
            "mlp",
            ModelSpec::local(graph, sig)
                .with_policy(BatchPolicy {
                    max_batch_size: 2,
                    max_queue_delay: Duration::from_millis(5),
                    ..BatchPolicy::default()
                })
                .with_replicas(3),
        )
        .unwrap();

    // Mixed 1- and 2-row requests in bursts: single rows may share a batch
    // or run alone, full 2-row requests dispatch at once, and p2c spreads
    // each burst over the replicas.
    let mut rng = TensorRng::new(31);
    let mut requests = 0u64;
    for burst in 0..6 {
        let feeds: Vec<HashMap<String, Tensor>> = (0..6)
            .map(|i| {
                let mut m = HashMap::new();
                m.insert("x".to_string(), rng.uniform(&[1 + (burst + i) % 2, 4], -2.0, 2.0));
                m
            })
            .collect();
        let tickets: Vec<_> =
            feeds.iter().map(|f| handle.submit(Request::new(f.clone())).unwrap()).collect();
        for (f, t) in feeds.iter().zip(tickets) {
            let resp = t.wait().unwrap();
            let alone = reference.eval(f, &ref_sig.fetches).unwrap();
            assert!(
                resp.outputs[0].value_eq(&alone[0]),
                "replicated response differs from the single-replica reference"
            );
        }
        requests += feeds.len() as u64;
    }

    let m = handle.metrics();
    assert_eq!(m.replicas.len(), 3, "the replica count is fixed");
    assert_eq!(m.aggregate.served, requests);
    assert_eq!((m.evicted, m.resubmitted), (0, 0), "{m:?}");
}

#[cfg(feature = "faultinject")]
mod faults {
    //! Health eviction under injected faults: one replica's batched steps
    //! always fail (total transfer loss, no retries); it must be evicted
    //! and replaced while the model keeps serving.

    use super::*;
    use dcf::device::DeviceProfile;
    use dcf::runtime::{FaultPlan, RetryPolicy};

    /// Tanh on machine 1, loop control on machine 0: every batched step
    /// crosses the simulated network, which is where the plan bites.
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

    fn two_machines() -> Cluster {
        let mut c = Cluster::new();
        c.add_device(0, DeviceProfile::cpu());
        c.add_device(1, DeviceProfile::cpu());
        c
    }

    #[test]
    fn faulty_replica_is_evicted_and_replaced_while_serving() {
        let (graph, sig) = distributed_model();
        let mut spec = ModelSpec::local(graph, sig)
            .with_policy(BatchPolicy {
                max_batch_size: 4,
                max_queue_delay: Duration::from_millis(1),
                // No retries: a dropped transfer aborts the step at once,
                // so the sick replica racks up consecutive failures fast.
                run_options: RunOptions::default()
                    .with_retry(RetryPolicy { max_retries: 0, ..RetryPolicy::default() }),
                ..BatchPolicy::default()
            })
            .with_replicas(2)
            // Initial replica 0 loses every transfer; its replacement
            // (a fresh id past the override list) is healthy.
            .with_replica_fault_plan(0, FaultPlan::seeded(9).with_drop(1.0));
        spec.cluster = two_machines();

        let reg = ModelRegistry::new();
        let handle = reg.register("dist", spec).unwrap();

        // Sequential requests spread across both replicas (all idle, so
        // p2c ties break by hash). Ones landing on replica 0 fail — until
        // its third consecutive failed step gets it evicted, ahead of the
        // next request's routing, after which everything succeeds.
        let mut failures = 0u32;
        let mut successes = 0u32;
        let mut evicted_after: Option<u32> = None;
        for i in 0..40 {
            let feeds = feed_rows(1, i as f32 * 0.1);
            match handle.serve(Request::new(feeds)) {
                Ok(resp) => {
                    successes += 1;
                    assert_eq!(resp.outputs[0].shape().dims(), &[1, 4]);
                }
                Err(_) => failures += 1,
            }
            if evicted_after.is_none() && handle.metrics().evicted > 0 {
                evicted_after = Some(i);
            }
        }

        let m = handle.metrics();
        assert_eq!(m.evicted, 1, "the faulty replica must be evicted exactly once: {m:?}");
        assert_eq!(m.replicas.len(), 2, "eviction must replace, not shrink");
        assert!(
            m.replicas.iter().all(|r| r.id != 0),
            "replica 0 must be gone, replaced by a fresh id: {m:?}"
        );
        assert!(
            m.replicas.iter().all(|r| r.consecutive_step_failures == 0),
            "live replicas must be healthy: {m:?}"
        );
        let evicted_after = evicted_after.expect("eviction must happen during the run");
        assert!(failures >= 3, "the sick replica failed at least its eviction threshold");
        assert!(successes >= 20, "the model must keep serving throughout");
        // Eviction runs before routing, so the request that triggers it
        // never lands on the sick replica: every failure came from an
        // earlier request, and nothing needed a failover.
        assert!(
            failures <= evicted_after,
            "failures ({failures}) after eviction (at request {evicted_after})"
        );
        assert_eq!(m.resubmitted, 0, "no request was stranded on the sick replica: {m:?}");
        // The evicted replica's failed steps survive in the aggregate.
        assert!(m.aggregate.steps_failed >= 3, "retired counters must fold in: {m:?}");
        assert_eq!(m.aggregate.served, successes as u64);
    }
}
