//! Property-based tests of the dynamic batcher's scatter transparency
//! (requires `--features proptest`; see the note in Cargo.toml).
//!
//! Property: for a batch-linear model, submitting any mix of request sizes
//! and values through a [`Batcher`] yields, per request, exactly the bytes
//! a private `Session::run` of that request's feed would produce — for any
//! batching policy (batch size, linger window) the policy validator
//! accepts. With `--features proptest,faultinject` the same property is
//! re-checked under a seeded lossy network with generous retries.

use dcf::prelude::*;
use dcf::serve::{Batcher, ModelSignature};
use dcf::tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic batch-linear model: two loop iterations of
/// `y = tanh(y · W) + y` on `x: [B, 3]` (matmul rows are independent,
/// tanh/add are elementwise). With `distributed` the tanh is placed on
/// machine 1, so every iteration crosses the simulated network — the
/// surface fault plans act on. Returns the graph plus its signature.
fn residual_model(distributed: bool) -> (dcf::graph::Graph, ModelSignature) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", DType::F32);
    let w = g.constant(TensorRng::new(13).uniform(&[3, 3], -0.7, 0.7));
    let i0 = g.scalar_i64(0);
    let trips = g.scalar_i64(2);
    let outs = g
        .while_loop(
            &[i0, x],
            |g, v| g.less(v[0], trips),
            |g, v| {
                let one = g.scalar_i64(1);
                let h = g.matmul(v[1], w)?;
                let h = if distributed {
                    g.with_device("/machine:1/cpu:0", |g| g.tanh(h))?
                } else {
                    g.tanh(h)?
                };
                let h = g.add(h, v[1])?;
                Ok(vec![g.add(v[0], one)?, h])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let sig = ModelSignature::new().feed("x", DType::F32, &[3]).fetch(outs[1]);
    (g.finish().unwrap(), sig)
}

/// A session for [`residual_model`]: single-CPU when local, two machines
/// when distributed.
fn session_for(distributed: bool) -> (Session, ModelSignature) {
    let (graph, sig) = residual_model(distributed);
    let sess = if distributed {
        let mut c = Cluster::new();
        c.add_device(0, dcf::device::DeviceProfile::cpu());
        c.add_device(1, dcf::device::DeviceProfile::cpu());
        Session::new(graph, c, SessionOptions::functional()).unwrap()
    } else {
        Session::local(graph).unwrap()
    };
    (sess, sig)
}

/// Runs `row_counts.len()` requests (sizes from `row_counts`, values from
/// `seed`) through a fresh batcher with the given policy knobs and checks
/// every response bit-for-bit against a private run on a reference
/// session. Returns the number of batched steps issued.
fn check_scatter_transparency(
    row_counts: &[usize],
    seed: u64,
    max_batch_size: usize,
    linger_ms: u64,
    run_options: RunOptions,
    distributed: bool,
) -> Result<u64, TestCaseError> {
    let (session, sig) = session_for(distributed);
    let batcher = Batcher::new(
        "prop",
        Arc::new(session),
        sig,
        BatchPolicy {
            max_batch_size,
            max_queue_delay: Duration::from_millis(linger_ms),
            run_options,
            ..BatchPolicy::default()
        },
    )
    .unwrap();
    // The reference session never sees the fault plan: it supplies the
    // fault-free baseline each batched slice must match bit-for-bit.
    let (reference, ref_sig) = session_for(distributed);

    let mut rng = TensorRng::new(seed);
    let requests: Vec<HashMap<String, Tensor>> = row_counts
        .iter()
        .map(|&rows| {
            let mut feeds = HashMap::new();
            feeds.insert("x".to_string(), rng.uniform(&[rows, 3], -3.0, 3.0));
            feeds
        })
        .collect();
    let tickets: Vec<_> =
        requests.iter().map(|feeds| batcher.submit(Request::new(feeds.clone())).unwrap()).collect();
    for (feeds, ticket) in requests.iter().zip(tickets) {
        let resp = ticket.wait().unwrap();
        let alone = reference.eval(feeds, &ref_sig.fetches).unwrap();
        prop_assert!(resp.outputs[0].value_eq(&alone[0]), "batched slice differs from private run");
        prop_assert_eq!(resp.outputs[0].shape().dim(0), feeds["x"].shape().dim(0));
    }
    let snap = batcher.snapshot();
    prop_assert_eq!(snap.served, requests.len() as u64);
    Ok(snap.batches)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Concat→run→scatter is invisible to clients for any request mix and
    /// any valid policy.
    #[test]
    fn batched_scatter_is_transparent(
        row_counts in proptest::collection::vec(1usize..4, 1..8),
        seed in any::<u64>(),
        max_batch_size in 4usize..12,
        linger_ms in 0u64..8,
    ) {
        check_scatter_transparency(
            &row_counts,
            seed,
            max_batch_size,
            linger_ms,
            RunOptions::default(),
            false,
        )?;
    }

    /// With a generous linger window and a burst smaller than one batch,
    /// the batcher must coalesce: one step serves every request.
    #[test]
    fn small_bursts_coalesce_into_one_step(
        row_counts in proptest::collection::vec(1usize..3, 2..5),
        seed in any::<u64>(),
    ) {
        let total_rows: usize = row_counts.iter().sum();
        let batches = check_scatter_transparency(
            &row_counts,
            seed,
            total_rows.max(8),
            200,
            RunOptions::default(),
            false,
        )?;
        prop_assert_eq!(batches, 1, "burst fit one batch but took {} steps", batches);
    }
}

#[cfg(feature = "faultinject")]
mod faults {
    use super::*;
    use dcf::runtime::{FaultPlan, RetryPolicy};

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Scatter transparency survives a lossy network: seeded drops,
        /// delays, and duplicates on every transfer, absorbed by retries.
        #[test]
        fn batched_scatter_is_transparent_under_faults(
            row_counts in proptest::collection::vec(1usize..4, 1..6),
            seed in any::<u64>(),
        ) {
            let plan = FaultPlan::seeded(seed)
                .with_drop(0.2)
                .with_delay(0.3, Duration::from_millis(1))
                .with_duplicate(0.2);
            let generous = RetryPolicy { max_retries: 16, ..RetryPolicy::default() };
            check_scatter_transparency(
                &row_counts,
                seed,
                8,
                4,
                RunOptions::default().with_retry(generous).with_fault_plan(plan),
                true,
            )?;
        }
    }
}
