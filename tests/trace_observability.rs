//! Integration tests for step-level observability: `RunOptions` /
//! `RunMetadata` / `StepStats` and the Chrome-trace export.
//!
//! These run a nested `while_loop` under `TraceLevel::Full` and check the
//! collected statistics against the loop's exact execution structure, then
//! round-trip the Chrome-trace JSON through the test-support parser in
//! `tests/json`.

mod json;

use dcf::device::{
    chrome_trace_json, FrameStats, KernelStats, NodeStats, RendezvousKind, RendezvousWait,
    StepStats, StepStatsCollector, TransferStats,
};
use dcf::exec::ExecutorOptions;
use dcf::prelude::*;
use json::Json;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Outer-loop trip count of the nested workload.
const OUTER: i64 = 3;
/// Inner-loop trip count per outer trip.
const INNER: i64 = 4;

/// Runs a nested counting loop (`OUTER` outer trips, each running a fresh
/// inner frame of `INNER` trips) traced at `TraceLevel::Full` on one
/// simulated CPU, returning the accumulator value and the step stats.
fn traced_nested_run(workers: usize) -> (i64, StepStats) {
    let mut g = GraphBuilder::new();
    let i0 = g.scalar_i64(0);
    let acc0 = g.scalar_i64(0);
    let olim = g.scalar_i64(OUTER);
    let ilim = g.scalar_i64(INNER);
    let outs = g
        .while_loop(
            &[i0, acc0],
            |g, v| g.less(v[0], olim),
            |g, v| {
                let j0 = g.scalar_i64(0);
                let inner = g.while_loop(
                    &[j0, v[1]],
                    |g, w| g.less(w[0], ilim),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        Ok(vec![g.add(w[0], one)?, g.add(w[1], one)?])
                    },
                    WhileOptions::default(),
                )?;
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?, inner[1]])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let sess = Session::new(
        g.finish().unwrap(),
        Cluster::single_cpu(),
        SessionOptions::functional()
            .with_executor(ExecutorOptions { workers, ..ExecutorOptions::default() }),
    )
    .unwrap();
    let (out, meta) = sess.run(&RunOptions::traced(TraceLevel::Full), &HashMap::new(), &[outs[1]]);
    let out = out.unwrap();
    (out[0].scalar_as_i64().unwrap(), meta.step_stats.expect("trace requested"))
}

#[test]
fn nested_loop_node_stats_are_exact() {
    let (acc, stats) = traced_nested_run(1);
    assert_eq!(acc, OUTER * INNER);
    assert_eq!(stats.devices.len(), 1);
    let dev = &stats.devices[0];
    assert!(!dev.node_stats.is_empty());

    // Every executed activation appears exactly once: (frame activation,
    // iteration, node) is a unique key, and timestamps are ordered.
    let mut seen = HashSet::new();
    for n in &dev.node_stats {
        assert!(
            seen.insert((n.frame.clone(), n.iter, n.node.clone())),
            "activation recorded twice: {} iter {} in {}",
            n.node,
            n.iter,
            n.frame
        );
        assert!(n.start_us <= n.end_us, "unordered span on {}", n.node);
    }

    // One completed activation record per dynamic frame: the root, one
    // outer activation, and one inner activation per outer *iteration* —
    // including the final dead wave, whose Enter tokens still instantiate
    // an (entirely dead) inner frame. Frame base tags nest with '/' per
    // level.
    let root: Vec<_> = dev.frames.iter().filter(|f| f.frame == "root").collect();
    let outer: Vec<_> = dev.frames.iter().filter(|f| f.frame.matches('/').count() == 1).collect();
    let inner: Vec<_> = dev.frames.iter().filter(|f| f.frame.matches('/').count() == 2).collect();
    assert_eq!(root.len(), 1, "frames: {:?}", dev.frames);
    assert_eq!(outer.len(), 1, "frames: {:?}", dev.frames);
    assert_eq!(inner.len(), OUTER as usize + 1, "frames: {:?}", dev.frames);

    // Iterations count every started iteration, including the final one
    // whose predicate came out false (it runs as a dead wave).
    assert_eq!(outer[0].iterations, OUTER as u64 + 1);
    for f in &inner {
        assert_eq!(f.iterations, INNER as u64 + 1, "inner frame {}", f.frame);
    }

    // Dead-token counts match the dead activations recorded per frame,
    // and the termination waves make them non-zero in every loop frame.
    for f in &dev.frames {
        let dead = dev.node_stats.iter().filter(|n| n.frame == f.frame && n.is_dead).count() as u64;
        assert_eq!(f.dead_tokens, dead, "dead-token mismatch in {}", f.frame);
    }
    for f in outer.iter().chain(&inner) {
        assert!(f.dead_tokens > 0, "no termination wave recorded in {}", f.frame);
    }
}

#[test]
fn cond_counts_untaken_branch_as_dead() {
    let mut g = GraphBuilder::new();
    let p = g.placeholder("p", DType::Bool);
    let x = g.scalar_f32(2.0);
    let outs = g
        .cond(
            p,
            |g| {
                let c = g.scalar_f32(10.0);
                Ok(vec![g.add(x, c)?])
            },
            |g| {
                let c = g.scalar_f32(20.0);
                Ok(vec![g.mul(x, c)?])
            },
        )
        .unwrap();
    let sess = Session::new(
        g.finish().unwrap(),
        Cluster::single_cpu(),
        SessionOptions::functional()
            .with_executor(ExecutorOptions { workers: 1, ..ExecutorOptions::default() }),
    )
    .unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("p".to_string(), Tensor::scalar_bool(true));
    let (out, meta) = sess.run(&RunOptions::traced(TraceLevel::Full), &feeds, &[outs[0]]);
    let out = out.unwrap();
    assert_eq!(out[0].scalar_as_f32().unwrap(), 12.0);

    let stats = meta.step_stats.expect("trace requested");
    let dev = &stats.devices[0];
    // The untaken false branch (Mul and its constant) executed dead.
    let dead: Vec<_> = dev.node_stats.iter().filter(|n| n.is_dead).collect();
    assert!(dead.iter().any(|n| n.node.contains("Mul")), "dead nodes: {dead:?}");
    assert!(dead.iter().all(|n| n.frame == "root"), "cond runs in the enclosing frame");
    // The root frame's dead-token count agrees with the recorded dead
    // set. Only the branch op itself runs dead: the guard Switches run
    // live and *emit* dead tokens on their untaken outputs.
    let root = dev.frames.iter().find(|f| f.frame == "root").expect("root frame stats");
    assert_eq!(root.dead_tokens, dead.len() as u64);
    assert!(root.dead_tokens >= 1, "the untaken Mul runs dead");
}

#[test]
fn chrome_trace_roundtrips_with_serial_tracks() {
    let (_, stats) = traced_nested_run(2);
    let text = chrome_trace_json(&stats);
    let doc = json::parse(&text).expect("emitted trace JSON parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());

    // Group complete ("X") events into (pid, tid) tracks.
    let mut tracks: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let pid = e.get("pid").unwrap().as_u64().unwrap();
        let tid = e.get("tid").unwrap().as_u64().unwrap();
        let ts = e.get("ts").unwrap().as_u64().unwrap();
        let dur = e.get("dur").unwrap().as_u64().unwrap();
        tracks.entry((pid, tid)).or_default().push((ts, ts + dur));
    }
    assert!(!tracks.is_empty());

    // Each stream/scheduler track maps to one OS thread, so its events
    // must be strictly non-overlapping. The rendezvous track (tid 90) and
    // the network process (pid 0) model concurrent waits and are exempt.
    let mut scheduler_tracks = 0;
    for ((pid, tid), mut spans) in tracks {
        if pid == 0 || tid == 90 {
            continue;
        }
        if tid >= 100 {
            scheduler_tracks += 1;
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "overlapping events in track pid={pid} tid={tid}: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
    assert!(scheduler_tracks >= 1, "no scheduler tracks emitted");
}

#[test]
fn gpu_kernel_streams_are_recorded_and_serial() {
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_time_scale(0.01));
    let mut g = GraphBuilder::new();
    let mut rng = TensorRng::new(5);
    let w = g.constant(rng.uniform(&[8, 8], -1.0, 1.0));
    let x0 = g.constant(rng.uniform(&[8, 8], -1.0, 1.0));
    let i0 = g.scalar_i64(0);
    let lim = g.scalar_i64(6);
    let outs = g
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?, g.matmul(v[1], w)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let sess = Session::new(g.finish().unwrap(), cluster, SessionOptions::functional()).unwrap();
    let (result, meta) =
        sess.run(&RunOptions::traced(TraceLevel::Full), &HashMap::new(), &[outs[1]]);
    result.unwrap();
    let stats = meta.step_stats.expect("trace requested");
    let dev = &stats.devices[0];
    assert!(!dev.kernel_stats.is_empty(), "Full trace records stream kernels");

    // Kernels on one stream execute FIFO on one thread: never overlapping.
    let mut by_stream: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for k in &dev.kernel_stats {
        by_stream.entry(k.stream.as_str()).or_default().push((k.start_us, k.end_us));
    }
    for (stream, mut spans) in by_stream {
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "overlapping kernels on {stream}: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
    let mem = dev.memory.expect("Full trace snapshots the allocator");
    assert!(mem.peak_bytes > 0);

    // The export of a kernel-bearing trace parses as well.
    let doc = json::parse(&chrome_trace_json(&stats)).expect("trace JSON parses");
    assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
}

#[test]
fn software_level_skips_device_events() {
    let mut g = GraphBuilder::new();
    let x = g.scalar_f32(3.0);
    let y = g.scalar_f32(4.0);
    let z = g.add(x, y).unwrap();
    let sess = Session::local(g.finish().unwrap()).unwrap();
    let (result, meta) = sess.run(&RunOptions::traced(TraceLevel::Software), &HashMap::new(), &[z]);
    result.unwrap();
    let stats = meta.step_stats.expect("trace requested");
    let dev = &stats.devices[0];
    assert!(!dev.node_stats.is_empty(), "software level records node timings");
    assert!(dev.kernel_stats.is_empty(), "no kernel events below Full");
    assert!(stats.transfers.is_empty(), "no transfer events below Full");
}

/// A hand-built Full-level trace: one node, one kernel, one frame, one
/// rendezvous wait and one network transfer on a single K40.
fn sample_stats() -> StepStats {
    let c = StepStatsCollector::new(TraceLevel::Full);
    let d = c.register_device("/machine:0/k40:0");
    c.record_node(
        d,
        NodeStats {
            node: "MatMul_1".into(),
            frame: "root;0/while_frame_4".into(),
            iter: 3,
            worker: 0,
            scheduled_us: 5,
            start_us: 10,
            end_us: 20,
            is_dead: false,
        },
    );
    c.record_kernel(
        d,
        KernelStats {
            stream: "/machine:0/k40:0/compute".into(),
            kernel: "MatMul_1".into(),
            start_us: 12,
            end_us: 30,
        },
    );
    c.record_frame(
        d,
        FrameStats { frame: "root;0/while_frame_4".into(), iterations: 4, dead_tokens: 2 },
    );
    c.record_rendezvous(
        d,
        RendezvousWait {
            key: "m0>m1/e|root;0".into(),
            kind: RendezvousKind::Recv,
            start_us: 1,
            wait_us: 9,
        },
    );
    c.record_transfer(TransferStats {
        key: "m0>m1/e|root;0".into(),
        bytes: 4096,
        start_us: 2,
        delay_us: 7,
    });
    c.finish()
}

#[test]
fn emits_parseable_trace_with_tracks() {
    let doc = json::parse(&chrome_trace_json(&sample_stats())).expect("emitted JSON parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    // Exactly one process-name metadata event per process.
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(process_names.contains(&"/machine:0/k40:0"));
    assert!(process_names.contains(&"network"));
    // The kernel event carries ts/dur.
    let kernel = events
        .iter()
        .find(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name").and_then(Json::as_str) == Some("MatMul_1")
                && e.get("tid").and_then(Json::as_u64) == Some(1)
        })
        .expect("kernel event present");
    assert_eq!(kernel.get("ts").unwrap().as_u64(), Some(12));
    assert_eq!(kernel.get("dur").unwrap().as_u64(), Some(18));
    // The scheduler event carries frame/iter args (its tid, from base 100,
    // depends on the recording thread's process-wide ordinal).
    let node = events
        .iter()
        .find(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_u64).unwrap_or(0) >= 100
        })
        .expect("scheduler event present");
    assert_eq!(
        node.get("args").unwrap().get("frame").unwrap().as_str(),
        Some("root;0/while_frame_4")
    );
    assert_eq!(node.get("args").unwrap().get("iter").unwrap().as_u64(), Some(3));
}

#[test]
fn run_tag_suffixes_every_track_name() {
    let mut stats = sample_stats();
    stats.tag = "serve/lstm/batch-7".into();
    let doc = json::parse(&chrome_trace_json(&stats)).expect("tagged JSON parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let meta_names: Vec<&str> = events
        .iter()
        .filter(|e| {
            matches!(
                e.get("name").and_then(Json::as_str),
                Some("process_name") | Some("thread_name")
            )
        })
        .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(!meta_names.is_empty());
    assert!(
        meta_names.iter().all(|n| n.ends_with("[serve/lstm/batch-7]")),
        "untagged track names: {meta_names:?}"
    );
    // The untagged export is unchanged.
    let plain = chrome_trace_json(&sample_stats());
    assert!(!plain.contains("batch-7"));
}

#[test]
fn empty_stats_still_parse() {
    let doc = json::parse(&chrome_trace_json(&StepStats::default())).unwrap();
    assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
}
