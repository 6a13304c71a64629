//! Per-layer measurements shared by the workloads: direct calls into the
//! tensor kernels and the session floor, and the per-layer reading of one
//! traced step's `StepStats`.

use crate::gen::Rng;
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::{covered, p50};
use dcf::device::StepStats;
use dcf::prelude::*;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Median ns of one call of `f`, over 15 batches of `calls` calls.
fn median_ns(calls: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
        })
        .collect();
    median(&batches)
}

/// The tensor kernels the serve tier calls, on `serve_oneshot`'s own shapes:
/// `[8,8]·[8,8]`, eight `[1,8]` rows into one batch and back.
pub fn tensor_kernels(seed: u64, v: &mut Values) {
    let mut rng = Rng::new(seed, 0, 0x7E50);
    let mut mat = |r: usize, c: usize| {
        Tensor::from_vec_f32(rng.f32s(r * c, -1.0, 1.0), &[r, c]).expect("shape matches data")
    };
    let (a, b) = (mat(8, 8), mat(8, 8));
    let rows: Vec<Tensor> = (0..8).map(|_| mat(1, 8)).collect();
    v.insert(
        "tensor.matmul_ns",
        median_ns(2000, || {
            black_box(black_box(&a).matmul(black_box(&b)).expect("matmul"));
        }),
    );
    v.insert(
        "tensor.concat0_ns",
        median_ns(2000, || {
            black_box(Tensor::concat0(black_box(&rows)).expect("concat0"));
        }),
    );
    v.insert(
        "tensor.split0_ns",
        median_ns(2000, || {
            black_box(black_box(&a).split0(&[1; 8]).expect("split0"));
        }),
    );
}

/// `Session::run` fetching a constant: what every step pays before its
/// first activation.
pub fn session_run_floor(v: &mut Values) {
    let mut g = GraphBuilder::new();
    let c = g.scalar_f32(1.0);
    let sess = Session::local(g.finish().expect("graph validates")).expect("session builds");
    let (feeds, options) = (HashMap::new(), RunOptions::default());
    let us = median_ns(200, || {
        black_box(sess.run(&options, &feeds, &[c]).0.expect("constant fetch"));
    }) / 1e3;
    v.insert("session.run_floor_us", us);
}

/// The compile layer's counters, from a session that compiled its graph and
/// a second session over the same graph that must have found it cached.
/// Sessions built with `OptLevel::None` report nothing.
pub fn read_compile(cold: &Session, cached: &Session, v: &mut Values) {
    let (Some(o), Some(hit)) = (cold.optimize_stats(), cached.optimize_stats()) else {
        return;
    };
    assert!(!o.cache_hit && hit.cache_hit, "expected a cold open, then a cached one");
    v.insert("runtime.optimize_wall_us", o.wall_us as f64);
    v.insert("runtime.fused", o.fused as f64);
    v.insert("runtime.pruned", o.pruned as f64);
    v.insert("runtime.planned_bytes", o.planned_bytes as f64);
    v.insert("runtime.aliased_slots", o.aliased_slots as f64);
}

/// Reads one traced step, `wall_us` long as the harness saw it, layer by
/// layer. Returns the share of `wall_us` during which no recorded activity
/// (a scheduled or running activation, a kernel, a rendezvous wait, a
/// modeled transfer) was in progress.
pub fn read_step(stats: &StepStats, wall_us: f64, v: &mut Values) -> f64 {
    let nodes = || stats.devices.iter().flat_map(|d| d.node_stats.iter());
    let total = nodes().count();
    let dead = nodes().filter(|n| n.is_dead).count();
    let ready: Vec<f64> =
        nodes().map(|n| n.start_us.saturating_sub(n.scheduled_us) as f64).collect();
    let run: Vec<f64> = nodes().map(|n| n.end_us.saturating_sub(n.start_us) as f64).collect();
    v.insert("exec.ready_wait_us_p50", p50(&ready));
    v.insert("exec.node_run_us_p50", p50(&run));
    v.insert("exec.dead_share", dead as f64 / total.max(1) as f64);
    v.insert("exec.frames", stats.devices.iter().map(|d| d.frames.len()).sum::<usize>() as f64);

    let waits = |kind| -> Vec<f64> {
        stats
            .devices
            .iter()
            .flat_map(|d| d.rendezvous.iter())
            .filter(|w| w.kind == kind)
            .map(|w| w.wait_us as f64)
            .collect()
    };
    v.insert("rendezvous.recv_wait_us_p50", p50(&waits(dcf::device::RendezvousKind::Recv)));
    v.insert("rendezvous.send_us_p50", p50(&waits(dcf::device::RendezvousKind::Send)));

    let mut busy: Vec<(u64, u64)> = nodes().map(|n| (n.scheduled_us, n.end_us)).collect();
    for d in &stats.devices {
        busy.extend(d.kernel_stats.iter().map(|k| (k.start_us, k.end_us)));
        busy.extend(d.rendezvous.iter().map(|w| (w.start_us, w.start_us + w.wait_us)));
    }
    busy.extend(stats.transfers.iter().map(|t| (t.start_us, t.start_us + t.delay_us)));
    1.0 - covered(busy, wall_us as u64) as f64 / wall_us.max(1.0)
}

/// The device layer of one traced step on a modeled accelerator: how busy
/// each stream was, how much of the copying hid behind compute, and how
/// long the compute stream sat between kernels waiting for the host.
pub fn read_device(stats: &StepStats, wall_us: f64, v: &mut Values) {
    let busy = stats.busy_per_stream();
    let stream = |suffix: &str| busy.keys().find(|s| s.ends_with(suffix)).cloned();
    let share = |name: &Option<String>| name.as_ref().map_or(0.0, |s| busy[s] as f64 / wall_us);
    let (compute, d2h, h2d) = (stream("/compute"), stream("/d2h"), stream("/h2d"));
    v.insert("device.compute_busy_share", share(&compute));
    v.insert("device.d2h_busy_share", share(&d2h));
    v.insert("device.h2d_busy_share", share(&h2d));
    let overlap = |copy: &Option<String>| match (copy, &compute) {
        (Some(copy), Some(compute)) => stats.overlap_fraction(copy, compute) * busy[copy] as f64,
        _ => 0.0,
    };
    let copy_us = [&d2h, &h2d].iter().filter_map(|s| s.as_ref()).map(|s| busy[s]).sum::<u64>();
    v.insert("device.copy_overlap_share", (overlap(&d2h) + overlap(&h2d)) / copy_us.max(1) as f64);

    let kernels = || stats.devices.iter().flat_map(|d| d.kernel_stats.iter());
    let mut on_compute: Vec<(u64, u64)> = kernels()
        .filter(|k| Some(&k.stream) == compute.as_ref())
        .map(|k| (k.start_us, k.end_us))
        .collect();
    on_compute.sort_unstable();
    let gaps: Vec<f64> =
        on_compute.windows(2).map(|w| w[1].0.saturating_sub(w[0].1) as f64).collect();
    v.insert("device.kernel_gap_us_p50", p50(&gaps));
    v.insert("device.kernels_per_step", kernels().count() as f64);
    let swap_outs = kernels().filter(|k| Some(&k.stream) == d2h.as_ref()).count();
    v.insert("device.swap_out_kernels", swap_outs as f64);
}
