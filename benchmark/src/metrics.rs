//! The metric tables. `BENCHMARK.json` lists the same names, units and
//! directions; a unit test keeps the two in step.

use crate::stats::{median, percentile_over_rounds};
use crate::workloads::Round;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Measured with tracing off, on every workload. What one "op" and one unit
/// of throughput are is per workload (see `workloads`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("throughput_per_s", "1/s", "higher"),
    m("op_ms_p50", "ms", "lower"),
    m("op_ms_p95", "ms", "lower"),
];

/// Measured by the traced run. A layer a workload never enters reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("tensor.matmul_ns", "ns", "lower"),
    m("tensor.concat0_ns", "ns", "lower"),
    m("tensor.split0_ns", "ns", "lower"),
    m("graph.build_ms", "ms", "lower"),
    m("graph.nodes", "count", "lower"),
    m("autodiff.gradients_ms", "ms", "lower"),
    m("runtime.session_new_cold_ms", "ms", "lower"),
    m("runtime.session_new_cached_ms", "ms", "lower"),
    m("runtime.optimize_wall_us", "us", "lower"),
    m("runtime.fused", "count", "higher"),
    m("runtime.pruned", "count", "higher"),
    m("runtime.planned_bytes", "bytes", "higher"),
    m("runtime.aliased_slots", "count", "higher"),
    m("session.run_floor_us", "us", "lower"),
    m("exec.activation_ns", "ns", "lower"),
    m("exec.activation_ns_w1", "ns", "lower"),
    m("exec.handoff_ratio", "ratio", "lower"),
    m("exec.ops_per_step", "count", "lower"),
    m("exec.dead_share", "ratio", "lower"),
    m("exec.frames", "count", "lower"),
    m("exec.ready_wait_us_p50", "us", "lower"),
    m("exec.node_run_us_p50", "us", "lower"),
    m("rendezvous.recv_wait_us_p50", "us", "lower"),
    m("rendezvous.send_us_p50", "us", "lower"),
    m("netsim.transfers_per_iter", "count", "lower"),
    m("netsim.modeled_delay_us_per_iter", "us", "lower"),
    m("netsim.overhead_us_per_iter", "us", "lower"),
    m("device.compute_busy_share", "ratio", "higher"),
    m("device.d2h_busy_share", "ratio", "lower"),
    m("device.h2d_busy_share", "ratio", "lower"),
    m("device.copy_overlap_share", "ratio", "higher"),
    m("device.kernel_gap_us_p50", "us", "lower"),
    m("device.kernels_per_step", "count", "lower"),
    m("device.swap_out_kernels", "count", "lower"),
    m("device.total_allocs", "count", "lower"),
    m("device.failed_allocs", "count", "lower"),
    m("device.host_step_ms", "ms", "lower"),
    m("device.peak_mib", "MiB", "lower"),
    m("serve.submit_us_p50", "us", "lower"),
    m("serve.queue_wait_ms_p50", "ms", "lower"),
    m("serve.batch_rows_mean", "count", "higher"),
    m("serve.occupancy", "ratio", "higher"),
    m("serve.step_ms_p50", "ms", "lower"),
    m("serve.direct_step_ms_b1", "ms", "lower"),
    m("serve.direct_step_ms_b8", "ms", "lower"),
    m("serve.overhead_ms_p50", "ms", "lower"),
    m("serve.replica_imbalance", "ratio", "lower"),
    m("serve.rejected_overload", "count", "lower"),
    m("serve.expired", "count", "lower"),
    m("serve.op_ms_p99", "ms", "lower"),
    m("serve.stream_open_us_p50", "us", "lower"),
    m("serve.stream_queue_wait_ms_p50", "ms", "lower"),
    m("serve.iteration_rows_mean", "count", "higher"),
    m("serve.iterations_per_s", "1/s", "higher"),
    m("serve.direct_decode_step_ms_b8", "ms", "lower"),
    m("host.spin_ms_p50", "ms", "lower"),
    m("host.pingpong_us_p50", "us", "lower"),
    m("host.gen_late_ms_p99", "ms", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
    m("trace.unattributed_share", "ratio", "lower"),
];

/// Metric name → value. Names come from the tables above.
pub type Values = BTreeMap<&'static str, f64>;

/// One run's verdict and metrics, as the contract's result line has them.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// `op_ms_p95` was read off fewer samples than a p95 needs.
    pub weak_tail: bool,
}

/// Folds a run's rounds into the end-to-end metrics: the median over rounds
/// of set-up time and throughput, and latency percentiles per
/// [`percentile_over_rounds`].
pub fn end_to_end(rounds: &[Round]) -> RunResult {
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.units / r.wall_s).collect();
    let ops: Vec<&[f64]> = rounds.iter().map(|r| r.op_ms.as_slice()).collect();
    let (p50, _) = percentile_over_rounds(&ops, 0.50);
    let (p95, weak_tail) = percentile_over_rounds(&ops, 0.95);
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    let metrics = Values::from([
        ("setup_s", median(&setups)),
        ("throughput_per_s", median(&rates)),
        ("op_ms_p50", p50),
        ("op_ms_p95", p95),
    ]);
    RunResult { correct: failed == 0, attempted, failed, metrics, weak_tail }
}

/// Completes a traced run's values to the whole per-layer table.
pub fn per_layer(mut measured: Values) -> Values {
    for def in PER_LAYER {
        measured.entry(def.name).or_insert(0.0);
    }
    for name in measured.keys() {
        assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name} is not in PER_LAYER");
    }
    measured
}

fn def_of(name: &str) -> &'static MetricDef {
    let known = END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name);
    known.unwrap_or_else(|| panic!("{name} is in neither metric table"))
}

/// Renders a finite `f64` with all its digits; JSON has no infinity, so a
/// percentile that landed on a failed operation renders as `1e308`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e308".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(values: &Values) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*v),
                def_of(name).unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The contract's result line.
pub fn result_json(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    )
}

/// An aligned `name  value unit (direction)` table.
pub fn table(values: &Values) -> String {
    let width = values.keys().map(|k| k.len()).max().unwrap_or(0);
    values
        .iter()
        .map(|(name, v)| {
            let def = def_of(name);
            format!("  {name:<width$}  {v:>14.4} {:<6} ({} is better)\n", def.unit, def.better)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let section = BENCHMARK_JSON.split(&format!("\"{key}\"")).nth(1).expect(key);
            let section = &section[..section.find(']').expect("closing bracket")];
            assert_eq!(section.matches("\"name\"").count(), defs.len(), "{key}");
            for d in defs {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name, d.unit, d.better
                );
                assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_carries_every_digit_and_no_infinity() {
        let r = RunResult {
            correct: false,
            attempted: 3,
            failed: 1,
            metrics: Values::from([("op_ms_p50", 1.2034567891), ("op_ms_p95", f64::INFINITY)]),
            weak_tail: false,
        };
        assert_eq!(
            result_json(&r),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"op_ms_p50\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"op_ms_p95\": {\"value\": 1e308, \"unit\": \"ms\"}}}"
        );
    }
}
