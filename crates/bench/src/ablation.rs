//! Ablation: the memory-swapping threshold (§5.3's "predefined threshold").
//!
//! Sweeps the pressure fraction above which stack saves swap to host
//! memory, on the Table 1 workload at a sequence length that does not fit
//! on the device without swapping. Low thresholds trade extra copy traffic
//! for headroom; a threshold of 1.0 effectively disables swapping and must
//! OOM — quantifying the design choice the paper describes qualitatively.
//! Beside each threshold it counts the pops that took their device buffer
//! back because its swap-out was still running, and so needed no swap-in.

use crate::table1::{calibrate_capacity, measure_with_threshold, pops_reclaimed, Outcome};
use crate::Report;

/// Measurements per ms/iteration cell; one read cannot show a policy.
const REPEATS: usize = 3;

/// Runs the threshold sweep.
pub fn run(thresholds: &[f64], seq_len: usize, time_scale: f64) -> Report {
    let capacity = calibrate_capacity();
    let mut report = Report::new(
        format!("Ablation: swap threshold at sequence length {seq_len}"),
        &["threshold", "ms/iteration", "pops reclaimed"],
    );
    for &t in thresholds {
        // An OOM sorts above every time, so the median is OOM when most
        // of the runs ran out of memory.
        let mut ms: Vec<f64> = (0..REPEATS)
            .map(|_| match measure_with_threshold(seq_len, true, capacity, time_scale, t) {
                Outcome::MsPerIteration(ms) => ms,
                Outcome::Oom => f64::INFINITY,
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        let median = ms[REPEATS / 2];
        let cell = if median.is_finite() { format!("{median:.2}") } else { "OOM".to_string() };
        let reclaimed = pops_reclaimed(seq_len, capacity, time_scale, t)
            .map_or("OOM".to_string(), |n| n.to_string());
        report.row(vec![format!("{t:.2}"), cell, reclaimed]);
    }
    report.note(
        "Lower thresholds swap earlier (more copy traffic, more headroom); a threshold of \
         1.0 never swaps and runs out of memory at this length. The paper describes the \
         threshold qualitatively (§5.3); this sweep quantifies the trade-off.",
    );
    report.note(format!(
        "ms/iteration is the median of {REPEATS} runs. Pops reclaimed: swap-outs minus \
         swap-ins in one fully traced step, the pops that took their device buffer back \
         because its swap-out was still running."
    ));
    report.note(format!(
        "Device capacity {:.2} GiB (same calibration as Table 1).",
        capacity as f64 / (1 << 30) as f64
    ));
    report
}
