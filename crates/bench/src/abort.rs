//! Abort latency: how long a cancelled run keeps the runtime busy.
//!
//! Measures the cost the fault-injection PR removed: before, a cancelled
//! run's stream threads slept out the **full modeled duration** of every
//! in-flight kernel (the calibrated wait had no cancel check), so aborting
//! a run with a 200 ms modeled kernel took ≥ 200 ms no matter how early
//! the cancel fired. After, the wait polls the run's cancel flag every
//! 500 µs, so abort latency is bounded by the poll quantum instead of the
//! modeled time.
//!
//! Two scenarios:
//!
//! * `stream/*` — one 200 ms-modeled kernel, cancel fired 5 ms after
//!   submit. `sleepout` submits without a cancel flag (the pre-PR
//!   behavior, still the path taken by uncancellable submissions);
//!   `cancellable` wires the flag.
//! * `session/timeout_abort` — an unbounded `while_loop` under a 20 ms
//!   `RunOptions::with_timeout`: wall time until `run` returns
//!   `DeadlineExceeded` with the runtime verifiably quiescent.

use crate::Report;
use dcf_device::{Device, DeviceId, DeviceProfile, Kernel, StreamKind};
use dcf_graph::{GraphBuilder, WhileOptions};
use dcf_runtime::{RunOptions, Session};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const MODELED: Duration = Duration::from_millis(200);
const CANCEL_AFTER: Duration = Duration::from_millis(5);

fn one_kernel(device: &Device, cancel: Option<Arc<AtomicBool>>) {
    let flag = cancel.clone();
    let (ev, _slot) = device.submit(
        StreamKind::Compute,
        Kernel {
            name: "modeled-200ms".into(),
            modeled: MODELED,
            wait_for: vec![],
            compute: Box::new(|| Ok(vec![])),
            cancel,
            collector: None,
        },
    );
    if let Some(flag) = flag {
        thread::sleep(CANCEL_AFTER);
        flag.store(true, Ordering::SeqCst);
    }
    ev.wait();
}

/// Runs `f` once to warm up, then `samples` times; returns the sorted
/// wall times in milliseconds.
fn time_ms(samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let mut ms: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Runs the abort-latency comparison and returns the report.
pub fn run(samples: usize) -> Report {
    let device = Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40().with_time_scale(1.0));

    let mut cases = vec![
        ("stream/sleepout (pre-PR behavior)", time_ms(samples, || one_kernel(&device, None))),
        (
            "stream/cancellable",
            time_ms(samples, || one_kernel(&device, Some(Arc::new(AtomicBool::new(false))))),
        ),
    ];

    // Session-level: time-out an unbounded loop, requiring quiescence.
    let mut b = GraphBuilder::new();
    let init = b.scalar_i64(0);
    let lim = b.scalar_i64(i64::MAX);
    let outs = b
        .while_loop(
            &[init],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            WhileOptions::default(),
        )
        .expect("unbounded loop builds");
    let fetch = outs[0];
    let sess = Session::local(b.finish().expect("graph validates")).expect("session builds");
    let opts = RunOptions::default().with_timeout(Duration::from_millis(20));
    cases.push((
        "session/timeout_abort (20ms budget)",
        time_ms(samples, || {
            let (result, _) = sess.run(&opts, &HashMap::new(), &[fetch]);
            assert!(result.is_err(), "unbounded loop must abort");
            assert!(sess.quiescent(), "abort must leave the runtime quiescent");
        }),
    ));

    let mut report = Report::new(
        "Abort latency: cancelled modeled waits",
        &["case", "median", "mean", "min", "max"],
    );
    for (name, ms) in &cases {
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        report.row(vec![
            name.to_string(),
            format!("{:.2} ms", ms[ms.len() / 2]),
            format!("{mean:.2} ms"),
            format!("{:.2} ms", ms[0]),
            format!("{:.2} ms", ms[ms.len() - 1]),
        ]);
    }
    report.note(format!(
        "one {} ms-modeled kernel; cancel fired {} ms after submit \
         (sleepout ignores it, cancellable polls every 500 us)",
        MODELED.as_millis(),
        CANCEL_AFTER.as_millis()
    ));
    report
}
