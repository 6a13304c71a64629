//! `dcf-benchmark`: five workloads, end-to-end metrics with tracing off, a
//! per-layer budget from a traced run. See `benchmark/README.md`.
//!
//! # API allow-list
//!
//! This package is frozen while the crates under it change, so it calls only
//! what those changes mean to keep: `dcf::prelude`, `dcf::ml::{LstmCell,
//! dynamic_rnn, decode_step_model, decode_reference_model}`,
//! `dcf::exec::ExecutorOptions`, `dcf::device::{DeviceProfile, StepStats}`
//! and `StepStats`' record types, `dcf::runtime::chrome_trace_json`,
//! `dcf::serve::{Request, Response, BatchPolicy, MetricsSnapshot,
//! ModelMetrics}`, and methods reached through values of those types. Every
//! options struct is filled with `..Default::default()`. It never names
//! `Device::new`, `Tracer`, `Cluster::tracer`, `Executor::new`,
//! `Batcher::new`, `ContinuousBatcher`, `assemble_testing` or `MemPlan`,
//! which ROADMAP items 1, 3 and 4 mean to change or delete.
//!
//! # Modes
//!
//! * `--trace 0|1` — one run of one workload as the driver asks for it; the
//!   last line of stdout is the result object.
//! * neither `--trace` nor `--calibrate` — the suite: an untraced pass over
//!   the chosen workloads with rounds interleaved round-robin, then with
//!   `--traced` a traced pass; prints tables and JSON and writes
//!   `benchmark/out/results.json` and `benchmark/out/<workload>.trace.json`.
//! * `--calibrate` — the untraced suite three times; prints each metric's
//!   relative spread, and the bound that follows from it, beside `host.*`.

mod gen;
mod host;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{end_to_end, metrics_json, per_layer, result_json, table, RunResult, Values};
use stats::median;
use std::process::ExitCode;
use std::time::Duration;
use trace::TraceLog;
use workloads::{Round, RoundCfg, Workload};

/// Rounds per run. Each builds its model afresh, so each sets up cold.
const ROUNDS: u32 = 10;
/// Where the suite and the traced runs write, relative to the repository.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    traced: bool,
    calibrate: bool,
    corrupt: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: dcf-benchmark [--workload {}|all] [--seed N] [--seconds N] \
         [--trace 0|1 | --traced | --calibrate] [--corrupt]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20,
        trace: None,
        traced: false,
        calibrate: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(&name)
                        .ok_or(format!("unknown workload {name}\n{}", usage()))?],
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => args.traced = true,
            "--calibrate" => args.calibrate = true,
            "--corrupt" => args.corrupt = true,
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace runs one workload: name it with --workload".into());
    }
    Ok(args)
}

/// The untraced pass: [`ROUNDS`] rounds of every workload, interleaved
/// round-robin so that a slow minute on the box hits all of them, the host
/// probed before every round. Returns each workload's result and the probes.
fn untraced_pass(args: &Args) -> (Vec<(Workload, RunResult)>, Values) {
    let budget = Duration::from_secs(args.seconds) / ROUNDS;
    let mut rounds: Vec<Vec<Round>> = args.workloads.iter().map(|_| Vec::new()).collect();
    let mut probes = Vec::new();
    for round in 0..ROUNDS {
        for (w, done) in args.workloads.iter().zip(&mut rounds) {
            probes.push(host::sample());
            let cfg =
                RoundCfg { seed: args.seed, round, budget, corrupt: args.corrupt && round == 0 };
            let r = w.round(&cfg);
            eprintln!(
                "{} round {round}: setup {:.4} s, {:.1} units/s, {} ops, op p50 {:.4} ms",
                w.name(),
                r.setup_s,
                r.units / r.wall_s,
                r.op_ms.len(),
                stats::percentile(&r.op_ms, 0.5).unwrap_or(f64::NAN)
            );
            done.push(r);
        }
    }
    let results = args.workloads.iter().zip(&rounds).map(|(w, r)| (*w, end_to_end(r))).collect();
    (results, host_values(&probes))
}

fn host_values(probes: &[host::HostSample]) -> Values {
    let of = |f: fn(&host::HostSample) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    Values::from([
        ("host.spin_ms_p50", of(|p| p.spin_ms)),
        ("host.pingpong_us_p50", of(|p| p.pingpong_us)),
    ])
}

/// The traced run of one workload: the layer probes every workload shares,
/// then its own traced round. Writes `<workload>.trace.json`.
fn traced_run(w: Workload, args: &Args) -> RunResult {
    let probes: Vec<_> = (0..ROUNDS).map(|_| host::sample()).collect();
    let mut v = host_values(&probes);
    layers::tensor_kernels(args.seed, &mut v);
    layers::session_run_floor(&mut v);
    let budget = Duration::from_secs(args.seconds);
    let cfg = RoundCfg { seed: args.seed, round: 0, budget, corrupt: args.corrupt };
    let mut log = TraceLog::new();
    let (measured, ok) = w.traced(&cfg, &mut log);
    v.extend(measured);
    let path = format!("{OUT_DIR}/{}.trace.json", w.name());
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, log.chrome_json()));
    match written {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    RunResult {
        correct: ok,
        attempted: 1,
        failed: u64::from(!ok),
        metrics: per_layer(v),
        weak_tail: false,
    }
}

/// One result as text: a heading, then the metric table.
fn report(w: Workload, kind: &str, r: &RunResult) -> String {
    format!(
        "{} {kind} ({} attempted, {} failed{}):\n{}",
        w.name(),
        r.attempted,
        r.failed,
        if r.weak_tail { "; op_ms_p95 rests on fewer than 200 ops" } else { "" },
        table(&r.metrics)
    )
}

/// One run as the driver asks for it.
fn contract_run(args: &Args, trace: bool) -> ExitCode {
    let w = args.workloads[0];
    let result = if trace {
        traced_run(w, args)
    } else {
        let (mut results, host) = untraced_pass(args);
        eprintln!("host:\n{}", table(&host));
        results.remove(0).1
    };
    eprintln!("{}", report(w, if trace { "per layer" } else { "end to end" }, &result));
    println!("{}", result_json(&result));
    ExitCode::SUCCESS
}

/// The suite: every chosen workload untraced, then (with `--traced`) traced.
fn suite(args: &Args) -> ExitCode {
    let (results, host) = untraced_pass(args);
    let mut sections = vec![format!("\"host\": {}", metrics_json(&host))];
    let mut all_correct = true;
    println!("host:\n{}", table(&host));
    for (w, r) in &results {
        println!("{}", report(*w, "end to end", r));
        sections.push(format!("\"{}\": {}", w.name(), result_json(r)));
        all_correct &= r.correct;
    }
    if args.traced {
        for w in &args.workloads {
            let r = traced_run(*w, args);
            println!("{}", report(*w, "per layer", &r));
            sections.push(format!("\"{}.per_layer\": {}", w.name(), result_json(&r)));
            all_correct &= r.correct;
        }
    }
    let json = format!(
        "{{\"seed\": {}, \"seconds\": {}, {}}}",
        args.seed,
        args.seconds,
        sections.join(", ")
    );
    println!("{json}");
    let path = format!("{OUT_DIR}/results.json");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!("could not write {path}: {e}");
    }
    exit_code(all_correct)
}

/// Three untraced passes on one commit: the largest relative gap between the
/// three medians of each metric, and the bound `max(0.10, 2 × gap)` it
/// gives, capped at the 0.25 the contract allows.
fn calibrate(args: &Args) -> ExitCode {
    let passes: Vec<_> = (0..3).map(|_| untraced_pass(args)).collect();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let today = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() / 86_400);
    let (y, m, d) = civil_from_days(today);
    println!("calibration: commit {commit}, {cores} cores, {y}-{m:02}-{d:02}, seed {}", args.seed);
    let gap = |values: &[f64]| {
        let (lo, hi) =
            values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        (hi - lo) / lo
    };
    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "pass 1", "pass 2", "pass 3", "gap", "bound"
    );
    for i in 0..args.workloads.len() {
        for def in metrics::END_TO_END {
            let values: Vec<f64> =
                passes.iter().map(|(results, _)| results[i].1.metrics[def.name]).collect();
            println!(
                "{:<14} {:<18} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {:>6.2}",
                args.workloads[i].name(),
                def.name,
                values[0],
                values[1],
                values[2],
                gap(&values) * 100.0,
                (2.0 * gap(&values)).clamp(0.10, 0.25)
            );
        }
    }
    for name in ["host.spin_ms_p50", "host.pingpong_us_p50"] {
        let values: Vec<f64> = passes.iter().map(|(_, host)| host[name]).collect();
        println!(
            "{:<14} {:<18} {:>12.4} {:>12.4} {:>12.4} {:>7.1}%",
            "host",
            name,
            values[0],
            values[1],
            values[2],
            gap(&values) * 100.0
        );
    }
    exit_code(passes.iter().all(|(results, _)| results.iter().all(|(_, r)| r.correct)))
}

/// The suite and the calibration fail when any output check failed.
fn exit_code(all_correct: bool) -> ExitCode {
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("an output check failed");
        ExitCode::FAILURE
    }
}

/// Days since 1970-01-01 to (year, month, day), proleptic Gregorian.
fn civil_from_days(days: u64) -> (u64, u64, u64) {
    // Shift the epoch to 0000-03-01 so leap days fall at the end of a year.
    let z = days + 719_468;
    let (era, day_of_era) = (z / 146_097, z % 146_097);
    let year_of_era =
        (day_of_era - day_of_era / 1_460 + day_of_era / 36_524 - day_of_era / 146_096) / 365;
    let day_of_year = day_of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
    let mp = (5 * day_of_year + 2) / 153;
    let day = day_of_year - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    (year_of_era + era * 400 + u64::from(month <= 2), month, day)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.trace {
        Some(trace) => contract_run(&args, trace),
        None if args.calibrate => calibrate(&args),
        None => suite(&args),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn civil_dates() {
        assert_eq!(super::civil_from_days(0), (1970, 1, 1));
        assert_eq!(super::civil_from_days(11_016), (2000, 2, 29));
        assert_eq!(super::civil_from_days(20_723), (2026, 9, 27));
    }
}
