//! The traced run's records: harness spans around the calls into each
//! layer, kept in memory and written at exit as one Chrome-trace file per
//! workload, merged with the program's own `StepStats` events.

use crate::stats::percentile;
use dcf::device::StepStats;
use dcf::runtime::chrome_trace_json;
use std::time::Instant;

/// Pid of the harness process in the trace; device processes start at 1.
const HARNESS_PID: u32 = 1000;
/// Harness spans of overlapping operations spread over this many tracks, so
/// that spans on one track nest instead of crossing.
const HARNESS_TRACKS: u64 = 32;

struct Span {
    name: &'static str,
    /// The operation (request, row, step) this span belongs to.
    op: u64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
    /// Extra `"key": value` fields, already JSON.
    args: String,
}

pub struct TraceLog {
    epoch: Instant,
    spans: Vec<Span>,
    steps: Vec<StepStats>,
}

impl TraceLog {
    pub fn new() -> TraceLog {
        TraceLog { epoch: Instant::now(), spans: Vec::new(), steps: Vec::new() }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records one span; returns its index for children to name as parent.
    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        args: String,
    ) -> usize {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span { name, op, parent, start_us, end_us, args });
        self.spans.len() - 1
    }

    /// Adds the program's record of a traced `Session::run` that the harness
    /// started at `started`. `StepStats` times count from the collector's
    /// own epoch, taken inside `run` a few µs after `started`; they are
    /// shifted onto the harness clock so both appear on one timeline.
    pub fn step(&mut self, started: Instant, label: &str, stats: &StepStats) {
        let shift = self.us(started) as u64;
        let mut s = stats.clone();
        for dev in &mut s.devices {
            dev.device = format!("{} [{label}]", dev.device);
            for n in &mut dev.node_stats {
                n.scheduled_us += shift;
                n.start_us += shift;
                n.end_us += shift;
            }
            for k in &mut dev.kernel_stats {
                k.start_us += shift;
                k.end_us += shift;
            }
            for w in &mut dev.rendezvous {
                w.start_us += shift;
            }
        }
        for t in &mut s.transfers {
            t.start_us += shift;
        }
        self.steps.push(s);
    }

    /// Chrome-trace JSON: the harness spans as one process, then one process
    /// per device of every recorded step.
    pub fn chrome_json(&self) -> String {
        let mut merged = StepStats::default();
        for s in &self.steps {
            merged.devices.extend(s.devices.iter().cloned());
            merged.transfers.extend(s.transfers.iter().cloned());
        }
        let program = chrome_trace_json(&merged);
        let body_end = program.rfind("\n]").expect("chrome_trace_json closes its event array");
        let mut out = String::from(&program[..body_end]);
        let mut push = |event: String| {
            if !out.ends_with('[') {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&event);
        };
        push(format!(
            "{{\"ph\":\"M\",\"pid\":{HARNESS_PID},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"benchmark harness\"}}}}"
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if s.args.is_empty() { "" } else { "," };
            push(format!(
                "{{\"ph\":\"X\",\"pid\":{HARNESS_PID},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"args\":{{\"span\":{i},\"op\":{},\"parent\":{parent}{sep}{}}}}}",
                s.op % HARNESS_TRACKS,
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                s.name,
                s.op,
                s.args
            ));
        }
        out.push_str(&program[body_end..]);
        out
    }
}

/// Median of `samples`, or 0 for a layer that recorded nothing.
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Total length of the union of `intervals`, clipped to `[0, limit]`.
pub fn covered(mut intervals: Vec<(u64, u64)>, limit: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(limit));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 100), 25);
        assert_eq!(covered(vec![(0, 10), (2, 4)], 100), 10);
        assert_eq!(covered(vec![(90, 120)], 100), 10);
        assert_eq!(covered(Vec::new(), 100), 0);
    }

    #[test]
    fn harness_spans_merge_into_the_programs_trace() {
        let mut log = TraceLog::new();
        let t0 = log.epoch;
        let root = log.span("op", 7, None, t0, t0 + Duration::from_micros(50), String::new());
        log.span("wait", 7, Some(root), t0, t0 + Duration::from_micros(40), "\"rows\":8".into());
        let json = log.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json
            .contains("\"name\":\"wait\",\"args\":{\"span\":1,\"op\":7,\"parent\":0,\"rows\":8}"));
        assert!(json.contains("\"name\":\"op\",\"args\":{\"span\":0,\"op\":7,\"parent\":null}"));
    }
}
