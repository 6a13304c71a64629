//! Chrome `chrome://tracing` export of [`StepStats`].
//!
//! Layout: one trace *process* per device (pid = device index + 1) with one
//! track per stream (compute / h2d / d2h), one "scheduler" track per
//! executor worker thread, and a "rendezvous" track; plus a synthetic
//! "network" process (pid 0) carrying the modeled transfers. All events are
//! complete ("X") events with microsecond timestamps, so the file loads
//! directly in `chrome://tracing` or Perfetto.

use crate::stats::{RendezvousKind, StepStats};

/// Pid of the synthetic network process.
const NETWORK_PID: u64 = 0;
/// Tid of the rendezvous track within each device process.
const RENDEZVOUS_TID: u64 = 90;
/// Base tid of the per-worker scheduler tracks within each device process.
const SCHEDULER_TID_BASE: u64 = 100;

/// Escapes `s` for embedding in a JSON string literal (no surrounding
/// quotes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_meta(out: &mut String, pid: u64, tid: Option<u64>, what: &str, name: &str) {
    out.push_str(&format!("{{\"ph\":\"M\",\"pid\":{pid}"));
    if let Some(tid) = tid {
        out.push_str(&format!(",\"tid\":{tid}"));
    }
    out.push_str(&format!(",\"name\":\"{what}\",\"args\":{{\"name\":\"{}\"}}}}", escape(name)));
}

fn push_event(
    out: &mut String,
    pid: u64,
    tid: u64,
    name: &str,
    ts: u64,
    dur: u64,
    args: &[(&str, String)],
) {
    out.push_str(&format!(
        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":\"{}\"",
        escape(name)
    ));
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape(k)));
        }
        out.push('}');
    }
    out.push('}');
}

/// Renders `stats` as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object format).
pub fn chrome_trace_json(stats: &StepStats) -> String {
    let mut events: Vec<String> = Vec::new();

    // A non-empty run tag (e.g. a serving batch id from
    // `RunOptions::with_tag`) suffixes every process and track name, so
    // traces of several tagged steps remain distinguishable after merging.
    let tagged = |name: &str| -> String {
        if stats.tag.is_empty() {
            name.to_string()
        } else {
            format!("{name} [{}]", stats.tag)
        }
    };

    for (idx, dev) in stats.devices.iter().enumerate() {
        let pid = idx as u64 + 1;
        {
            let mut m = String::new();
            push_meta(&mut m, pid, None, "process_name", &tagged(&dev.device));
            events.push(m);
        }

        // One track per stream, tids 1..; thread names drop the
        // device-name prefix for readability.
        let mut streams: Vec<&str> = dev.kernel_stats.iter().map(|k| k.stream.as_str()).collect();
        streams.sort_unstable();
        streams.dedup();
        for (s_idx, stream) in streams.iter().enumerate() {
            let tid = s_idx as u64 + 1;
            let short = stream
                .strip_prefix(dev.device.as_str())
                .map(|s| s.trim_start_matches('/'))
                .unwrap_or(stream);
            let mut m = String::new();
            push_meta(&mut m, pid, Some(tid), "thread_name", &tagged(short));
            events.push(m);
            for k in dev.kernel_stats.iter().filter(|k| k.stream == *stream) {
                let mut e = String::new();
                push_event(
                    &mut e,
                    pid,
                    tid,
                    &k.kernel,
                    k.start_us,
                    k.end_us.saturating_sub(k.start_us),
                    &[],
                );
                events.push(e);
            }
        }

        // One scheduler track per executor worker thread. Each track maps
        // to one OS thread recording synchronous spans, so events within a
        // track never overlap.
        let mut workers: Vec<u32> = dev.node_stats.iter().map(|n| n.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        for w in &workers {
            let tid = SCHEDULER_TID_BASE + *w as u64;
            let mut m = String::new();
            push_meta(&mut m, pid, Some(tid), "thread_name", &tagged(&format!("scheduler/{w}")));
            events.push(m);
        }
        for n in &dev.node_stats {
            let mut e = String::new();
            push_event(
                &mut e,
                pid,
                SCHEDULER_TID_BASE + n.worker as u64,
                &n.node,
                n.start_us,
                n.end_us.saturating_sub(n.start_us),
                &[
                    ("frame", format!("\"{}\"", escape(&n.frame))),
                    ("iter", n.iter.to_string()),
                    ("scheduled_us", n.scheduled_us.to_string()),
                    ("dead", if n.is_dead { "true".into() } else { "false".into() }),
                ],
            );
            events.push(e);
        }

        if !dev.rendezvous.is_empty() {
            let mut m = String::new();
            push_meta(&mut m, pid, Some(RENDEZVOUS_TID), "thread_name", &tagged("rendezvous"));
            events.push(m);
            for w in &dev.rendezvous {
                let kind = match w.kind {
                    RendezvousKind::Send => "send",
                    RendezvousKind::Recv => "recv",
                };
                let mut e = String::new();
                push_event(
                    &mut e,
                    pid,
                    RENDEZVOUS_TID,
                    &format!("{kind} {}", w.key),
                    w.start_us,
                    w.wait_us,
                    &[("kind", format!("\"{kind}\""))],
                );
                events.push(e);
            }
        }
    }

    if !stats.transfers.is_empty() {
        let mut m = String::new();
        push_meta(&mut m, NETWORK_PID, None, "process_name", &tagged("network"));
        events.push(m);
        let mut m = String::new();
        push_meta(&mut m, NETWORK_PID, Some(1), "thread_name", &tagged("transfers"));
        events.push(m);
        for t in &stats.transfers {
            let mut e = String::new();
            push_event(
                &mut e,
                NETWORK_PID,
                1,
                &t.key,
                t.start_us,
                t.delay_us,
                &[("bytes", t.bytes.to_string())],
            );
            events.push(e);
        }
    }

    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd\te\u{1}µ→"), r#"a\"b\\c\nd\te\u0001µ→"#);
    }
}
