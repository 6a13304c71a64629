//! Experiment harness reproducing the paper's evaluation (§6).
//!
//! One module per table/figure; each exposes a `run(...)` function used by
//! both the standalone binaries (`cargo run --release -p dcf-bench --bin
//! fig11`) and the `reproduce` driver that regenerates `EXPERIMENTS.md`
//! data. Absolute numbers depend on the host; the *shapes* — who wins, by
//! what factor, where the crossovers are — are the reproduction targets.
//!
//! All experiments run on simulated devices: kernel durations come from
//! the device cost model at the paper's nominal shapes (via the
//! `shape_scale` mechanism), so a laptop reproduces the overlap, pipelining
//! and memory behavior of the paper's GPUs. See `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod abort;
pub mod concurrent;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod functions;
pub mod microbench;
pub mod sec65;
pub mod serve_batching;
pub mod serve_streaming;
pub mod table1;

/// Parses a `--trace-out <path>` flag from a raw argument list.
///
/// Returns the path following the flag, or `None` if the flag is absent.
/// Shared by the benchmark binaries that can emit Chrome-trace JSON.
pub fn trace_out_arg(args: &[String]) -> Option<String> {
    args.iter().position(|a| a == "--trace-out").and_then(|i| args.get(i + 1)).cloned()
}

/// Writes Chrome-trace JSON to `path` and prints where it went.
pub fn write_trace(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
    println!("wrote Chrome trace ({} bytes) to {path}; load it in chrome://tracing", json.len());
}

/// Quantile `q` (0..=1) of ascending nanosecond samples, in milliseconds
/// (nearest rank). `NaN` for an empty sample — a run in which every
/// request was rejected has no latency to report.
pub fn percentile_ms(sorted_ns: &[f64], q: f64) -> f64 {
    match sorted_ns.len() {
        0 => f64::NAN,
        n => sorted_ns[((n - 1) as f64 * q).round() as usize] / 1e6,
    }
}

/// Renders a millisecond figure as a JSON number with three decimals, or
/// `null` when there is none ([`percentile_ms`] of an empty sample): JSON
/// has no `NaN`, and an unparseable entry would make the next
/// [`merge_bench_json`] drop the whole file.
pub fn json_ms(ms: f64) -> String {
    if ms.is_finite() {
        format!("{ms:.3}")
    } else {
        "null".to_string()
    }
}

/// Compactly re-renders a parsed JSON value (used to preserve existing
/// benchmark entries when merging).
fn render_json(j: &dcf_device::json::Json) -> String {
    use dcf_device::json::{escape, Json};
    match j {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Json::Str(s) => format!("\"{}\"", escape(s)),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_json).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(pairs) => {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", escape(k), render_json(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

/// Merge-writes benchmark cases into the JSON array at `path`, keyed by
/// each entry's `"name"` member.
///
/// `entries` maps case name → a rendered JSON object for that case.
/// Existing entries with a colliding name are replaced in place; all other
/// entries are preserved, so different benchmarks (e.g. `concurrent_steps`
/// and `serve_batching`, which share `BENCH_serve.json`) can update the
/// same file without clobbering each other's results.
pub fn merge_bench_json(path: &str, entries: &[(String, String)]) {
    use dcf_device::json::{self, Json};
    let new_names: std::collections::HashSet<&str> =
        entries.iter().map(|(n, _)| n.as_str()).collect();
    let mut objects: Vec<String> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Some(existing) = json::parse(&text).ok().as_ref().and_then(Json::as_arr) {
            for e in existing {
                let name = e.get("name").and_then(Json::as_str).unwrap_or("");
                if !new_names.contains(name) {
                    objects.push(render_json(e));
                }
            }
        }
    }
    objects.extend(entries.iter().map(|(_, obj)| obj.clone()));
    let mut out = String::from("[\n");
    for (i, o) in objects.iter().enumerate() {
        out.push_str("  ");
        out.push_str(o);
        if i + 1 < objects.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// A printable result table.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (calibration, paper comparison).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Report {
        Report {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders the report as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!(
                    " {:>width$} |",
                    c,
                    width = widths.get(i).copied().unwrap_or(4)
                ));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_bench_json_preserves_and_replaces_by_name() {
        let path = std::env::temp_dir().join(format!("dcf_merge_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        std::fs::write(&path, "[\n  {\"name\": \"old\", \"x\": 1, \"why\": \"keep me\"}\n]\n")
            .unwrap();
        merge_bench_json(&path, &[("new".into(), "{\"name\": \"new\", \"y\": 2.5}".into())]);
        merge_bench_json(&path, &[("new".into(), "{\"name\": \"new\", \"y\": 3.5}".into())]);
        let doc = dcf_device::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let arr = doc.as_arr().unwrap();
        // "old" survived both merges; "new" was replaced, not duplicated.
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("why").unwrap().as_str().unwrap(), "keep me");
        assert_eq!(arr[1].get("y").unwrap().as_f64().unwrap(), 3.5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn percentile_of_an_empty_sample_is_nan_and_renders_as_null() {
        assert_eq!(percentile_ms(&[1e6, 2e6, 3e6, 4e6, 5e6], 0.5), 3.0);
        assert_eq!(json_ms(percentile_ms(&[1e6, 9e6], 0.99)), "9.000");
        assert_eq!(json_ms(percentile_ms(&[], 0.99)), "null");
    }

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("t", &["a", "bbbb"]);
        r.row(vec!["1".into(), "2".into()]);
        r.note("n");
        let s = r.render();
        assert!(s.contains("## t"));
        assert!(s.contains("| bbbb |"));
        assert!(s.contains("- n"));
    }
}
