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
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod functions;
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
    fn percentile_of_an_empty_sample_is_nan() {
        assert_eq!(percentile_ms(&[1e6, 2e6, 3e6, 4e6, 5e6], 0.5), 3.0);
        assert_eq!(percentile_ms(&[1e6, 9e6], 0.99), 9.0);
        assert!(percentile_ms(&[], 0.99).is_nan());
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
