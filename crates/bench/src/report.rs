//! Markdown, CSV, and machine-readable JSON emission for experiment
//! results.
//!
//! Tables and notes render for humans; [`Metric`]s render as
//! `BENCH_<id>.json` — the machine-readable results the CI perf gate
//! checks against the pinned bounds in `ci/bench_baseline.json` (see the
//! `perf_gate` binary). The JSON is hand-rolled (no serde in the offline container)
//! and parsed back with `cw_engine::calibrate::json`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Version stamped into every `BENCH_*.json`; the perf gate refuses to
/// compare documents with mismatched schema versions.
pub const BENCH_JSON_SCHEMA_VERSION: u64 = 1;

/// A rectangular table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "| {} |", self.headers.join(" | "));
        let _ =
            writeln!(s, "|{}|", self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            let _ = writeln!(s, "| {} |", row.join(" | "));
        }
        s
    }

    /// Renders CSV (naive quoting: fields containing commas are quoted).
    pub fn to_csv(&self) -> String {
        let esc = |f: &str| {
            if f.contains(',') || f.contains('"') {
                format!("\"{}\"", f.replace('"', "\"\""))
            } else {
                f.to_string()
            }
        };
        let mut s = String::new();
        let _ =
            writeln!(s, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.iter().map(|f| esc(f)).collect::<Vec<_>>().join(","));
        }
        s
    }
}

/// Whether larger or smaller metric values are better — whether a pinned
/// bound in the perf gate is a ceiling or a floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Timings, error rates: regression = value grew.
    LowerIsBetter,
    /// Agreement fractions, speedups: regression = value shrank.
    HigherIsBetter,
}

impl Direction {
    /// Stable serialized name (`"lower"` / `"higher"`).
    pub fn name(&self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower",
            Direction::HigherIsBetter => "higher",
        }
    }

    /// Inverse of [`Direction::name`].
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "lower" => Some(Direction::LowerIsBetter),
            "higher" => Some(Direction::HigherIsBetter),
            _ => None,
        }
    }
}

/// One machine-readable scalar result of an experiment.
///
/// Naming convention: `category/qualifier[/qualifier…]`, e.g.
/// `warm_kernel_s/poi3D-like/parallel-cpu`. Metrics whose name starts
/// with `bounded` are the ones `ci/bench_baseline.json` pins a bound on.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (stable across runs — it is the diff key).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Which way regressions point.
    pub direction: Direction,
}

/// A complete experiment report: a title, commentary, tables, and
/// machine-readable metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment id (e.g. `fig2`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Free-form notes (expected paper shape, caveats).
    pub notes: Vec<String>,
    /// Named tables.
    pub tables: Vec<(String, Table)>,
    /// Machine-readable metrics (emitted as `BENCH_<id>.json` when
    /// non-empty).
    pub metrics: Vec<Metric>,
    /// Extra artifacts written verbatim alongside the report
    /// (`(filename, contents)` — e.g. the fitted calibration profile).
    pub attachments: Vec<(String, String)>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str) -> Self {
        Report { id: id.into(), title: title.into(), ..Default::default() }
    }

    /// Adds a commentary line.
    pub fn note<S: Into<String>>(&mut self, s: S) {
        self.notes.push(s.into());
    }

    /// Adds a named table.
    pub fn add_table<S: Into<String>>(&mut self, name: S, t: Table) {
        self.tables.push((name.into(), t));
    }

    /// Adds one machine-readable metric (non-finite values are dropped —
    /// a NaN in the baseline would poison every future diff).
    pub fn add_metric<S: Into<String>>(&mut self, name: S, value: f64, direction: Direction) {
        if value.is_finite() {
            self.metrics.push(Metric { name: name.into(), value, direction });
        }
    }

    /// Renders the metrics as the `BENCH_<id>.json` document (empty
    /// string when there are no metrics).
    pub fn metrics_json(&self) -> String {
        if self.metrics.is_empty() {
            return String::new();
        }
        let esc = cw_engine::calibrate::json::escape;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema_version\": {BENCH_JSON_SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"experiment\": \"{}\",", esc(&self.id));
        let _ = writeln!(s, "  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"value\": {:?}, \"direction\": \"{}\"}}{comma}",
                esc(&m.name),
                m.value,
                m.direction.name()
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Renders the whole report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "## {} — {}\n", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(s, "> {n}");
        }
        if !self.notes.is_empty() {
            let _ = writeln!(s);
        }
        for (name, t) in &self.tables {
            let _ = writeln!(s, "### {name}\n");
            let _ = writeln!(s, "{}", t.to_markdown());
        }
        s
    }

    /// Writes `<id>.md` plus one CSV per table — and, when the report
    /// carries metrics, the machine-readable `BENCH_<id>.json` — into
    /// `dir`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut md = std::fs::File::create(dir.join(format!("{}.md", self.id)))?;
        md.write_all(self.to_markdown().as_bytes())?;
        if !self.metrics.is_empty() {
            std::fs::write(dir.join(format!("BENCH_{}.json", self.id)), self.metrics_json())?;
        }
        for (name, contents) in &self.attachments {
            std::fs::write(dir.join(name), contents)?;
        }
        for (i, (name, t)) in self.tables.iter().enumerate() {
            let safe: String = name
                .chars()
                .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
                .collect();
            let mut f = std::fs::File::create(dir.join(format!("{}_{}_{}.csv", self.id, i, safe)))?;
            f.write_all(t.to_csv().as_bytes())?;
        }
        Ok(())
    }
}

/// Formats a float with 2 decimals (speedups, ratios).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats seconds with adaptive precision.
pub fn secs(x: f64) -> String {
    if x < 1e-3 {
        format!("{:.1}µs", x * 1e6)
    } else if x < 1.0 {
        format!("{:.2}ms", x * 1e3)
    } else {
        format!("{x:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_markdown_and_csv() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["1", "x,y"]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | x,y |"));
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn report_renders_and_writes() {
        let mut r = Report::new("figX", "Test");
        r.note("a note");
        let mut t = Table::new(vec!["c"]);
        t.push_row(vec!["v"]);
        r.add_table("main", t);
        let md = r.to_markdown();
        assert!(md.contains("## figX — Test"));
        assert!(md.contains("> a note"));
        let dir = std::env::temp_dir().join("cw_bench_report_test");
        r.write_to(&dir).unwrap();
        assert!(dir.join("figX.md").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_emit_and_parse_back() {
        let mut r = Report::new("calibration", "Test");
        r.add_metric("warm_kernel_s/dataset-a/parallel-cpu", 1.5e-4, Direction::LowerIsBetter);
        r.add_metric("plan_agreement/calibrated", 0.8, Direction::HigherIsBetter);
        r.add_metric("bad", f64::NAN, Direction::LowerIsBetter); // dropped
        assert_eq!(r.metrics.len(), 2);

        let doc = cw_engine::calibrate::json::parse(&r.metrics_json()).unwrap();
        assert_eq!(
            doc.get("schema_version").unwrap().as_f64(),
            Some(BENCH_JSON_SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("calibration"));
        let metrics = doc.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].get("value").unwrap().as_f64(), Some(1.5e-4));
        assert_eq!(metrics[1].get("direction").unwrap().as_str(), Some("higher"));

        let dir = std::env::temp_dir().join("cw_bench_metrics_test");
        r.write_to(&dir).unwrap();
        assert!(dir.join("BENCH_calibration.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_without_metrics_emit_no_json() {
        let r = Report::new("figX", "Test");
        assert!(r.metrics_json().is_empty());
        let dir = std::env::temp_dir().join("cw_bench_nometrics_test");
        r.write_to(&dir).unwrap();
        assert!(!dir.join("BENCH_figX.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn direction_names_round_trip() {
        for d in [Direction::LowerIsBetter, Direction::HigherIsBetter] {
            assert_eq!(Direction::parse(d.name()), Some(d));
        }
        assert_eq!(Direction::parse("sideways"), None);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert!(secs(0.5e-3).ends_with("µs") || secs(0.5e-3).ends_with("ms"));
        assert_eq!(secs(2.0), "2.00s");
    }
}
