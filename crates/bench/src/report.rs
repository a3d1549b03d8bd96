//! Markdown and CSV emission for experiment results.
//!
//! Tables and notes render for humans and are what [`Report::write_to`]
//! puts on disk; [`Metric`]s are an in-memory list of named scalars for
//! callers that hold the [`Report`] (the calibration acceptance test).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

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

/// One named scalar result of an experiment.
///
/// Naming convention: `category[/qualifier…]`, e.g.
/// `plan_agreement/calibrated`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (stable across runs).
    pub name: String,
    /// Measured value.
    pub value: f64,
}

/// A complete experiment report: a title, commentary, tables, and named
/// scalar metrics.
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
    /// Named scalar results, kept in memory only (not written by
    /// [`Report::write_to`]).
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

    /// Adds one named metric (non-finite values are dropped, so a reader
    /// never compares against a NaN).
    pub fn add_metric<S: Into<String>>(&mut self, name: S, value: f64) {
        if value.is_finite() {
            self.metrics.push(Metric { name: name.into(), value });
        }
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

    /// Writes `<id>.md`, one CSV per table and the attachments into `dir`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut md = std::fs::File::create(dir.join(format!("{}.md", self.id)))?;
        md.write_all(self.to_markdown().as_bytes())?;
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
        r.add_metric("kept", 0.8);
        r.add_metric("dropped", f64::NAN);
        assert_eq!(r.metrics, vec![Metric { name: "kept".into(), value: 0.8 }]);
        let md = r.to_markdown();
        assert!(md.contains("## figX — Test"));
        assert!(md.contains("> a note"));
        let dir = std::env::temp_dir().join("cw_bench_report_test");
        r.write_to(&dir).unwrap();
        assert!(dir.join("figX.md").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
    }
}
