//! Benchmark harness support for the EAAO reproduction.
//!
//! The Criterion benches under `benches/` time the per-figure experiment
//! drivers at reduced scale; the `repro` binary regenerates every table and
//! figure at paper scale. This library holds the shared formatting helpers.

use eaao_simcore::series::Series;
use eaao_simcore::stats::Summary;

/// Formats a series as aligned `x  y` rows.
pub fn format_series(series: &Series) -> String {
    let mut out = String::new();
    out.push_str(&format!("  # {}\n", series.label()));
    for &(x, y) in series.points() {
        out.push_str(&format!("  {x:>8.2}  {y:>10.2}\n"));
    }
    out
}

/// Formats a mean ± std pair the way the paper's error bars read.
pub fn format_summary(s: &Summary) -> String {
    format!("{:.4} ± {:.4}", s.mean(), s.std_dev())
}

/// Formats a fraction as a percentage with one decimal.
pub fn percent(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "table needs columns");
        TextTable {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("  ");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:<width$}  ", width = w));
            }
            line.trim_end().to_owned() + "\n"
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        out.push_str(&format!("  {}\n", "-".repeat(total.saturating_sub(2))));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["region", "coverage"]);
        t.row(vec!["us-east1".into(), "97.7%".into()]);
        t.row(vec!["us-west1".into(), "100.0%".into()]);
        let s = t.render();
        assert!(s.contains("region"));
        assert!(s.contains("us-west1"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        TextTable::new(&["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn series_and_percent_format() {
        let mut s = Series::new("hosts");
        s.push(1.0, 75.0);
        let text = format_series(&s);
        assert!(text.contains("hosts"));
        assert!(text.contains("75.00"));
        assert_eq!(percent(0.5), "50.0%");
        let summary = Summary::of(&[1.0, 1.0]);
        assert!(format_summary(&summary).starts_with("1.0000"));
    }
}
