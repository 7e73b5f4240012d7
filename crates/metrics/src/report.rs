//! ASCII table and series rendering for bench output.

use std::fmt::Write as _;

/// A simple aligned ASCII table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified by the caller).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::new();
            for (w, c) in widths.iter().zip(cells) {
                parts.push(format!("{c:>w$}", w = w));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A named (x, y) series, as plotted in the paper's figures.
#[derive(Clone, Debug)]
pub struct Series {
    /// Series name (legend entry).
    pub name: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Renders several series sharing an x axis as a column-per-series
    /// table (x values must align by index).
    pub fn render_group(title: &str, x_label: &str, series: &[Series]) -> String {
        let mut headers = vec![x_label.to_string()];
        headers.extend(series.iter().map(|s| s.name.clone()));
        let hrefs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(title, &hrefs);
        let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
        for i in 0..n {
            let mut row = Vec::new();
            let x = series
                .iter()
                .find_map(|s| s.points.get(i).map(|p| p.0))
                .unwrap_or(f64::NAN);
            row.push(format!("{x:.3}"));
            for s in series {
                row.push(
                    s.points
                        .get(i)
                        .map(|p| format!("{:.3}", p.1))
                        .unwrap_or_default(),
                );
            }
            t.row(&row);
        }
        t.render()
    }
}

/// Formats a ratio as the paper does (normalized execution time).
pub fn normalized(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        value / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["app", "time"]);
        t.row(&["lu".into(), "1.00".into()]);
        t.row(&["bt".into(), "0.61".into()]);
        let r = t.render();
        assert!(r.contains("== Demo =="));
        assert!(r.contains("| app | time |"));
        assert!(r.contains("|  lu | 1.00 |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn series_group_renders_columns() {
        let mut a = Series::new("baseline");
        a.push(1.0, 2.0);
        a.push(2.0, 4.0);
        let mut b = Series::new("vscale");
        b.push(1.0, 1.0);
        b.push(2.0, 2.0);
        let r = Series::render_group("Fig", "x", &[a, b]);
        assert!(r.contains("baseline"));
        assert!(r.contains("vscale"));
        assert!(r.contains("1.000"));
    }

    #[test]
    fn normalized_handles_zero() {
        assert_eq!(normalized(5.0, 0.0), 0.0);
        assert_eq!(normalized(5.0, 10.0), 0.5);
    }
}
