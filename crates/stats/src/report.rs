//! ASCII report rendering: tables and bar "figures" for the experiment
//! harness, so every table and figure of the evaluation prints in the
//! same layout the paper uses.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (names).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple ASCII table builder.
///
/// # Examples
///
/// ```
/// use mssp_stats::Table;
/// let mut t = Table::new(vec!["bench", "speedup"]);
/// t.row(vec!["gzip_like".into(), "1.31".into()]);
/// let s = t.render();
/// assert!(s.contains("gzip_like"));
/// assert!(s.contains("speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<&str>) -> Table {
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table. The first column is left-aligned, the rest
    /// right-aligned (the conventional benchmark-table layout).
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let align = if i == 0 { Align::Left } else { Align::Right };
                match align {
                    Align::Left => {
                        let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                    }
                    Align::Right => {
                        let _ = write!(out, "{:>width$}", cell, width = widths[i]);
                    }
                }
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Renders a labelled horizontal bar chart — the harness's "figure"
/// output format.
///
/// # Examples
///
/// ```
/// use mssp_stats::bar_chart;
/// let s = bar_chart(&[("a".into(), 1.0), ("b".into(), 2.0)], 20, "x");
/// assert!(s.contains('█') || s.contains('#'));
/// ```
#[must_use]
pub fn bar_chart(series: &[(String, f64)], width: usize, unit: &str) -> String {
    let max = series.iter().map(|(_, v)| *v).fold(f64::EPSILON, f64::max);
    let label_w = series.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in series {
        let n = ((value / max) * width as f64).round() as usize;
        let _ = writeln!(
            out,
            "{label:<label_w$}  {bar:<width$}  {value:.3} {unit}",
            bar = "█".repeat(n.min(width)),
        );
    }
    out
}

/// Formats a float compactly for table cells (3 significant decimals).
#[must_use]
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a large count with thousands separators.
///
/// # Examples
///
/// ```
/// use mssp_stats::fmt_count;
/// assert_eq!(fmt_count(1234567), "1,234,567");
/// assert_eq!(fmt_count(42), "42");
/// ```
#[must_use]
pub fn fmt_count(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "23".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() <= w + 1));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let s = bar_chart(&[("small".into(), 1.0), ("big".into(), 4.0)], 40, "x");
        let lines: Vec<&str> = s.lines().collect();
        let bars: Vec<usize> = lines
            .iter()
            .map(|l| l.chars().filter(|&c| c == '█').count())
            .collect();
        assert_eq!(bars[1], 40);
        assert_eq!(bars[0], 10);
    }

    #[test]
    fn fmt_count_groups() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(1_000_000), "1,000,000");
    }
}
