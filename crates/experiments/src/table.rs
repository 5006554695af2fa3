//! Minimal fixed-width text tables for experiment reports.

/// A column-aligned text table.
///
/// # Example
///
/// ```
/// use lagover_experiments::table::TextTable;
/// let mut t = TextTable::new(vec!["oracle".into(), "median".into()]);
/// t.row(vec!["O3".into(), "41".into()]);
/// let s = t.render();
/// assert!(s.contains("oracle"));
/// assert!(s.contains("O3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    ///
    /// # Panics
    ///
    /// Panics on an empty header.
    pub fn new(header: Vec<String>) -> Self {
        assert!(!header.is_empty(), "table needs at least one column");
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats an optional convergence round, with `>cap` for timeouts.
pub fn fmt_latency(converged_at: Option<u64>, cap: u64) -> String {
    match converged_at {
        Some(r) => r.to_string(),
        None => format!(">{cap}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a".into(), "bee".into()]);
        t.row(vec!["wide-cell".into(), "1".into()]);
        t.row(vec!["x".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("wide-cell"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(vec!["x".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn latency_formatting() {
        assert_eq!(fmt_latency(Some(42), 100), "42");
        assert_eq!(fmt_latency(None, 100), ">100");
    }
}
