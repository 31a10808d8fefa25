//! Fixed-width table rendering for the table/figure reports.

use std::fmt::Write as _;

/// A simple fixed-width text table.
///
/// ```
/// use recobench_core::report::Table;
///
/// let mut t = Table::new(vec!["Config", "tpmC"]);
/// t.row(vec!["F40G3T10".into(), "912".into()]);
/// let s = t.render();
/// assert!(s.contains("F40G3T10"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new(), title: None }
    }

    /// Sets a title line printed above the table.
    pub fn title<S: Into<String>>(mut self, title: S) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
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

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let sep: String = widths.iter().map(|w| format!("+{}", "-".repeat(w + 2))).collect::<String>() + "+";
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let _ = write!(line, "| {cell:>w$} ", w = w);
            }
            line + "|"
        };
        let _ = writeln!(out, "{sep}");
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        let _ = writeln!(out, "{sep}");
        out
    }
}

/// Lays out recovery-time breakdowns — one labelled cell per row, one
/// column per phase, all in seconds — for the `recovery_breakdown`
/// report and anything else that wants Table 5 decomposed.
pub fn breakdown_table(
    title: &str,
    rows: &[(String, crate::measures::RecoveryBreakdown)],
) -> Table {
    let mut t = Table::new(vec![
        "Cell", "detect", "startup", "restore", "scan", "apply", "rollback", "standby",
        "other", "resume", "total",
    ])
    .title(title);
    let secs = |us: u64| format!("{:.1}", us as f64 / 1_000_000.0);
    for (label, b) in rows {
        t.row(vec![
            label.clone(),
            secs(b.detection_us),
            secs(b.instance_startup_us),
            secs(b.media_restore_us),
            secs(b.redo_scan_us),
            secs(b.redo_apply_us),
            secs(b.txn_rollback_us),
            secs(b.standby_activation_us),
            secs(b.other_us),
            secs(b.service_resume_us),
            secs(b.total_us()),
        ]);
    }
    t
}

/// Renders a crude horizontal bar for figure-style output: `value` scaled
/// against `max` into `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.clamp(1, width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]).title("Demo");
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4444".into()]);
        let s = t.render();
        assert!(s.starts_with("Demo\n"));
        let lines: Vec<&str> = s.lines().collect();
        // All body lines have the same width.
        let widths: std::collections::BTreeSet<usize> =
            lines[1..].iter().map(|l| l.len()).collect();
        assert_eq!(widths.len(), 1, "unaligned table:\n{s}");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x".into()]);
        let s = t.render();
        assert!(s.contains("| x |"));
    }

    #[test]
    fn breakdown_table_has_a_column_per_phase() {
        let b = crate::measures::RecoveryBreakdown {
            detection_us: 1_000_000,
            redo_apply_us: 2_500_000,
            service_resume_us: 500_000,
            ..Default::default()
        };
        let t = breakdown_table("Demo", &[("F10G3T5 restart".to_string(), b)]);
        let s = t.render();
        assert!(s.contains("F10G3T5 restart"));
        assert!(s.contains("2.5"), "apply seconds rendered:\n{s}");
        assert!(s.contains("4.0"), "total sums the phases:\n{s}");
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10).len(), 5);
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10).len(), 10, "clamped at width");
        assert_eq!(bar(0.01, 10.0, 10).len(), 1, "non-zero values show at least one tick");
    }
}
