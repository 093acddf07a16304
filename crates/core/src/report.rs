//! Plain-text table rendering for the experiment harnesses.
//!
//! Every entry of [`crate::experiments`] renders its result through this
//! module so outputs are uniform and diff-friendly.

/// Renders a table with a header row, column alignment, and a rule line.
///
/// # Example
///
/// ```
/// let t = lightmamba::report::render_table(
///     &["method", "ppl"],
///     &[vec!["RTN".to_string(), "17.46".to_string()]],
/// );
/// assert!(t.contains("RTN"));
/// assert!(t.contains("method"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths.iter()) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut rule = String::from("|");
    for w in &widths {
        rule.push_str(&"-".repeat(w + 2));
        rule.push('|');
    }
    rule.push('\n');
    out.push_str(&rule);
    for row in rows {
        let mut cells = row.clone();
        cells.resize(cols, String::new());
        out.push_str(&fmt_row(&cells, &widths));
    }
    out
}

/// Renders an ASCII bar for quick-scan magnitude comparison.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer-cell".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    fn short_rows_are_padded() {
        let t = render_table(&["a", "b"], &[vec!["only-one".into()]]);
        assert!(t.contains("only-one"));
    }

    #[test]
    fn fmt_and_bar() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
