//! Plain-text table rendering and shared statistics helpers for the
//! reproduction reports.
//!
//! Every report in this crate renders through [`render_table`]. [`median`]
//! is the median the accuracy experiments (`real.rs`) share — it returns
//! `Option<f64>` so an empty sample renders as `-` instead of leaking a
//! `NaN` into a report row.

/// Renders an aligned text table with a header row and a separator.
///
/// Column widths adapt to content; all columns are left-aligned except
/// those whose every body cell parses as a number, which are
/// right-aligned.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let numeric: Vec<bool> = (0..cols)
        .map(|i| {
            !rows.is_empty()
                && rows.iter().all(|r| {
                    r.get(i)
                        .map(|c| {
                            c.is_empty()
                                || c.trim_end_matches(['%', 'x', 'X'])
                                    .trim()
                                    .parse::<f64>()
                                    .is_ok()
                        })
                        .unwrap_or(true)
                })
        })
        .collect();
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for i in 0..cols {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            if i > 0 {
                line.push_str("  ");
            }
            if numeric[i] {
                line.push_str(&format!("{cell:>w$}", w = widths[i]));
            } else {
                line.push_str(&format!("{cell:<w$}", w = widths[i]));
            }
        }
        line.trim_end().to_string()
    };
    let mut out = String::new();
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Median of a sample (upper median for even sizes). Returns `None` for an
/// empty sample — instead of the NaN this used to produce, which would
/// leak straight into rendered report rows.
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = values.len() / 2;
    values.get(mid).copied()
}

/// Formats a float with the given precision.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats an optional float, rendering `None` as `-`.
pub fn opt_f(x: Option<f64>, prec: usize) -> String {
    x.map(|v| f(v, prec)).unwrap_or_else(|| "-".to_string())
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Formats a speedup.
pub fn speedup(x: f64) -> String {
    format!("{x:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["long-name".into(), "123.4".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // Numeric column right-aligned: both rows end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].starts_with("name"));
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(opt_f(None, 2), "-");
        assert_eq!(opt_f(Some(2.5), 1), "2.5");
        assert_eq!(pct(12.34), "12.3%");
        assert_eq!(speedup(97.0), "97.0x");
    }

    #[test]
    fn empty_rows_render_header_only() {
        let t = render_table(&["a", "b"], &[]);
        assert_eq!(t.lines().count(), 2);
    }

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median(vec![]), None);
        assert_eq!(median(vec![3.0]), Some(3.0));
        assert_eq!(median(vec![1.0, 9.0]), Some(9.0)); // upper median
        assert_eq!(median(vec![9.0, 1.0, 5.0]), Some(5.0));
    }
}
