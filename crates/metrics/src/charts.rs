//! Text bar charts — the terminal stand-in for the browser's CPJ/CMF bar
//! graphs in the Analysis tab.

/// Renders labelled values as a horizontal unicode bar chart, scaled so
/// the largest value spans `width` cells. Values must be non-negative;
/// the chart is empty for no data.
///
/// ```
/// let chart = cx_metrics::bar_chart(&[("ACQ", 0.82), ("Global", 0.31)], 20);
/// assert!(chart.contains("ACQ"));
/// assert!(chart.lines().count() == 2);
/// ```
pub fn bar_chart(data: &[(&str, f64)], width: usize) -> String {
    if data.is_empty() {
        return String::new();
    }
    let max = data.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    let label_w = data.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (i, &(label, value)) in data.iter().enumerate() {
        let cells = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&format!("{label:<label_w$} | {}{} {value:.3}", "█".repeat(cells), if cells == 0 { "·" } else { "" }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let chart = bar_chart(&[("a", 1.0), ("b", 0.5)], 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        let bars_a = lines[0].matches('█').count();
        let bars_b = lines[1].matches('█').count();
        assert_eq!(bars_a, 10);
        assert_eq!(bars_b, 5);
        assert!(lines[0].contains("1.000"));
    }

    #[test]
    fn zero_values_get_dot_marker() {
        let chart = bar_chart(&[("z", 0.0)], 10);
        assert!(chart.contains('·'));
    }

    #[test]
    fn empty_data() {
        assert_eq!(bar_chart(&[], 10), "");
    }

    #[test]
    fn labels_are_aligned() {
        let chart = bar_chart(&[("long-label", 1.0), ("s", 1.0)], 4);
        let lines: Vec<&str> = chart.lines().collect();
        let bar_pos = |l: &str| l.find('|').unwrap();
        assert_eq!(bar_pos(lines[0]), bar_pos(lines[1]));
    }
}
