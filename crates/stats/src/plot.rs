//! ASCII series plots so the experiment harness can draw figures in a
//! terminal without any plotting dependency.
//!
//! The output deliberately mimics the layout of the paper's Figure 4: the
//! x-axis is the number of processors, the y-axis the ratio of the
//! communication volume to the lower bound, and each series is one
//! strategy.

use std::fmt::Write as _;

/// One named series of `(x, y)` points.
#[derive(Debug, Clone)]
struct Series {
    name: String,
    marker: char,
    points: Vec<(f64, f64)>,
}

/// A multi-series ASCII scatter plot on a fixed character grid.
///
/// ```
/// use dlt_stats::AsciiPlot;
/// let mut p = AsciiPlot::new("demo", 40, 10);
/// p.series("linear", 'o', &[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
/// let s = p.render();
/// assert!(s.contains("demo"));
/// assert!(s.contains('o'));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiPlot {
    title: String,
    width: usize,
    height: usize,
    series: Vec<Series>,
    y_label: String,
    x_label: String,
}

impl AsciiPlot {
    /// Creates an empty plot of `width × height` characters (plot area).
    pub fn new(title: &str, width: usize, height: usize) -> Self {
        assert!(width >= 8 && height >= 4, "plot area too small");
        Self {
            title: title.to_string(),
            width,
            height,
            series: Vec::new(),
            y_label: String::new(),
            x_label: String::new(),
        }
    }

    /// Sets the axis labels.
    pub fn with_labels(mut self, x: &str, y: &str) -> Self {
        self.x_label = x.to_string();
        self.y_label = y.to_string();
        self
    }

    /// Adds one series rendered with `marker`.
    pub fn series(&mut self, name: &str, marker: char, points: &[(f64, f64)]) {
        self.series.push(Series {
            name: name.to_string(),
            marker,
            points: points.to_vec(),
        });
    }

    fn bounds(&self) -> Option<(f64, f64, f64, f64)> {
        let mut pts = self.series.iter().flat_map(|s| s.points.iter());
        let first = pts.next()?;
        let (mut x0, mut x1, mut y0, mut y1) = (first.0, first.0, first.1, first.1);
        for &(x, y) in pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        // Degenerate ranges get padded so everything still renders.
        if x0 == x1 {
            x0 -= 0.5;
            x1 += 0.5;
        }
        if y0 == y1 {
            y0 -= 0.5;
            y1 += 0.5;
        }
        Some((x0, x1, y0, y1))
    }

    /// Renders the plot to a multi-line string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let Some((x0, x1, y0, y1)) = self.bounds() else {
            let _ = writeln!(out, "(no data)");
            return out;
        };
        let mut grid = vec![vec![' '; self.width]; self.height];
        for s in &self.series {
            for &(x, y) in &s.points {
                let cx = ((x - x0) / (x1 - x0) * (self.width - 1) as f64).round() as usize;
                let cy = ((y - y0) / (y1 - y0) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - cy;
                grid[row][cx] = s.marker;
            }
        }
        if !self.y_label.is_empty() {
            let _ = writeln!(out, "{}", self.y_label);
        }
        for (i, row) in grid.iter().enumerate() {
            let y_val = y1 - (y1 - y0) * i as f64 / (self.height - 1) as f64;
            let line: String = row.iter().collect();
            let _ = writeln!(out, "{y_val:>9.3} |{line}");
        }
        let _ = writeln!(out, "{:>9}  {}", "", "-".repeat(self.width));
        let _ = writeln!(out, "{:>9}  {:<.3}{:>w$.3}", "", x0, x1, w = self.width - 5);
        if !self.x_label.is_empty() {
            let _ = writeln!(out, "{:>9}  {}", "", self.x_label);
        }
        for s in &self.series {
            let _ = writeln!(out, "  {} {}", s.marker, s.name);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markers_and_legend() {
        let mut p = AsciiPlot::new("t", 20, 6);
        p.series("a", '*', &[(0.0, 0.0), (10.0, 5.0)]);
        p.series("b", '+', &[(5.0, 2.0)]);
        let s = p.render();
        assert!(s.contains('*'));
        assert!(s.contains('+'));
        assert!(s.contains("* a"));
        assert!(s.contains("+ b"));
    }

    #[test]
    fn empty_plot_reports_no_data() {
        let p = AsciiPlot::new("empty", 20, 6);
        assert!(p.render().contains("(no data)"));
    }

    #[test]
    fn degenerate_ranges_do_not_panic() {
        let mut p = AsciiPlot::new("deg", 20, 6);
        p.series("s", 'x', &[(1.0, 2.0), (1.0, 2.0)]);
        let s = p.render();
        assert!(s.contains('x'));
    }

    #[test]
    fn labels_appear() {
        let mut p = AsciiPlot::new("t", 20, 6).with_labels("procs", "ratio");
        p.series("s", 'x', &[(0.0, 0.0), (1.0, 1.0)]);
        let s = p.render();
        assert!(s.contains("procs"));
        assert!(s.contains("ratio"));
    }

    #[test]
    fn extreme_points_land_on_edges() {
        let mut p = AsciiPlot::new("t", 10, 4);
        p.series("s", 'x', &[(0.0, 0.0), (1.0, 1.0)]);
        let rendered = p.render();
        let rows: Vec<&str> = rendered.lines().filter(|l| l.contains('|')).collect();
        // Top row holds the max-y point, bottom row the min-y point.
        assert!(rows.first().unwrap().contains('x'));
        assert!(rows.last().unwrap().contains('x'));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_plot_rejected() {
        let _ = AsciiPlot::new("t", 2, 2);
    }
}
