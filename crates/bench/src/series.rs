//! Figure data containers, table printing, and JSON emission.

use crate::json;

/// One plotted series: label plus (x, y) points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// (x, y) points in x order.
    pub points: Vec<(u64, f64)>,
}

impl Series {
    /// Build a series.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: u64, y: f64) {
        self.points.push((x, y));
    }

    /// y value at the given x, if present.
    pub fn y_at(&self, x: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(px, _)| px == x)
            .map(|&(_, y)| y)
    }

    /// First and last y values (for slope checks).
    pub fn ends(&self) -> Option<(f64, f64)> {
        match (self.points.first(), self.points.last()) {
            (Some(&(_, a)), Some(&(_, b))) => Some((a, b)),
            _ => None,
        }
    }
}

/// A full figure: id, axis labels, and its series.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Experiment id (e.g. "fig1a").
    pub id: String,
    /// Human title matching the paper caption.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// All series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Build an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Figure {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// Pretty-print a slice of figures as a JSON array: one figure object
/// per block, one `[x, y]` point per line. Deterministic byte-for-byte
/// given equal inputs — the determinism regression test compares the
/// emitted strings directly.
pub fn figures_to_json_pretty(figures: &[Figure]) -> String {
    write_figures_pretty(figures, |_, _| {})
}

/// Shared pretty-printer behind [`figures_to_json_pretty`]. `extra`
/// may append further `,"key": ...` members to the figure object at
/// index `fi` (it runs after the `"series"` array closes); the plain
/// path passes a no-op so its bytes never change.
pub(crate) fn write_figures_pretty(
    figures: &[Figure],
    extra: impl Fn(&mut String, usize),
) -> String {
    let mut out = String::from("[");
    for (fi, f) in figures.iter().enumerate() {
        if fi > 0 {
            out.push(',');
        }
        json::push_indent(&mut out, 1);
        out.push('{');
        for (key, val) in [
            ("id", &f.id),
            ("title", &f.title),
            ("x_label", &f.x_label),
            ("y_label", &f.y_label),
        ] {
            json::push_indent(&mut out, 2);
            json::push_str_escaped(&mut out, key);
            out.push_str(": ");
            json::push_str_escaped(&mut out, val);
            out.push(',');
        }
        json::push_indent(&mut out, 2);
        out.push_str("\"series\": [");
        for (si, s) in f.series.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            json::push_indent(&mut out, 3);
            out.push_str("{\"label\": ");
            json::push_str_escaped(&mut out, &s.label);
            out.push_str(", \"points\": [");
            for (pi, &(x, y)) in s.points.iter().enumerate() {
                if pi > 0 {
                    out.push(',');
                }
                json::push_indent(&mut out, 4);
                out.push('[');
                out.push_str(&x.to_string());
                out.push_str(", ");
                json::push_f64(&mut out, y);
                out.push(']');
            }
            if !s.points.is_empty() {
                json::push_indent(&mut out, 3);
            }
            out.push_str("]}");
        }
        if !f.series.is_empty() {
            json::push_indent(&mut out, 2);
        }
        out.push(']');
        extra(&mut out, fi);
        json::push_indent(&mut out, 1);
        out.push('}');
    }
    if !figures.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

impl Figure {
    /// Render as an aligned text table (x column + one column per
    /// series), the format the `figures` binary prints.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "  {:>22}", s.label);
        }
        let _ = writeln!(out, "    [{}]", self.y_label);
        let xs: Vec<u64> = {
            let mut xs: Vec<u64> = self
                .series
                .iter()
                .flat_map(|s| s.points.iter().map(|&(x, _)| x))
                .collect();
            xs.sort_unstable();
            xs.dedup();
            xs
        };
        for x in xs {
            let _ = write!(out, "{x:>14}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) if y >= 1000.0 => {
                        let _ = write!(out, "  {y:>22.0}");
                    }
                    Some(y) => {
                        let _ = write!(out, "  {y:>22.2}");
                    }
                    None => {
                        let _ = write!(out, "  {:>22}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accessors() {
        let mut s = Series::new("a");
        s.push(1, 10.0);
        s.push(2, 20.0);
        assert_eq!(s.y_at(2), Some(20.0));
        assert_eq!(s.y_at(3), None);
        assert_eq!(s.ends(), Some((10.0, 20.0)));
    }

    #[test]
    fn table_renders_all_columns() {
        let mut f = Figure::new("figX", "test", "size", "ns");
        let mut a = Series::new("alpha");
        a.push(4, 1.0);
        a.push(8, 2.0);
        let mut b = Series::new("beta");
        b.push(4, 100.5);
        f.series.push(a);
        f.series.push(b);
        let t = f.to_table();
        assert!(t.contains("figX"));
        assert!(t.contains("alpha"));
        assert!(t.contains("beta"));
        assert!(t.contains("100.50"));
        assert!(t.contains('-'), "missing point rendered as dash");
    }

    #[test]
    fn pretty_json_is_deterministic_and_has_all_points() {
        let mut f = Figure::new("fig", "title", "x", "ns");
        let mut s = Series::new("base");
        s.push(4, 8000.0);
        s.push(8, 2.5);
        f.series.push(s);
        let a = figures_to_json_pretty(&[f.clone()]);
        let b = figures_to_json_pretty(&[f]);
        assert_eq!(a, b, "byte-identical across calls");
        assert!(a.contains("[4, 8000.0]"));
        assert!(a.contains("[8, 2.5]"));
        assert!(a.ends_with("]\n"));
        assert_eq!(figures_to_json_pretty(&[]), "[]\n");
    }
}
