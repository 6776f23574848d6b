//! Rendering helpers: CSV files, ASCII tables and quick line plots for
//! the figure runners.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One named data series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            name: name.into(),
            points,
        }
    }

    /// The y value at the given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }

    /// Largest y value (0 when empty).
    pub fn y_max(&self) -> f64 {
        self.points.iter().map(|(_, y)| *y).fold(0.0, f64::max)
    }
}

/// A figure: several series over a common x axis.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// The series, in legend order.
    pub series: Vec<Series>,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
}

impl Sweep {
    /// Renders the sweep as CSV: `x, <series 1>, <series 2>, ...`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_escape(&self.x_label));
        for s in &self.series {
            let _ = write!(out, ",{}", csv_escape(&s.name));
        }
        out.push('\n');
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        for x in xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, ",{y:.3}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// A quick fixed-width ASCII chart of all series (one symbol each).
    pub fn ascii_plot(&self, width: usize, height: usize) -> String {
        const SYMBOLS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut y_max = 0.0f64;
        for s in &self.series {
            for &(x, y) in &s.points {
                x_min = x_min.min(x);
                x_max = x_max.max(x);
                y_max = y_max.max(y);
            }
        }
        if !x_min.is_finite() || y_max <= 0.0 {
            return String::from("(empty plot)\n");
        }
        let mut grid = vec![vec![' '; width]; height];
        for (si, s) in self.series.iter().enumerate() {
            let sym = SYMBOLS[si % SYMBOLS.len()];
            for &(x, y) in &s.points {
                let xi = if x_max > x_min {
                    ((x - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize
                } else {
                    0
                };
                let yi = (y / y_max * (height - 1) as f64).round() as usize;
                grid[height - 1 - yi.min(height - 1)][xi.min(width - 1)] = sym;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} (max {y_max:.1})", self.y_label);
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        let _ = writeln!(out, "+{}", "-".repeat(width));
        let _ = writeln!(out, " {} [{x_min:.0} .. {x_max:.0}]", self.x_label);
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "   {} = {}", SYMBOLS[si % SYMBOLS.len()], s.name);
        }
        out
    }
}

/// Escapes a CSV field (quotes when it contains separators).
fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Renders rows as a padded ASCII table.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+-{}-", "-".repeat(*w));
        }
        out.push_str("+\n");
    };
    line(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {:w$} ", h, w = widths[i]);
    }
    out.push_str("|\n");
    line(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "| {:w$} ", cell, w = widths[i]);
        }
        out.push_str("|\n");
    }
    line(&mut out);
    out
}

/// Writes a CSV body to `path`, creating its parent directories.
pub fn write_csv(path: &Path, body: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Sweep {
        Sweep {
            series: vec![
                Series::new("a", vec![(1.0, 10.0), (2.0, 20.0)]),
                Series::new("b", vec![(1.0, 5.0), (3.0, 15.0)]),
            ],
            x_label: "x".into(),
            y_label: "y".into(),
        }
    }

    #[test]
    fn csv_includes_all_xs_and_gaps() {
        let csv = sweep().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10.000,5.000");
        assert_eq!(lines[2], "2,20.000,");
        assert_eq!(lines[3], "3,,15.000");
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn series_helpers() {
        let s = Series::new("s", vec![(1.0, 3.0), (2.0, 9.0)]);
        assert_eq!(s.y_at(2.0), Some(9.0));
        assert_eq!(s.y_at(5.0), None);
        assert_eq!(s.y_max(), 9.0);
    }

    #[test]
    fn ascii_plot_renders() {
        let plot = sweep().ascii_plot(20, 5);
        assert!(plot.contains('*'));
        assert!(plot.contains("a"));
        assert!(plot.contains("+--------------------"));
    }

    #[test]
    fn ascii_plot_empty() {
        let empty = Sweep::default();
        assert_eq!(empty.ascii_plot(10, 5), "(empty plot)\n");
    }

    #[test]
    fn ascii_table_pads() {
        let t = ascii_table(
            &["name", "v"],
            &[
                vec!["filer".into(), "115".into()],
                vec!["linux".into(), "138".into()],
            ],
        );
        assert!(t.contains("| name  | v   |"));
        assert!(t.contains("| filer | 115 |"));
    }

    #[test]
    fn write_files() {
        let dir = std::env::temp_dir().join("nfsperf-render-test");
        let p = dir.join("t.csv");
        write_csv(&p, &sweep().to_csv()).unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert!(body.starts_with("x,a,b"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
