//! Output shared by the figure harnesses.

use std::io::{ErrorKind, Write as _};

/// Print one line of a harness's output. A reader that goes away
/// (`fig4_temporal | head`) ends the run with exit code 0, as the CLI does,
/// instead of `println!`'s panic; any other write error exits 1.
pub fn write_line(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout(), "{line}") {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` for the figure harnesses, through [`write_line`].
#[macro_export]
macro_rules! out {
    () => {
        $crate::report::write_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::report::write_line(format_args!($($arg)*))
    };
}

/// A named series collected across a sweep (one figure line).
#[derive(Debug, Clone, Default)]
pub struct GeoSeries {
    pub name: String,
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
}

impl GeoSeries {
    /// New empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Append one point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.xs.push(x);
        self.ys.push(y);
    }

    /// Geometric-mean growth factor per step — summarizes whether a series
    /// grows exponentially (factor ≫ 1) or stays flat (≈ 1).
    pub fn growth_factor(&self) -> f64 {
        if self.ys.len() < 2 {
            return 1.0;
        }
        let mut log_sum = 0.0;
        let mut n = 0;
        for w in self.ys.windows(2) {
            if w[0] > 0.0 && w[1] > 0.0 {
                log_sum += (w[1] / w[0]).ln();
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            (log_sum / n as f64).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_factor_detects_exponential() {
        let mut s = GeoSeries::new("exp");
        for i in 0..5 {
            s.push(i as f64, 2.0_f64.powi(i));
        }
        assert!((s.growth_factor() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn growth_factor_flat_series() {
        let mut s = GeoSeries::new("flat");
        for i in 0..5 {
            s.push(i as f64, 7.0);
        }
        assert!((s.growth_factor() - 1.0).abs() < 1e-9);
        assert_eq!(GeoSeries::new("empty").growth_factor(), 1.0);
    }
}
