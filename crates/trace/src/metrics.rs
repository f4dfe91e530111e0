//! Time-series metrics for workload characterization (Figure 4 analysis).
//!
//! The paper's claim is qualitative ("significant temporal fluctuations and
//! recurring peaks"); these metrics make it checkable: the coefficient of
//! variation (with [`crate::TemporalWorkload::peak_to_mean`]) quantifies the
//! fluctuation, and the burst count measures how often the series crosses a
//! high-water mark.

/// Coefficient of variation `σ/μ`; 0 for flat or empty series.
pub fn coefficient_of_variation(series: &[f64]) -> f64 {
    let n = series.len();
    if n == 0 {
        return 0.0;
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = series.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
    var.sqrt() / mean
}

/// Number of maximal runs where the series exceeds `threshold × mean`
/// (each run counts once, however long).
pub fn burst_count(series: &[f64], threshold: f64) -> usize {
    let n = series.len();
    if n == 0 {
        return 0;
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let bar = threshold * mean;
    let mut bursts = 0;
    let mut inside = false;
    for &v in series {
        if v > bar && !inside {
            bursts += 1;
            inside = true;
        } else if v <= bar {
            inside = false;
        }
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::{TemporalConfig, TemporalWorkload};

    #[test]
    fn flat_series_is_degenerate() {
        let s = [5.0; 10];
        assert_eq!(coefficient_of_variation(&s), 0.0);
        assert_eq!(burst_count(&s, 1.5), 0);
    }

    #[test]
    fn cv_matches_hand_computation() {
        // {2, 4}: μ=3, σ=1 → cv = 1/3.
        let s = [2.0, 4.0];
        assert!((coefficient_of_variation(&s) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bursts_count_runs_not_samples() {
        // mean = 1; threshold 2 → bar 2. Two separate excursions above 2.
        let s = [0.0, 3.0, 3.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(burst_count(&s, 2.0), 2);
    }

    #[test]
    fn synthetic_workload_is_bursty_and_structured() {
        let w = TemporalWorkload::generate(&TemporalConfig::default(), 11);
        // Fluctuation: CV comfortably above a flat series.
        assert!(coefficient_of_variation(&w.volumes) > 0.2);
        // Recurring peaks: at least one burst region.
        assert!(burst_count(&w.volumes, 1.5) >= 1);
    }

    #[test]
    fn edge_cases_do_not_panic() {
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(burst_count(&[], 2.0), 0);
    }
}
