//! Temporal request-volume synthesis (Figure 4).
//!
//! The paper's 10-hour Alibaba window shows "significant temporal
//! fluctuations and recurring peaks". The generator composes:
//!
//! * a diurnal base curve (sum of two Gaussian bumps — e.g. late-morning and
//!   evening peaks),
//! * multiplicative log-normal-ish noise,
//! * occasional short bursts (flash-crowd events).

use socl_net::rng::ChaCha12Rng;

/// Workload-series parameters.
#[derive(Debug, Clone)]
pub struct TemporalConfig {
    /// Number of intervals (paper: 10 hours of 5-minute bins = 120).
    pub intervals: usize,
    /// Baseline requests per interval.
    pub base_rate: f64,
    /// Peak positions as fractions of the horizon (0..1).
    pub peak_centers: Vec<f64>,
    /// Peak heights as multiples of the base rate.
    pub peak_heights: Vec<f64>,
    /// Peak widths as fractions of the horizon.
    pub peak_widths: Vec<f64>,
    /// Relative noise amplitude.
    pub noise: f64,
    /// Per-interval probability of a flash burst.
    pub burst_prob: f64,
    /// Burst height as a multiple of the base rate.
    pub burst_height: f64,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        Self {
            intervals: 120,
            base_rate: 40.0,
            peak_centers: vec![0.25, 0.75],
            peak_heights: vec![2.5, 3.2],
            peak_widths: vec![0.08, 0.1],
            noise: 0.15,
            burst_prob: 0.03,
            burst_height: 2.0,
        }
    }
}

impl TemporalConfig {
    /// A flash-crowd shape: flat load with one sharp, tall spike around
    /// 60% of the horizon plus frequent secondary bursts — the overload
    /// scenario the serve bench drives admission shedding with.
    #[must_use]
    pub fn flash_crowd() -> Self {
        Self {
            intervals: 120,
            base_rate: 40.0,
            peak_centers: vec![0.6],
            peak_heights: vec![6.0],
            peak_widths: vec![0.04],
            noise: 0.1,
            burst_prob: 0.08,
            burst_height: 3.0,
        }
    }

    /// A diurnal shape: two broad daily peaks, mild noise, no bursts —
    /// the steady-state scenario for sustained-throughput measurement.
    #[must_use]
    pub fn diurnal() -> Self {
        Self {
            intervals: 120,
            base_rate: 40.0,
            peak_centers: vec![0.3, 0.8],
            peak_heights: vec![1.8, 2.4],
            peak_widths: vec![0.12, 0.1],
            noise: 0.08,
            burst_prob: 0.0,
            burst_height: 0.0,
        }
    }
}

/// A generated request-volume series.
#[derive(Debug, Clone)]
pub struct TemporalWorkload {
    /// Requests per interval.
    pub volumes: Vec<f64>,
}

impl TemporalWorkload {
    /// Generate with the given seed.
    pub fn generate(cfg: &TemporalConfig, seed: u64) -> Self {
        assert_eq!(cfg.peak_centers.len(), cfg.peak_heights.len());
        assert_eq!(cfg.peak_centers.len(), cfg.peak_widths.len());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let n = cfg.intervals;
        let volumes = (0..n)
            .map(|i| {
                let t = i as f64 / n.max(1) as f64;
                let mut v = cfg.base_rate;
                for ((&c, &h), &w) in cfg
                    .peak_centers
                    .iter()
                    .zip(&cfg.peak_heights)
                    .zip(&cfg.peak_widths)
                {
                    let z = (t - c) / w;
                    v += cfg.base_rate * h * (-0.5 * z * z).exp();
                }
                // Multiplicative noise.
                v *= 1.0 + cfg.noise * (rng.gen::<f64>() * 2.0 - 1.0);
                // Flash bursts.
                if rng.gen::<f64>() < cfg.burst_prob {
                    v += cfg.base_rate * cfg.burst_height * rng.gen::<f64>();
                }
                v.max(0.0)
            })
            .collect();
        Self { volumes }
    }

    /// Peak-to-mean ratio — the burstiness statistic the paper's Figure 4
    /// visualizes.
    pub fn peak_to_mean(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            self.volumes.iter().copied().fold(0.0, f64::max) / mean
        }
    }

    /// Mean volume.
    pub fn mean(&self) -> f64 {
        if self.volumes.is_empty() {
            0.0
        } else {
            self.volumes.iter().sum::<f64>() / self.volumes.len() as f64
        }
    }

    /// Integer user counts per interval, clamped to `[min_users, max_users]`
    /// — convenient for driving scenario generators.
    pub fn as_user_counts(&self, min_users: usize, max_users: usize) -> Vec<usize> {
        self.volumes
            .iter()
            .map(|&v| (v.round() as usize).clamp(min_users, max_users))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_has_configured_length_and_positivity() {
        let w = TemporalWorkload::generate(&TemporalConfig::default(), 1);
        assert_eq!(w.volumes.len(), 120);
        assert!(w.volumes.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn peaks_rise_above_the_baseline() {
        let cfg = TemporalConfig {
            noise: 0.0,
            burst_prob: 0.0,
            ..TemporalConfig::default()
        };
        let w = TemporalWorkload::generate(&cfg, 2);
        // The second peak (height 3.2) is centered at 75% of the horizon.
        let at_peak = w.volumes[90];
        let at_trough = w.volumes[60];
        assert!(
            at_peak > 2.0 * at_trough,
            "peak {at_peak} vs trough {at_trough}"
        );
    }

    #[test]
    fn workload_is_bursty_like_the_paper() {
        let w = TemporalWorkload::generate(&TemporalConfig::default(), 3);
        let ratio = w.peak_to_mean();
        assert!(
            ratio > 1.5,
            "peak-to-mean {ratio} too flat for Figure 4's shape"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TemporalConfig::default();
        let a = TemporalWorkload::generate(&cfg, 4);
        let b = TemporalWorkload::generate(&cfg, 4);
        assert_eq!(a.volumes, b.volumes);
        let c = TemporalWorkload::generate(&cfg, 5);
        assert_ne!(a.volumes, c.volumes);
    }

    #[test]
    fn user_counts_respect_clamp() {
        let w = TemporalWorkload::generate(&TemporalConfig::default(), 6);
        let counts = w.as_user_counts(10, 60);
        assert!(counts.iter().all(|&c| (10..=60).contains(&c)));
        // The clamp must actually bind at the top for the default config
        // (peaks exceed 60 requests).
        assert!(counts.contains(&60));
    }
}
