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

/// Holt double-exponential smoothing over an arrival series — the forecast
/// that drives the predictive autoscaler in `socl-autoscale`.
///
/// The model keeps a smoothed *level* `ℓ` and *trend* `b`:
///
/// ```text
/// ℓ_t = α·y_t + (1-α)·(ℓ_{t-1} + b_{t-1})
/// b_t = β·(ℓ_t - ℓ_{t-1}) + (1-β)·b_{t-1}
/// ŷ_{t+h} = ℓ_t + h·b_t
/// ```
///
/// Trend-following is what lets a scaler provision *ahead* of a diurnal
/// ramp instead of chasing it: during the rising edge of a peak the trend
/// term is positive and the `h`-step-ahead forecast exceeds the current
/// observation, so replicas are warm before the load arrives. The update is
/// a pure fold over observations — no clocks, no RNG — so identical inputs
/// give bit-identical forecasts.
#[derive(Debug, Clone)]
pub struct Forecaster {
    /// Level smoothing factor `α ∈ (0, 1]`.
    alpha: f64,
    /// Trend smoothing factor `β ∈ [0, 1]`.
    beta: f64,
    level: f64,
    trend: f64,
    /// Number of observations folded in so far (0 or 1 = not warmed up).
    seen: usize,
}

impl Forecaster {
    /// New forecaster with the given smoothing factors.
    ///
    /// # Panics
    /// Panics when `alpha` is outside `(0, 1]` or `beta` outside `[0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range");
        assert!((0.0..=1.0).contains(&beta), "beta out of range");
        Self {
            alpha,
            beta,
            level: 0.0,
            trend: 0.0,
            seen: 0,
        }
    }

    /// Responsive defaults for scaler ticks (α 0.5, β 0.3): the level
    /// tracks the last few samples, the trend catches ramps within
    /// a handful of ticks.
    pub fn scaling_default() -> Self {
        Self::new(0.5, 0.3)
    }

    /// Fold in the next observation.
    pub fn observe(&mut self, y: f64) {
        let y = y.max(0.0);
        match self.seen {
            0 => {
                self.level = y;
                self.trend = 0.0;
            }
            1 => {
                // Two points pin the initial trend exactly.
                self.trend = y - self.level;
                self.level = y;
            }
            _ => {
                let prev = self.level;
                self.level = self.alpha * y + (1.0 - self.alpha) * (self.level + self.trend);
                self.trend = self.beta * (self.level - prev) + (1.0 - self.beta) * self.trend;
            }
        }
        self.seen += 1;
    }

    /// Forecast `horizon` steps ahead (clamped to ≥ 0). Before any
    /// observation the forecast is 0; with one observation it is flat.
    pub fn forecast(&self, horizon: f64) -> f64 {
        (self.level + horizon.max(0.0) * self.trend).max(0.0)
    }

    /// Number of observations folded in.
    pub fn observations(&self) -> usize {
        self.seen
    }

    /// Freeze the full smoothing state for checkpointing. Together with
    /// [`Forecaster::from_state`] this round-trips bit-exactly: the fields
    /// are the *entire* model, so a restored forecaster continues the
    /// series as if the crash never happened.
    pub fn state(&self) -> ForecasterState {
        ForecasterState {
            alpha: self.alpha,
            beta: self.beta,
            level: self.level,
            trend: self.trend,
            seen: self.seen as u64,
        }
    }

    /// Rebuild a forecaster from a frozen state.
    ///
    /// # Errors
    /// Returns a message when the smoothing factors are out of range or the
    /// level/trend are non-finite — a checkpoint carrying such values is
    /// corrupt, and restoring it would poison every later forecast.
    pub fn from_state(s: ForecasterState) -> Result<Self, String> {
        if !(s.alpha > 0.0 && s.alpha <= 1.0) {
            return Err(format!("forecaster alpha {} out of (0, 1]", s.alpha));
        }
        if !(0.0..=1.0).contains(&s.beta) {
            return Err(format!("forecaster beta {} out of [0, 1]", s.beta));
        }
        if !s.level.is_finite() || !s.trend.is_finite() {
            return Err("forecaster level/trend not finite".to_string());
        }
        let seen =
            usize::try_from(s.seen).map_err(|_| "forecaster seen overflows usize".to_string())?;
        Ok(Self {
            alpha: s.alpha,
            beta: s.beta,
            level: s.level,
            trend: s.trend,
            seen,
        })
    }
}

/// Frozen [`Forecaster`] smoothing state (checkpoint payload).
///
/// `seen` is widened to `u64` so the on-disk encoding is identical on 32-
/// and 64-bit hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecasterState {
    /// Level smoothing factor `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor `β ∈ [0, 1]`.
    pub beta: f64,
    /// Smoothed level `ℓ`.
    pub level: f64,
    /// Smoothed trend `b`.
    pub trend: f64,
    /// Observations folded in so far.
    pub seen: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecaster_tracks_a_linear_ramp() {
        let mut f = Forecaster::new(0.8, 0.8);
        for i in 0..20 {
            f.observe(3.0 * i as f64);
        }
        // On a clean ramp the 2-step-ahead forecast leads the last sample.
        let last = 3.0 * 19.0;
        assert!(f.forecast(2.0) > last, "{} !> {last}", f.forecast(2.0));
        // And tracks the true continuation within a step's slope.
        assert!((f.forecast(1.0) - (last + 3.0)).abs() < 3.0);
    }

    #[test]
    fn forecaster_is_flat_on_constant_input() {
        let mut f = Forecaster::scaling_default();
        for _ in 0..10 {
            f.observe(7.0);
        }
        assert!((f.forecast(5.0) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn forecaster_never_goes_negative() {
        let mut f = Forecaster::scaling_default();
        for v in [10.0, 5.0, 1.0, 0.0, 0.0, 0.0] {
            f.observe(v);
        }
        assert!(f.forecast(10.0) >= 0.0);
    }

    #[test]
    fn forecaster_is_deterministic() {
        let run = || {
            let mut f = Forecaster::scaling_default();
            for i in 0..50 {
                f.observe(((i * 37) % 11) as f64);
            }
            f.forecast(3.0).to_bits()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forecaster_state_roundtrips_bit_exactly() {
        let mut f = Forecaster::scaling_default();
        for i in 0..23 {
            f.observe(((i * 13) % 7) as f64 + 0.25);
        }
        let mut g = Forecaster::from_state(f.state()).unwrap();
        assert_eq!(f.forecast(4.0).to_bits(), g.forecast(4.0).to_bits());
        // Continuation after restore is indistinguishable from the original.
        f.observe(9.5);
        g.observe(9.5);
        assert_eq!(f.forecast(1.0).to_bits(), g.forecast(1.0).to_bits());
        assert_eq!(f.observations(), g.observations());
    }

    #[test]
    fn forecaster_state_rejects_corrupt_values() {
        let good = Forecaster::scaling_default().state();
        assert!(Forecaster::from_state(ForecasterState { alpha: 0.0, ..good }).is_err());
        assert!(Forecaster::from_state(ForecasterState { alpha: 1.5, ..good }).is_err());
        assert!(Forecaster::from_state(ForecasterState { beta: -0.1, ..good }).is_err());
        assert!(Forecaster::from_state(ForecasterState {
            level: f64::NAN,
            ..good
        })
        .is_err());
        assert!(Forecaster::from_state(ForecasterState {
            trend: f64::INFINITY,
            ..good
        })
        .is_err());
        assert!(Forecaster::from_state(good).is_ok());
    }

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
