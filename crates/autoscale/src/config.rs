//! Control-plane configuration: scaling mode, windows, cooldowns,
//! keep-alive economics, and admission policy.

use socl_model::ServiceCatalog;
use socl_model::ServiceId;

/// Which replica-count controller drives the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingMode {
    /// Replica counts are frozen at their initial values — the
    /// one-instance-per-placement-entry model, kept as the comparison
    /// baseline (and as the max-scale extreme when `min_replicas` is high).
    Static,
    /// Knative-style concurrency targeting: desired replicas =
    /// `ceil(observed in-flight / target_concurrency)`, averaged over the
    /// stable window, with a short panic window for flash crowds.
    Reactive,
}

impl ScalingMode {
    /// Stable display/CLI tag.
    pub fn name(&self) -> &'static str {
        match self {
            ScalingMode::Static => "static",
            ScalingMode::Reactive => "reactive",
        }
    }

    /// Parse a CLI tag.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "static" => Ok(ScalingMode::Static),
            "reactive" => Ok(ScalingMode::Reactive),
            other => Err(format!(
                "unknown scaling mode `{other}` (expected static|reactive)"
            )),
        }
    }
}

/// When an idle replica may be reclaimed (scale-to-zero economics).
///
/// The tension is Eq. 1 against Eq. 2/7: a warm replica of service `m`
/// keeps paying its deployment cost `κ(m)` (it holds storage and a billed
/// container), while releasing it means the next request pays the
/// `cold_start` latency penalty. The classic deterministic ski-rental
/// answer is to keep the replica warm until the accumulated idle cost
/// equals the cold-start cost, i.e. a window of `cold cost / idle rate` —
/// within factor 2 of the offline optimum for any arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeepAlivePolicy {
    /// Fixed window in seconds for every service (Knative's default shape).
    Fixed(f64),
    /// Ski-rental break-even per service: window =
    /// `cold_start · latency_value / (idle_cost_per_unit · κ(m))`.
    /// Expensive services (large `κ`) go cold sooner; cheap ones linger.
    CostOptimal {
        /// Cost units one deployment-cost unit accrues per idle second.
        idle_cost_per_unit: f64,
        /// Cost units per second of user-visible cold-start latency.
        latency_value: f64,
    },
}

impl KeepAlivePolicy {
    /// The keep-alive window for service `m` given the run's cold-start
    /// penalty (seconds). Never negative; degenerate rates fall back to the
    /// cold-start itself so a replica always survives at least one penalty
    /// span.
    pub fn window(&self, catalog: &ServiceCatalog, m: ServiceId, cold_start: f64) -> f64 {
        match *self {
            KeepAlivePolicy::Fixed(w) => w.max(0.0),
            KeepAlivePolicy::CostOptimal {
                idle_cost_per_unit,
                latency_value,
            } => {
                let idle_rate = idle_cost_per_unit * catalog.deploy_cost(m);
                if idle_rate <= 0.0 {
                    return f64::INFINITY; // free to keep warm forever
                }
                (cold_start.max(0.0) * latency_value / idle_rate).max(cold_start.max(0.0))
            }
        }
    }
}

/// Load shedding at admission time.
///
/// Shedding only engages when even *max-scale* capacity is exceeded: the
/// overload of a service is `in-flight / (queue_limit × max replicas)`,
/// where max replicas is the capacity ceiling from the per-node constraints
/// — if scaling up could still absorb the load, the scaler (not the
/// shedder) is the right tool. Per-chain priority classes degrade service
/// gracefully: lower classes are shed first, the top class holds out to
/// `strict_overload`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Master switch; off = admit everything (the pre-control-plane model).
    pub enabled: bool,
    /// Admissible in-flight per replica before a service counts as
    /// overloaded (sized relative to `target_concurrency`, e.g. 2×).
    pub queue_limit: f64,
    /// Number of priority classes (≥ 1). Class 0 is the highest.
    pub classes: u32,
    /// Overload factor at which even class-0 requests are shed.
    pub strict_overload: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            queue_limit: 4.0,
            classes: 2,
            strict_overload: 2.0,
        }
    }
}

/// Full control-plane configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Which controller drives the plan.
    pub mode: ScalingMode,
    /// Knative's soft concurrency target per replica.
    pub target_concurrency: f64,
    /// Averaging window (seconds) for the stable in-flight signal.
    pub stable_window: f64,
    /// Short window (seconds) whose *max* drives flash-crowd panic.
    pub panic_window: f64,
    /// Seconds between scaler ticks.
    pub scale_interval: f64,
    /// Minimum seconds between consecutive scale-downs of one service
    /// (scale-ups are never delayed).
    pub down_cooldown: f64,
    /// Floor on total replicas per requested service (0 = scale-to-zero).
    pub min_replicas: u32,
    /// Hard per-(service, node) replica cap, additionally bounded by the
    /// node's storage (constraint (6): replicas hold container images).
    pub max_replicas_per_node: u32,
    /// Scale-to-zero economics.
    pub keep_alive: KeepAlivePolicy,
    /// Load shedding at admission.
    pub admission: AdmissionPolicy,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            mode: ScalingMode::Reactive,
            target_concurrency: 2.0,
            stable_window: 60.0,
            panic_window: 6.0,
            scale_interval: 2.0,
            down_cooldown: 30.0,
            min_replicas: 1,
            max_replicas_per_node: 8,
            keep_alive: KeepAlivePolicy::Fixed(60.0),
            admission: AdmissionPolicy::default(),
        }
    }
}

impl AutoscaleConfig {
    /// Validate ranges; call once at the configuration boundary.
    ///
    /// # Panics
    /// Panics on non-positive `target_concurrency` or `scale_interval`, or
    /// `admission.classes == 0`.
    pub fn validate(&self) {
        assert!(
            self.target_concurrency > 0.0,
            "target_concurrency must be positive"
        );
        assert!(self.scale_interval > 0.0, "scale_interval must be positive");
        assert!(self.admission.classes > 0, "admission.classes must be >= 1");
    }

    /// The max-scale extreme: the same pool model with every requested
    /// service pinned at its capacity ceiling — the latency-optimal,
    /// cost-maximal reference the keep-alive economics are judged against.
    pub fn max_scale() -> Self {
        Self {
            mode: ScalingMode::Static,
            min_replicas: u32::MAX,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::Microservice;

    fn catalog() -> ServiceCatalog {
        ServiceCatalog::from_services(vec![
            Microservice::new(100.0, 1.0, 1.0),
            Microservice::new(400.0, 2.0, 2.0),
        ])
    }

    #[test]
    fn fixed_window_ignores_the_catalog() {
        let c = catalog();
        let p = KeepAlivePolicy::Fixed(45.0);
        assert_eq!(p.window(&c, ServiceId(0), 0.5), 45.0);
        assert_eq!(p.window(&c, ServiceId(1), 0.5), 45.0);
    }

    #[test]
    fn cost_optimal_window_shrinks_with_deploy_cost() {
        let c = catalog();
        let p = KeepAlivePolicy::CostOptimal {
            idle_cost_per_unit: 1e-4,
            latency_value: 10.0,
        };
        let cheap = p.window(&c, ServiceId(0), 0.5);
        let pricey = p.window(&c, ServiceId(1), 0.5);
        // Service 1 costs 4x more to keep idle, so its window is 4x shorter.
        assert!((cheap / pricey - 4.0).abs() < 1e-9, "{cheap} vs {pricey}");
        // Break-even arithmetic: 0.5 s * 10 / (1e-4 * 100) = 500 s.
        assert!((cheap - 500.0).abs() < 1e-9);
    }

    #[test]
    fn cost_optimal_window_never_undercuts_the_cold_start() {
        let c = catalog();
        let p = KeepAlivePolicy::CostOptimal {
            idle_cost_per_unit: 1.0,
            latency_value: 1e-6,
        };
        assert!(p.window(&c, ServiceId(1), 0.5) >= 0.5);
    }

    #[test]
    fn zero_idle_rate_keeps_replicas_warm_forever() {
        let c = catalog();
        let p = KeepAlivePolicy::CostOptimal {
            idle_cost_per_unit: 0.0,
            latency_value: 10.0,
        };
        assert!(p.window(&c, ServiceId(0), 0.5).is_infinite());
    }

    #[test]
    fn mode_tags_round_trip() {
        for m in [ScalingMode::Static, ScalingMode::Reactive] {
            assert_eq!(ScalingMode::parse(m.name()).unwrap(), m);
        }
        assert!(ScalingMode::parse("predictive").is_err());
        assert!(ScalingMode::parse("chaotic").is_err());
    }
}
