//! SoCL hyper-parameters and ablation toggles.

/// How Algorithm 5 chooses which instance to evict from an overloaded node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoragePolicy {
    /// The paper's FuzzyAHP local-demand-factor `ρ` (Definition 9).
    FuzzyAhp,
    /// Ablation baseline: evict the instance with the smallest deployment
    /// cost first, ignoring demand and chain-position structure.
    CheapestOut,
}

/// All knobs of the SoCL pipeline. `Default` reproduces the paper's setup.
#[derive(Debug, Clone)]
pub struct SoclConfig {
    /// Virtual-link communication threshold `ξ` (GB/s): links with
    /// `𝔹(l') > ξ` survive the partition filter of Algorithm 1.
    pub xi: f64,
    /// Parallel-combination fraction `ω ∈ (0, 1]`: each large-scale round
    /// merges the `ω`-smallest-latency-loss instances simultaneously.
    pub omega: f64,
    /// Disturbance factor `Θ ≥ 0` in the small-scale gradient
    /// `δ = Q' − Q″ + Θ`: tolerates small objective rises so the serial
    /// descent does not stop at the first plateau.
    pub theta: f64,
    /// Apply the Theorem 1 candidate filter (`H(v) > 2` and `Δ < 0`).
    /// Disabling it is an ablation: no proactive candidate nodes at all.
    pub candidate_filter: bool,
    /// Storage-planning eviction policy (Algorithm 5).
    pub storage_policy: StoragePolicy,
    /// Evaluate the latency loss `ζ` exactly (chain-aware routing DP delta)
    /// instead of the per-connection `ψ` surrogate of Definition 8. Exact ζ
    /// is the default: it accounts for the co-location effects that chain
    /// routing creates, while the ω-batching keeps SoCL an order of
    /// magnitude cheaper than GC-OG. Disable for the surrogate ablation.
    pub exact_zeta: bool,
    /// Run objective-guided instance migration during the serial stage —
    /// the generalization of Algorithm 5's storage migrations: instead of
    /// moving instances only when a node overflows, the serial stage also
    /// moves an instance to a storage-feasible node whenever that strictly
    /// improves the objective. Combination alone can only *remove*
    /// instances, so this is the mechanism that repairs unlucky stage-2
    /// positions. Disable for the ablation.
    pub relocation: bool,
}

impl Default for SoclConfig {
    fn default() -> Self {
        Self {
            xi: 2.0,
            omega: 0.2,
            theta: 1.0,
            candidate_filter: true,
            storage_policy: StoragePolicy::FuzzyAhp,
            exact_zeta: true,
            relocation: true,
        }
    }
}

impl SoclConfig {
    /// Validate parameter ranges.
    ///
    /// # Panics
    /// Panics on out-of-range `ω`, negative `ξ` or negative `Θ`.
    pub fn validate(&self) {
        assert!(
            self.omega > 0.0 && self.omega <= 1.0,
            "ω must be in (0, 1], got {}",
            self.omega
        );
        assert!(self.xi >= 0.0, "ξ must be non-negative, got {}", self.xi);
        assert!(
            self.theta >= 0.0,
            "Θ must be non-negative, got {}",
            self.theta
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SoclConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "ω must be")]
    fn zero_omega_rejected() {
        SoclConfig {
            omega: 0.0,
            ..SoclConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "ω must be")]
    fn omega_above_one_rejected() {
        SoclConfig {
            omega: 1.5,
            ..SoclConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "Θ must be")]
    fn negative_theta_rejected() {
        SoclConfig {
            theta: -0.1,
            ..SoclConfig::default()
        }
        .validate();
    }
}
