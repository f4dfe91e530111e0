//! FuzzyAHP: the local demand factor `ρ` of Definition 9.
//!
//! Algorithm 5 ranks the instances on an overloaded node by importance and
//! evicts the least important. The paper computes that priority with the
//! Fuzzy Analytic Hierarchy Process over four criteria of `m_i` on `v_k`:
//!
//! * deployment cost `κ(m_i)`,
//! * storage requirement `φ(m_i)`,
//! * local requesting-user count `|𝕌_{v_k}^{m_i}|`,
//! * the order factor `ℝ_{v_k}^{m_i} = (3·u_f + 2·u_l + u_m) / |𝕌|`
//!   rewarding services that sit first (heaviest weight) or last in user
//!   dependency chains.
//!
//! This module implements the full machinery: triangular fuzzy numbers,
//! a fuzzy pairwise-comparison matrix, and Buckley's fuzzy geometric mean to
//! derive crisp criterion weights ([`FuzzyAhp::weights`]), then scores each
//! instance by the weighted sum of min-max-normalized criterion values
//! (storage contributes inversely — a bulky instance is a better eviction
//! candidate).

/// A triangular fuzzy number `(l, m, u)` with `l ≤ m ≤ u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriangularFuzzy {
    pub l: f64,
    pub m: f64,
    pub u: f64,
}

impl TriangularFuzzy {
    /// Construct, validating the ordering.
    ///
    /// # Panics
    /// Panics unless `l ≤ m ≤ u`.
    pub fn new(l: f64, m: f64, u: f64) -> Self {
        assert!(l <= m && m <= u, "invalid TFN ({l}, {m}, {u})");
        Self { l, m, u }
    }

    /// The crisp TFN `(v, v, v)`.
    pub fn crisp(v: f64) -> Self {
        Self::new(v, v, v)
    }

    /// Reciprocal `(1/u, 1/m, 1/l)`.
    ///
    /// # Panics
    /// Panics when any component is zero or the TFN spans zero.
    pub fn recip(self) -> Self {
        assert!(self.l > 0.0, "reciprocal of non-positive TFN");
        Self::new(1.0 / self.u, 1.0 / self.m, 1.0 / self.l)
    }
}

/// Fuzzy addition (component-wise).
impl std::ops::Add for TriangularFuzzy {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self::new(self.l + o.l, self.m + o.m, self.u + o.u)
    }
}

/// Fuzzy multiplication (approximate, component-wise; standard in AHP).
impl std::ops::Mul for TriangularFuzzy {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        Self::new(self.l * o.l, self.m * o.m, self.u * o.u)
    }
}

/// A FuzzyAHP instance over `n` criteria.
#[derive(Debug, Clone)]
pub struct FuzzyAhp {
    n: usize,
    /// Row-major pairwise comparison matrix.
    matrix: Vec<TriangularFuzzy>,
}

impl FuzzyAhp {
    /// Build from the upper triangle of judgments: `judgments[(i, j)]` for
    /// `i < j`; the diagonal is `(1,1,1)` and the lower triangle reciprocal.
    ///
    /// # Panics
    /// Panics if a needed judgment is missing.
    pub fn from_upper_triangle(n: usize, judgments: &[((usize, usize), TriangularFuzzy)]) -> Self {
        let mut matrix = vec![TriangularFuzzy::crisp(1.0); n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                #[expect(
                    clippy::panic,
                    reason = "documented `# Panics` contract of this constructor — a missing pairwise judgment is a programming error in the caller's hierarchy definition, not a runtime condition"
                )]
                let j_val = judgments
                    .iter()
                    .find(|((a, b), _)| *a == i && *b == j)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("missing judgment ({i}, {j})"));
                matrix[i * n + j] = j_val;
                matrix[j * n + i] = j_val.recip();
            }
        }
        Self { n, matrix }
    }

    /// The paper's four-criterion hierarchy for the local demand factor, in
    /// order: [user demand `|𝕌|`, order factor `ℝ`, deployment cost `κ`,
    /// storage `φ`]. Judgments encode: demand moderately more important than
    /// the order factor, strongly more than cost, very strongly more than
    /// storage footprint.
    pub fn local_demand_hierarchy() -> Self {
        let j = |l, m, u| TriangularFuzzy::new(l, m, u);
        Self::from_upper_triangle(
            4,
            &[
                ((0, 1), j(1.0, 2.0, 3.0)), // demand vs order
                ((0, 2), j(2.0, 3.0, 4.0)), // demand vs cost
                ((0, 3), j(3.0, 4.0, 5.0)), // demand vs storage
                ((1, 2), j(1.0, 2.0, 3.0)), // order vs cost
                ((1, 3), j(2.0, 3.0, 4.0)), // order vs storage
                ((2, 3), j(1.0, 2.0, 3.0)), // cost vs storage
            ],
        )
    }

    /// Crisp criterion weights by Buckley's fuzzy geometric-mean method:
    /// `r̃_i = (Π_j ã_ij)^{1/n}`, `w̃_i = r̃_i ⊘ Σ r̃`, defuzzified by the
    /// centroid `(l+m+u)/3` and normalized. Unlike Chang's extent analysis
    /// (which zeroes fully dominated criteria), every weight is strictly
    /// positive — required here because even the weakest criterion (storage)
    /// must break ties in the eviction ranking.
    pub fn weights(&self) -> Vec<f64> {
        let n = self.n;
        let exp = 1.0 / n as f64;
        // Fuzzy geometric mean per row.
        let geo: Vec<TriangularFuzzy> = (0..n)
            .map(|i| {
                let prod = (0..n)
                    .map(|j| self.matrix[i * n + j])
                    .fold(TriangularFuzzy::crisp(1.0), |a, b| a * b);
                TriangularFuzzy::new(prod.l.powf(exp), prod.m.powf(exp), prod.u.powf(exp))
            })
            .collect();
        let total = geo
            .iter()
            .copied()
            .fold(TriangularFuzzy::crisp(0.0), |a, b| a + b);
        // w̃_i = geo_i ⊘ total, centroid-defuzzified.
        let crisp: Vec<f64> = geo
            .iter()
            .map(|g| {
                let w = *g * total.recip();
                (w.l + w.m + w.u) / 3.0
            })
            .collect();
        let sum: f64 = crisp.iter().sum();
        crisp.iter().map(|&x| x / sum).collect()
    }
}

/// Min-max normalize `values` into `[0, 1]` (all-equal inputs map to 0.5).
pub fn normalize(values: &[f64]) -> Vec<f64> {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (max - min).abs() < 1e-12 {
        vec![0.5; values.len()]
    } else {
        values.iter().map(|&v| (v - min) / (max - min)).collect()
    }
}

/// Per-instance criterion bundle for the `ρ` score.
#[derive(Debug, Clone, Copy)]
pub struct RhoCriteria {
    /// Local requesting-user count `|𝕌_{v_k}^{m_i}|`.
    pub demand: f64,
    /// Order factor `ℝ_{v_k}^{m_i}`.
    pub order: f64,
    /// Deployment cost `κ(m_i)`.
    pub cost: f64,
    /// Storage footprint `φ(m_i)`.
    pub storage: f64,
}

/// Compute `ρ` for every instance in `criteria` under the paper's hierarchy.
/// Higher `ρ` means higher priority to *keep*; Algorithm 5 evicts the
/// minimum. Storage is inverted (bulky ⇒ lower keep-priority).
pub fn rho_scores(criteria: &[RhoCriteria]) -> Vec<f64> {
    if criteria.is_empty() {
        return Vec::new();
    }
    let w = FuzzyAhp::local_demand_hierarchy().weights();
    let demand = normalize(&criteria.iter().map(|c| c.demand).collect::<Vec<_>>());
    let order = normalize(&criteria.iter().map(|c| c.order).collect::<Vec<_>>());
    let cost = normalize(&criteria.iter().map(|c| c.cost).collect::<Vec<_>>());
    let storage = normalize(&criteria.iter().map(|c| c.storage).collect::<Vec<_>>());
    (0..criteria.len())
        .map(|i| w[0] * demand[i] + w[1] * order[i] + w[2] * cost[i] + w[3] * (1.0 - storage[i]))
        .collect()
}

/// The order factor `ℝ = (3·u_f + 2·u_l + u_m) / |𝕌|` (Definition 9).
/// Returns 0 when no user requests the service here.
pub fn order_factor(first: usize, last: usize, middle: usize) -> f64 {
    let total = first + last + middle;
    if total == 0 {
        0.0
    } else {
        (3 * first + 2 * last + middle) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tfn_arithmetic() {
        let a = TriangularFuzzy::new(1.0, 2.0, 3.0);
        let b = TriangularFuzzy::new(2.0, 3.0, 4.0);
        assert_eq!(a + b, TriangularFuzzy::new(3.0, 5.0, 7.0));
        assert_eq!(a * b, TriangularFuzzy::new(2.0, 6.0, 12.0));
        let r = a.recip();
        assert!((r.l - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.u - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid TFN")]
    fn disordered_tfn_rejected() {
        TriangularFuzzy::new(3.0, 2.0, 1.0);
    }

    #[test]
    fn weights_sum_to_one_and_order_by_importance() {
        let w = FuzzyAhp::local_demand_hierarchy().weights();
        assert_eq!(w.len(), 4);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Buckley weights are strictly positive even for dominated criteria.
        assert!(w.iter().all(|&x| x > 0.0), "{w:?}");
        // Demand dominates; storage is the weakest criterion.
        assert!(w[0] >= w[1] && w[1] >= w[2] && w[2] >= w[3], "{w:?}");
    }

    #[test]
    fn uniform_matrix_gives_uniform_weights() {
        let ahp = FuzzyAhp::from_upper_triangle(
            3,
            &[
                ((0, 1), TriangularFuzzy::crisp(1.0)),
                ((0, 2), TriangularFuzzy::crisp(1.0)),
                ((1, 2), TriangularFuzzy::crisp(1.0)),
            ],
        );
        let w = ahp.weights();
        for &x in &w {
            assert!((x - 1.0 / 3.0).abs() < 1e-9, "{w:?}");
        }
    }

    #[test]
    fn order_factor_weighting() {
        // All-first users: ℝ = 3.
        assert_eq!(order_factor(4, 0, 0), 3.0);
        // All-last: 2; all-middle: 1.
        assert_eq!(order_factor(0, 4, 0), 2.0);
        assert_eq!(order_factor(0, 0, 4), 1.0);
        // Mixed: (3+2+1)/3 = 2.
        assert_eq!(order_factor(1, 1, 1), 2.0);
        // Empty: 0.
        assert_eq!(order_factor(0, 0, 0), 0.0);
    }

    #[test]
    fn rho_prefers_high_demand() {
        let lo = RhoCriteria {
            demand: 1.0,
            order: 1.0,
            cost: 300.0,
            storage: 1.5,
        };
        let hi = RhoCriteria { demand: 9.0, ..lo };
        let rho = rho_scores(&[lo, hi]);
        assert!(rho[1] > rho[0], "{rho:?}");
    }

    #[test]
    fn rho_penalizes_bulky_instances() {
        let slim = RhoCriteria {
            demand: 3.0,
            order: 1.5,
            cost: 300.0,
            storage: 1.0,
        };
        let bulky = RhoCriteria {
            storage: 2.0,
            ..slim
        };
        let rho = rho_scores(&[slim, bulky]);
        assert!(rho[0] > rho[1], "{rho:?}");
    }

    #[test]
    fn normalize_handles_constant_input() {
        assert_eq!(normalize(&[5.0, 5.0, 5.0]), vec![0.5, 0.5, 0.5]);
        let n = normalize(&[0.0, 5.0, 10.0]);
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn rho_empty_input() {
        assert!(rho_scores(&[]).is_empty());
    }
}
