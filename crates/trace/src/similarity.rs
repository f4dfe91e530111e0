//! Similarity measures for trace analysis (Figures 3a/3b).

/// Cosine similarity between two usage vectors. Zero vectors yield 0.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Jaccard similarity between two edge sets. Two empty sets yield 1.
pub fn jaccard_similarity(a: &[(u32, u32)], b: &[(u32, u32)]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.iter().filter(|e| b.contains(e)).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Pairwise similarity matrix (row-major `n × n`) under `sim`.
pub fn similarity_matrix<T, F>(items: &[T], mut sim: F) -> Vec<f64>
where
    F: FnMut(&T, &T) -> f64,
{
    let n = items.len();
    let mut m = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            m[i * n + j] = if i == j {
                1.0
            } else {
                sim(&items[i], &items[j])
            };
        }
    }
    m
}

/// Off-diagonal maximum of a row-major square matrix.
pub fn offdiag_max(matrix: &[f64], n: usize) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                best = best.max(matrix[i * n + j]);
            }
        }
    }
    best
}

/// Off-diagonal mean of a row-major square matrix.
pub fn offdiag_mean(matrix: &[f64], n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                sum += matrix[i * n + j];
            }
        }
    }
    sum / (n * (n - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;

    #[test]
    fn cosine_identity_and_orthogonality() {
        assert!((cosine_similarity(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 1.0, 0.5];
        let scaled: Vec<f64> = b.iter().map(|x| x * 7.5).collect();
        assert!((cosine_similarity(&a, &b) - cosine_similarity(&a, &scaled)).abs() < 1e-12);
    }

    #[test]
    fn jaccard_basics() {
        let a = [(0, 1), (1, 2)];
        let b = [(1, 2), (2, 3)];
        assert!((jaccard_similarity(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard_similarity(&a, &a), 1.0);
        assert_eq!(jaccard_similarity(&a, &[]), 0.0);
        assert_eq!(jaccard_similarity(&[], &[]), 1.0);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let items = vec![vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 1.0]];
        let m = similarity_matrix(&items, |a, b| cosine_similarity(a, b));
        for i in 0..3 {
            assert_eq!(m[i * 3 + i], 1.0);
            for j in 0..3 {
                assert!((m[i * 3 + j] - m[j * 3 + i]).abs() < 1e-12);
            }
        }
    }

    /// The calibration claim of DESIGN.md: synthetic traces reproduce the
    /// paper's observation that cross-trace similarity is heterogeneous and
    /// bounded well below 1 (Alibaba: max ≈ 0.65).
    #[test]
    fn synthetic_traces_match_paper_shape() {
        let g = TraceGenerator::new(42);
        // Figure 3b: structural similarity between successive traces of one
        // deep service.
        let series = g.sample_series(0, 10, 1);
        let m = similarity_matrix(&series, |a, b| jaccard_similarity(&a.edges, &b.edges));
        let max = offdiag_max(&m, 10);
        assert!(
            max > 0.2 && max < 0.9,
            "structural max similarity {max} outside the plausible band"
        );
        // Figure 3a: usage similarity across the ten services varies widely.
        let all = g.sample_all(2);
        let mu = similarity_matrix(&all, |a, b| cosine_similarity(&a.usage, &b.usage));
        let lo = mu
            .iter()
            .enumerate()
            .filter(|(i, _)| i / 10 != i % 10)
            .map(|(_, &v)| v)
            .fold(f64::INFINITY, f64::min);
        let hi = offdiag_max(&mu, 10);
        assert!(
            hi - lo > 0.2,
            "service similarities not heterogeneous: [{lo}, {hi}]"
        );
    }

    #[test]
    fn offdiag_stats() {
        let m = vec![1.0, 0.5, 0.3, 1.0];
        assert_eq!(offdiag_max(&m, 2), 0.5);
        assert!((offdiag_mean(&m, 2) - 0.4).abs() < 1e-12);
        assert_eq!(offdiag_mean(&[1.0], 1), 0.0);
    }
}
