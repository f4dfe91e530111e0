//! Synthetic call-graph trace generation.
//!
//! The generator models what the paper extracted from the Alibaba traces:
//! the 10 most frequent *services*, each with a dependency chain of 12+
//! *microservices* drawn from a shared pool. Two sources of heterogeneity
//! are reproduced:
//!
//! * services prefer different (but overlapping) microservice subsets —
//!   so service-to-service similarity varies widely (Figure 3a),
//! * each invocation of a service perturbs its dependency structure
//!   (skipped optional calls, alternative branches) — so trace-to-trace
//!   similarity of even the *same* service stays well below 1 and the
//!   cross-service maximum lands around the paper's 0.65 (Figure 3b).

use socl_net::rng::ChaCha12Rng;

/// Number of distinct services (paper: top-10).
const SERVICES: usize = 10;
/// Size of the shared microservice pool.
const POOL: usize = 60;
/// Dependency-chain length per service (paper: > 12).
const CHAIN_LEN: usize = 13;
// Skip, rewire and calls are calibrated so the maximum Jaccard similarity
// between traces of one service lands at ≈ 0.64, matching the paper's
// Alibaba measurement of ≈ 0.65 (Figure 3b).
/// Per-call probability that a dependency edge is skipped.
const SKIP_PROB: f64 = 0.06;
/// Per-call probability that an edge is rewired to a random target.
const REWIRE_PROB: f64 = 0.02;
/// Calls sampled per trace file.
const CALLS_PER_TRACE: usize = 35;
const _: () = assert!(POOL >= CHAIN_LEN, "pool smaller than chain length");

/// One sampled trace file of one service: aggregate usage and structure.
#[derive(Debug, Clone)]
pub struct ServiceTrace {
    /// Owning service index.
    pub service: usize,
    /// Invocation count per pool microservice (usage vector).
    pub usage: Vec<f64>,
    /// Observed dependency edges `(from, to)` over pool indices, deduped.
    pub edges: Vec<(u32, u32)>,
}

/// Seeded trace generator.
///
/// ```
/// use socl_trace::{cosine_similarity, TraceGenerator};
///
/// let generator = TraceGenerator::new(42);
/// let traces = generator.sample_all(1);
/// assert_eq!(traces.len(), 10);
/// let sim = cosine_similarity(&traces[0].usage, &traces[1].usage);
/// assert!((0.0..=1.0).contains(&sim));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    /// Per service: its canonical microservice chain over the pool.
    canonical: Vec<Vec<u32>>,
}

impl TraceGenerator {
    /// Build canonical per-service chains with overlapping preferences.
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let canonical = (0..SERVICES)
            .map(|s| {
                // Service s prefers a window of the pool plus random picks —
                // windows overlap, giving graded similarity across services.
                let window = POOL / 2;
                let base = (s * POOL / SERVICES) % POOL;
                let mut chain = Vec::with_capacity(CHAIN_LEN);
                while chain.len() < CHAIN_LEN {
                    let pick = if rng.gen::<f64>() < 0.8 {
                        ((base + rng.gen_range(0..window)) % POOL) as u32
                    } else {
                        rng.gen_range(0..POOL as u32)
                    };
                    if !chain.contains(&pick) {
                        chain.push(pick);
                    }
                }
                chain
            })
            .collect();
        Self { canonical }
    }

    /// The canonical chain of `service`.
    pub fn canonical_chain(&self, service: usize) -> &[u32] {
        &self.canonical[service]
    }

    /// Sample one trace file for `service`.
    pub fn sample_trace(&self, service: usize, seed: u64) -> ServiceTrace {
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ (service as u64) << 32);
        let mut usage = vec![0.0; POOL];
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let chain = &self.canonical[service];
        for _ in 0..CALLS_PER_TRACE {
            // Perturb the canonical chain for this invocation.
            let mut call: Vec<u32> = Vec::with_capacity(chain.len());
            for &m in chain {
                if rng.gen::<f64>() < SKIP_PROB {
                    continue;
                }
                let m = if rng.gen::<f64>() < REWIRE_PROB {
                    rng.gen_range(0..POOL as u32)
                } else {
                    m
                };
                call.push(m);
            }
            for &m in &call {
                usage[m as usize] += 1.0;
            }
            for w in call.windows(2) {
                if w[0] != w[1] && !edges.contains(&(w[0], w[1])) {
                    edges.push((w[0], w[1]));
                }
            }
        }
        ServiceTrace {
            service,
            usage,
            edges,
        }
    }

    /// Sample one trace file per service (Figure 3a's inputs).
    pub fn sample_all(&self, seed: u64) -> Vec<ServiceTrace> {
        (0..SERVICES)
            .map(|s| self.sample_trace(s, seed.wrapping_add(s as u64)))
            .collect()
    }

    /// Sample `n` successive trace files of one service (Figure 3b's
    /// inputs: similarity between different traces of a deep service).
    pub fn sample_series(&self, service: usize, n: usize, seed: u64) -> Vec<ServiceTrace> {
        (0..n)
            .map(|i| self.sample_trace(service, seed.wrapping_mul(31).wrapping_add(i as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_chains_have_required_depth() {
        let g = TraceGenerator::new(1);
        for s in 0..10 {
            let c = g.canonical_chain(s);
            assert!(c.len() >= 12, "service {s} chain too short");
            // No duplicates.
            let mut d = c.to_vec();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), c.len());
        }
    }

    #[test]
    fn traces_use_pool_microservices_only() {
        let g = TraceGenerator::new(2);
        let t = g.sample_trace(0, 7);
        assert_eq!(t.usage.len(), 60);
        for &(a, b) in &t.edges {
            assert!(a < 60 && b < 60);
        }
        assert!(t.usage.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let g = TraceGenerator::new(3);
        let a = g.sample_trace(0, 1);
        let b = g.sample_trace(0, 2);
        assert_ne!(a.usage, b.usage);
    }

    #[test]
    fn generation_is_deterministic() {
        let g1 = TraceGenerator::new(4);
        let g2 = TraceGenerator::new(4);
        assert_eq!(g1.canonical, g2.canonical);
        assert_eq!(g1.sample_trace(3, 9).usage, g2.sample_trace(3, 9).usage);
    }

    #[test]
    fn series_has_requested_length() {
        let g = TraceGenerator::new(5);
        let series = g.sample_series(2, 8, 11);
        assert_eq!(series.len(), 8);
        assert!(series.iter().all(|t| t.service == 2));
    }
}
