//! User-preference modeling (the paper's stated future work).
//!
//! The conclusion announces "user behavior modeling and preference
//! integration to support context-aware resource management" as future
//! work. This module provides the modeling half: each user carries a stable
//! preference vector over the microservice pool, and chain sampling weights
//! every successor choice by those preferences. Two consequences the online
//! system can exploit:
//!
//! * a user's successive requests are *self-similar* (the same user
//!   re-draws similar chains), so warm-started provisioning retains value
//!   across slots even with chain churn,
//! * different users are *dissimilar*, preserving the heterogeneity that
//!   motivated SoCL in the first place.
//!
//! Both properties are asserted statistically in the tests.

use crate::dataset::{ChainScratch, DependencyDataset};
use crate::request::{RequestConfig, UserId, UserRequest};
use crate::service::ServiceId;
use socl_net::rng::ChaCha12Rng;
use socl_net::NodeId;

/// Per-user affinity weights over the service pool.
#[derive(Debug, Clone)]
pub struct PreferenceModel {
    /// `weights[user][service]`, strictly positive.
    weights: Vec<Vec<f64>>,
    /// Sharpness: 1 = use weights as-is, larger = more deterministic users.
    pub temperature: f64,
}

impl PreferenceModel {
    /// Sample a preference model: each user gets a sparse affinity profile
    /// (strong pull to a few favourite services, baseline elsewhere).
    pub fn sample(users: usize, services: usize, seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xD1CE_BA5E);
        let weights = (0..users)
            .map(|_| {
                let mut w = vec![1.0f64; services];
                // 2–4 favourite services with a strong multiplier.
                let favs = rng.gen_range(2..=4usize.min(services.max(2)));
                for _ in 0..favs {
                    let s = rng.gen_range(0..services);
                    w[s] *= rng.gen_range(4.0..10.0);
                }
                w
            })
            .collect();
        Self {
            weights,
            temperature: 1.0,
        }
    }

    /// Number of users covered.
    pub fn users(&self) -> usize {
        self.weights.len()
    }

    /// The affinity of `user` for `service`.
    pub fn weight(&self, user: usize, service: ServiceId) -> f64 {
        self.weights[user][service.idx()].powf(self.temperature)
    }

    /// Weighted choice among `options` for `user`.
    fn choose(&self, user: usize, options: &[u32], rng: &mut ChaCha12Rng) -> u32 {
        debug_assert!(!options.is_empty());
        let total: f64 = options
            .iter()
            .map(|&s| self.weight(user, ServiceId(s)))
            .sum();
        let mut pick = rng.gen::<f64>() * total;
        for &s in options {
            pick -= self.weight(user, ServiceId(s));
            if pick <= 0.0 {
                return s;
            }
        }
        // Rounding can leave `pick` marginally positive after the loop; the
        // last option is the correct weighted choice then. Empty `options`
        // violates the debug-asserted precondition; fall back to service 0
        // rather than panicking in release.
        options.last().copied().unwrap_or(0)
    }

    /// Sample a loop-free chain for `user`: like
    /// [`DependencyDataset::sample_chain`], but successor choice is weighted
    /// by the user's affinities (entry choice too).
    pub fn sample_chain(
        &self,
        dataset: &DependencyDataset,
        user: usize,
        rng: &mut ChaCha12Rng,
        min_len: usize,
        max_len: usize,
    ) -> Vec<ServiceId> {
        let mut scratch = ChainScratch::new();
        let mut out = Vec::new();
        self.sample_chain_into(dataset, user, rng, min_len, max_len, &mut scratch, &mut out);
        out
    }

    /// [`sample_chain`](Self::sample_chain) into caller-owned buffers — the
    /// allocation-free form the online simulator's churn loop uses. The
    /// chain is left in `out` (previous contents discarded); `scratch` is
    /// recycled across calls.
    ///
    /// Draws from `rng` in exactly the same order as `sample_chain`, so a
    /// seeded run produces identical chains through either entry point.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_chain_into(
        &self,
        dataset: &DependencyDataset,
        user: usize,
        rng: &mut ChaCha12Rng,
        min_len: usize,
        max_len: usize,
        scratch: &mut ChainScratch,
        out: &mut Vec<ServiceId>,
    ) {
        let max_len = max_len.max(1);
        let min_len = min_len.clamp(1, max_len);
        let ChainScratch {
            attempt,
            succ,
            head,
        } = scratch;
        out.clear();
        for _ in 0..8 {
            let target = rng.gen_range(min_len..=max_len);
            // Head drawn from the dataset's entry points (its own sampler
            // encodes them); preferences steer the walk from there. The
            // head sampler borrows `attempt`/`succ` as scratch — both are
            // dead here and reset immediately after.
            dataset.sample_chain_into(rng, 1, 1, attempt, succ, head);
            attempt.clear();
            let Some(&h) = head.first() else {
                break;
            };
            attempt.push(h);
            let mut cur = h.0;
            while attempt.len() < target {
                succ.clear();
                for s in dataset.successors_iter(cur) {
                    if !attempt.contains(&ServiceId(s)) {
                        succ.push(s);
                    }
                }
                if succ.is_empty() {
                    break;
                }
                cur = self.choose(user, succ, rng);
                attempt.push(ServiceId(cur));
            }
            if attempt.len() >= min_len {
                std::mem::swap(out, attempt);
                return;
            }
            if attempt.len() > out.len() {
                std::mem::swap(out, attempt);
            }
        }
    }

    /// Sample a full preference-driven request set over `nodes` stations.
    pub fn sample_requests(
        &self,
        dataset: &DependencyDataset,
        rng: &mut ChaCha12Rng,
        nodes: usize,
        cfg: &RequestConfig,
    ) -> Vec<UserRequest> {
        assert!(nodes > 0);
        (0..self.users())
            .map(|h| {
                let chain = self.sample_chain(dataset, h, rng, cfg.chain_len.0, cfg.chain_len.1);
                let edge_data = (0..chain.len().saturating_sub(1))
                    .map(|_| rng.gen_range(cfg.edge_data.0..=cfg.edge_data.1))
                    .collect();
                UserRequest::new(
                    UserId(h as u32),
                    NodeId(rng.gen_range(0..nodes as u32)),
                    chain,
                    edge_data,
                    rng.gen_range(cfg.r_in.0..=cfg.r_in.1),
                    rng.gen_range(cfg.r_out.0..=cfg.r_out.1),
                    cfg.d_max,
                )
            })
            .collect()
    }
}

/// Jaccard similarity of two chains' service sets — the self-similarity
/// statistic used to validate the model.
pub fn chain_similarity(a: &[ServiceId], b: &[ServiceId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.iter().filter(|s| b.contains(s)).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::EshopDataset;

    #[test]
    fn chains_remain_valid_dag_walks() {
        let ds = EshopDataset::build();
        let prefs = PreferenceModel::sample(10, ds.len(), 1);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        for user in 0..10 {
            for _ in 0..50 {
                let chain = prefs.sample_chain(&ds, user, &mut rng, 2, 8);
                assert!(!chain.is_empty());
                for w in chain.windows(2) {
                    assert!(ds.successors(w[0].0).contains(&w[1].0));
                }
                let mut d = chain.clone();
                d.sort();
                d.dedup();
                assert_eq!(d.len(), chain.len());
            }
        }
    }

    #[test]
    fn same_user_is_more_self_similar_than_cross_user() {
        let ds = EshopDataset::build();
        let prefs = PreferenceModel::sample(20, ds.len(), 3);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        // Mean self-similarity: consecutive chains of the same user.
        let mut self_sim = 0.0;
        let mut cross_sim = 0.0;
        let mut n = 0.0;
        for user in 0..20 {
            let a = prefs.sample_chain(&ds, user, &mut rng, 3, 8);
            let b = prefs.sample_chain(&ds, user, &mut rng, 3, 8);
            let other = prefs.sample_chain(&ds, (user + 7) % 20, &mut rng, 3, 8);
            self_sim += chain_similarity(&a, &b);
            cross_sim += chain_similarity(&a, &other);
            n += 1.0;
        }
        self_sim /= n;
        cross_sim /= n;
        assert!(
            self_sim > cross_sim,
            "self {self_sim:.3} should exceed cross {cross_sim:.3}"
        );
    }

    #[test]
    fn preference_weighting_biases_choices() {
        // A user with an overwhelming preference for identity-api should
        // traverse it far more often than an indifferent user.
        let ds = EshopDataset::build();
        let mut prefs = PreferenceModel::sample(2, ds.len(), 5);
        // User 0: force a massive identity affinity; user 1: flat.
        prefs.weights[0] = vec![1.0; ds.len()];
        prefs.weights[0][EshopDataset::IDENTITY_API as usize] = 1000.0;
        prefs.weights[1] = vec![1.0; ds.len()];
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        let count = |user: usize, rng: &mut ChaCha12Rng| -> usize {
            (0..300)
                .filter(|_| {
                    prefs
                        .sample_chain(&ds, user, rng, 2, 4)
                        .contains(&ServiceId(EshopDataset::IDENTITY_API))
                })
                .count()
        };
        let biased = count(0, &mut rng);
        let flat = count(1, &mut rng);
        assert!(
            biased > flat,
            "biased user hit identity {biased} times vs flat {flat}"
        );
    }

    #[test]
    fn requests_are_well_formed() {
        let ds = EshopDataset::build();
        let prefs = PreferenceModel::sample(15, ds.len(), 7);
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        let reqs = prefs.sample_requests(&ds, &mut rng, 6, &RequestConfig::default());
        assert_eq!(reqs.len(), 15);
        for r in &reqs {
            assert!(r.location.0 < 6);
        }
    }

    #[test]
    fn chain_similarity_bounds() {
        let a = vec![ServiceId(0), ServiceId(1)];
        let b = vec![ServiceId(1), ServiceId(2)];
        assert!((chain_similarity(&a, &a) - 1.0).abs() < 1e-12);
        assert!((chain_similarity(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(chain_similarity(&[], &[]), 1.0);
    }
}
