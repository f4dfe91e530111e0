//! Streaming request feed: millions of synthetic users, synthesized lazily.
//!
//! The feed never materializes per-user state. Each user is a pure function
//! of `(feed seed, user id)`: their home base station, their service chain,
//! and their data volumes are derived from a per-user ChaCha12 stream the
//! moment they arrive, and are identical every time they are re-derived —
//! which is what makes queue checkpoints tiny (user id + arrival tick) and
//! crash replay exact. Arrivals are a Bernoulli thinning of the global
//! [`TemporalWorkload`] intensity, keyed by `(seed, tick, user)` through a
//! 64-bit FNV-1a hash, so the *arrival set is independent of the region
//! partitioning*: regions group arrivals, they never change them.

use socl_model::{DependencyDataset, EshopDataset, RequestConfig, UserId, UserRequest};
use socl_net::rng::ChaCha12Rng;
use socl_net::NodeId;
use socl_trace::{TemporalConfig, TemporalWorkload};

/// FNV-1a 64-bit over a few words — the arrival coin and home-station
/// picker. Not cryptographic; just a fast, seedable, platform-independent
/// mix.
#[inline]
fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Feed parameters: the user population, the temporal intensity shape, and
/// the per-request synthesis ranges.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// Synthetic user population size. Users are virtual — memory cost is
    /// O(arrivals), not O(users) — so millions are fine.
    pub users: usize,
    /// Temporal intensity shape (diurnal / flash-crowd, from `socl-trace`).
    pub shape: TemporalConfig,
    /// Expected arrivals per tick at intensity 1.0: the shape's volume
    /// curve is normalized by its mean and scaled by this, then divided by
    /// the population to get each user's per-tick arrival probability.
    pub arrivals_per_tick: f64,
    /// Per-request synthesis ranges (chain length, data volumes, `d_max`).
    pub request: RequestConfig,
    /// Feed seed; independent of the service seed so load and topology can
    /// be varied separately.
    pub seed: u64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        Self {
            users: 100_000,
            shape: TemporalConfig::default(),
            arrivals_per_tick: 200.0,
            request: RequestConfig::default(),
            seed: 7,
        }
    }
}

/// The streaming load source.
#[derive(Debug, Clone)]
pub struct LoadFeed {
    cfg: FeedConfig,
    /// Per-tick arrival probability for one user, `volumes` normalized.
    probs: Vec<f64>,
    dataset: DependencyDataset,
    nodes: usize,
}

impl LoadFeed {
    /// Build the feed over `nodes` base stations using the embedded
    /// eshopOnContainers dependency dataset.
    #[must_use]
    pub fn new(cfg: FeedConfig, nodes: usize) -> Self {
        let wl = TemporalWorkload::generate(&cfg.shape, cfg.seed);
        let mean = wl.mean().max(1e-12);
        let users = cfg.users.max(1) as f64;
        let probs = wl
            .volumes
            .iter()
            .map(|&v| (v / mean * cfg.arrivals_per_tick / users).clamp(0.0, 1.0))
            .collect();
        Self {
            cfg,
            probs,
            dataset: EshopDataset::build(),
            nodes: nodes.max(1),
        }
    }

    /// Feed configuration.
    #[must_use]
    pub fn config(&self) -> &FeedConfig {
        &self.cfg
    }

    /// Number of ticks the intensity shape covers; arrivals wrap around
    /// past the horizon, so the service can run indefinitely.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.probs.len().max(1)
    }

    /// Per-user arrival probability at `tick`.
    #[must_use]
    pub fn arrival_probability(&self, tick: u32) -> f64 {
        let i = tick as usize % self.horizon();
        self.probs.get(i).copied().unwrap_or(0.0)
    }

    /// Does `user` issue a request at `tick`? A pure function — region
    /// partitioning and shard count cannot change it.
    #[must_use]
    pub fn arrives(&self, tick: u32, user: u32) -> bool {
        let p = self.arrival_probability(tick);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let h = fnv1a(&[self.cfg.seed, 0xA221, u64::from(tick), u64::from(user)]);
        (h as f64) < p * (u64::MAX as f64)
    }

    /// The base station `user` is homed at — fixed for the user's lifetime
    /// (mobility stays within the simulator layer; the service boundary
    /// pins users to their home region so shard ownership never migrates).
    #[must_use]
    pub fn home_station(&self, user: u32) -> NodeId {
        let h = fnv1a(&[self.cfg.seed, 0xB0B0, u64::from(user)]);
        NodeId((h % self.nodes as u64) as u32)
    }

    /// Synthesize `user`'s request as issued at `tick`. Identical output
    /// every time it is called with the same arguments: the per-user
    /// ChaCha12 stream is re-seeded from `(seed, user)`, so a request
    /// dropped from a killed shard's queue is re-derived bit-for-bit
    /// during replay.
    #[must_use]
    pub fn synthesize(&self, user: u32) -> UserRequest {
        let mut rng = ChaCha12Rng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(fnv1a(&[0xC0DE, u64::from(user)])),
        );
        let rc = &self.cfg.request;
        let chain = self
            .dataset
            .sample_chain(&mut rng, rc.chain_len.0, rc.chain_len.1);
        let edge_data = (0..chain.len().saturating_sub(1))
            .map(|_| rng.gen_range(rc.edge_data.0..=rc.edge_data.1))
            .collect();
        UserRequest::new(
            UserId(user),
            self.home_station(user),
            chain,
            edge_data,
            rng.gen_range(rc.r_in.0..=rc.r_in.1),
            rng.gen_range(rc.r_out.0..=rc.r_out.1),
            rc.d_max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed() -> LoadFeed {
        LoadFeed::new(
            FeedConfig {
                users: 1000,
                arrivals_per_tick: 50.0,
                ..FeedConfig::default()
            },
            12,
        )
    }

    #[test]
    fn synthesis_is_stable_per_user() {
        let f = feed();
        for user in [0u32, 7, 999] {
            let a = f.synthesize(user);
            let b = f.synthesize(user);
            assert_eq!(a, b);
            assert_eq!(a.location, f.home_station(user));
            assert!(!a.chain.is_empty());
        }
    }

    #[test]
    fn arrival_rate_tracks_target() {
        let f = feed();
        let mut total = 0usize;
        let ticks = f.horizon() as u32;
        for t in 0..ticks {
            total += (0..1000).filter(|&u| f.arrives(t, u)).count();
        }
        let mean = total as f64 / f64::from(ticks);
        // Bernoulli thinning of a mean-50 intensity: loose 3-sigma-ish band.
        assert!(
            mean > 25.0 && mean < 90.0,
            "mean arrivals/tick {mean} out of band"
        );
    }

    #[test]
    fn arrivals_are_partition_independent_pure_functions() {
        let f = feed();
        let g = feed();
        for t in 0..10u32 {
            for u in 0..200u32 {
                assert_eq!(f.arrives(t, u), g.arrives(t, u));
            }
        }
    }
}
