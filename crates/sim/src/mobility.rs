//! User mobility: random-waypoint hopping between base stations.
//!
//! Each slot, every user independently decides (with probability
//! `move_prob`) to relocate. A relocating user prefers a *neighbor* of its
//! current base station (locality of physical movement) with probability
//! `local_bias`, otherwise jumps to a uniformly random station — the mix
//! reproduces both gradual drift and the occasional long hop seen in the
//! paper's trace analysis.

use socl_net::rng::ChaCha12Rng;
use socl_net::{EdgeNetwork, NodeId};

/// Seeded mobility model over a fixed topology.
///
/// The generator's stream position is observable and settable, which lets
/// a checkpoint freeze mobility mid-run (see [`crate::recovery`]).
#[derive(Debug, Clone)]
pub struct MobilityModel {
    /// Probability a user relocates in a given slot.
    pub move_prob: f64,
    /// Probability a relocating user moves to a neighbor station rather
    /// than teleporting to a random one.
    pub local_bias: f64,
    rng: ChaCha12Rng,
}

impl MobilityModel {
    /// Model with the given parameters and seed.
    pub fn new(move_prob: f64, local_bias: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&move_prob), "move_prob out of range");
        assert!((0.0..=1.0).contains(&local_bias), "local_bias out of range");
        Self {
            move_prob,
            local_bias,
            rng: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// Paper-like defaults: 40% of users move per 5-minute slot, 70% of
    /// moves are to adjacent stations.
    pub fn paper(seed: u64) -> Self {
        Self::new(0.4, 0.7, seed)
    }

    /// Freeze the RNG state: `(seed, stream, word position)` pin the
    /// generator's exact point in its stream.
    pub fn rng_state(&self) -> ([u8; 32], u64, u128) {
        (
            self.rng.get_seed(),
            self.rng.get_stream(),
            self.rng.get_word_pos(),
        )
    }

    /// Restore the RNG to a frozen state captured by
    /// [`rng_state`](Self::rng_state).
    pub fn restore_rng(&mut self, seed: [u8; 32], stream: u64, word_pos: u128) {
        let mut rng = ChaCha12Rng::from_seed(seed);
        rng.set_stream(stream);
        rng.set_word_pos(word_pos);
        self.rng = rng;
    }

    /// Advance one slot: mutate `locations` in place.
    pub fn step(&mut self, net: &EdgeNetwork, locations: &mut [NodeId]) {
        let n = net.node_count() as u32;
        if n <= 1 {
            return;
        }
        for loc in locations.iter_mut() {
            if self.rng.gen::<f64>() >= self.move_prob {
                continue;
            }
            let neighbors = net.neighbors(*loc);
            if !neighbors.is_empty() && self.rng.gen::<f64>() < self.local_bias {
                let pick = self.rng.gen_range(0..neighbors.len());
                *loc = neighbors[pick].node;
            } else {
                //

                // Teleport anywhere (including possibly staying put).
                *loc = NodeId(self.rng.gen_range(0..n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_net::TopologyConfig;

    #[test]
    fn movement_respects_probability_extremes() {
        let net = TopologyConfig::paper(10).build(1);
        let start: Vec<NodeId> = (0..50).map(|i| NodeId(i % 10)).collect();

        let mut frozen = MobilityModel::new(0.0, 0.5, 7);
        let mut locs = start.clone();
        frozen.step(&net, &mut locs);
        assert_eq!(locs, start, "move_prob 0 must freeze everyone");

        let mut always = MobilityModel::new(1.0, 0.0, 7);
        let mut locs = start.clone();
        always.step(&net, &mut locs);
        // With teleportation some users almost surely moved.
        assert_ne!(locs, start);
    }

    #[test]
    fn locations_stay_in_range() {
        let net = TopologyConfig::paper(8).build(2);
        let mut model = MobilityModel::paper(3);
        let mut locs: Vec<NodeId> = (0..40).map(|i| NodeId(i % 8)).collect();
        for _ in 0..100 {
            model.step(&net, &mut locs);
            for l in &locs {
                assert!(l.0 < 8);
            }
        }
    }

    #[test]
    fn local_moves_land_on_neighbors() {
        let net = TopologyConfig::paper(10).build(4);
        let mut model = MobilityModel::new(1.0, 1.0, 5);
        let mut locs: Vec<NodeId> = (0..30).map(|i| NodeId(i % 10)).collect();
        let before = locs.clone();
        model.step(&net, &mut locs);
        for (b, a) in before.iter().zip(&locs) {
            if a != b {
                assert!(
                    net.neighbors(*b).iter().any(|nb| nb.node == *a),
                    "{b} -> {a} is not a neighbor hop"
                );
            }
        }
    }

    #[test]
    fn mobility_is_seed_deterministic() {
        let net = TopologyConfig::paper(10).build(6);
        let run = |seed| {
            let mut m = MobilityModel::paper(seed);
            let mut locs: Vec<NodeId> = (0..20).map(|i| NodeId(i % 10)).collect();
            for _ in 0..10 {
                m.step(&net, &mut locs);
            }
            locs
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn per_slot_trajectories_replay_across_seeds() {
        // Stronger than final-state equality: the *entire* slot-by-slot
        // trajectory must replay, for every seed — the online simulator and
        // the control plane's scaling timelines both depend on it.
        let net = TopologyConfig::paper(9).build(11);
        let trace = |seed: u64| -> Vec<Vec<NodeId>> {
            let mut m = MobilityModel::paper(seed);
            let mut locs: Vec<NodeId> = (0..30).map(|i| NodeId(i % 9)).collect();
            (0..25)
                .map(|_| {
                    m.step(&net, &mut locs);
                    locs.clone()
                })
                .collect()
        };
        for seed in 0..5u64 {
            assert_eq!(trace(seed), trace(seed), "seed {seed} did not replay");
            assert_ne!(
                trace(seed),
                trace(seed + 101),
                "seeds {seed} and {} gave identical trajectories",
                seed + 101
            );
        }
    }

    #[test]
    fn population_is_conserved_every_slot() {
        // Users neither appear nor vanish: each slot, the per-station
        // histogram sums to the fixed population and every user sits on a
        // real station.
        let nodes = 7usize;
        let users = 53usize;
        let net = TopologyConfig::paper(nodes).build(13);
        let mut model = MobilityModel::paper(21);
        let mut locs: Vec<NodeId> = (0..users).map(|i| NodeId((i % nodes) as u32)).collect();
        for slot in 0..60 {
            model.step(&net, &mut locs);
            assert_eq!(locs.len(), users, "slot {slot} changed the population");
            let mut histogram = vec![0usize; nodes];
            for l in &locs {
                assert!((l.0 as usize) < nodes, "slot {slot} placed a user off-grid");
                histogram[l.0 as usize] += 1;
            }
            assert_eq!(
                histogram.iter().sum::<usize>(),
                users,
                "slot {slot} lost users"
            );
        }
    }

    #[test]
    fn rng_state_roundtrip_resumes_the_exact_trajectory() {
        let net = TopologyConfig::paper(10).build(6);
        let mut m = MobilityModel::paper(42);
        let mut locs: Vec<NodeId> = (0..25).map(|i| NodeId(i % 10)).collect();
        for _ in 0..7 {
            m.step(&net, &mut locs);
        }
        let (seed, stream, pos) = m.rng_state();
        let frozen_locs = locs.clone();
        // The original keeps walking…
        let mut expect = Vec::new();
        for _ in 0..5 {
            m.step(&net, &mut locs);
            expect.push(locs.clone());
        }
        // …and a model restored from the frozen state walks identically.
        let mut restored = MobilityModel::paper(999); // wrong seed on purpose
        restored.restore_rng(seed, stream, pos);
        let mut locs2 = frozen_locs;
        for step in expect {
            restored.step(&net, &mut locs2);
            assert_eq!(locs2, step, "restored trajectory diverged");
        }
    }

    #[test]
    fn single_node_topology_is_a_noop() {
        let net = TopologyConfig::paper(1).build(0);
        let mut model = MobilityModel::new(1.0, 0.5, 1);
        let mut locs = vec![NodeId(0); 5];
        model.step(&net, &mut locs);
        assert!(locs.iter().all(|&l| l == NodeId(0)));
    }
}
