//! Region partitioning of the base-station graph.
//!
//! The control plane shards its state by *region*: a balanced, connected-ish
//! block of base stations produced by multi-source BFS over the edge
//! topology. Regions are the semantic unit — every piece of mutable service
//! state (queues, autoscalers, in-flight counters, WALs, checkpoints) is
//! keyed by region id. *Shards* are merely execution workers that own a
//! deterministic subset of regions (`region % shards`), so changing the
//! shard count re-maps ownership without touching any region-keyed state:
//! the decision stream is invariant in the shard count, exactly like the
//! thread count in `socl_net::par`.

use socl_net::{EdgeNetwork, NodeId};
use std::collections::VecDeque;

/// A fixed assignment of every base station to a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    region_of: Vec<u32>,
    counts: Vec<u32>,
    regions: usize,
}

impl RegionMap {
    /// Partition `net` into `regions` balanced blocks by multi-source BFS.
    ///
    /// Seeds are spread evenly over the node-id range; each round every
    /// region (in region-id order) claims at most one unassigned frontier
    /// neighbor, capped at `ceil(n / regions)` nodes per region. Nodes
    /// unreachable from any seed (disconnected components) are swept up by
    /// the currently smallest region. Fully deterministic: no RNG, no hash
    /// iteration, identical output for a given `(net, regions)`.
    #[must_use]
    pub fn partition(net: &EdgeNetwork, regions: usize) -> Self {
        let n = net.node_count();
        let regions = regions.clamp(1, n.max(1));
        let cap = n.div_ceil(regions);
        let mut region_of = vec![u32::MAX; n];
        let mut counts = vec![0u32; regions];
        let mut frontiers: Vec<VecDeque<u32>> = vec![VecDeque::new(); regions];
        let mut assigned = 0usize;
        for r in 0..regions {
            let seed = (r * n / regions) as u32;
            if let Some(slot) = region_of.get_mut(seed as usize) {
                if *slot == u32::MAX {
                    *slot = r as u32;
                    counts[r] += 1;
                    assigned += 1;
                    frontiers[r].push_back(seed);
                }
            }
        }
        while assigned < n {
            let mut progressed = false;
            for r in 0..regions {
                if counts[r] as usize >= cap {
                    continue;
                }
                // Pop exhausted frontier nodes until one with an unclaimed
                // neighbor appears; claim exactly one node per round so
                // regions grow in lock step.
                while let Some(&u) = frontiers[r].front() {
                    let next = net
                        .neighbors(NodeId(u))
                        .iter()
                        .map(|nb| nb.node.0)
                        .find(|&v| region_of.get(v as usize) == Some(&u32::MAX));
                    match next {
                        Some(v) => {
                            region_of[v as usize] = r as u32;
                            counts[r] += 1;
                            assigned += 1;
                            frontiers[r].push_back(v);
                            progressed = true;
                            break;
                        }
                        None => {
                            frontiers[r].pop_front();
                        }
                    }
                }
            }
            if !progressed {
                // Every frontier is exhausted or capped but nodes remain:
                // a disconnected component, or caps rounded tight. Hand the
                // lowest unassigned node to the smallest region and resume
                // BFS from it.
                if let Some(v) = region_of.iter().position(|&r| r == u32::MAX) {
                    let r = (0..regions).min_by_key(|&r| (counts[r], r)).unwrap_or(0);
                    region_of[v] = r as u32;
                    counts[r] += 1;
                    assigned += 1;
                    frontiers[r].push_back(v as u32);
                }
            }
        }
        Self {
            region_of,
            counts,
            regions,
        }
    }

    /// Number of regions.
    #[must_use]
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Region owning base station `n`.
    #[must_use]
    pub fn region_of(&self, n: NodeId) -> u32 {
        self.region_of.get(n.0 as usize).copied().unwrap_or(0)
    }

    /// Number of base stations in region `r`.
    #[must_use]
    pub fn count(&self, r: u32) -> usize {
        self.counts.get(r as usize).copied().unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::ScenarioConfig;

    #[test]
    fn partition_is_total_balanced_and_deterministic() {
        let sc = ScenarioConfig::paper(20, 10).build(3);
        for regions in [1, 2, 3, 4, 7, 20] {
            let a = RegionMap::partition(&sc.net, regions);
            let b = RegionMap::partition(&sc.net, regions);
            assert_eq!(a, b, "regions={regions}");
            assert_eq!(a.regions(), regions);
            let total: usize = (0..regions as u32).map(|r| a.count(r)).sum();
            assert_eq!(total, 20);
            let cap = 20usize.div_ceil(regions);
            for r in 0..regions as u32 {
                assert!(a.count(r) <= cap, "region {r} over cap");
            }
        }
    }

    #[test]
    fn more_regions_than_nodes_clamps() {
        let sc = ScenarioConfig::paper(5, 8).build(1);
        let m = RegionMap::partition(&sc.net, 64);
        assert_eq!(m.regions(), 5);
        for r in 0..5u32 {
            assert_eq!(m.count(r), 1);
        }
    }
}
