//! Incremental all-pairs shortest-path maintenance.
//!
//! The simulator's faults perturb a handful of links per slot (a node crash
//! masks its incident links, a degradation rescales one rate, a repair
//! restores it). [`ApspCache`] keeps a masked working copy of the topology
//! plus the [`AllPairs`] matrix and, on each batch of link-rate changes,
//! recomputes **only the source rows a change can actually touch**:
//!
//! * **Rate increase** (repair / restore, i.e. weight `1/b` decrease): row `s`
//!   is dirty iff the cheaper edge can now offer a path at least as good as an
//!   existing one — `d(s,a) + w' ≤ d(s,b)` or symmetric. The comparison is
//!   deliberately **non-strict** so that tie-induced predecessor changes are
//!   recomputed too, keeping results bit-identical to a full rebuild. The
//!   minimum-hop metric uses the lexicographic `(hops, hop-latency)` key.
//! * **Rate decrease** (degrade / crash, i.e. weight increase): row `s` is
//!   dirty iff the edge is a *tree edge* of row `s` under either metric
//!   (`pred(s,b) = a` or `pred(s,a) = b`). Dijkstra's relaxation is strict, so
//!   every other row keeps bit-identical distances *and* predecessors.
//!
//! Dirtiness is tracked **per metric half**: the latency and hop trees of a
//! source are independent, so a change that only disturbs one metric's tree
//! leaves the other half as it is. Each dirty half is recomputed by the same
//! per-source Dijkstra [`AllPairs::build`] runs (`AllPairs::fresh_lat_half` /
//! `fresh_hop_half`), under the build's fan-out rule, so the maintained matrix
//! is bit-identical to a full build on the masked topology by construction;
//! the dirtiness tests are what the equivalence properties check, after every
//! event of random fault schedules and every mixed batch. A generation counter
//! increments on every effective change so downstream caches (memoized
//! virtual graphs, solver warm state) know when to invalidate.
//!
//! Cost, measured serially on a 2-vCPU x86 container over
//! `TopologyConfig::paper(n).build(7)`, each link masked and then restored
//! in turn (one change per `apply`; 23–30 % of rows dirty per change):
//! 5 / 15 / 45 µs a change at 10 / 16 / 24 nodes against a 21 / 51 / 213 µs
//! serial rebuild, and 0.21 / 0.96 / 4.1 ms at 50 / 100 / 200 nodes against
//! 1.0 / 5.0 / 21 ms — 3.4–5.2× under a rebuild at every size (medians of
//! three runs).

use crate::graph::{EdgeNetwork, NodeId};
use crate::paths::{apsp_threads, AllPairs};

/// Counters describing how much work the cache avoided.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Full `AllPairs::build` passes (one, at construction).
    pub full_rebuilds: u64,
    /// Incremental `apply` batches that changed at least one rate.
    pub incremental_updates: u64,
    /// Source rows recomputed (at least one metric half) by incremental
    /// updates.
    pub rows_recomputed: u64,
    /// Source rows proven clean and kept as-is.
    pub rows_reused: u64,
    /// Metric halves (latency or hop tree of one source row) recomputed by
    /// incremental updates (`≤ 2 × rows_recomputed`; the gap is work saved
    /// by per-metric dirtiness).
    pub halves_recomputed: u64,
    /// Always 0: the repair engines it counted are gone. Kept only until the
    /// benchmark stops reporting `net.incremental.halves_repaired`.
    pub halves_repaired: u64,
}

/// An [`AllPairs`] matrix maintained incrementally under link-rate changes.
#[derive(Debug, Clone)]
pub struct ApspCache {
    /// Masked working copy of the substrate (overridden rates model faults).
    net: EdgeNetwork,
    ap: AllPairs,
    generation: u64,
    stats: CacheStats,
}

fn weight_of(rate: f64) -> f64 {
    if rate > 0.0 {
        1.0 / rate
    } else {
        f64::INFINITY
    }
}

/// Can applying the change `(a, b, old_w → new_w)` alter the **latency** half
/// of source row `s`? Evaluated against the pre-change matrix; conservative
/// (may say yes when nothing changes) but never misses a row whose distances
/// or predecessors would differ after a full rebuild.
fn lat_row_dirty(ap: &AllPairs, s: NodeId, a: NodeId, b: NodeId, old_w: f64, new_w: f64) -> bool {
    if new_w < old_w {
        let d_sa = ap.latency_weight(s, a);
        let d_sb = ap.latency_weight(s, b);
        d_sa + new_w <= d_sb || d_sb + new_w <= d_sa
    } else {
        ap.pred_latency(s, b) == Some(a) || ap.pred_latency(s, a) == Some(b)
    }
}

/// Same question for the **hop** half, under the lexicographic
/// `(hops, hop-latency)` key.
fn hop_row_dirty(ap: &AllPairs, s: NodeId, a: NodeId, b: NodeId, old_w: f64, new_w: f64) -> bool {
    if new_w < old_w {
        let offer =
            |h: u32, hl: f64, h_t: u32, hl_t: f64| (h.saturating_add(1), hl + new_w) <= (h_t, hl_t);
        let (h_sa, h_sb) = (ap.hop_count(s, a), ap.hop_count(s, b));
        let (hl_sa, hl_sb) = (ap.hop_path_weight(s, a), ap.hop_path_weight(s, b));
        offer(h_sa, hl_sa, h_sb, hl_sb) || offer(h_sb, hl_sb, h_sa, hl_sa)
    } else {
        ap.pred_hop(s, b) == Some(a) || ap.pred_hop(s, a) == Some(b)
    }
}

impl ApspCache {
    /// Build the cache over a pristine topology (one full compute).
    pub fn new(net: &EdgeNetwork) -> Self {
        let net = net.clone();
        let ap = AllPairs::build(&net);
        Self {
            net,
            ap,
            generation: 0,
            stats: CacheStats {
                full_rebuilds: 1,
                ..CacheStats::default()
            },
        }
    }

    /// The maintained matrix (bit-identical to a full rebuild on
    /// [`network`](Self::network)).
    #[inline]
    pub fn all_pairs(&self) -> &AllPairs {
        &self.ap
    }

    /// The masked working topology the matrix describes.
    #[inline]
    pub fn network(&self) -> &EdgeNetwork {
        &self.net
    }

    /// Monotone counter bumped on every effective topology change; downstream
    /// caches key their validity on it.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Work-avoidance counters.
    #[inline]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The pristine (fault-free) rate of link `idx`, from its physical
    /// parameters — what a repair restores.
    #[inline]
    pub fn base_rate(&self, idx: usize) -> f64 {
        self.net.links()[idx].rate()
    }

    /// Apply a batch of effective link-rate changes (`0.0` masks a link out)
    /// and recompute the dirty halves of the matrix. No-op entries are
    /// filtered, so callers can pass their full desired state.
    pub fn apply(&mut self, changes: &[(usize, f64)]) {
        let mut effective: Vec<(NodeId, NodeId, f64, f64)> = Vec::new();
        for &(idx, rate) in changes {
            let old = self.net.effective_rate(idx);
            let new = rate.max(0.0);
            if old.to_bits() == new.to_bits() {
                continue;
            }
            let l = self.net.links()[idx];
            self.net.override_link_rate(idx, new);
            effective.push((l.a, l.b, weight_of(old), weight_of(new)));
        }
        if effective.is_empty() {
            return;
        }
        self.generation += 1;
        let n = self.net.node_count();
        let ap = &self.ap;
        // Per source row, which metric halves the batch can touch; a dirty
        // half is recomputed by the build's own Dijkstra.
        let work: Vec<(NodeId, bool, bool)> = (0..n as u32)
            .map(NodeId)
            .map(|s| {
                let dirty = |test: fn(&AllPairs, NodeId, NodeId, NodeId, f64, f64) -> bool| {
                    effective
                        .iter()
                        .any(|&(a, b, ow, nw)| test(ap, s, a, b, ow, nw))
                };
                (s, dirty(lat_row_dirty), dirty(hop_row_dirty))
            })
            .filter(|&(_, lat, hop)| lat || hop)
            .collect();
        self.stats.incremental_updates += 1;
        self.stats.rows_recomputed += work.len() as u64;
        self.stats.rows_reused += (n - work.len()) as u64;
        self.stats.halves_recomputed += work
            .iter()
            .map(|&(_, lat, hop)| u64::from(lat) + u64::from(hop))
            .sum::<u64>();
        let net = &self.net;
        let halves = crate::par::par_map_with(&work, apsp_threads(n), |&(s, lat, hop)| {
            (
                lat.then(|| AllPairs::fresh_lat_half(net, s)),
                hop.then(|| AllPairs::fresh_hop_half(net, s)),
            )
        });
        for (&(s, _, _), (lat_half, hop_half)) in work.iter().zip(halves) {
            if let Some(half) = lat_half {
                self.ap.install_lat_half(s, half);
            }
            if let Some(half) = hop_half {
                self.ap.install_hop_half(s, half);
            }
        }
    }

    /// Set one link's effective rate (`0.0` masks it out).
    pub fn set_link_rate(&mut self, idx: usize, rate: f64) {
        self.apply(&[(idx, rate)]);
    }

    /// Mask every link incident to `node` (a node crash: the vertex stays so
    /// node and link indices remain stable).
    pub fn mask_node(&mut self, node: NodeId) {
        let changes: Vec<(usize, f64)> = self
            .net
            .neighbors(node)
            .iter()
            .map(|nb| (nb.link, 0.0))
            .collect();
        self.apply(&changes);
    }

    /// Restore every link incident to `node` to its pristine rate (a node
    /// repair). Links whose other endpoint is also masked elsewhere must be
    /// re-masked by the caller ([`sync_rates`](Self::sync_rates) handles the
    /// general case).
    pub fn unmask_node(&mut self, node: NodeId) {
        let changes: Vec<(usize, f64)> = self
            .net
            .neighbors(node)
            .iter()
            .map(|nb| (nb.link, self.net.links()[nb.link].rate()))
            .collect();
        self.apply(&changes);
    }

    /// Reconcile the cache with a full desired effective-rate vector (one
    /// entry per link; `0.0` = masked). Only actual differences trigger work —
    /// the natural per-slot entry point for the simulator, which derives the
    /// vector from its alive/degradation state.
    pub fn sync_rates(&mut self, desired: &[f64]) {
        assert_eq!(desired.len(), self.net.link_count(), "rate vector length");
        let changes: Vec<(usize, f64)> = desired.iter().copied().enumerate().collect();
        self.apply(&changes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeServer, LinkParams};
    use crate::topology::TopologyConfig;

    fn rebuilt(cache: &ApspCache) -> AllPairs {
        AllPairs::build_serial(cache.network())
    }

    #[test]
    fn degrade_and_restore_match_full_rebuild() {
        let net = TopologyConfig::paper(20).build(11);
        let mut cache = ApspCache::new(&net);
        for idx in 0..net.link_count().min(6) {
            let base = cache.base_rate(idx);
            cache.set_link_rate(idx, base * 0.25);
            assert!(
                cache.all_pairs().identical(&rebuilt(&cache)),
                "degrade {idx}"
            );
            cache.set_link_rate(idx, base);
            assert!(
                cache.all_pairs().identical(&rebuilt(&cache)),
                "restore {idx}"
            );
        }
        // Fully restored: back to the pristine matrix and fingerprint.
        assert!(cache.all_pairs().identical(&AllPairs::build_serial(&net)));
        assert_eq!(cache.network().fingerprint(), net.fingerprint());
    }

    #[test]
    fn node_crash_matches_masked_rebuild_and_skips_clean_rows() {
        let net = TopologyConfig::paper(24).build(3);
        let mut cache = ApspCache::new(&net);
        cache.mask_node(NodeId(5));
        assert!(cache.all_pairs().identical(&rebuilt(&cache)));
        // A crashed node is cut off: every incident link is masked.
        for k in net.node_ids().filter(|&k| k != NodeId(5)) {
            assert!(cache.all_pairs().latency_weight(NodeId(5), k).is_infinite());
        }
        cache.unmask_node(NodeId(5));
        assert!(cache.all_pairs().identical(&AllPairs::build_serial(&net)));
        let stats = cache.stats();
        assert_eq!(stats.incremental_updates, 2);
        assert!(stats.rows_recomputed > 0);
    }

    #[test]
    fn irrelevant_change_recomputes_no_rows() {
        // v0 =={50, 1}== v1 --50-- v2: the slow parallel link is dominated
        // under both metrics, so improving it (while still dominated) must
        // leave every source row provably clean.
        let mut net = EdgeNetwork::new();
        for _ in 0..3 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(50.0));
        net.add_link(NodeId(1), NodeId(2), LinkParams::from_rate(50.0));
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(1.0));
        let mut cache = ApspCache::new(&net);
        cache.set_link_rate(2, 2.0);
        let stats = cache.stats();
        assert_eq!(stats.rows_recomputed, 0);
        assert_eq!(stats.rows_reused, 3);
        assert!(cache.all_pairs().identical(&rebuilt(&cache)));
    }

    #[test]
    fn generation_bumps_only_on_effective_change() {
        let net = TopologyConfig::paper(10).build(7);
        let mut cache = ApspCache::new(&net);
        assert_eq!(cache.generation(), 0);
        cache.set_link_rate(0, cache.base_rate(0)); // no-op
        assert_eq!(cache.generation(), 0);
        cache.set_link_rate(0, 1.0);
        assert_eq!(cache.generation(), 1);
        cache.sync_rates(
            &(0..net.link_count())
                .map(|i| cache.base_rate(i))
                .collect::<Vec<_>>(),
        );
        assert_eq!(cache.generation(), 2);
    }

    #[test]
    fn batched_faults_match_full_rebuild() {
        let net = TopologyConfig::paper(18).build(42);
        let mut cache = ApspCache::new(&net);
        let m = net.link_count();
        // Batch: kill one link, degrade two, leave the rest.
        let changes = vec![
            (0, 0.0),
            (m / 2, cache.base_rate(m / 2) * 0.1),
            (m - 1, cache.base_rate(m - 1) * 0.5),
        ];
        cache.apply(&changes);
        assert!(cache.all_pairs().identical(&rebuilt(&cache)));
        // Repair everything in one batch.
        let pristine: Vec<f64> = (0..m).map(|i| cache.base_rate(i)).collect();
        cache.sync_rates(&pristine);
        assert!(cache.all_pairs().identical(&AllPairs::build_serial(&net)));
    }
}
