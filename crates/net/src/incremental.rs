//! Incremental all-pairs shortest-path maintenance.
//!
//! PR 1's fault machinery perturbs a handful of links per slot (a node crash
//! masks its incident links, a degradation rescales one rate, a repair
//! restores it), yet the simulator rebuilt the full `O(V · E log V)` APSP
//! matrix every time anything changed. [`ApspCache`] keeps a masked working
//! copy of the topology plus the [`AllPairs`] matrix and, on each batch of
//! link-rate changes, recomputes **only the source rows a change can actually
//! touch**:
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
//! leaves the other half bit-identical and only the dirty half is repaired
//! (fanned out on the thread pool). Halves dirtied *only by weight increases*
//! take a further shortcut — only descendants of a changed tree edge can be
//! affected, so a boundary-seeded Dijkstra re-runs just those subtrees while
//! reproducing the full run's relaxation order exactly (see
//! `paths::repaired_half_increase`). Halves dirtied only by *decreases* run a
//! seeded improvement pass over the nodes whose keys actually improve, then
//! re-derive predecessors pointwise where an input changed (see
//! `paths::repaired_half_decrease`). The maintained matrix is bit-identical to
//! `AllPairs::build` on the masked topology — the property the equivalence
//! proptests assert after every event of random fault schedules. A generation
//! counter increments on every effective change so downstream caches
//! (memoized virtual graphs, solver warm state) know when to invalidate.

use crate::graph::{EdgeNetwork, NodeId};
use crate::paths::AllPairs;

/// Counters describing how much work the cache avoided.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Full `AllPairs::build` passes (construction + explicit rebuilds).
    pub full_rebuilds: u64,
    /// Incremental `apply` batches that changed at least one rate.
    pub incremental_updates: u64,
    /// Source rows recomputed (at least one metric half) by incremental
    /// updates.
    pub rows_recomputed: u64,
    /// Source rows proven clean and kept as-is.
    pub rows_reused: u64,
    /// Metric halves recomputed with a full per-source Dijkstra (decrease-
    /// dirtied halves).
    pub halves_recomputed: u64,
    /// Metric halves fixed with the subtree-limited increase repair
    /// (`halves_recomputed + halves_repaired ≤ 2 × rows_recomputed`; the gap
    /// is work saved by per-metric dirtiness).
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

/// How one metric half of a dirty row gets fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HalfMode {
    /// Proven clean — keep bit-identical.
    Clean,
    /// Dirtied by both increases and decreases — full per-source Dijkstra.
    Full,
    /// Dirtied only by weight increases — subtree-limited repair.
    IncRepair,
    /// Dirtied only by weight decreases — seeded improvement repair.
    DecRepair,
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

    /// Discard the matrix and recompute from scratch (diagnostics / tests).
    pub fn rebuild(&mut self) {
        self.ap = AllPairs::build(&self.net);
        self.stats.full_rebuilds += 1;
    }

    /// Apply a batch of effective link-rate changes (`0.0` masks a link out)
    /// and repair the matrix incrementally. No-op entries are filtered, so
    /// callers can pass their full desired state.
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
        // Halves dirtied only by weight increases (degrade / crash) take the
        // subtree-limited repair; halves dirtied only by decreases (restore)
        // take the seeded improvement repair. A half dirtied by both kinds in
        // one batch falls back to the full per-source Dijkstra.
        let inc_edges: Vec<(NodeId, NodeId)> = effective
            .iter()
            .filter(|&&(_, _, ow, nw)| nw > ow)
            .map(|&(a, b, _, _)| (a, b))
            .collect();
        let dec_edges: Vec<(NodeId, NodeId)> = effective
            .iter()
            .filter(|&&(_, _, ow, nw)| nw < ow)
            .map(|&(a, b, _, _)| (a, b))
            .collect();
        let mode_of = |dec: bool, inc: bool| match (dec, inc) {
            (false, false) => HalfMode::Clean,
            (true, true) => HalfMode::Full,
            (false, true) => HalfMode::IncRepair,
            (true, false) => HalfMode::DecRepair,
        };
        let mut work: Vec<(NodeId, HalfMode, HalfMode)> = Vec::new();
        let (mut full_halves, mut repaired) = (0usize, 0usize);
        for s in (0..n as u32).map(NodeId) {
            let (mut lat_dec, mut lat_inc) = (false, false);
            let (mut hop_dec, mut hop_inc) = (false, false);
            for &(a, b, ow, nw) in &effective {
                if lat_row_dirty(&self.ap, s, a, b, ow, nw) {
                    if nw < ow {
                        lat_dec = true;
                    } else {
                        lat_inc = true;
                    }
                }
                if hop_row_dirty(&self.ap, s, a, b, ow, nw) {
                    if nw < ow {
                        hop_dec = true;
                    } else {
                        hop_inc = true;
                    }
                }
            }
            let lat = mode_of(lat_dec, lat_inc);
            let hop = mode_of(hop_dec, hop_inc);
            if lat != HalfMode::Clean || hop != HalfMode::Clean {
                work.push((s, lat, hop));
                full_halves +=
                    usize::from(lat == HalfMode::Full) + usize::from(hop == HalfMode::Full);
                repaired += usize::from(matches!(lat, HalfMode::IncRepair | HalfMode::DecRepair))
                    + usize::from(matches!(hop, HalfMode::IncRepair | HalfMode::DecRepair));
            }
        }
        self.stats.incremental_updates += 1;
        self.stats.rows_recomputed += work.len() as u64;
        self.stats.rows_reused += (n - work.len()) as u64;
        self.stats.halves_recomputed += full_halves as u64;
        self.stats.halves_repaired += repaired as u64;
        let net = &self.net;
        let ap = &self.ap;
        // A subtree repair costs roughly 1/16 of a full half on average.
        let est = full_halves * 16 + repaired;
        let threads = if crate::par::parallel_worthwhile(est, net.link_count() * 16) {
            crate::par::effective_threads()
        } else {
            1
        };
        let repairs = crate::par::par_map_with(&work, threads, |&(s, lat, hop)| {
            let lat_half = match lat {
                HalfMode::Clean => None,
                HalfMode::Full => Some(AllPairs::fresh_lat_half(net, s)),
                HalfMode::IncRepair => Some(ap.repaired_lat_half_increase(net, s, &inc_edges)),
                HalfMode::DecRepair => Some(ap.repaired_lat_half_decrease(net, s, &dec_edges)),
            };
            let hop_half = match hop {
                HalfMode::Clean => None,
                HalfMode::Full => Some(AllPairs::fresh_hop_half(net, s)),
                HalfMode::IncRepair => Some(ap.repaired_hop_half_increase(net, s, &inc_edges)),
                HalfMode::DecRepair => Some(ap.repaired_hop_half_decrease(net, s, &dec_edges)),
            };
            (lat_half, hop_half)
        });
        for (&(s, _, _), (lat_half, hop_half)) in work.iter().zip(repairs) {
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
