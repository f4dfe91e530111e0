//! Routing: choosing the serving node for every chain position.
//!
//! Given a placement `x`, the latency-optimal assignment for one request is
//! the solution of a layered shortest-path problem: layer `j` has one state
//! per node hosting `chain[j]`, transition weights are the inter-service
//! transfer delays, and terminal weights add the upload and return legs.
//! [`optimal_route`] solves it exactly by dynamic programming in
//! `O(|chain| · |V|²)`; this is the routing oracle used by the exact
//! optimizer and by evaluation.

use crate::latency::{completion_time, CompletionBreakdown};
use crate::placement::{Assignment, Placement};
use crate::request::UserRequest;
use crate::service::{ServiceCatalog, ServiceId};
use socl_net::{AllPairs, EdgeNetwork, NodeId};

/// Result of routing one request.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteOutcome {
    /// Served from the edge along the given route with the given breakdown.
    Edge {
        route: Vec<NodeId>,
        breakdown: CompletionBreakdown,
    },
    /// Some chain service has no edge instance: the request falls back to
    /// the cloud (the objective charges [`crate::scenario::Scenario::cloud_penalty`]).
    CloudFallback,
}

impl RouteOutcome {
    /// The edge route, if any.
    pub fn route(&self) -> Option<&[NodeId]> {
        match self {
            RouteOutcome::Edge { route, .. } => Some(route),
            RouteOutcome::CloudFallback => None,
        }
    }

    /// Completion time on the edge, if edge-served.
    pub fn edge_time(&self) -> Option<f64> {
        match self {
            RouteOutcome::Edge { breakdown, .. } => Some(breakdown.total()),
            RouteOutcome::CloudFallback => None,
        }
    }
}

/// Reusable buffers for the routing DP, so per-request calls in hot loops
/// (`route_all`, the online per-slot sweep) never re-allocate the layer
/// tables. All four vectors are flat: entry `i`
/// describes host `hosts[i]`, and `off[j]..off[j+1]` is layer `j`'s slice.
#[derive(Debug, Clone, Default)]
pub struct RouteScratch {
    hosts: Vec<NodeId>,
    off: Vec<usize>,
    cost_s: Vec<f64>,
    back: Vec<usize>,
}

impl RouteScratch {
    /// Empty scratch; buffers grow to the workload's high-water mark on
    /// first use and are reused afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Latency-optimal route for `request` under `placement` (exact DP).
pub fn optimal_route(
    request: &UserRequest,
    placement: &Placement,
    net: &EdgeNetwork,
    ap: &AllPairs,
    catalog: &ServiceCatalog,
) -> RouteOutcome {
    let mut scratch = RouteScratch::new();
    optimal_route_with(&mut scratch, request, placement, net, ap, catalog)
}

/// [`optimal_route`] against caller-owned scratch buffers — the form hot
/// loops use so the DP tables are allocated once per worker, not once per
/// request.
pub fn optimal_route_with(
    scratch: &mut RouteScratch,
    request: &UserRequest,
    placement: &Placement,
    net: &EdgeNetwork,
    ap: &AllPairs,
    catalog: &ServiceCatalog,
) -> RouteOutcome {
    let mut route = Vec::with_capacity(request.chain.len());
    let Some(best_total_s) =
        optimal_hosts_into(scratch, request, placement, net, ap, catalog, &mut route)
    else {
        return RouteOutcome::CloudFallback;
    };
    let breakdown = completion_time(request, &route, net, ap, catalog);
    debug_assert!(
        (breakdown.total() - best_total_s).abs() < 1e-6,
        "DP cost {} disagrees with evaluation {}",
        best_total_s,
        breakdown.total()
    );
    RouteOutcome::Edge { route, breakdown }
}

/// The route of [`optimal_route_with`] without its breakdown: appends one
/// host per chain position to `route` and returns the DP's accumulated
/// delay, or returns `None` with `route` untouched when the request falls
/// back to the cloud. The form a caller that reads only the hosts uses.
pub fn optimal_hosts_into(
    scratch: &mut RouteScratch,
    request: &UserRequest,
    placement: &Placement,
    net: &EdgeNetwork,
    ap: &AllPairs,
    catalog: &ServiceCatalog,
    route: &mut Vec<NodeId>,
) -> Option<f64> {
    let (mut i, best_total_s) = forward(scratch, request, placement, net, ap, catalog)?;
    let start = route.len();
    route.resize(start + request.chain.len(), NodeId(0));
    // Backtrack.
    for slot in route[start..].iter_mut().rev() {
        *slot = scratch.hosts[i];
        i = scratch.back[i];
    }
    Some(best_total_s)
}

/// The DP's forward pass, shared by [`optimal_hosts_into`] and
/// [`through_costs`]: fills the hosting sets, accumulated delays and back
/// pointers of `scratch`, and returns the host index the optimal route ends
/// on (the terminal argmin) with its accumulated delay. `None` when the
/// chain is empty or a chain service has no host (cloud fallback).
fn forward(
    scratch: &mut RouteScratch,
    request: &UserRequest,
    placement: &Placement,
    net: &EdgeNetwork,
    ap: &AllPairs,
    catalog: &ServiceCatalog,
) -> Option<(usize, f64)> {
    let n_layers = request.chain.len();
    if n_layers == 0 {
        return None;
    }
    let RouteScratch {
        hosts,
        off,
        cost_s,
        back,
    } = scratch;
    hosts.clear();
    off.clear();
    cost_s.clear();
    back.clear();

    // Hosting sets per layer, flattened.
    off.push(0);
    for &m in &request.chain {
        let before = hosts.len();
        hosts.extend(placement.hosts_iter(m));
        if hosts.len() == before {
            return None;
        }
        off.push(hosts.len());
    }

    // cost_s[i] = best accumulated delay (seconds) ending with chain[j]
    // served at hosts[i], for i in layer j's slice.

    // Layer 0: upload + compute.
    for &k in &hosts[off[0]..off[1]] {
        cost_s.push(
            ap.transfer_time(request.location, k, request.r_in)
                + catalog.compute_gflop(request.chain[0]) / net.compute_gflops(k),
        );
        back.push(usize::MAX);
    }

    for j in 1..n_layers {
        let q_gflop = catalog.compute_gflop(request.chain[j]);
        let r_gb = request.edge_data[j - 1];
        let (p0, p1) = (off[j - 1], off[j]);
        for i in off[j]..off[j + 1] {
            let k = hosts[i];
            let compute_s = q_gflop / net.compute_gflops(k);
            let mut best_s = f64::INFINITY;
            let mut arg = usize::MAX;
            for p in p0..p1 {
                let c_s = cost_s[p] + ap.transfer_time(hosts[p], k, r_gb);
                if c_s < best_s {
                    best_s = c_s;
                    arg = p;
                }
            }
            cost_s.push(best_s + compute_s);
            back.push(arg);
        }
    }

    // Terminal: return leg along min-hop π*.
    let (mut best_i, mut best_total_s) = (usize::MAX, f64::INFINITY);
    for i in off[n_layers - 1]..off[n_layers] {
        let c_s = cost_s[i] + ap.return_time(hosts[i], request.location, request.r_out);
        if c_s < best_total_s {
            best_total_s = c_s;
            best_i = i;
        }
    }
    Some((best_i, best_total_s))
}

/// `argmin_p base_s[p] + hop_s(hosts[p])` over one layer's slice `layer`,
/// with the tie rule of the DP's inner loop: strict `<` over ascending hosts
/// keeps the lowest node id. Returns the argument, its sum and its hop term;
/// the argument is `usize::MAX` when no sum is finite.
#[inline]
fn cheapest_hop(
    layer: std::ops::Range<usize>,
    base_s: &[f64],
    hosts: &[NodeId],
    hop_s: impl Fn(NodeId) -> f64,
) -> (usize, f64, f64) {
    let (mut arg, mut best_s, mut best_hop_s) = (usize::MAX, f64::INFINITY, f64::INFINITY);
    for p in layer {
        let h_s = hop_s(hosts[p]);
        let c_s = base_s[p] + h_s;
        if c_s < best_s {
            best_s = c_s;
            best_hop_s = h_s;
            arg = p;
        }
    }
    (arg, best_s, best_hop_s)
}

/// Buffers for [`through_costs`]: the DP's forward tables (as
/// [`optimal_route_with`] leaves them) plus their mirror image — per current
/// host, the cheapest way to finish the chain from it and the successor that
/// achieves it — the per-host folds every table entry is assembled from, and
/// which hosts the table depends on beyond their own entries.
#[derive(Debug, Clone, Default)]
pub struct ThroughScratch {
    dp: RouteScratch,
    /// `tail_s[i]`: compute at `hosts[i]` plus the cheapest completion of the
    /// rest of the chain (transfers, computes, return leg) from there.
    tail_s: Vec<f64>,
    next: Vec<usize>,
    /// `compute_s[i]`: the compute term of `hosts[i]` at its chain position.
    compute_s: Vec<f64>,
    folds: Vec<HostFolds>,
    /// `pinned[i]`: `hosts[i]` is the target of a back pointer from the
    /// next position, of a successor pointer from the previous one, or the
    /// terminal argmin ([`ThroughScratch::pinned`]).
    pinned: Vec<bool>,
    route: Vec<NodeId>,
}

/// The terms of [`completion_time`] one current host contributes to every
/// route through it: the prefix along its back pointers folded in chain
/// order, and for suffix walks its hop to its successor and its return leg.
#[derive(Debug, Clone, Copy, Default)]
struct HostFolds {
    /// `d_in`: the upload leg to the head of the prefix.
    upload_s: f64,
    /// The prefix's compute terms, this host's last, summed from the head.
    compute_s: f64,
    /// The prefix's transfer terms, the hop into this host last, summed
    /// from `0.0`.
    transfer_s: f64,
    /// The hop from this host to `next[i]`.
    next_transfer_s: f64,
    /// `d_out` when this host serves the last position.
    return_s: f64,
}

/// Which entries of a row [`through_costs`] fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThroughFill {
    /// Only the nodes currently hosting the row's service; every other
    /// entry is `NaN`, so a read of one poisons whatever sums it.
    Hosts,
    /// Every node.
    Every,
}

impl ThroughScratch {
    /// Empty scratch; grows to the workload's high-water mark and is reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Prefix folds along the forward pass's back pointers, then the backward
    /// pass over the current hosts (last layer first) with its suffix terms;
    /// pins every pointer's target and the forward pass's `terminal` argmin.
    fn fold(
        &mut self,
        request: &UserRequest,
        net: &EdgeNetwork,
        ap: &AllPairs,
        catalog: &ServiceCatalog,
        terminal: usize,
    ) {
        let n_layers = request.chain.len();
        let RouteScratch {
            hosts, off, back, ..
        } = &self.dp;
        let (compute_s, folds, tail_s, next, pinned) = (
            &mut self.compute_s,
            &mut self.folds,
            &mut self.tail_s,
            &mut self.next,
            &mut self.pinned,
        );
        pinned.clear();
        pinned.resize(hosts.len(), false);
        pinned[terminal] = true;
        compute_s.clear();
        for (j, &m) in request.chain.iter().enumerate() {
            let q_gflop = catalog.compute_gflop(m);
            compute_s.extend(
                hosts[off[j]..off[j + 1]]
                    .iter()
                    .map(|&k| q_gflop / net.compute_gflops(k)),
            );
        }
        folds.clear();
        folds.resize(hosts.len(), HostFolds::default());
        for i in off[0]..off[1] {
            // `transfer_s` stays 0.0, where `completion_time` starts it, and
            // `compute_s` is `0.0 + compute_s[i]`, which has its bits.
            folds[i].upload_s = ap.transfer_time(request.location, hosts[i], request.r_in);
            folds[i].compute_s = compute_s[i];
        }
        for j in 1..n_layers {
            for i in off[j]..off[j + 1] {
                // A host cut off from the previous layer is nobody's prefix.
                if back[i] == usize::MAX {
                    continue;
                }
                pinned[back[i]] = true;
                let p = folds[back[i]];
                let hop_s = ap.transfer_time(hosts[back[i]], hosts[i], request.edge_data[j - 1]);
                folds[i] = HostFolds {
                    compute_s: p.compute_s + compute_s[i],
                    transfer_s: p.transfer_s + hop_s,
                    ..p
                };
            }
        }

        tail_s.clear();
        tail_s.resize(hosts.len(), 0.0);
        next.clear();
        next.resize(hosts.len(), usize::MAX);
        for j in (0..n_layers).rev() {
            for i in off[j]..off[j + 1] {
                let k = hosts[i];
                let finish_s = if j + 1 == n_layers {
                    folds[i].return_s = ap.return_time(k, request.location, request.r_out);
                    folds[i].return_s
                } else {
                    let (succ, finish_s, hop_s) =
                        cheapest_hop(off[j + 1]..off[j + 2], tail_s, hosts, |s| {
                            ap.transfer_time(k, s, request.edge_data[j])
                        });
                    if succ != usize::MAX {
                        folds[i].next_transfer_s = hop_s;
                        next[i] = succ;
                        pinned[succ] = true;
                    }
                    finish_s
                };
                tail_s[i] = compute_s[i] + finish_s;
            }
        }
    }

    /// Entry `(j, hosts[i])`: the DP's inner loop and the backward pass
    /// already took this host's argmins, so the route is `back[i]`'s prefix
    /// and `next[i]`'s suffix with no scan.
    fn host_entry_s(&self, n_layers: usize, j: usize, i: usize) -> f64 {
        if j > 0 && self.dp.back[i] == usize::MAX {
            return f64::INFINITY;
        }
        let f = &self.folds[i];
        if j + 1 == n_layers {
            return f.upload_s + f.compute_s + f.transfer_s + f.return_s;
        }
        match self.next[i] {
            usize::MAX => f64::INFINITY,
            succ => self.close_s(
                n_layers,
                j + 1,
                [f.upload_s, f.compute_s, f.transfer_s],
                succ,
                f.next_transfer_s,
            ),
        }
    }

    /// Entry `(j, k)` for any node `k`: the prefix at the cheapest host of
    /// position `j − 1` to reach `k` and the suffix at the cheapest host of
    /// position `j + 1` to leave it, the choices [`route_through`] makes.
    ///
    /// [`route_through`]: Self::route_through
    fn entry_s(
        &self,
        request: &UserRequest,
        net: &EdgeNetwork,
        ap: &AllPairs,
        catalog: &ServiceCatalog,
        j: usize,
        k: NodeId,
    ) -> f64 {
        let RouteScratch {
            hosts, off, cost_s, ..
        } = &self.dp;
        let n_layers = request.chain.len();
        let own_compute_s = catalog.compute_gflop(request.chain[j]) / net.compute_gflops(k);
        let [upload_s, compute_s, transfer_s] = if j == 0 {
            [
                ap.transfer_time(request.location, k, request.r_in),
                own_compute_s,
                0.0,
            ]
        } else {
            let (pred, _, hop_s) = cheapest_hop(off[j - 1]..off[j], cost_s, hosts, |p| {
                ap.transfer_time(p, k, request.edge_data[j - 1])
            });
            if pred == usize::MAX {
                return f64::INFINITY;
            }
            let p = &self.folds[pred];
            [
                p.upload_s,
                p.compute_s + own_compute_s,
                p.transfer_s + hop_s,
            ]
        };
        if j + 1 == n_layers {
            return upload_s
                + compute_s
                + transfer_s
                + ap.return_time(k, request.location, request.r_out);
        }
        let (succ, _, hop_s) = cheapest_hop(off[j + 1]..off[j + 2], &self.tail_s, hosts, |s| {
            ap.transfer_time(k, s, request.edge_data[j])
        });
        if succ == usize::MAX {
            return f64::INFINITY;
        }
        self.close_s(
            n_layers,
            j + 1,
            [upload_s, compute_s, transfer_s],
            succ,
            hop_s,
        )
    }

    /// `completion_time(route).total()` of a route folded up to position
    /// `from − 1` (`prefix_s` = upload leg, compute and transfer sums) that
    /// continues at host index `succ` of position `from` over a hop of
    /// `hop_s`: the suffix terms are appended one at a time in chain order,
    /// so every addition is the one `completion_time` makes.
    fn close_s(
        &self,
        n_layers: usize,
        from: usize,
        prefix_s: [f64; 3],
        mut succ: usize,
        hop_s: f64,
    ) -> f64 {
        let [upload_s, mut compute_s, mut transfer_s] = prefix_s;
        transfer_s += hop_s;
        compute_s += self.compute_s[succ];
        for _ in from + 1..n_layers {
            transfer_s += self.folds[succ].next_transfer_s;
            succ = self.next[succ];
            compute_s += self.compute_s[succ];
        }
        upload_s + compute_s + transfer_s + self.folds[succ].return_s
    }

    /// Calls `f(j, k)` for every host `k` of chain position `j` that the
    /// table of the last [`through_costs`] call returning `Some` depends on
    /// beyond its own entry: the target of a back pointer from position
    /// `j + 1`, of a successor pointer from position `j − 1`, or, at the last
    /// position, the terminal argmin — in ascending `(j, k)`.
    ///
    /// Removing only *unpinned* hosts of `chain[j]` leaves the own time and
    /// every remaining host's entry bit-identical: under the DP's strict-`<`
    /// / ascending-id tie rule, dropping a candidate that is not an argmin
    /// keeps every argmin, so every remaining pointer names the same host,
    /// every accumulated delay keeps its bits, and equal routes give equal
    /// folds. The pins lose at most the targets of the removed hosts' own
    /// pointers, so the old pinned set still covers the new table. Off-host
    /// entries scan whole layers and may change.
    pub fn pinned(&self, mut f: impl FnMut(usize, NodeId)) {
        let RouteScratch { hosts, off, .. } = &self.dp;
        for (j, layer) in off.windows(2).enumerate() {
            let layer = layer[0]..layer[1];
            for (&k, _) in hosts[layer.clone()]
                .iter()
                .zip(&self.pinned[layer])
                .filter(|(_, &pinned)| pinned)
            {
                f(j, k);
            }
        }
    }

    /// The cheapest route serving chain position `j` on node `k` and every
    /// other position on one of its hosts, for the request and placement of
    /// the last [`through_costs`] call on this scratch. The prefix follows
    /// the forward pass's back pointers, the suffix the backward pass's
    /// successors, both with the DP's tie rule. `None` when `k` is cut off
    /// from every host of a neighbouring position.
    pub fn route_through(
        &mut self,
        request: &UserRequest,
        ap: &AllPairs,
        j: usize,
        k: NodeId,
    ) -> Option<&[NodeId]> {
        let RouteScratch {
            hosts,
            off,
            cost_s,
            back,
            ..
        } = &self.dp;
        self.route.resize(request.chain.len(), NodeId(0));
        self.route[j] = k;
        if j > 0 {
            let (mut i, _, _) = cheapest_hop(off[j - 1]..off[j], cost_s, hosts, |p| {
                ap.transfer_time(p, k, request.edge_data[j - 1])
            });
            if i == usize::MAX {
                return None;
            }
            for slot in self.route[..j].iter_mut().rev() {
                *slot = hosts[i];
                i = back[i];
            }
        }
        if j + 1 < request.chain.len() {
            let (mut i, _, _) = cheapest_hop(off[j + 1]..off[j + 2], &self.tail_s, hosts, |s| {
                ap.transfer_time(k, s, request.edge_data[j])
            });
            if i == usize::MAX {
                return None;
            }
            for slot in self.route[j + 1..].iter_mut() {
                *slot = hosts[i];
                i = self.next[i];
            }
        }
        Some(&self.route)
    }
}

/// Through-cost table of one request: `out[j · |V| + k]` is the completion
/// time of the cheapest route that serves chain position `j` on node `k`
/// (whether or not `k` hosts `chain[j]`) and every other position on one of
/// its current hosts.
///
/// A chain never repeats a service, so row `j` does not depend on the host
/// set of `chain[j]` itself: the request's completion time under *any* host
/// set for that one service is the minimum of row `j` over the set, which is
/// how the combiner scores removals and migrations without re-running the
/// DP. Routes are picked by accumulated forward + backward delay (the route
/// [`ThroughScratch::route_through`] returns); each entry is
/// `completion_time(route).total()`, assembled from per-host folds with the
/// same operands added in the same order, so equal routes give bit-equal
/// values; a node cut off from the neighbouring positions' hosts reads
/// `INFINITY`. `fill` picks the entries written: [`ThroughFill::Hosts`]
/// leaves `NaN` off the current hosts.
///
/// Returns the request's own optimal completion time — the host entry of the
/// forward pass's terminal argmin, which folds the DP's route and so has the
/// bits of [`optimal_route_with`]'s time — or `None`, leaving `out`
/// untouched, when it falls back to the cloud. [`ThroughScratch::pinned`]
/// then names the hosts the table depends on.
///
/// `out.len()` must be `request.chain.len() · net.node_count()`.
#[allow(clippy::too_many_arguments)]
pub fn through_costs(
    scratch: &mut ThroughScratch,
    request: &UserRequest,
    placement: &Placement,
    net: &EdgeNetwork,
    ap: &AllPairs,
    catalog: &ServiceCatalog,
    fill: ThroughFill,
    out: &mut [f64],
) -> Option<f64> {
    let (terminal, _) = forward(&mut scratch.dp, request, placement, net, ap, catalog)?;
    scratch.fold(request, net, ap, catalog, terminal);
    let n_layers = request.chain.len();
    let nodes = net.node_count();
    debug_assert_eq!(out.len(), n_layers * nodes);

    for (j, row) in out.chunks_exact_mut(nodes).enumerate() {
        let m = request.chain[j];
        match fill {
            ThroughFill::Hosts => row.fill(f64::NAN),
            ThroughFill::Every => {
                for k in net.node_ids().filter(|&k| !placement.get(m, k)) {
                    row[k.idx()] = scratch.entry_s(request, net, ap, catalog, j, k);
                }
            }
        }
        let RouteScratch { hosts, off, .. } = &scratch.dp;
        for i in off[j]..off[j + 1] {
            row[hosts[i].idx()] = scratch.host_entry_s(n_layers, j, i);
        }
    }
    Some(scratch.host_entry_s(n_layers, n_layers - 1, terminal))
}

/// Abstract operations (`socl_net::parallel_worthwhile`'s, ≈ 1 ns each) one
/// chain layer of a route costs besides its DP cells: the walk of the
/// placement row's bits for the layer's hosts, its hop of the route fold
/// ([`completion_time`]) and its share of the per-request set-up. Read off
/// the one-host-per-service epoch placements of the serve workloads (24
/// and 48 nodes, 2-vCPU box): one route there takes 0.073–0.103 µs
/// (`model.routing.route_us_p50`; up to 0.15 µs on a busy host) for about
/// 3.4 layers and 2.4 cells (`model.routing.dp_cells_per_route`), so
/// 16–25 ns a layer once the cells are paid; this is the top of that
/// range.
const LAYER_OPS: usize = 24;

/// Operations of one DP cell: a `transfer_time` look-up, an add and a
/// compare. Every service on every node of 10–50 nodes measured 4–10 ns a
/// cell, set-up included.
const CELL_OPS: usize = 8;

/// Worker count for routing every request of `requests` under `placement`,
/// shared by [`route_all`] and [`crate::evaluate`]: the pool when the DP's
/// work clears `socl_net::parallel_worthwhile`, one thread otherwise.
///
/// The work is read off the placement. Per request it is [`LAYER_OPS`] per
/// chain layer plus [`CELL_OPS`] per cell, and the cells between positions
/// `j` and `j + 1` number `hosts(chain[j]) · hosts(chain[j + 1])`. An epoch
/// placement that hosts each service once routes a request in about a hundred
/// operations, so the 48 requests of a `SoclServe` re-solve stay on the
/// calling thread instead of paying a dispatch several times their routing.
/// The output never depends on the answer: the fan-out keeps request order.
#[must_use]
pub fn route_threads(requests: &[UserRequest], placement: &Placement) -> usize {
    let hosts: Vec<usize> = (0..placement.services())
        .map(|m| placement.instance_count(ServiceId(m as u32)))
        .collect();
    let work: usize = requests
        .iter()
        .map(|r| {
            let cells: usize = r
                .chain
                .windows(2)
                .map(|w| hosts[w[0].idx()] * hosts[w[1].idx()])
                .sum();
            r.chain.len() * LAYER_OPS + cells * CELL_OPS
        })
        .sum();
    let n = requests.len();
    if socl_net::parallel_worthwhile(n, work.div_ceil(n.max(1))) {
        socl_net::effective_threads()
    } else {
        1
    }
}

/// Route every request optimally; returns the assignment (with `None` for
/// cloud fallbacks).
///
/// Requests are routed independently and fan out over the thread pool when
/// [`route_threads`] says the work warrants it; results keep request order,
/// so the assignment is identical for any thread count.
pub fn route_all(
    requests: &[UserRequest],
    placement: &Placement,
    net: &EdgeNetwork,
    ap: &AllPairs,
    catalog: &ServiceCatalog,
) -> Assignment {
    let threads = route_threads(requests, placement);
    Assignment::new(socl_net::par::par_map_scratch_with(
        requests,
        threads,
        RouteScratch::new,
        |scratch, r| {
            optimal_route_with(scratch, r, placement, net, ap, catalog)
                .route()
                .map(<[NodeId]>::to_vec)
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::UserId;
    use crate::service::{Microservice, ServiceId};
    use socl_net::{EdgeServer, LinkParams};

    /// Diamond with a trap: the myopic first hop (v1, the fastest host of
    /// m0) looks cheap but strands the request far from the only host of the
    /// second service.
    ///
    /// v0 (user) — v1 (fast m0 host, dead end), v0 — v2 — v3; m0 on {v1,v2},
    /// m1 only on v3.
    fn trap() -> (
        EdgeNetwork,
        AllPairs,
        ServiceCatalog,
        Placement,
        UserRequest,
    ) {
        let mut net = EdgeNetwork::new();
        for c in [10.0, 100.0, 10.0, 10.0] {
            net.push_server(EdgeServer::new(c, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(80.0));
        net.add_link(NodeId(0), NodeId(2), LinkParams::from_rate(40.0));
        net.add_link(NodeId(2), NodeId(3), LinkParams::from_rate(80.0));
        net.add_link(NodeId(1), NodeId(3), LinkParams::from_rate(0.5)); // trap exit: very slow
        let ap = AllPairs::build(&net);
        let cat = ServiceCatalog::from_services(vec![
            Microservice::new(1.0, 1.0, 1.0),
            Microservice::new(1.0, 1.0, 1.0),
        ]);
        let mut p = Placement::empty(2, 4);
        p.set(ServiceId(0), NodeId(1), true);
        p.set(ServiceId(0), NodeId(2), true);
        p.set(ServiceId(1), NodeId(3), true);
        let req = UserRequest::new(
            UserId(0),
            NodeId(0),
            vec![ServiceId(0), ServiceId(1)],
            vec![4.0],
            1.0,
            0.1,
            100.0,
        );
        (net, ap, cat, p, req)
    }

    #[test]
    fn dp_avoids_the_greedy_trap() {
        let (net, ap, cat, p, req) = trap();
        let opt = optimal_route(&req, &p, &net, &ap, &cat);
        // DP routes through v2 despite v1's faster CPU.
        assert_eq!(opt.route().unwrap(), &[NodeId(2), NodeId(3)]);
    }

    #[test]
    fn missing_instance_falls_back_to_cloud() {
        let (net, ap, cat, mut p, req) = trap();
        p.set(ServiceId(1), NodeId(3), false);
        assert_eq!(
            optimal_route(&req, &p, &net, &ap, &cat),
            RouteOutcome::CloudFallback
        );
    }

    #[test]
    fn route_all_respects_eq10() {
        let (net, ap, cat, p, req) = trap();
        let reqs = vec![req.clone(), {
            let mut r = req;
            r.id = UserId(1);
            r.location = NodeId(3);
            r
        }];
        let asg = route_all(&reqs, &p, &net, &ap, &cat);
        assert_eq!(asg.len(), 2);
        assert_eq!(asg.cloud_fallbacks(), 0);
        assert!(asg.consistent_with(&p, &reqs));
    }

    #[test]
    fn dp_matches_brute_force_enumeration() {
        let (net, ap, cat, p, req) = trap();
        // Enumerate all host combinations.
        let hosts0 = p.hosts_of(ServiceId(0));
        let hosts1 = p.hosts_of(ServiceId(1));
        let mut best = f64::INFINITY;
        for &a in &hosts0 {
            for &b in &hosts1 {
                let t = completion_time(&req, &[a, b], &net, &ap, &cat).total();
                best = best.min(t);
            }
        }
        let dp = optimal_route(&req, &p, &net, &ap, &cat)
            .edge_time()
            .unwrap();
        assert!((dp - best).abs() < 1e-12);
    }

    #[test]
    fn through_costs_match_pinned_brute_force() {
        let (net, ap, cat, mut p, req) = trap();
        p.set(ServiceId(1), NodeId(0), true);
        let hosts = [p.hosts_of(ServiceId(0)), p.hosts_of(ServiceId(1))];
        let mut scratch = ThroughScratch::new();
        let mut table = vec![0.0; 2 * net.node_count()];
        let own = through_costs(
            &mut scratch,
            &req,
            &p,
            &net,
            &ap,
            &cat,
            ThroughFill::Every,
            &mut table,
        );
        assert_eq!(own, optimal_route(&req, &p, &net, &ap, &cat).edge_time());
        for j in 0..2 {
            for k in net.node_ids() {
                // Position j pinned to k, the other position on any host.
                let best = hosts[1 - j]
                    .iter()
                    .map(|&other| {
                        let route = if j == 0 { [k, other] } else { [other, k] };
                        (
                            completion_time(&req, &route, &net, &ap, &cat).total(),
                            route,
                        )
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .unwrap();
                assert_eq!(table[j * net.node_count() + k.idx()], best.0, "j={j} k={k}");
                assert_eq!(scratch.route_through(&req, &ap, j, k), Some(&best.1[..]));
            }
        }

        // No instance of a chain service: no table, the caller's penalty.
        p.set(ServiceId(1), NodeId(0), false);
        p.set(ServiceId(1), NodeId(3), false);
        assert_eq!(
            through_costs(
                &mut scratch,
                &req,
                &p,
                &net,
                &ap,
                &cat,
                ThroughFill::Every,
                &mut table
            ),
            None
        );
    }

    #[test]
    fn single_service_chain_picks_best_host() {
        let (net, ap, cat, p, _) = trap();
        let req = UserRequest::new(
            UserId(0),
            NodeId(0),
            vec![ServiceId(0)],
            vec![],
            1.0,
            0.1,
            10.0,
        );
        let out = optimal_route(&req, &p, &net, &ap, &cat);
        // v1: upload 1/80 + q/c 1/100 + return 0.1·(1/80) ≈ 0.0237
        // v2: upload 1/40 + 1/10 + 0.1/40 = 0.1275 → v1 wins.
        assert_eq!(out.route().unwrap(), &[NodeId(1)]);
    }
}
