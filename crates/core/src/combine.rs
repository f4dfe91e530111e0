//! Stage 3 — multi-scale combination (Algorithms 3, 4 and 5).
//!
//! An *instance combination* merges two instances of the same microservice
//! into one (removes one copy) to cut provisioning cost; the users that
//! relied on the removed copy perform a *connection update* to the best
//! remaining instance — preferably in the same stage-1 group, at the highest
//! channel speed (the paper's three reconnection criteria). The resulting
//! completion-time increase is the latency loss `ζ_{i,k}` (Definition 8).
//!
//! * **Large-scale (parallel) descent** — while the budget (Eq. 5) is
//!   violated, evaluate `ζ` for every combinable instance (fanned out over
//!   the thread pool), take the `ω`-fraction with the smallest losses, drop the
//!   dependency-conflicted ones (keeping the smaller `ζ` of each conflicted
//!   pair), and combine the whole batch at once.
//! * **Small-scale (serial) descent** — combine one minimum-`ζ` instance at
//!   a time, accept while the objective gradient `δ = Q′ − Q″ + Θ` stays
//!   positive, run storage planning (Algorithm 5) after each step, and roll
//!   back (re-add and lock the instance) when a completion-time bound
//!   (Eq. 4) breaks.
//! * **Storage planning** — one per-node overflow pass
//!   ([`Combiner::plan_storage`]): evict the instance with the lowest
//!   FuzzyAHP local demand factor `ρ` (Definition 9) and migrate it to the
//!   nearest (fastest-channel) node with room; if no node can take it,
//!   remove an instance (a spare copy before a last one) and tell the
//!   caller to keep combining. The same pass closes the run, so Eq. 6 holds
//!   on exit.
//!
//! The combiner keeps the routing state of its current placement (DESIGN.md
//! "Combiner state and through-cost tables"): every request's completion
//! time, and per (request, chain position) the completion time *through*
//! each current host — through every node while the migration sweep, the
//! only reader of other nodes, runs. A candidate that changes one service's
//! host set — a removal, a migration — is scored by table lookups over the
//! requests using that service; the chain DP runs only for requests whose
//! chain touches a service an *accepted* step changed ([`Combiner::move_to`]).

use crate::config::{SoclConfig, StoragePolicy};
use crate::fuzzy::{order_factor, rho_scores, RhoCriteria};
use crate::partition::ServicePartitions;
use socl_model::placement::ones;
use socl_model::{through_costs, Placement, Scenario, ServiceId, ThroughFill, ThroughScratch};
use socl_net::NodeId;

/// Hard cap on the rounds of each descent stage (defensive; never hit in
/// practice).
const MAX_ROUNDS: usize = 100_000;

/// Statistics of a combination run, used by tests and the bench harness.
#[derive(Debug, Clone, Default)]
pub struct CombineStats {
    /// Large-scale (parallel) rounds executed.
    pub large_rounds: usize,
    /// Instances removed by the large-scale phase.
    pub large_removed: usize,
    /// Instances removed by the small-scale phase.
    pub small_removed: usize,
    /// Roll-backs triggered by completion-time violations.
    pub rollbacks: usize,
    /// Instance migrations performed by storage planning.
    pub migrations: usize,
    /// Objective after the large-scale (parallel) phase.
    pub objective_after_large: f64,
    /// Objective after the serial phase (before the final migration pass).
    pub objective_after_serial: f64,
    /// Final objective value.
    pub final_objective: f64,
    /// Candidates scored: one per combinable instance per `ζ` list, one per
    /// feasible move per migration sweep.
    pub trials: usize,
    /// Requests re-routed (chain DP plus through-cost table rebuild): once
    /// each at start, then only the users of a service a step changed whose
    /// table that step can change — the service gained a host, a migration
    /// sweep is running, or a lost host is pinned in the user's row.
    pub routes: usize,
    /// Rows brought along without a re-route: their service lost only hosts
    /// the row's table does not depend on, so the lost entries become `NaN`
    /// and every other number stays bit-identical.
    pub patched: usize,
    /// Through-cost rows filled at every node rather than only at the
    /// current hosts: the migration sweep's re-routes and the completion of
    /// rows it reads off-host.
    pub row_fills: usize,
}

/// Marks an absent runner-up in [`Combiner::top2`].
const NO_HOST: NodeId = NodeId(u32::MAX);

/// The multi-scale combiner. Owns the evolving placement and its routing
/// state; both change only through [`Combiner::move_to`].
pub struct Combiner<'a> {
    pub(crate) sc: &'a Scenario,
    cfg: &'a SoclConfig,
    parts: &'a ServicePartitions,
    placement: Placement,
    /// Instances excluded from combination after a roll-back.
    locked: Vec<bool>,
    /// Services × services bitmap: set when the pair is adjacent in some
    /// user chain (symmetric).
    conflicts: Vec<bool>,
    /// Per service, the `(request, table row)` of every request whose chain
    /// uses it, in ascending request order.
    pub(crate) users_of: Vec<Vec<(usize, usize)>>,
    /// First table row of each request; position `j` is row `row_of[h] + j`.
    pub(crate) row_of: Vec<usize>,
    /// Completion time of every request under `placement`, bit-equal to
    /// `evaluate(sc, &placement).per_request`.
    pub(crate) per_request: Vec<f64>,
    /// `through[row · |V| + k]`: the row's request completing through node
    /// `k` at the row's chain position (see [`through_costs`]). Filled at the
    /// current hosts only — `NaN` elsewhere — unless the request is
    /// `complete`.
    pub(crate) through: Vec<f64>,
    /// `pinned[row · |V| + k]`: the request's table depends on host `k` of
    /// the row's position beyond `k`'s own entry
    /// ([`ThroughScratch::pinned`]); every entry of a cloud-fallback
    /// request. Written on every fill; a patch keeps it, since the patched
    /// table pins a subset of it.
    pinned: Vec<bool>,
    /// Per request, whether its rows hold every node's entry. Only the
    /// migration sweep reads an entry off the current hosts, so only
    /// [`Combiner::complete_rows`] and re-routes during a sweep fill them.
    pub(crate) complete: Vec<bool>,
    /// Set from [`Combiner::complete_rows`] until the sweep returns:
    /// re-routes fill every node.
    pub(crate) sweeping: bool,
    /// Per row, the cheapest and second-cheapest current host of the row's
    /// service by `through` (ties to the lower node id, like the DP).
    top2: Vec<[NodeId; 2]>,
    scratch: ThroughScratch,
    /// Per request, whether [`Combiner::move_to`] must re-route it.
    stale: Vec<bool>,
    stats: CombineStats,
    /// Shown every state the combiner scores candidates from: the starting
    /// one and the one after each [`Combiner::move_to`].
    #[cfg(test)]
    pub(crate) audit: Option<&'a (dyn Fn(&Combiner<'a>) + Sync)>,
}

/// Writes to `lost` the nodes host row `was` sets and `now` does not;
/// false when `now` also sets a node `was` does not (a host was gained).
fn only_lost(was: &[u64], now: &[u64], lost: &mut Vec<usize>) -> bool {
    lost.clear();
    if was.iter().zip(now).any(|(&a, &b)| b & !a != 0) {
        return false;
    }
    lost.extend(ones(was.iter().zip(now).map(|(&a, &b)| a & !b)));
    true
}

/// Per-user data volume consumed by a service: the incoming-edge flow, or
/// the upload volume when the service heads the chain.
fn inbound_data(req: &socl_model::UserRequest, service: ServiceId) -> f64 {
    match req.position_of(service) {
        Some(0) => req.r_in,
        Some(j) => req.edge_data[j - 1],
        None => 0.0,
    }
}

impl<'a> Combiner<'a> {
    /// Start from the stage-2 pre-provisioning.
    pub fn new(
        sc: &'a Scenario,
        cfg: &'a SoclConfig,
        parts: &'a ServicePartitions,
        placement: Placement,
    ) -> Self {
        cfg.validate();
        let services = sc.services();
        let mut conflicts = vec![false; services * services];
        let mut users_of = vec![Vec::new(); services];
        let mut row_of = Vec::with_capacity(sc.users());
        let mut rows = 0;
        for (h, req) in sc.requests.iter().enumerate() {
            for (a, b, _) in req.edges() {
                conflicts[a.idx() * services + b.idx()] = true;
                conflicts[b.idx() * services + a.idx()] = true;
            }
            row_of.push(rows);
            for (j, m) in req.chain.iter().enumerate() {
                users_of[m.idx()].push((h, rows + j));
            }
            rows += req.len();
        }
        let mut this = Self {
            sc,
            cfg,
            parts,
            placement,
            locked: vec![false; services * sc.nodes()],
            conflicts,
            users_of,
            row_of,
            per_request: vec![0.0; sc.users()],
            through: vec![0.0; rows * sc.nodes()],
            pinned: vec![false; rows * sc.nodes()],
            complete: vec![false; sc.users()],
            sweeping: false,
            top2: vec![[NO_HOST; 2]; rows],
            scratch: ThroughScratch::new(),
            stale: vec![false; sc.users()],
            stats: CombineStats::default(),
            #[cfg(test)]
            audit: None,
        };
        for h in 0..sc.users() {
            this.reroute(h);
        }
        this
    }

    fn lock_idx(&self, m: ServiceId, k: NodeId) -> usize {
        m.idx() * self.sc.nodes() + k.idx()
    }

    /// Re-route request `h` under the current placement: its completion time
    /// (the DP's), its through-cost rows, and each row's two cheapest hosts.
    fn reroute(&mut self, h: usize) {
        self.fill_rows(h);
        self.stats.routes += 1;
    }

    /// Route request `h` and fill its rows: at the current hosts, or at every
    /// node during a sweep.
    fn fill_rows(&mut self, h: usize) {
        let sc = self.sc;
        let req = &sc.requests[h];
        let nodes = sc.nodes();
        let rows = self.row_of[h]..self.row_of[h] + req.len();
        let table = &mut self.through[rows.start * nodes..rows.end * nodes];
        let fill = if self.sweeping {
            self.stats.row_fills += 1;
            ThroughFill::Every
        } else {
            ThroughFill::Hosts
        };
        let routed = through_costs(
            &mut self.scratch,
            req,
            &self.placement,
            &sc.net,
            &sc.ap,
            &sc.catalog,
            fill,
            table,
        );
        let pins = &mut self.pinned[rows.start * nodes..rows.end * nodes];
        (self.per_request[h], self.complete[h]) = match routed {
            Some(d) => {
                pins.fill(false);
                self.scratch.pinned(|j, k| pins[j * nodes + k.idx()] = true);
                (d, self.sweeping)
            }
            // On cloud fallback no single-service change can help, so every
            // through-cost is the penalty too; any change re-routes it.
            None => {
                table.fill(sc.cloud_penalty);
                pins.fill(true);
                (sc.cloud_penalty, true)
            }
        };
        for (row, &m) in rows.zip(&req.chain) {
            self.rank_hosts(row, m);
        }
    }

    /// `top2[row]`: the two cheapest current hosts of `m` by the row's
    /// entries, ties to the lower node id.
    fn rank_hosts(&mut self, row: usize, m: ServiceId) {
        let nodes = self.sc.nodes();
        let costs = &self.through[row * nodes..(row + 1) * nodes];
        let mut top = [(f64::INFINITY, NO_HOST); 2];
        for k in self.placement.hosts_iter(m) {
            let c = costs[k.idx()];
            if c < top[0].0 {
                top = [(c, k), top[0]];
            } else if c < top[1].0 {
                top[1] = (c, k);
            }
        }
        self.top2[row] = [top[0].1, top[1].1];
    }

    /// Bring `row` of request `h` along after its service `m` lost the
    /// nodes `lost`, none of them pinned in the row, and gained none: the
    /// table's numbers keep their bits ([`ThroughScratch::pinned`]), so the
    /// lost entries become `NaN`, and `top2` is re-ranked if it named a lost
    /// node. A complete request's off-host entries scan whole layers and may
    /// have read a lost host, so it drops to hosts-only, as a re-route
    /// outside a sweep would leave it.
    fn patch(&mut self, h: usize, row: usize, m: ServiceId, lost: &[usize]) {
        let (sc, nodes) = (self.sc, self.sc.nodes());
        if self.complete[h] {
            for (r, &s) in (self.row_of[h]..).zip(&sc.requests[h].chain) {
                let vacant = ones(self.placement.host_row(s).iter().map(|&w| !w));
                // Padding bits read vacant too: stop at the last node.
                for k in vacant.take_while(|&k| k < nodes) {
                    self.through[r * nodes + k] = f64::NAN;
                }
            }
            self.complete[h] = false;
        } else {
            for &k in lost {
                self.through[row * nodes + k] = f64::NAN;
            }
        }
        if self.top2[row].iter().any(|t| lost.contains(&t.idx())) {
            self.rank_hosts(row, m);
        }
        self.stats.patched += 1;
    }

    /// Fill every node's entry of every request's rows, and keep filling
    /// them on re-route until [`Combiner::relocate_pass`] returns: the
    /// migration sweep scores moves onto nodes that do not host the service.
    pub(crate) fn complete_rows(&mut self) {
        self.sweeping = true;
        for h in 0..self.complete.len() {
            if !self.complete[h] {
                self.fill_rows(h);
            }
        }
    }

    /// Replace the placement and bring the routing state along: only
    /// requests using a service whose host set differs are touched (a
    /// storage-planned step may have moved services besides the combined
    /// one). Such a request is re-routed when the step can change its table —
    /// the service gained a host, a migration sweep needs every entry, or a
    /// lost host is pinned in the request's row — and otherwise has the row
    /// patched in place ([`Combiner::patch`]). Returns the placement it
    /// replaced, for a serial step to roll back to.
    fn move_to(&mut self, next: Placement) -> Placement {
        let nodes = self.sc.nodes();
        let mut lost = Vec::new();
        self.stale.fill(false);
        for m in self.sc.catalog.ids() {
            let (was, now) = (self.placement.host_row(m), next.host_row(m));
            if was == now {
                continue;
            }
            let reroute_all = self.sweeping || !only_lost(was, now, &mut lost);
            for &(h, row) in &self.users_of[m.idx()] {
                let pins = &self.pinned[row * nodes..(row + 1) * nodes];
                if reroute_all || lost.iter().any(|&k| pins[k]) {
                    self.stale[h] = true;
                }
            }
        }
        let previous = std::mem::replace(&mut self.placement, next);
        for m in self.sc.catalog.ids() {
            let (was, now) = (previous.host_row(m), self.placement.host_row(m));
            // A sweep or a gained host left every user stale.
            if was == now || !only_lost(was, now, &mut lost) {
                continue;
            }
            for u in 0..self.users_of[m.idx()].len() {
                let (h, row) = self.users_of[m.idx()][u];
                if !self.stale[h] {
                    self.patch(h, row, m, &lost);
                }
            }
        }
        for h in 0..self.stale.len() {
            if self.stale[h] {
                self.reroute(h);
            }
        }
        #[cfg(test)]
        self.audit.inspect(|audit| audit(self));
        previous
    }

    /// The objective of the current placement, formed from the kept
    /// per-request times by `evaluate`'s own expression (never a running
    /// delta), so it is bit-equal to a fresh evaluation.
    pub(crate) fn objective(&self) -> f64 {
        let total_latency: f64 = self.per_request.iter().sum();
        let cost = self.placement.deployment_cost(&self.sc.catalog);
        self.sc.objective(cost, total_latency)
    }

    /// The host the request of `row` is served by at the row's position once
    /// its service stops being hosted on `drop` and, for a migration, starts
    /// on `add`: the cheaper of the best kept host and `add`, ties to the
    /// lower id. `None` when no host is left.
    pub(crate) fn trial_host(
        &self,
        row: usize,
        drop: NodeId,
        add: Option<NodeId>,
    ) -> Option<NodeId> {
        let costs = &self.through[row * self.sc.nodes()..];
        let [first, second] = self.top2[row];
        let kept = if first == drop { second } else { first };
        let best = match add {
            Some(q) if kept == NO_HOST => q,
            Some(q) => {
                let (ck, cq) = (costs[kept.idx()], costs[q.idx()]);
                if cq < ck || (cq == ck && q < kept) {
                    q
                } else {
                    kept
                }
            }
            None => kept,
        };
        (best != NO_HOST).then_some(best)
    }

    /// Latency delta, against the kept per-request times, of dropping
    /// `service`'s instance on `drop` (and adding one on `add`): one table
    /// lookup per request using the service, summed in request order. Exact
    /// because changing one service's hosts cannot alter any other request's
    /// route, and a chain never repeats a service.
    pub(crate) fn trial_delta(&self, service: ServiceId, drop: NodeId, add: Option<NodeId>) -> f64 {
        let nodes = self.sc.nodes();
        let mut delta = 0.0;
        for &(h, row) in &self.users_of[service.idx()] {
            let new_d = match self.trial_host(row, drop, add) {
                Some(k) => self.through[row * nodes + k.idx()],
                None => self.sc.cloud_penalty,
            };
            delta += new_d - self.per_request[h];
        }
        delta
    }

    /// Fan `score` out over `items` when the round's table lookups — one per
    /// user of the candidate's service — are worth a thread spawn; results
    /// keep item order, so the output is identical for any thread count.
    fn score_all<I: Sync, T: Send>(&self, items: &[I], score: impl Fn(&I) -> T + Sync) -> Vec<T> {
        let requested = self.users_of.iter().filter(|u| !u.is_empty()).count();
        let lookups = self.top2.len() / requested.max(1);
        if socl_net::parallel_worthwhile(items.len(), lookups) {
            socl_net::par::par_map(items, score)
        } else {
            items.iter().map(score).collect()
        }
    }

    /// Host minimizing the user's cycle cost `r/b(loc, host) + q/c(host)`
    /// (the connection-update target selection).
    fn best_host(
        &self,
        hosts: impl Iterator<Item = NodeId>,
        location: NodeId,
        r: f64,
        service: ServiceId,
    ) -> Option<NodeId> {
        let q = self.sc.catalog.compute_gflop(service);
        hosts.min_by(|&a, &b| {
            let ca = r / self.sc.ap.best_speed(location, a).min(1e12)
                + q / self.sc.net.compute_gflops(a);
            let cb = r / self.sc.ap.best_speed(location, b).min(1e12)
                + q / self.sc.net.compute_gflops(b);
            ca.total_cmp(&cb).then(a.cmp(&b))
        })
    }

    /// True when the user at `location` with inbound volume `r` relies on
    /// instance `(service, host)`: it minimizes the user's
    /// transmission-computation cycle `r/b + q/c` among the current hosts
    /// (ties to the smaller node id) — the same accounting `ψ` uses, so `ζ`
    /// measures real deltas.
    fn relies_on(&self, service: ServiceId, host: NodeId, location: NodeId, r: f64) -> bool {
        self.best_host(self.placement.hosts_iter(service), location, r, service) == Some(host)
    }

    /// Connection-update target after removing `(service, removed)`:
    /// prefer hosts in the user's stage-1 group (criteria 1–2), else any
    /// remaining host (continuity fallback), always at max channel speed.
    fn reconnect_target(
        &self,
        service: ServiceId,
        removed: NodeId,
        location: NodeId,
        r: f64,
    ) -> Option<NodeId> {
        let remaining = || self.placement.hosts_iter(service).filter(|&h| h != removed);
        self.parts
            .group_of(service, location)
            .and_then(|group| {
                let in_group =
                    remaining().filter(|&h| self.parts.group_of(service, h) == Some(group));
                self.best_host(in_group, location, r, service)
            })
            .or_else(|| self.best_host(remaining(), location, r, service))
    }

    /// Latency loss `ζ_{i,k}` (Definition 8): completion-time increase when
    /// `(service, host)` is removed and its reliers reconnect.
    fn latency_loss(&self, service: ServiceId, host: NodeId) -> f64 {
        let q = self.sc.catalog.compute_gflop(service);
        let mut before = 0.0;
        let mut after = 0.0;
        for &(h, _) in &self.users_of[service.idx()] {
            let req = &self.sc.requests[h];
            let r = inbound_data(req, service);
            let loc = req.location;
            if !self.relies_on(service, host, loc, r) {
                continue;
            }
            before += r / self.sc.ap.best_speed(loc, host).min(1e12)
                + q / self.sc.net.compute_gflops(host);
            match self.reconnect_target(service, host, loc, r) {
                Some(t) => {
                    after += r / self.sc.ap.best_speed(loc, t).min(1e12)
                        + q / self.sc.net.compute_gflops(t);
                }
                None => return f64::INFINITY, // last instance: never combined
            }
        }
        after - before
    }

    /// Exact combination gradient: the true *objective* delta under
    /// chain-aware optimal routing when `(service, host)` is removed —
    /// `(1−λ)·scale·Δlatency − λ·κ(service)`. This is the quantity the
    /// multi-scale descent of Algorithm 3 actually minimizes (`Q″ − Q′`);
    /// ranking by it makes each round remove the most cost-effective
    /// instances first.
    fn objective_delta_exact(&self, service: ServiceId, host: NodeId) -> f64 {
        let d_latency = self.trial_delta(service, host, None);
        (1.0 - self.sc.lambda) * self.sc.latency_scale * d_latency
            - self.sc.lambda * self.sc.catalog.deploy_cost(service)
    }

    /// Instances Algorithm 4 may combine: not the last of their service
    /// (continuity) and not locked by a roll-back.
    pub(crate) fn combinable(&self) -> Vec<(ServiceId, NodeId)> {
        self.placement
            .iter_deployed()
            .filter(|&(m, _)| self.placement.instance_count(m) > 1)
            .filter(|&(m, k)| !self.locked[self.lock_idx(m, k)])
            .collect()
    }

    /// Algorithm 4: latency losses of every combinable instance, ascending.
    fn update_instance_set(&mut self) -> Vec<(f64, ServiceId, NodeId)> {
        let instances = self.combinable();
        self.stats.trials += instances.len();
        let mut losses = self.score_all(&instances, |&(m, k)| {
            let z = if self.cfg.exact_zeta {
                self.objective_delta_exact(m, k)
            } else {
                self.latency_loss(m, k)
            };
            (z, m, k)
        });
        losses.retain(|(z, _, _)| z.is_finite());
        losses.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        losses
    }

    fn dependency_conflicted(&self, a: ServiceId, b: ServiceId) -> bool {
        self.conflicts[a.idx() * self.sc.services() + b.idx()]
    }

    /// Large-scale parallel descent (Algorithm 3 lines 1–5): combine
    /// ω-batches of minimum-loss instances until the budget holds.
    fn large_scale(&mut self) {
        for _ in 0..MAX_ROUNDS {
            let cost = self.placement.deployment_cost(&self.sc.catalog);
            if cost <= self.sc.budget {
                break;
            }
            let losses = self.update_instance_set();
            if losses.is_empty() {
                break; // nothing combinable; budget cannot be met
            }
            self.stats.large_rounds += 1;
            let batch = ((losses.len() as f64 * self.cfg.omega).ceil() as usize).max(1);

            // Ω = the ω-minimal fraction of the loss list. Conflicted
            // members are *discarded from Ω* (the batch shrinks — it is
            // never refilled with worse-ranked candidates): (a) one
            // combination per service per round — a combination merges two
            // instances of one service, so simultaneous removals of the same
            // service would invalidate each other's ζ; (b) the paper's
            // dependency-conflict filter between chain-adjacent services,
            // keeping the smaller-ζ member of each conflicted pair.
            let mut accepted: Vec<(ServiceId, NodeId)> = Vec::with_capacity(batch);
            for &(_, m, k) in losses.iter().take(batch) {
                if accepted.iter().any(|&(a, _)| a == m) {
                    continue;
                }
                if accepted
                    .iter()
                    .any(|&(a, _)| self.dependency_conflicted(a, m))
                {
                    continue;
                }
                accepted.push((m, k));
            }

            // Parallel combine: apply the batch, re-checking continuity
            // (the batch may contain several instances of one service) and
            // stopping as soon as the budget is met — removing beyond the
            // constraint is the serial phase's decision, not this one's.
            let mut next = self.placement.clone();
            for (m, k) in accepted {
                if next.deployment_cost(&self.sc.catalog) <= self.sc.budget {
                    break;
                }
                if next.instance_count(m) > 1 {
                    next.set(m, k, false);
                    self.stats.large_removed += 1;
                }
            }
            self.move_to(next);
        }
    }

    /// Algorithm 5, the one storage pass: while a node is overloaded (lowest
    /// id first), move its lowest-`ρ` instance to the first node with room
    /// by descending channel speed from it, ties to the lower id. When no
    /// node has room, a pass that may not `remove` stops there. Otherwise
    /// the victim is combined away when its service has another instance; a
    /// service's last copy is never removed while a spare copy (one whose
    /// service has another instance) can go instead: the node's lowest-`ρ`
    /// spare copy is evicted, or, when the node has none, spare copies on
    /// the node with the most freeable room are evicted until the last copy
    /// fits there. Only a last copy that fits nowhere, even with every spare
    /// copy evicted, is dropped; its requests then fall back to the cloud,
    /// the honest semantics of an over-packed edge. Returns whether an
    /// instance was removed: storage could not hold the placement, so the
    /// serial descent keeps combining (line 17).
    fn plan_storage(&mut self, placement: &mut Placement, remove: bool) -> bool {
        let sc = self.sc;
        let (catalog, net) = (&sc.catalog, &sc.net);
        let room = |p: &Placement, q: NodeId| net.storage(q) - p.storage_used(catalog, q);
        let spares = |p: &Placement, q: NodeId| -> Vec<ServiceId> {
            let mut on = p.services_on(q);
            on.retain(|&m| p.instance_count(m) > 1);
            on
        };
        let mut removed = false;
        while let Some(&(node, _)) = placement.storage_violations(catalog, net).first() {
            let Some(victim) = self.pick_victim(&placement.services_on(node), node) else {
                break;
            };
            let mut targets: Vec<NodeId> = net
                .node_ids()
                .filter(|&q| q != node && !placement.get(victim, q))
                .collect();
            targets.sort_by(|&a, &b| {
                let (sa, sb) = (sc.ap.best_speed(node, a), sc.ap.best_speed(node, b));
                sb.total_cmp(&sa).then(a.cmp(&b))
            });
            let dest = targets
                .iter()
                .copied()
                .find(|&q| placement.fits(catalog, net, victim, q));
            if let Some(q) = dest {
                placement.set(victim, node, false);
                placement.set(victim, q, true);
                self.stats.migrations += 1;
                continue;
            }
            if !remove {
                break;
            }
            removed = true;
            if placement.instance_count(victim) > 1 {
                // Combined away; counts as a (forced) combination.
                placement.set(victim, node, false);
                self.stats.small_removed += 1;
                continue;
            }
            if let Some(spare) = self.pick_victim(&spares(placement, node), node) {
                placement.set(spare, node, false);
                self.stats.small_removed += 1;
                continue;
            }
            // The node with the most room for the last copy once the spare
            // copies there are evicted.
            let phi = catalog.storage(victim);
            let host = targets
                .into_iter()
                .map(|q| {
                    let freeable: f64 = spares(placement, q)
                        .iter()
                        .map(|&m| catalog.storage(m))
                        .sum();
                    (room(placement, q) + freeable, q)
                })
                .filter(|&(r, _)| r >= phi - 1e-9)
                .max_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            placement.set(victim, node, false);
            let Some((_, q)) = host else {
                self.stats.small_removed += 1;
                continue;
            };
            while room(placement, q) < phi - 1e-9 {
                let Some(spare) = self.pick_victim(&spares(placement, q), q) else {
                    break;
                };
                placement.set(spare, q, false);
                self.stats.small_removed += 1;
            }
            placement.set(victim, q, true);
            self.stats.migrations += 1;
        }
        removed
    }

    /// Least-important instance on `k` per the configured policy.
    fn pick_victim(&self, services: &[ServiceId], k: NodeId) -> Option<ServiceId> {
        if services.is_empty() {
            return None;
        }
        match self.cfg.storage_policy {
            StoragePolicy::CheapestOut => services.iter().copied().min_by(|&a, &b| {
                self.sc
                    .catalog
                    .deploy_cost(a)
                    .total_cmp(&self.sc.catalog.deploy_cost(b))
                    .then(a.cmp(&b))
            }),
            StoragePolicy::FuzzyAhp => {
                let criteria: Vec<RhoCriteria> = services
                    .iter()
                    .map(|&m| {
                        // Local users of `m` by where it sits in their chain;
                        // a one-service chain counts as a head.
                        let (mut first, mut last, mut middle) = (0, 0, 0);
                        for req in self.sc.users_at(k) {
                            match req.position_of(m) {
                                Some(0) => first += 1,
                                Some(j) if j == req.len() - 1 => last += 1,
                                Some(_) => middle += 1,
                                None => {}
                            }
                        }
                        RhoCriteria {
                            demand: (first + last + middle) as f64,
                            order: order_factor(first, last, middle),
                            cost: self.sc.catalog.deploy_cost(m),
                            storage: self.sc.catalog.storage(m),
                        }
                    })
                    .collect();
                let rho = rho_scores(&criteria);
                services
                    .iter()
                    .copied()
                    .zip(rho)
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .map(|(m, _)| m)
            }
        }
    }

    /// Single-instance moves `(m: k → q)` onto every other node with room.
    pub(crate) fn feasible_moves(&self) -> Vec<(ServiceId, NodeId, NodeId)> {
        let (sc, placement) = (self.sc, &self.placement);
        let free: Vec<f64> = sc
            .net
            .node_ids()
            .map(|q| sc.net.storage(q) - placement.storage_used(&sc.catalog, q))
            .collect();
        let free = &free;
        placement
            .iter_deployed()
            .flat_map(|(m, k)| {
                let phi = sc.catalog.storage(m);
                sc.net
                    .node_ids()
                    .filter(move |&q| q != k && !placement.get(m, q) && free[q.idx()] >= phi - 1e-9)
                    .map(move |q| (m, k, q))
            })
            .collect()
    }

    /// Objective-guided migration (the serial stage's generalization of
    /// Algorithm 5): hill-climb over single-instance moves `(m: k → q)` with
    /// storage-feasible targets until no move improves the objective. Moves
    /// are scored off the current hosts, so the rows are completed first.
    fn relocate_pass(&mut self) {
        if !self.cfg.relocation {
            return;
        }
        self.complete_rows();
        #[cfg(test)]
        self.audit.inspect(|audit| audit(self));
        loop {
            let moves = self.feasible_moves();
            self.stats.trials += moves.len();
            // Moves keep the cost unchanged, so the objective delta is the
            // (scaled) latency delta of the affected service's requests.
            // min_by over the order-preserved scores ties exactly like a
            // serial scan (the key is a total order over the move tuple).
            let best = self
                .score_all(&moves, |&(m, k, q)| {
                    (self.trial_delta(m, k, Some(q)), m, k, q)
                })
                .into_iter()
                .min_by(|a, b| {
                    a.0.total_cmp(&b.0)
                        .then((a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
                });
            match best {
                Some((d, m, k, q)) if d < -1e-12 => {
                    let mut next = self.placement.clone();
                    next.set(m, k, false);
                    next.set(m, q, true);
                    self.stats.migrations += 1;
                    self.move_to(next);
                }
                _ => break,
            }
        }
        self.sweeping = false;
    }

    /// Small-scale serial descent (Algorithm 3 lines 6–15).
    fn small_scale(&mut self) {
        // Fix any storage violations inherited from pre-provisioning before
        // measuring the starting objective, then repair unlucky stage-2
        // positions with the migration pass.
        let mut current = self.placement.clone();
        self.plan_storage(&mut current, false);
        self.move_to(current);
        self.relocate_pass();

        for _ in 0..MAX_ROUNDS {
            let q_before = self.objective();
            let losses = self.update_instance_set();
            let Some(&(_, m, k)) = losses.first() else {
                break;
            };

            // Trial combine + storage planning.
            let mut trial = self.placement.clone();
            trial.set(m, k, false);
            let plan_failed = self.plan_storage(&mut trial, true);
            let before = self.move_to(trial);
            if plan_failed {
                // Storage could not hold the trial, so the pass removed an
                // instance: keep combining (Algorithm 5 line 17) — accept the
                // removal regardless.
                self.stats.small_removed += 1;
                continue;
            }

            // Completion-time constraint (Eq. 4): roll back and lock.
            let violated = self
                .per_request
                .iter()
                .zip(&self.sc.requests)
                .any(|(d, r)| *d > r.d_max + 1e-9);
            if violated {
                self.move_to(before);
                let idx = self.lock_idx(m, k);
                self.locked[idx] = true;
                self.stats.rollbacks += 1;
                continue;
            }

            // Gradient δ = Q′ − Q″ + Θ; stop when the objective rises by
            // more than the disturbance tolerance.
            let delta = q_before - self.objective() + self.cfg.theta;
            if delta <= 0.0 {
                self.move_to(before);
                break;
            }
            self.stats.small_removed += 1;
        }
    }

    /// Run both descents and return the final placement and statistics.
    pub fn run(mut self) -> (Placement, CombineStats) {
        #[cfg(test)]
        self.audit.inspect(|audit| audit(&self));
        self.large_scale();
        self.stats.objective_after_large = self.objective();
        self.small_scale();
        self.stats.objective_after_serial = self.objective();
        // Final repair: combination may have stranded demand; one more
        // migration pass converges to a move-stable local optimum, then
        // storage is enforced unconditionally.
        self.relocate_pass();
        let mut next = self.placement.clone();
        self.plan_storage(&mut next, true);
        self.move_to(next);
        self.stats.final_objective = self.objective();
        (self.placement, self.stats)
    }

    /// Read-only view of the current placement (for tests).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::initial_partition;
    use crate::preprovision::preprovision;
    use socl_model::{evaluate, ScenarioConfig};

    fn setup(seed: u64, users: usize) -> (Scenario, SoclConfig) {
        let sc = ScenarioConfig::paper(10, users).build(seed);
        let cfg = SoclConfig::default();
        (sc, cfg)
    }

    fn run(sc: &Scenario, cfg: &SoclConfig) -> (Placement, CombineStats) {
        let parts = initial_partition(sc, cfg);
        let pre = preprovision(sc, &parts, cfg);
        Combiner::new(sc, cfg, &parts, pre.placement).run()
    }

    #[test]
    fn final_placement_respects_budget_when_possible() {
        let (sc, cfg) = setup(1, 40);
        let (placement, _) = run(&sc, &cfg);
        let cost = placement.deployment_cost(&sc.catalog);
        // One instance of every requested service must fit in the paper's
        // budgets; then the large-scale loop guarantees the bound.
        let min_cost: f64 = sc
            .requested_services()
            .iter()
            .map(|&m| sc.catalog.deploy_cost(m))
            .sum();
        assert!(min_cost <= sc.budget, "scenario sanity");
        assert!(
            cost <= sc.budget + 1e-6,
            "cost {cost} > budget {}",
            sc.budget
        );
    }

    #[test]
    fn service_continuity_is_preserved() {
        let (sc, cfg) = setup(2, 40);
        let (placement, _) = run(&sc, &cfg);
        for m in sc.requested_services() {
            assert!(
                placement.instance_count(m) >= 1,
                "{m} lost all instances during combination"
            );
        }
        let ev = evaluate(&sc, &placement);
        assert_eq!(ev.cloud_fallbacks, 0);
    }

    #[test]
    fn storage_constraint_holds_at_the_end() {
        let (sc, cfg) = setup(3, 50);
        let (placement, _) = run(&sc, &cfg);
        assert!(placement.storage_feasible(&sc.catalog, &sc.net));
    }

    #[test]
    fn combination_improves_over_preprovisioning_objective() {
        let (sc, cfg) = setup(4, 40);
        let parts = initial_partition(&sc, &cfg);
        let pre = preprovision(&sc, &parts, &cfg);
        let before = evaluate(&sc, &pre.placement).objective;
        let (placement, stats) = Combiner::new(&sc, &cfg, &parts, pre.placement).run();
        let after = evaluate(&sc, &placement).objective;
        // Combination trades latency for cost; with Θ tolerance the final
        // objective may sit within Θ·removals of the pre-provisioned one,
        // but in practice it improves. Allow the tolerance margin.
        let slack = cfg.theta * (stats.small_removed as f64 + 1.0);
        assert!(
            after <= before + slack,
            "after {after} vs before {before} (slack {slack})"
        );
    }

    #[test]
    fn latency_losses_are_finite_and_sorted() {
        // ζ may be slightly negative (reconnection can land on a faster CPU
        // because reliance picks by channel speed alone), but must be finite
        // — infinite losses mark last-instance removals, which Algorithm 4
        // filters out — and the list must come back in ascending order.
        let (sc, cfg) = setup(5, 30);
        let parts = initial_partition(&sc, &cfg);
        let pre = preprovision(&sc, &parts, &cfg);
        let mut combiner = Combiner::new(&sc, &cfg, &parts, pre.placement.clone());
        let losses = combiner.update_instance_set();
        assert!(!losses.is_empty(), "expected combinable instances");
        for w in losses.windows(2) {
            assert!(w[0].0 <= w[1].0, "losses not sorted");
        }
        for (z, m, _) in &losses {
            assert!(z.is_finite());
            // Only multi-instance services are combinable.
            assert!(pre.placement.instance_count(*m) > 1);
        }
    }

    #[test]
    fn unused_instance_has_zero_latency_loss() {
        let (sc, cfg) = setup(5, 30);
        let parts = initial_partition(&sc, &cfg);
        let pre = preprovision(&sc, &parts, &cfg);
        let combiner = Combiner::new(&sc, &cfg, &parts, pre.placement.clone());
        // Find an instance no user relies on (if any) — its ζ must be 0.
        for (m, k) in pre.placement.iter_deployed() {
            let relied_on = sc
                .requests
                .iter()
                .filter(|r| r.uses(m))
                .any(|r| combiner.relies_on(m, k, r.location, inbound_data(r, m)));
            if pre.placement.instance_count(m) > 1 && !relied_on {
                let z = combiner.latency_loss(m, k);
                assert_eq!(z, 0.0, "{m}@{k} has no reliers but ζ = {z}");
            }
        }
    }

    #[test]
    fn tight_latency_bounds_trigger_rollbacks() {
        let (mut sc, cfg) = setup(6, 40);
        // Bounds just above the pre-provisioned latency: most combinations
        // should violate and roll back.
        let parts = initial_partition(&sc, &cfg);
        let pre = preprovision(&sc, &parts, &cfg);
        let ev = evaluate(&sc, &pre.placement);
        for (r, d) in sc.requests.iter_mut().zip(&ev.per_request) {
            r.d_max = d * 1.02 + 1e-6;
        }
        let parts = initial_partition(&sc, &cfg);
        let pre = preprovision(&sc, &parts, &cfg);
        let (placement, stats) = Combiner::new(&sc, &cfg, &parts, pre.placement).run();
        // Final latencies never exceed the bounds (unless the budget loop
        // forced removals; with the default generous budget it does not).
        if placement.deployment_cost(&sc.catalog) <= sc.budget {
            let ev = evaluate(&sc, &placement);
            let violations = ev
                .per_request
                .iter()
                .zip(&sc.requests)
                .filter(|(d, r)| **d > r.d_max + 1e-9)
                .count();
            // Large-scale phase does not check Eq. 4 (the paper defers that
            // to the serial phase), so only require that serial roll-backs
            // actually happened under these tight bounds.
            assert!(
                stats.rollbacks > 0 || violations == 0,
                "no rollbacks and {violations} violations"
            );
        }
    }

    #[test]
    fn omega_one_combines_aggressively() {
        let (mut sc, _) = setup(7, 40);
        sc.budget = sc.catalog.total_single_cost() * 1.2; // force combining
        let slow = SoclConfig {
            omega: 0.05,
            ..SoclConfig::default()
        };
        let fast = SoclConfig {
            omega: 1.0,
            ..SoclConfig::default()
        };
        let parts = initial_partition(&sc, &slow);
        let pre_a = preprovision(&sc, &parts, &slow);
        let (_, stats_slow) = Combiner::new(&sc, &slow, &parts, pre_a.placement).run();
        let pre_b = preprovision(&sc, &parts, &fast);
        let (_, stats_fast) = Combiner::new(&sc, &fast, &parts, pre_b.placement).run();
        if stats_slow.large_rounds > 0 && stats_fast.large_rounds > 0 {
            assert!(stats_fast.large_rounds <= stats_slow.large_rounds);
        }
    }

    /// Whole solves, every fan-out included, on one pool thread and on four.
    #[test]
    fn parallel_and_serial_runs_agree() {
        let (sc, _) = setup(8, 40);
        let solve = || crate::SoclSolver::new().solve(&sc);
        let (serial, parallel) = (crate::at_threads(1, solve), crate::at_threads(4, solve));
        assert_eq!(
            serial.placement, parallel.placement,
            "thread count changed the result"
        );
        assert_eq!(serial.objective().to_bits(), parallel.objective().to_bits());
    }

    /// The perf guard, without a stopwatch: candidates are scored from the
    /// tables, so the chain DP runs once per request up front and then only
    /// where a step can change a table. A DP per trial would put
    /// `routes / trials` at the mean users per service (~27 and ~85 here).
    /// A removal re-routes only the users whose rows pin a lost host and
    /// patches the rest, so re-routes after the first routing are bounded by
    /// the steps that add hosts (migrations, roll-backs) — re-routing every
    /// user of a changed service reads 1201 and 4256 against 768 and 2700.
    /// Rows are widened to every node only for the migration sweep, and a
    /// patch leaves a request as incomplete as a re-route would, so the
    /// full-width fills are exactly those of re-routing every user.
    #[test]
    fn work_counts_stay_bounded() {
        for (nodes, users, fills) in [(16, 96, 287), (30, 300, 1119)] {
            let sc = ScenarioConfig::paper(nodes, users).build(17);
            let (_, stats) = run(&sc, &SoclConfig::default());
            let steps = stats.large_removed + stats.small_removed + stats.migrations;
            assert!(
                steps > 0 && stats.trials > 0,
                "{nodes}/{users}: nothing to do"
            );
            let adding = stats.migrations + stats.rollbacks;
            assert!(
                stats.routes - users <= users * (adding + 2),
                "{nodes}/{users}: {} routes for {adding} host-adding steps",
                stats.routes
            );
            assert!(stats.patched > 0, "{nodes}/{users}: no row patched");
            let per_trial = stats.routes as f64 / stats.trials as f64;
            assert!(
                per_trial < 2.0,
                "{nodes}/{users}: {per_trial:.2} routes per trial"
            );
            assert_eq!(
                stats.row_fills, fills,
                "{nodes}/{users}: re-routes filled at every node"
            );
        }
    }

    /// Two hosts that cost a request exactly the same: the tables must
    /// prefer the lower node id, as the DP's strict `<` over ascending hosts
    /// does — random scenarios never produce the tie, so it is staged here.
    #[test]
    fn ties_go_to_the_lower_node_id_like_the_dp() {
        use socl_model::{optimal_route, Microservice, ServiceCatalog, UserId, UserRequest};
        use socl_net::{EdgeNetwork, EdgeServer, LinkParams};

        let mut net = EdgeNetwork::new();
        for _ in 0..3 {
            net.push_server(EdgeServer::new(10.0, 8.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(40.0));
        net.add_link(NodeId(0), NodeId(2), LinkParams::from_rate(40.0));
        let catalog = ServiceCatalog::from_services(vec![Microservice::new(100.0, 1.0, 2.0)]);
        let m = ServiceId(0);
        let request = UserRequest::new(UserId(0), NodeId(0), vec![m], vec![], 1.0, 0.1, 10.0);
        let sc = ScenarioConfig::paper(3, 1).assemble(net, catalog, vec![request]);
        let cfg = SoclConfig::default();
        let parts = initial_partition(&sc, &cfg);

        let mut both = Placement::empty(1, 3);
        both.set(m, NodeId(1), true);
        both.set(m, NodeId(2), true);
        let c = Combiner::new(&sc, &cfg, &parts, both.clone());
        assert_eq!(c.through[1].to_bits(), c.through[2].to_bits(), "staged tie");
        let dp = optimal_route(&sc.requests[0], &both, &sc.net, &sc.ap, &sc.catalog);
        assert_eq!(dp.route(), Some(&[NodeId(1)][..]));
        assert_eq!(c.top2[0], [NodeId(1), NodeId(2)]);
        assert_eq!(c.trial_host(0, NodeId(1), None), Some(NodeId(2)));

        // A migration onto the tied lower id wins over the kept higher one;
        // the sweep's rows hold every node's entry.
        let mut high = Placement::empty(1, 3);
        high.set(m, NodeId(0), true);
        high.set(m, NodeId(2), true);
        let mut c = Combiner::new(&sc, &cfg, &parts, high);
        c.complete_rows();
        assert_eq!(c.trial_host(0, NodeId(0), Some(NodeId(1))), Some(NodeId(1)));
    }

    /// `parallel_and_serial_runs_agree` stays below the fan-out gate since
    /// trials became lookups; this scale opens it for the migration sweep
    /// (~900 moves × 342 users per service) on any multi-core box.
    #[test]
    fn parallel_scoring_agrees_once_the_gate_opens() {
        let sc = ScenarioConfig::paper(60, 1200).build(8);
        let cfg = SoclConfig::default();
        let (pa, sa) = crate::at_threads(1, || run(&sc, &cfg));
        let (pb, sb) = crate::at_threads(4, || run(&sc, &cfg));
        assert_eq!(pa, pb, "parallel scoring changed the result");
        assert_eq!((sa.trials, sa.routes), (sb.trials, sb.routes));
    }

    /// An overloaded node holding only last copies, with no room anywhere
    /// else: a spare copy on another node is evicted so that a last copy can
    /// move there, rather than the last copy being dropped to the cloud.
    #[test]
    fn storage_enforcement_evicts_a_spare_elsewhere_before_a_last_copy() {
        use socl_model::{Microservice, ServiceCatalog, UserId, UserRequest};
        use socl_net::{EdgeNetwork, EdgeServer, LinkParams};

        let mut net = EdgeNetwork::new();
        for _ in 0..3 {
            net.push_server(EdgeServer::new(10.0, 4.0));
        }
        net.add_link(NodeId(0), NodeId(1), LinkParams::from_rate(40.0));
        net.add_link(NodeId(1), NodeId(2), LinkParams::from_rate(40.0));
        // Two 3-unit services and one 2-unit service, each requested once.
        let catalog = ServiceCatalog::from_services(vec![
            Microservice::new(100.0, 3.0, 2.0),
            Microservice::new(100.0, 3.0, 2.0),
            Microservice::new(100.0, 2.0, 2.0),
        ]);
        let requests = (0..3)
            .map(|i| {
                let home = NodeId(if i == 2 { 2 } else { 0 });
                UserRequest::new(UserId(i), home, vec![ServiceId(i)], vec![], 1.0, 0.1, 10.0)
            })
            .collect();
        let sc = ScenarioConfig::paper(3, 3).assemble(net, catalog, requests);
        let cfg = SoclConfig::default();
        let parts = initial_partition(&sc, &cfg);

        // v0 holds the only copies of services 0 and 1 (6 units on 4); v1
        // and v2 each hold a copy of service 2, leaving 2 units, too few.
        let mut packed = Placement::empty(3, 3);
        packed.set(ServiceId(0), NodeId(0), true);
        packed.set(ServiceId(1), NodeId(0), true);
        packed.set(ServiceId(2), NodeId(1), true);
        packed.set(ServiceId(2), NodeId(2), true);
        let mut c = Combiner::new(&sc, &cfg, &parts, packed.clone());
        assert!(c.plan_storage(&mut packed, true), "an instance was removed");
        c.move_to(packed);
        let placement = c.placement();
        assert!(placement.storage_feasible(&sc.catalog, &sc.net));
        assert!(placement.covers(&sc.requests), "a last copy was dropped");
        assert_eq!(placement.instance_count(ServiceId(2)), 1);
        assert_eq!((c.stats.migrations, c.stats.small_removed), (1, 1));
    }

    /// A budget twice the paper's stops the large-scale descent while
    /// pre-provisioning still overflows storage. The serial trials then
    /// resolve each overload with the storage pass and keep combining only
    /// while it must remove an instance, so the slack budget lands on the
    /// 8,000-budget placement rather than combining far past it.
    #[test]
    fn slack_budget_lands_on_the_binding_budget_placement() {
        let solve = |budget: f64| {
            let sc = ScenarioConfig {
                budget,
                ..ScenarioConfig::paper(10, 160)
            }
            .build(34);
            crate::SoclSolver::new().solve(&sc)
        };
        let (slack, binding) = (solve(12_000.0), solve(8_000.0));
        assert_eq!(slack.placement, binding.placement);
        assert_eq!(format!("{:.1}", slack.objective()), "42128.4");
        assert_eq!(slack.evaluation.cloud_fallbacks, 0);
    }

    #[test]
    fn cheapest_out_policy_also_terminates_feasibly() {
        let (sc, _) = setup(9, 50);
        let cfg = SoclConfig {
            storage_policy: StoragePolicy::CheapestOut,
            ..SoclConfig::default()
        };
        let (placement, _) = run(&sc, &cfg);
        assert!(placement.storage_feasible(&sc.catalog, &sc.net));
        assert!(placement.covers(&sc.requests));
    }
}
