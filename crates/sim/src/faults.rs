//! Deterministic, seedable fault schedules for the testbed and online layers.
//!
//! Serverless *edge* clusters churn: nodes crash and come back, links degrade
//! and flap, warm instances are reaped, and in-flight requests get lost on
//! the radio leg. This module turns that into a first-class, reproducible
//! object — a [`FaultSchedule`]: a time-sorted list of [`FaultEvent`]s that
//! the testbed emulator replays mid-run and the online simulator applies
//! between and within slots.
//!
//! [`FaultPlan::generate`] draws victims uniformly at random (the classic
//! chaos-monkey setup).
//!
//! Schedules are plain data: same seed + same plan ⇒ byte-identical events,
//! which is what makes the faulted-testbed determinism proptests possible.

use socl_model::{Placement, ServiceId};
use socl_net::rng::ChaCha12Rng;
use socl_net::{EdgeNetwork, NodeId};

/// One injected fault (or the matching recovery).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node's compute goes down: queued and in-flight work on it is
    /// lost. (Its radio/backhaul keeps forwarding — only serving stops.)
    NodeCrash(NodeId),
    /// The node's compute comes back (cold: all its instances restart).
    NodeRecover(NodeId),
    /// The link's bandwidth is divided by `factor` (> 1) until restored.
    LinkDegrade { link: usize, factor: f64 },
    /// The link returns to its nominal bandwidth.
    LinkRestore { link: usize },
    /// One warm instance is reaped (serverless cold-kill): the next request
    /// served by `(service, node)` pays the cold-start penalty again.
    InstanceKill { service: ServiceId, node: NodeId },
    /// The in-flight transfer of `user`'s request is lost at this instant;
    /// the dispatcher sees it as a failed attempt.
    RequestLoss { user: usize },
}

impl FaultKind {
    /// Stable ordinal for deterministic tie-breaking at equal timestamps.
    fn ordinal(&self) -> u8 {
        match self {
            FaultKind::NodeCrash(_) => 0,
            FaultKind::NodeRecover(_) => 1,
            FaultKind::LinkDegrade { .. } => 2,
            FaultKind::LinkRestore { .. } => 3,
            FaultKind::InstanceKill { .. } => 4,
            FaultKind::RequestLoss { .. } => 5,
        }
    }
}

/// A fault at a point in simulated time (seconds from run start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub time: f64,
    pub kind: FaultKind,
}

/// A time-sorted fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty schedule (a fault-free run).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from arbitrary events; sorts by time with deterministic
    /// tie-breaks so construction order never leaks into results.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.kind.ordinal().cmp(&b.kind.ordinal()))
        });
        Self { events }
    }

    /// The sorted events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Summary counters for reporting.
    pub fn stats(&self) -> FaultStats {
        let mut s = FaultStats::default();
        for e in &self.events {
            match e.kind {
                FaultKind::NodeCrash(_) => s.node_crashes += 1,
                FaultKind::NodeRecover(_) => {}
                FaultKind::LinkDegrade { .. } => s.link_degrades += 1,
                FaultKind::LinkRestore { .. } => {}
                FaultKind::InstanceKill { .. } => s.instance_kills += 1,
                FaultKind::RequestLoss { .. } => s.request_losses += 1,
            }
        }
        s
    }
}

/// Event counts by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub node_crashes: usize,
    pub link_degrades: usize,
    pub instance_kills: usize,
    pub request_losses: usize,
}

/// Bandwidth division factor while a link is degraded (> 1).
const DEGRADE_FACTOR: f64 = 4.0;

/// Knobs for schedule generation. Counts are *expected totals over the
/// horizon*; [`FaultPlan::at_intensity`] scales them together.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Simulated seconds the schedule covers.
    pub horizon: f64,
    /// Node crashes to schedule (each paired with a recovery).
    pub node_crashes: usize,
    /// Mean node downtime in seconds (exponential-ish spread around it).
    pub mean_downtime: f64,
    /// Link degrade/restore flaps to schedule.
    pub link_flaps: usize,
    /// Mean degraded-period length in seconds.
    pub mean_degrade: f64,
    /// Warm instances to cold-kill.
    pub instance_kills: usize,
    /// In-flight request losses to schedule.
    pub request_losses: usize,
}

impl FaultPlan {
    /// No faults at all over `horizon` seconds.
    pub fn quiet(horizon: f64) -> Self {
        Self {
            horizon,
            node_crashes: 0,
            mean_downtime: 0.0,
            link_flaps: 0,
            mean_degrade: 0.0,
            instance_kills: 0,
            request_losses: 0,
        }
    }

    /// A moderate plan: a couple of node outages, some link flaps, a few
    /// instance reaps and request losses over the horizon.
    pub fn moderate(horizon: f64) -> Self {
        Self {
            horizon,
            node_crashes: 2,
            mean_downtime: horizon * 0.15,
            link_flaps: 3,
            mean_degrade: horizon * 0.2,
            instance_kills: 4,
            request_losses: 3,
        }
    }

    /// Scale the moderate plan's event counts by `level` (0.0 = quiet,
    /// 1.0 = moderate, 2.0 = twice as hostile, …).
    pub fn at_intensity(horizon: f64, level: f64) -> Self {
        let base = Self::moderate(horizon);
        let scale = |n: usize| ((n as f64) * level).round() as usize;
        Self {
            node_crashes: scale(base.node_crashes),
            link_flaps: scale(base.link_flaps),
            instance_kills: scale(base.instance_kills),
            request_losses: scale(base.request_losses),
            ..base
        }
    }

    /// Generate the schedule for `net` under `placement` (instance kills
    /// pick deployed instances; pass an empty placement to skip them) with
    /// `users` request sources. Deterministic in `seed`.
    pub fn generate(
        &self,
        net: &EdgeNetwork,
        placement: &Placement,
        users: usize,
        seed: u64,
    ) -> FaultSchedule {
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xFA17_5EED);
        let mut events = Vec::new();

        // --- node crashes (never all nodes down at once) ------------------
        let nodes = net.node_count();
        let mut down_intervals: Vec<(f64, f64, usize)> = Vec::new();
        if nodes > 1 {
            for _ in 0..self.node_crashes {
                let t = rng.gen_range(0.0..self.horizon);
                let d = spread(&mut rng, self.mean_downtime);
                // Keep at least one node up: count overlapping outages.
                let overlap = down_intervals
                    .iter()
                    .filter(|(a, b, _)| *a < t + d && t < *b)
                    .count();
                if overlap + 1 >= nodes {
                    continue;
                }
                let victim = NodeId(rng.gen_range(0..nodes) as u32);
                // One outage per node at a time.
                if down_intervals
                    .iter()
                    .any(|(a, b, v)| *v == victim.idx() && *a < t + d && t < *b)
                {
                    continue;
                }
                down_intervals.push((t, t + d, victim.idx()));
                events.push(FaultEvent {
                    time: t,
                    kind: FaultKind::NodeCrash(victim),
                });
                events.push(FaultEvent {
                    time: t + d,
                    kind: FaultKind::NodeRecover(victim),
                });
            }
        }

        // --- link flaps ---------------------------------------------------
        let links = net.link_count();
        if links > 0 {
            let mut busy: Vec<(f64, f64, usize)> = Vec::new();
            for _ in 0..self.link_flaps {
                let t = rng.gen_range(0.0..self.horizon);
                let d = spread(&mut rng, self.mean_degrade);
                let link = rng.gen_range(0..links);
                if busy
                    .iter()
                    .any(|(a, b, l)| *l == link && *a < t + d && t < *b)
                {
                    continue;
                }
                busy.push((t, t + d, link));
                events.push(FaultEvent {
                    time: t,
                    kind: FaultKind::LinkDegrade {
                        link,
                        factor: DEGRADE_FACTOR,
                    },
                });
                events.push(FaultEvent {
                    time: t + d,
                    kind: FaultKind::LinkRestore { link },
                });
            }
        }

        // --- instance cold-kills ------------------------------------------
        let deployed: Vec<(ServiceId, NodeId)> = placement.iter_deployed().collect();
        if !deployed.is_empty() {
            for _ in 0..self.instance_kills {
                let t = rng.gen_range(0.0..self.horizon);
                let (m, k) = deployed[rng.gen_range(0..deployed.len())];
                events.push(FaultEvent {
                    time: t,
                    kind: FaultKind::InstanceKill {
                        service: m,
                        node: k,
                    },
                });
            }
        }

        // --- in-flight request losses -------------------------------------
        if users > 0 {
            for _ in 0..self.request_losses {
                let t = rng.gen_range(0.0..self.horizon);
                let user = rng.gen_range(0..users);
                events.push(FaultEvent {
                    time: t,
                    kind: FaultKind::RequestLoss { user },
                });
            }
        }

        FaultSchedule::from_events(events)
    }
}

/// Deterministic positive duration around `mean` (0.5×–1.5× spread).
fn spread(rng: &mut ChaCha12Rng, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    mean * rng.gen_range(0.5..1.5)
}

/// The schedule pre-digested for the discrete-event loop: per-node merged
/// down intervals plus sorted per-kind event lists.
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    /// Per node: merged, sorted (down_from, up_at) intervals.
    down: Vec<Vec<(f64, f64)>>,
    /// Sorted (time, link, Some(factor) = degrade / None = restore).
    link_changes: Vec<(f64, usize, Option<f64>)>,
    /// Sorted (time, service, node) cold-kills.
    kills: Vec<(f64, ServiceId, NodeId)>,
    /// Sorted (time, user) in-flight losses.
    losses: Vec<(f64, usize)>,
}

impl FaultTimeline {
    /// Digest `schedule` for a cluster of `nodes` nodes.
    pub fn build(schedule: &FaultSchedule, nodes: usize) -> Self {
        let mut raw_down: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nodes];
        let mut open: Vec<Option<f64>> = vec![None; nodes];
        let mut link_changes = Vec::new();
        let mut kills = Vec::new();
        let mut losses = Vec::new();
        for e in schedule.events() {
            match e.kind {
                FaultKind::NodeCrash(k) => {
                    if k.idx() < nodes && open[k.idx()].is_none() {
                        open[k.idx()] = Some(e.time);
                    }
                }
                FaultKind::NodeRecover(k) => {
                    if k.idx() < nodes {
                        if let Some(start) = open[k.idx()].take() {
                            raw_down[k.idx()].push((start, e.time));
                        }
                    }
                }
                FaultKind::LinkDegrade { link, factor } => {
                    link_changes.push((e.time, link, Some(factor)));
                }
                FaultKind::LinkRestore { link } => {
                    link_changes.push((e.time, link, None));
                }
                FaultKind::InstanceKill { service, node } => {
                    kills.push((e.time, service, node));
                }
                FaultKind::RequestLoss { user } => {
                    losses.push((e.time, user));
                }
            }
        }
        // Crashes with no matching recovery stay down forever.
        for (k, start) in open.into_iter().enumerate() {
            if let Some(s) = start {
                raw_down[k].push((s, f64::INFINITY));
            }
        }
        // Merge overlaps per node (events are time-sorted already).
        let down = raw_down
            .into_iter()
            .map(|intervals| {
                let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
                for (a, b) in intervals {
                    match merged.last_mut() {
                        Some((_, pb)) if a <= *pb => *pb = pb.max(b),
                        _ => merged.push((a, b)),
                    }
                }
                merged
            })
            .collect();
        Self {
            down,
            link_changes,
            kills,
            losses,
        }
    }

    /// True when the node's compute is down at `t`.
    pub fn is_down(&self, node: NodeId, t: f64) -> bool {
        self.down[node.idx()].iter().any(|&(a, b)| a <= t && t < b)
    }

    /// The first down interval intersecting the open interval `(t0, t1)`,
    /// if any — used to fail work in flight on a crashing node.
    pub fn down_overlap(&self, node: NodeId, t0: f64, t1: f64) -> Option<(f64, f64)> {
        self.down[node.idx()]
            .iter()
            .find(|&&(a, b)| a < t1 && t0 < b)
            .copied()
    }

    /// Earliest time ≥ `t` when the node is up (∞ if it never recovers).
    pub fn next_up(&self, node: NodeId, t: f64) -> f64 {
        match self.down[node.idx()]
            .iter()
            .find(|&&(a, b)| a <= t && t < b)
        {
            Some(&(_, b)) => b,
            None => t,
        }
    }

    /// True when `(service, node)` was cold-killed inside `(t0, t1]`.
    pub fn killed_between(&self, service: ServiceId, node: NodeId, t0: f64, t1: f64) -> bool {
        self.kills
            .iter()
            .any(|&(t, m, k)| m == service && k == node && t0 < t && t <= t1)
    }

    /// Sorted link-state change points (times at which transfer times must
    /// be re-derived).
    pub fn link_changes(&self) -> &[(f64, usize, Option<f64>)] {
        &self.link_changes
    }

    /// All scheduled in-flight losses as sorted `(time, user)` pairs; the
    /// testbed consumes each at most once.
    pub fn losses(&self) -> &[(f64, usize)] {
        &self.losses
    }

    /// Mean time-to-repair over node outages *completed* by `horizon`
    /// (0 when nothing finished repairing).
    ///
    /// An outage still open at the horizon — one that straddles it, or a
    /// crash with no scheduled recovery — has no repair time yet, so it
    /// is excluded from the mean rather than clipped into it (clipping
    /// biased the statistic low). Open outages still contribute their
    /// clipped span to [`downtime`](Self::downtime). An outage ending
    /// exactly at the horizon counts as completed.
    pub fn mttr(&self, horizon: f64) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for intervals in &self.down {
            for &(a, b) in intervals {
                if b <= horizon && b > a {
                    total += b - a;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Total node-seconds of downtime clipped to `horizon`.
    pub fn downtime(&self, horizon: f64) -> f64 {
        self.down
            .iter()
            .flatten()
            .map(|&(a, b)| (b.min(horizon) - a).max(0.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_model::ScenarioConfig;
    use socl_net::TopologyConfig;

    fn test_net(nodes: usize) -> EdgeNetwork {
        TopologyConfig::paper(nodes).build(7)
    }

    fn test_placement(nodes: usize) -> Placement {
        let sc = ScenarioConfig::paper(nodes, 20).build(7);
        socl_core::SoclSolver::new().solve(&sc).placement
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let net = test_net(10);
        let p = test_placement(10);
        let plan = FaultPlan::moderate(1200.0);
        let a = plan.generate(&net, &p, 40, 9);
        let b = plan.generate(&net, &p, 40, 9);
        assert_eq!(a, b);
        let c = plan.generate(&net, &p, 40, 10);
        assert_ne!(a, c, "different seeds should give different schedules");
    }

    #[test]
    fn events_are_time_sorted() {
        let net = test_net(10);
        let p = test_placement(10);
        let s = FaultPlan::moderate(1200.0).generate(&net, &p, 40, 3);
        assert!(!s.is_empty());
        for w in s.events().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn quiet_plan_is_empty_and_intensity_scales() {
        let net = test_net(8);
        let p = test_placement(8);
        assert!(FaultPlan::quiet(600.0).generate(&net, &p, 20, 1).is_empty());
        let low = FaultPlan::at_intensity(1200.0, 0.5).generate(&net, &p, 20, 1);
        let high = FaultPlan::at_intensity(1200.0, 3.0).generate(&net, &p, 20, 1);
        assert!(high.len() > low.len(), "{} !> {}", high.len(), low.len());
    }

    #[test]
    fn crashes_pair_with_recoveries() {
        let net = test_net(10);
        let p = test_placement(10);
        let s = FaultPlan::moderate(900.0).generate(&net, &p, 30, 5);
        let stats = s.stats();
        let recoveries = s
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeRecover(_)))
            .count();
        assert_eq!(stats.node_crashes, recoveries);
        // However many long outages a plan asks for, one node stays up.
        let pair = test_net(2);
        let storm = FaultPlan {
            node_crashes: 40,
            ..FaultPlan::moderate(900.0)
        }
        .generate(&pair, &Placement::empty(1, 2), 0, 5);
        let tl = FaultTimeline::build(&storm, 2);
        assert!(storm.stats().node_crashes > 1);
        for e in storm.events() {
            assert!(
                pair.node_ids().any(|k| !tl.is_down(k, e.time)),
                "every node down at {}",
                e.time
            );
        }
    }

    #[test]
    fn timeline_merges_node_intervals_and_reports_mttr() {
        let s = FaultSchedule::from_events(vec![
            FaultEvent {
                time: 10.0,
                kind: FaultKind::NodeCrash(NodeId(0)),
            },
            FaultEvent {
                time: 30.0,
                kind: FaultKind::NodeRecover(NodeId(0)),
            },
            FaultEvent {
                time: 50.0,
                kind: FaultKind::NodeCrash(NodeId(1)),
            },
            FaultEvent {
                time: 90.0,
                kind: FaultKind::NodeRecover(NodeId(1)),
            },
            FaultEvent {
                time: 30.0,
                kind: FaultKind::InstanceKill {
                    service: ServiceId(2),
                    node: NodeId(1),
                },
            },
        ]);
        let tl = FaultTimeline::build(&s, 2);
        // Kill windows are (t0, t1]: a kill at t0 predates the last use.
        assert!(tl.killed_between(ServiceId(2), NodeId(1), 20.0, 30.0));
        assert!(!tl.killed_between(ServiceId(2), NodeId(1), 30.0, 40.0));
        assert!(!tl.killed_between(ServiceId(2), NodeId(0), 20.0, 30.0));
        assert!(tl.is_down(NodeId(0), 15.0));
        assert!(!tl.is_down(NodeId(0), 35.0));
        assert_eq!(tl.next_up(NodeId(1), 60.0), 90.0);
        assert_eq!(tl.next_up(NodeId(1), 95.0), 95.0);
        assert_eq!(tl.down_overlap(NodeId(0), 0.0, 12.0), Some((10.0, 30.0)));
        assert_eq!(tl.down_overlap(NodeId(0), 31.0, 40.0), None);
        // MTTR = mean(20, 40) = 30.
        assert!((tl.mttr(1000.0) - 30.0).abs() < 1e-9);
        assert!((tl.downtime(1000.0) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn mttr_excludes_outages_straddling_the_horizon() {
        // Node 0: completed outage [10, 30) (repair time 20).
        // Node 1: outage [50, 200) straddling the horizon at 100.
        let s = FaultSchedule::from_events(vec![
            FaultEvent {
                time: 10.0,
                kind: FaultKind::NodeCrash(NodeId(0)),
            },
            FaultEvent {
                time: 30.0,
                kind: FaultKind::NodeRecover(NodeId(0)),
            },
            FaultEvent {
                time: 50.0,
                kind: FaultKind::NodeCrash(NodeId(1)),
            },
            FaultEvent {
                time: 200.0,
                kind: FaultKind::NodeRecover(NodeId(1)),
            },
        ]);
        let tl = FaultTimeline::build(&s, 2);
        // The straddler must not be clipped into the mean: mttr = 20, not
        // mean(20, 50) = 35.
        assert!((tl.mttr(100.0) - 20.0).abs() < 1e-9);
        // Once the horizon covers the repair, it joins: mean(20, 150) = 85.
        assert!((tl.mttr(1000.0) - 85.0).abs() < 1e-9);
        // Downtime still clips the straddler: 20 + (100 − 50) = 70.
        assert!((tl.downtime(100.0) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn mttr_counts_an_outage_ending_exactly_at_the_horizon() {
        let s = FaultSchedule::from_events(vec![
            FaultEvent {
                time: 0.0,
                kind: FaultKind::NodeCrash(NodeId(0)),
            },
            FaultEvent {
                time: 300.0,
                kind: FaultKind::NodeRecover(NodeId(0)),
            },
        ]);
        let tl = FaultTimeline::build(&s, 1);
        // Repair lands exactly on the horizon: completed, full duration.
        assert!((tl.mttr(300.0) - 300.0).abs() < 1e-9);
        assert!((tl.downtime(300.0) - 300.0).abs() < 1e-9);
        // One tick earlier the outage is still open: no repairs yet.
        assert_eq!(tl.mttr(299.0), 0.0);
        assert!((tl.downtime(299.0) - 299.0).abs() < 1e-9);
    }

    #[test]
    fn mttr_ignores_a_never_repaired_crash() {
        let s = FaultSchedule::from_events(vec![FaultEvent {
            time: 5.0,
            kind: FaultKind::NodeCrash(NodeId(0)),
        }]);
        let tl = FaultTimeline::build(&s, 1);
        // An unrecovered crash has no time-to-repair at any horizon…
        assert_eq!(tl.mttr(1e12), 0.0);
        // …but its downtime accrues, clipped.
        assert!((tl.downtime(1000.0) - 995.0).abs() < 1e-9);
    }

    #[test]
    fn unrecovered_crash_stays_down_forever() {
        let s = FaultSchedule::from_events(vec![FaultEvent {
            time: 5.0,
            kind: FaultKind::NodeCrash(NodeId(0)),
        }]);
        let tl = FaultTimeline::build(&s, 1);
        assert!(tl.is_down(NodeId(0), 1e12));
        assert_eq!(tl.next_up(NodeId(0), 10.0), f64::INFINITY);
    }
}
