//! Per-region worlds: the mutable state a shard executes.
//!
//! Each region is a self-contained `OnlineSimulator`-style world for its
//! slice of the base-station graph: a bounded ingest queue, its own PR 4
//! autoscaler (admission + replica pools), an in-flight concurrency grid,
//! and decision counters folded into a running digest. Everything here is
//! keyed by *region*, never by shard — the execution worker a region lands
//! on is `region % shards`, so re-sharding cannot perturb state evolution.
//!
//! In-flight accounting: every decided edge route contributes one unit of
//! concurrency per chain stage, charged to the region hosting that stage
//! (cross-region stages are the "stitching" traffic) and expiring after a
//! fixed [`IN_FLIGHT_TICKS`] residency through a slotted ring. The fixed
//! residency is what keeps a killed region replayable: the remote half of
//! the signal is a per-tick additive vector that the WAL records verbatim,
//! while the local half is re-derived from the region's own replayed
//! decisions.

use crate::feed::{fnv_step, fnv_word, FNV_OFFSET};
use crate::queue::BoundedQueue;
use socl_autoscale::{AutoscaleConfig, Autoscaler};
use socl_model::ServiceId;

/// Ticks one decided stage keeps a unit of in-flight concurrency alive.
pub const IN_FLIGHT_TICKS: usize = 4;
/// Expiry-ring slots: residency plus the slot being expired.
pub const RING_SLOTS: usize = IN_FLIGHT_TICKS + 1;

/// Digest tag: an edge-served routing decision.
pub(crate) const TAG_EDGE: u64 = 1;
/// Digest tag: a cloud fallback (uncovered chain service).
pub(crate) const TAG_CLOUD: u64 = 2;
/// Digest tag: shed by the admission policy.
pub(crate) const TAG_SHED_ADMISSION: u64 = 3;
/// Digest tag: shed by a full ingest queue.
pub(crate) const TAG_SHED_QUEUE: u64 = 4;

/// Continue an FNV-1a 64-bit digest over `words` (from the offset basis
/// when `h` is 0). The per-region decision digest threads through this;
/// replay must land on the same value. A word below 2³² — a tick, user,
/// tag or node id — is folded by `fnv_word` (four byte steps, then its
/// four zero high bytes as one multiply); a full 64-bit word takes all
/// eight byte steps.
#[inline]
pub(crate) fn mix(mut h: u64, words: &[u64]) -> u64 {
    if h == 0 {
        h = FNV_OFFSET;
    }
    for &w in words {
        h = match u32::try_from(w) {
            Ok(low) => fnv_word(h, low),
            Err(_) => w.to_le_bytes().into_iter().fold(h, fnv_step),
        };
    }
    h
}

/// A queued request awaiting its decision: the `(user, tick)` pair a
/// checkpoint stores. The request itself is a pure function of the feed
/// and `user`, synthesized when the drain pops it, so an arrival shed by a
/// full queue is never synthesized.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// Issuing user.
    pub user: u32,
    /// Tick the request arrived.
    pub tick: u32,
}

/// One region's full mutable state.
#[derive(Debug)]
pub struct RegionState {
    /// Region id (index into the service's region vector).
    pub id: u32,
    /// Bounded ingest queue; a full queue is an explicit queue-shed.
    pub queue: BoundedQueue<Pending>,
    /// The region's serverless control plane (PR 4): replica pools,
    /// admission policy, scaling windows.
    pub scaler: Autoscaler,
    /// Current in-flight concurrency per service (local + remote stages
    /// hosted here).
    pub in_flight: Vec<u32>,
    /// Slotted expiry ring, `RING_SLOTS × services`: `ring[slot][m]` units
    /// leave `in_flight[m]` when `slot` comes around.
    pub ring: Vec<u32>,
    /// Lifetime arrivals homed to this region.
    pub arrivals: u64,
    /// Lifetime decisions (edge routes + cloud fallbacks).
    pub decided: u64,
    /// Arrivals rejected by a full queue.
    pub shed_queue: u64,
    /// Drained requests rejected by the admission policy.
    pub shed_admission: u64,
    /// Decisions that fell back to the cloud (some chain service had no
    /// edge instance under the current placement).
    pub cloud_fallbacks: u64,
    /// Running decision digest; the WAL pins it per tick.
    pub digest: u64,
    /// Tick-local: in-flight units added this tick by *remote* origins
    /// (per service). Logged to the WAL, then cleared.
    pub remote_add: Vec<u32>,
    /// Tick-local counters, cleared each tick after the WAL record.
    pub tick_arrivals: u32,
    /// Tick-local decisions.
    pub tick_decided: u32,
    /// Tick-local queue sheds.
    pub tick_shed_queue: u32,
    /// Tick-local admission sheds.
    pub tick_shed_admission: u32,
    /// Scratch for the scaler's concurrency signal (`in_flight` as f64s).
    pub signal: Vec<f64>,
}

impl RegionState {
    /// Fresh region state: empty queue of capacity `queue_cap`, an
    /// autoscaler over the *global* `services × nodes` grid (placement is
    /// global; the region's view is its own replica ledger).
    #[must_use]
    pub fn new(
        id: u32,
        services: usize,
        nodes: usize,
        queue_cap: usize,
        autoscale: &AutoscaleConfig,
        cold_start_s: f64,
    ) -> Self {
        Self {
            id,
            queue: BoundedQueue::new(queue_cap),
            scaler: Autoscaler::new(autoscale.clone(), cold_start_s, services, nodes),
            in_flight: vec![0; services],
            ring: vec![0; RING_SLOTS * services],
            arrivals: 0,
            decided: 0,
            shed_queue: 0,
            shed_admission: 0,
            cloud_fallbacks: 0,
            digest: 0,
            remote_add: vec![0; services],
            tick_arrivals: 0,
            tick_decided: 0,
            tick_shed_queue: 0,
            tick_shed_admission: 0,
            signal: vec![0.0; services],
        }
    }

    /// Number of services in the grid.
    #[must_use]
    pub fn services(&self) -> usize {
        self.in_flight.len()
    }

    /// Retire the in-flight units whose residency ends at `tick`.
    pub fn expire(&mut self, tick: u32) {
        let services = self.in_flight.len();
        let slot = (tick as usize % RING_SLOTS) * services;
        for m in 0..services {
            let leaving = self.ring.get(slot + m).copied().unwrap_or(0);
            if let Some(f) = self.in_flight.get_mut(m) {
                *f = f.saturating_sub(leaving);
            }
            if let Some(s) = self.ring.get_mut(slot + m) {
                *s = 0;
            }
        }
    }

    /// Charge one in-flight unit for service `m` decided at `tick`,
    /// expiring [`IN_FLIGHT_TICKS`] later. `remote` marks units whose
    /// origin region differs from this (hosting) region — the stitched
    /// traffic the WAL must carry for replay.
    pub fn charge(&mut self, m: ServiceId, tick: u32, remote: bool) {
        let services = self.in_flight.len();
        let slot = ((tick as usize + IN_FLIGHT_TICKS) % RING_SLOTS) * services;
        if let Some(f) = self.in_flight.get_mut(m.idx()) {
            *f += 1;
        }
        if let Some(s) = self.ring.get_mut(slot + m.idx()) {
            *s += 1;
        }
        if remote {
            if let Some(a) = self.remote_add.get_mut(m.idx()) {
                *a += 1;
            }
        }
    }

    /// Total scheduled expiries for service `m` — must equal
    /// `in_flight[m]` at every tick boundary (audit invariant).
    #[must_use]
    pub fn ring_sum(&self, m: usize) -> u32 {
        (0..RING_SLOTS)
            .map(|s| {
                self.ring
                    .get(s * self.in_flight.len() + m)
                    .copied()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Count and fold one issued decision: an edge route (one host per
    /// chain layer) or, with `None`, a cloud fallback. The live tick and
    /// crash replay both decide through here, so they cannot drift.
    pub fn decide(&mut self, tick: u32, user: u32, route: Option<&[socl_net::NodeId]>) {
        self.decided += 1;
        self.tick_decided += 1;
        match route {
            Some(route) => self.fold_decision(tick, user, TAG_EDGE, route),
            None => {
                self.cloud_fallbacks += 1;
                self.fold_decision(tick, user, TAG_CLOUD, &[]);
            }
        }
    }

    /// Fold one decision into the region digest. `tag` encodes the
    /// outcome kind; `route` is empty for cloud fallbacks and sheds.
    pub fn fold_decision(&mut self, tick: u32, user: u32, tag: u64, route: &[socl_net::NodeId]) {
        self.digest = mix(self.digest, &[u64::from(tick), u64::from(user), tag]);
        for n in route {
            self.digest = mix(self.digest, &[u64::from(n.0)]);
        }
    }

    /// Clear the tick-local accumulators after the WAL record is cut.
    pub fn clear_tick_locals(&mut self) {
        self.remote_add.iter_mut().for_each(|a| *a = 0);
        self.tick_arrivals = 0;
        self.tick_decided = 0;
        self.tick_shed_queue = 0;
        self.tick_shed_admission = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> RegionState {
        RegionState::new(0, 3, 8, 16, &AutoscaleConfig::default(), 0.5)
    }

    #[test]
    fn charge_and_expire_conserve() {
        let mut r = region();
        r.charge(ServiceId(1), 5, false);
        r.charge(ServiceId(1), 5, true);
        r.charge(ServiceId(2), 6, false);
        assert_eq!(r.in_flight, vec![0, 2, 1]);
        assert_eq!(r.remote_add, vec![0, 1, 0]);
        for m in 0..3 {
            assert_eq!(r.ring_sum(m), r.in_flight[m]);
        }
        // Residency of the tick-5 charges ends at tick 5 + IN_FLIGHT_TICKS.
        for t in 6..=5 + IN_FLIGHT_TICKS as u32 {
            r.expire(t);
        }
        assert_eq!(r.in_flight, vec![0, 0, 1]);
        r.expire(6 + IN_FLIGHT_TICKS as u32);
        assert_eq!(r.in_flight, vec![0, 0, 0]);
    }

    #[test]
    fn digest_depends_on_route_and_order() {
        let mut a = region();
        let mut b = region();
        a.fold_decision(1, 10, 1, &[socl_net::NodeId(2), socl_net::NodeId(3)]);
        b.fold_decision(1, 10, 1, &[socl_net::NodeId(3), socl_net::NodeId(2)]);
        assert_ne!(a.digest, b.digest);
        let mut c = region();
        c.fold_decision(1, 10, 1, &[socl_net::NodeId(2), socl_net::NodeId(3)]);
        assert_eq!(a.digest, c.digest);
    }
}
