//! Crash-consistent checkpoint/restore and the simulator's event log.
//!
//! The online simulator is a deterministic fold over its own state, which
//! makes it crash-recoverable in the strongest sense: freeze the complete
//! live state at any slot boundary, restore it into a fresh simulator, and
//! the resumed run is **bit-identical** to the uninterrupted one — not
//! merely statistically equivalent. This module provides three pieces:
//!
//! * [`Checkpoint`] — a versioned binary image of everything
//!   [`OnlineSimulator`] accumulates at runtime: the slot clock, the
//!   scheduled-fault cursor, the billing accumulator, user locations and
//!   request chains, node/link liveness, both ChaCha12 RNG streams (main
//!   and mobility) pinned by `(seed, stream, word position)`, and the
//!   control plane's [`ScalerState`]. The APSP cache is deliberately *not*
//!   serialized: it is derived state, rebuilt from the substrate and
//!   re-masked to the saved alive-link set on restore (the incremental
//!   cache is proven bit-identical to a from-scratch rebuild). The image is
//!   sealed in `socl_model::codec`'s envelope (magic `SCKP`, version,
//!   trailing CRC-32); decoding never panics.
//! * [`DecisionLog`] — the write-ahead log of per-slot events (slot
//!   begin/end, scaler ticks, admission sheds, repairs, fault-cursor
//!   advances, checkpoint markers): a `socl_model::codec::Journal` of
//!   [`LogRecord`]s, so a torn or corrupted tail is truncated at the first
//!   bad frame and reported — a partial record is never silently replayed.
//! * [`audit_invariants`] — the conservation laws a restore must not bend:
//!   population, billing, replica placement, fault-cursor partition, and
//!   cache-vs-rebuild equivalence.
//!
//! The kill-and-replay drill runs on the service that takes load
//! (`SoclServe::kill_and_restore`, soaked in `serve/tests/proptests.rs`);
//! here `snapshot_restore_is_observational_identity` (`proptests.rs`)
//! freezes and thaws arbitrary faulted runs and audits the result.

use crate::online::{OnlineSimulator, SlotRecord};
use socl_autoscale::{get_scaler_state, put_scaler_state, ScalerState};
use socl_model::codec::{open, seal, Journal, Record};
pub use socl_model::codec::{TailReport, TornTailReason};
use socl_model::{BinReader, BinWriter, CodecError, ServiceId, UserId, UserRequest};
use socl_net::rng::ChaCha12Rng;
use socl_net::NodeId;

/// Checkpoint format tag (`b"SCKP"` little-endian).
const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"SCKP");
/// Checkpoint format version understood by this build. Bump it with any
/// change to the bytes `to_bytes` writes; `tests/persistence.rs` pins them.
const CKPT_VERSION: u32 = 2;

/// Frozen position of a `ChaCha12Rng`: `(seed, stream, word position)`
/// fully determine the generator's future output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngState {
    /// The 256-bit seed the generator was created from.
    pub seed: [u8; 32],
    /// Stream identifier (ChaCha nonce).
    pub stream: u64,
    /// Position in the keystream, in 32-bit words.
    pub word_pos: u128,
}

impl RngState {
    /// Capture the state of `rng`.
    pub fn of(rng: &ChaCha12Rng) -> Self {
        Self {
            seed: rng.get_seed(),
            stream: rng.get_stream(),
            word_pos: rng.get_word_pos(),
        }
    }

    /// Rebuild a generator at exactly this position.
    pub fn build(&self) -> ChaCha12Rng {
        let mut rng = ChaCha12Rng::from_seed(self.seed);
        rng.set_stream(self.stream);
        rng.set_word_pos(self.word_pos);
        rng
    }
}

/// A complete, self-validating image of the online simulator's live state
/// at a slot boundary. See the module docs for what is and is not included.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Slot the restored run will execute next.
    pub next_slot: u64,
    /// Scheduled-fault events already applied.
    pub fault_cursor: u64,
    /// Replica-slots billed so far (Σ end-of-slot warm replicas).
    pub billed_replica_slots: u64,
    /// Station of every user (`locations[h]`).
    pub locations: Vec<NodeId>,
    /// Every user's current request (chain, data volumes, tolerance).
    pub requests: Vec<UserRequest>,
    /// Per-node compute liveness.
    pub alive: Vec<bool>,
    /// Per-link liveness (degraded links are masked out).
    pub alive_links: Vec<bool>,
    /// The main simulation RNG (failures, churn, chain sampling).
    pub rng: RngState,
    /// The mobility model's RNG.
    pub mobility_rng: RngState,
    /// Control-plane state, when the run has one.
    pub scaler: Option<ScalerState>,
}

fn put_rng(w: &mut BinWriter, s: &RngState) {
    w.put_raw(&s.seed);
    w.put_u64(s.stream);
    w.put_u128(s.word_pos);
}

fn get_rng(r: &mut BinReader<'_>) -> Result<RngState, CodecError> {
    let seed: [u8; 32] = r
        .take(32)?
        .try_into()
        .map_err(|_| CodecError::Malformed("rng seed"))?;
    Ok(RngState {
        seed,
        stream: r.get_u64()?,
        word_pos: r.get_u128()?,
    })
}

fn put_request(w: &mut BinWriter, req: &UserRequest) {
    w.put_u32(req.id.0);
    w.put_u32(req.location.0);
    let chain: Vec<u32> = req.chain.iter().map(|m| m.0).collect();
    w.put_u32_slice(&chain);
    w.put_f64_slice(&req.edge_data);
    w.put_f64(req.r_in);
    w.put_f64(req.r_out);
    w.put_f64(req.d_max);
}

fn get_request(r: &mut BinReader<'_>) -> Result<UserRequest, CodecError> {
    let id = UserId(r.get_u32()?);
    let location = NodeId(r.get_u32()?);
    let chain: Vec<ServiceId> = r.get_u32_vec()?.into_iter().map(ServiceId).collect();
    let edge_data = r.get_f64_vec()?;
    if chain.is_empty() {
        return Err(CodecError::Malformed("empty request chain"));
    }
    if edge_data.len() + 1 != chain.len() {
        return Err(CodecError::Malformed("edge_data/chain length mismatch"));
    }
    Ok(UserRequest {
        id,
        location,
        chain,
        edge_data,
        r_in: r.get_f64()?,
        r_out: r.get_f64()?,
        d_max: r.get_f64()?,
    })
}

impl Checkpoint {
    /// Serialize to the versioned wire format (`socl_model::codec::seal`:
    /// magic, version, payload, trailing CRC-32).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(CKPT_MAGIC, CKPT_VERSION, |w| {
            w.put_u64(self.next_slot);
            w.put_u64(self.fault_cursor);
            w.put_u64(self.billed_replica_slots);
            let locs: Vec<u32> = self.locations.iter().map(|k| k.0).collect();
            w.put_u32_slice(&locs);
            w.put_usize(self.requests.len());
            for req in &self.requests {
                put_request(w, req);
            }
            w.put_bool_slice(&self.alive);
            w.put_bool_slice(&self.alive_links);
            put_rng(w, &self.rng);
            put_rng(w, &self.mobility_rng);
            match &self.scaler {
                None => w.put_u8(0),
                Some(s) => {
                    w.put_u8(1);
                    put_scaler_state(w, s);
                }
            }
        })
    }

    /// Decode and validate a checkpoint image.
    ///
    /// # Errors
    /// Any [`CodecError`]: truncation, bad magic/version, checksum
    /// mismatch, or a structurally impossible field. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = open(bytes, CKPT_MAGIC, CKPT_VERSION)?;
        let next_slot = r.get_u64()?;
        let fault_cursor = r.get_u64()?;
        let billed_replica_slots = r.get_u64()?;
        let locations: Vec<NodeId> = r.get_u32_vec()?.into_iter().map(NodeId).collect();
        // Fixed part of a request: ids, two length prefixes, three rates.
        let n_requests = r.seq_len(48)?;
        let mut requests = Vec::with_capacity(n_requests);
        for _ in 0..n_requests {
            requests.push(get_request(&mut r)?);
        }
        let alive = r.get_bool_vec()?;
        let alive_links = r.get_bool_vec()?;
        let rng = get_rng(&mut r)?;
        let mobility_rng = get_rng(&mut r)?;
        let scaler = match r.get_u8()? {
            0 => None,
            1 => Some(get_scaler_state(&mut r)?),
            _ => return Err(CodecError::Malformed("scaler presence flag")),
        };
        r.finish()?;
        Ok(Self {
            next_slot,
            fault_cursor,
            billed_replica_slots,
            locations,
            requests,
            alive,
            alive_links,
            rng,
            mobility_rng,
            scaler,
        })
    }
}

/// Why a checkpoint could not be applied to a simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The image does not fit this run's configuration (wrong user count,
    /// node count, link count, control-plane presence, …).
    Mismatch(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Mismatch(what) => write!(f, "checkpoint/config mismatch: {what}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl OnlineSimulator {
    /// Freeze the complete live state. Valid at any slot boundary — i.e.
    /// any time [`step`](Self::step) is not executing.
    #[must_use]
    pub fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            next_slot: self.next_slot as u64,
            fault_cursor: self.fault_cursor as u64,
            billed_replica_slots: self.billed_replica_slots,
            locations: self.locations.clone(),
            requests: self.requests.clone(),
            alive: self.alive.clone(),
            alive_links: self.alive_links.clone(),
            rng: RngState::of(&self.rng),
            mobility_rng: {
                let (seed, stream, word_pos) = self.mobility.rng_state();
                RngState {
                    seed,
                    stream,
                    word_pos,
                }
            },
            scaler: self.scaler.as_ref().map(|s| s.state()),
        }
    }

    /// Apply a checkpoint taken from a simulator with the *same*
    /// configuration. Future [`step`](Self::step)s are bit-identical to
    /// the run the checkpoint was frozen from.
    ///
    /// The APSP cache is rebuilt from the substrate and re-masked to the
    /// saved alive-link set, not deserialized — derived state stays
    /// derived.
    ///
    /// # Errors
    /// [`RestoreError::Mismatch`] when any dimension of the image
    /// disagrees with this simulator's configuration; the simulator is
    /// left untouched in that case.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), RestoreError> {
        let users = self.cfg.users;
        if ck.locations.len() != users {
            return Err(RestoreError::Mismatch(format!(
                "{} locations for {} users",
                ck.locations.len(),
                users
            )));
        }
        if ck.requests.len() != users {
            return Err(RestoreError::Mismatch(format!(
                "{} requests for {} users",
                ck.requests.len(),
                users
            )));
        }
        if ck.alive.len() != self.cfg.nodes {
            return Err(RestoreError::Mismatch(format!(
                "{} alive flags for {} nodes",
                ck.alive.len(),
                self.cfg.nodes
            )));
        }
        if ck.alive_links.len() != self.base.net.link_count() {
            return Err(RestoreError::Mismatch(format!(
                "{} link flags for {} links",
                ck.alive_links.len(),
                self.base.net.link_count()
            )));
        }
        if ck.next_slot as usize > self.cfg.slots {
            return Err(RestoreError::Mismatch(format!(
                "next_slot {} past the {}-slot horizon",
                ck.next_slot, self.cfg.slots
            )));
        }
        if ck.fault_cursor as usize > self.cfg.faults.len() {
            return Err(RestoreError::Mismatch(format!(
                "fault cursor {} past the {}-event schedule",
                ck.fault_cursor,
                self.cfg.faults.len()
            )));
        }
        let nodes = self.cfg.nodes as u32;
        if ck.locations.iter().any(|k| k.0 >= nodes) {
            return Err(RestoreError::Mismatch("user located off-grid".into()));
        }
        let services = self.base.catalog.len() as u32;
        for req in &ck.requests {
            if req.chain.iter().any(|m| m.0 >= services) {
                return Err(RestoreError::Mismatch(
                    "request chain names an unknown service".into(),
                ));
            }
        }
        match (&mut self.scaler, &ck.scaler) {
            (None, None) => {}
            (Some(scaler), Some(state)) => {
                scaler
                    .restore_state(state)
                    .map_err(RestoreError::Mismatch)?;
            }
            (None, Some(_)) => {
                return Err(RestoreError::Mismatch(
                    "checkpoint has control-plane state but the run has no autoscaler".into(),
                ));
            }
            (Some(_), None) => {
                return Err(RestoreError::Mismatch(
                    "run has an autoscaler but the checkpoint has no control-plane state".into(),
                ));
            }
        }

        self.next_slot = ck.next_slot as usize;
        self.fault_cursor = ck.fault_cursor as usize;
        self.billed_replica_slots = ck.billed_replica_slots;
        self.locations = ck.locations.clone();
        self.requests = ck.requests.clone();
        self.alive = ck.alive.clone();
        self.alive_links = ck.alive_links.clone();
        self.rng = ck.rng.build();
        self.mobility.restore_rng(
            ck.mobility_rng.seed,
            ck.mobility_rng.stream,
            ck.mobility_rng.word_pos,
        );
        // Derived state: fresh cache over the substrate, masked to the
        // saved alive-link set (bit-identical to the uninterrupted run's
        // incrementally-maintained tables).
        self.apsp = socl_net::ApspCache::new(&self.base.net);
        let desired: Vec<f64> = self
            .base
            .net
            .links()
            .iter()
            .zip(&self.alive_links)
            .map(|(l, &up)| if up { l.rate() } else { 0.0 })
            .collect();
        self.apsp.sync_rates(&desired);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Slot metrics: the deterministic projection of a SlotRecord.
// ---------------------------------------------------------------------------

/// The deterministic subset of a [`SlotRecord`]: every field that must be
/// bit-identical between an uninterrupted run and a crash-recovered one.
/// Wall-clock durations (`solve_time`, `repair_time`) are excluded — they
/// measure this machine, not the simulated system. Floats are stored as
/// IEEE-754 bit patterns so equality is exact and `Eq` is derivable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotMetrics {
    /// Slot index.
    pub slot: u64,
    /// `SlotRecord::objective` as bits.
    pub objective_bits: u64,
    /// `SlotRecord::cost` as bits.
    pub cost_bits: u64,
    /// `SlotRecord::mean_latency` as bits.
    pub mean_latency_bits: u64,
    /// `SlotRecord::max_latency` as bits.
    pub max_latency_bits: u64,
    /// Requests that fell back to the cloud.
    pub fallbacks: u64,
    /// Nodes down during the slot.
    pub failed_nodes: u64,
    /// Mid-slot crashes.
    pub mid_slot_failures: u64,
    /// Instance churn from the repair pass.
    pub repair_churn: u64,
    /// Scale-up events.
    pub scale_ups: u64,
    /// Scale-down events.
    pub scale_downs: u64,
    /// Requests shed by admission control.
    pub shed_requests: u64,
    /// End-of-slot warm replicas.
    pub replicas: u32,
}

impl SlotMetrics {
    /// Project `record` onto its deterministic subset.
    #[must_use]
    pub fn of(record: &SlotRecord) -> Self {
        Self {
            slot: record.slot as u64,
            objective_bits: record.objective.to_bits(),
            cost_bits: record.cost.to_bits(),
            mean_latency_bits: record.mean_latency.to_bits(),
            max_latency_bits: record.max_latency.to_bits(),
            fallbacks: record.fallbacks as u64,
            failed_nodes: record.failed_nodes as u64,
            mid_slot_failures: record.mid_slot_failures as u64,
            repair_churn: record.repair_churn as u64,
            scale_ups: record.scale_ups as u64,
            scale_downs: record.scale_downs as u64,
            shed_requests: record.shed_requests as u64,
            replicas: record.replicas,
        }
    }

    /// The slot's weighted objective.
    #[must_use]
    pub fn objective(&self) -> f64 {
        f64::from_bits(self.objective_bits)
    }

    /// The slot's mean completion time (seconds).
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        f64::from_bits(self.mean_latency_bits)
    }

    fn encode(&self, w: &mut BinWriter) {
        w.put_u64(self.slot);
        w.put_u64(self.objective_bits);
        w.put_u64(self.cost_bits);
        w.put_u64(self.mean_latency_bits);
        w.put_u64(self.max_latency_bits);
        w.put_u64(self.fallbacks);
        w.put_u64(self.failed_nodes);
        w.put_u64(self.mid_slot_failures);
        w.put_u64(self.repair_churn);
        w.put_u64(self.scale_ups);
        w.put_u64(self.scale_downs);
        w.put_u64(self.shed_requests);
        w.put_u32(self.replicas);
    }

    fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            slot: r.get_u64()?,
            objective_bits: r.get_u64()?,
            cost_bits: r.get_u64()?,
            mean_latency_bits: r.get_u64()?,
            max_latency_bits: r.get_u64()?,
            fallbacks: r.get_u64()?,
            failed_nodes: r.get_u64()?,
            mid_slot_failures: r.get_u64()?,
            repair_churn: r.get_u64()?,
            scale_ups: r.get_u64()?,
            scale_downs: r.get_u64()?,
            shed_requests: r.get_u64()?,
            replicas: r.get_u32()?,
        })
    }
}

// ---------------------------------------------------------------------------
// The write-ahead decision log.
// ---------------------------------------------------------------------------

/// One durably-logged event. The log is written *ahead* of the externally
/// visible effect: a crash between a record and its effect loses at most
/// work the replay re-derives deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecord {
    /// A slot is about to execute.
    SlotBegin {
        /// Slot index.
        slot: u64,
    },
    /// A checkpoint image of `bytes` bytes was taken at this boundary.
    CheckpointTaken {
        /// Slot the checkpoint will resume at.
        slot: u64,
        /// Serialized size.
        bytes: u64,
    },
    /// The scheduled-fault cursor after the slot applied its window.
    FaultCursor {
        /// Slot index.
        slot: u64,
        /// Events consumed so far.
        cursor: u64,
    },
    /// The control loop scaled this slot.
    ScalerTick {
        /// Slot index.
        slot: u64,
        /// Scale-up events.
        ups: u64,
        /// Scale-down events.
        downs: u64,
    },
    /// Admission control shed requests this slot.
    Shed {
        /// Slot index.
        slot: u64,
        /// Requests refused.
        count: u64,
    },
    /// A mid-slot crash triggered the repair path.
    Repair {
        /// Slot index.
        slot: u64,
        /// Instance churn of the repair pass.
        churn: u64,
    },
    /// A slot finished with these deterministic metrics — the replay
    /// oracle: a restored run re-executing this slot must reproduce them
    /// bit for bit.
    SlotEnd {
        /// Slot index.
        slot: u64,
        /// The slot's deterministic metrics.
        metrics: SlotMetrics,
    },
}

impl Record for LogRecord {
    fn encode(&self, w: &mut BinWriter) {
        match self {
            LogRecord::SlotBegin { slot } => {
                w.put_u8(1);
                w.put_u64(*slot);
            }
            LogRecord::CheckpointTaken { slot, bytes } => {
                w.put_u8(2);
                w.put_u64(*slot);
                w.put_u64(*bytes);
            }
            LogRecord::FaultCursor { slot, cursor } => {
                w.put_u8(3);
                w.put_u64(*slot);
                w.put_u64(*cursor);
            }
            LogRecord::ScalerTick { slot, ups, downs } => {
                w.put_u8(4);
                w.put_u64(*slot);
                w.put_u64(*ups);
                w.put_u64(*downs);
            }
            LogRecord::Shed { slot, count } => {
                w.put_u8(5);
                w.put_u64(*slot);
                w.put_u64(*count);
            }
            LogRecord::Repair { slot, churn } => {
                w.put_u8(6);
                w.put_u64(*slot);
                w.put_u64(*churn);
            }
            LogRecord::SlotEnd { slot, metrics } => {
                w.put_u8(7);
                w.put_u64(*slot);
                metrics.encode(w);
            }
        }
    }

    fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            1 => LogRecord::SlotBegin { slot: r.get_u64()? },
            2 => LogRecord::CheckpointTaken {
                slot: r.get_u64()?,
                bytes: r.get_u64()?,
            },
            3 => LogRecord::FaultCursor {
                slot: r.get_u64()?,
                cursor: r.get_u64()?,
            },
            4 => LogRecord::ScalerTick {
                slot: r.get_u64()?,
                ups: r.get_u64()?,
                downs: r.get_u64()?,
            },
            5 => LogRecord::Shed {
                slot: r.get_u64()?,
                count: r.get_u64()?,
            },
            6 => LogRecord::Repair {
                slot: r.get_u64()?,
                churn: r.get_u64()?,
            },
            7 => LogRecord::SlotEnd {
                slot: r.get_u64()?,
                metrics: SlotMetrics::decode(r)?,
            },
            _ => return Err(CodecError::Malformed("unknown log record tag")),
        })
    }
}

/// The simulator's append-only write-ahead log: a [`Journal`] of
/// [`LogRecord`]s (framing, torn-tail truncation and the [`TailReport`] are
/// `socl_model::codec`'s).
pub type DecisionLog = Journal<LogRecord>;

// ---------------------------------------------------------------------------
// The invariant auditor.
// ---------------------------------------------------------------------------

/// Result of an invariant audit: human-readable violation descriptions,
/// empty when every invariant held.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// One entry per violated invariant.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// True when no invariant was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Audit the conservation laws a crash recovery must not bend, against a
/// simulator that has finished (or paused at) a slot boundary and the
/// slot-metric timeline that produced it. `timeline` must cover slots
/// `0..sim.next_slot()` in order.
///
/// Checks: population conservation (user and request vectors intact and
/// on-grid), slot-clock/timeline consistency, billing conservation
/// (`billed_replica_slots` equals the timeline's replica sum), replica
/// conservation (control-plane totals match the last slot; no warm pool
/// on a dead node), fault-cursor partition (consumed events strictly
/// before the clock, pending ones at or after), and cache-vs-rebuild
/// equivalence (the incremental APSP tables are bit-identical to a
/// from-scratch serial rebuild of the masked substrate).
#[must_use]
pub fn audit_invariants(sim: &OnlineSimulator, timeline: &[SlotMetrics]) -> AuditReport {
    let mut v = Vec::new();
    let cfg = &sim.cfg;

    // -- population conservation ------------------------------------------
    if sim.locations.len() != cfg.users {
        v.push(format!(
            "population: {} locations for {} users",
            sim.locations.len(),
            cfg.users
        ));
    }
    if sim.requests.len() != cfg.users {
        v.push(format!(
            "population: {} requests for {} users",
            sim.requests.len(),
            cfg.users
        ));
    }
    for (h, loc) in sim.locations.iter().enumerate() {
        if loc.idx() >= cfg.nodes {
            v.push(format!("population: user {h} located off-grid at {loc}"));
        }
    }
    // No stranded in-flight requests: every request is structurally whole
    // (the slot-granular layer holds no partial transfers).
    let services = sim.base.catalog.len() as u32;
    for (h, req) in sim.requests.iter().enumerate() {
        if req.chain.is_empty() {
            v.push(format!("requests: user {h} has an empty chain"));
        } else if req.edge_data.len() + 1 != req.chain.len() {
            v.push(format!("requests: user {h} has a torn edge_data vector"));
        }
        if req.chain.iter().any(|m| m.0 >= services) {
            v.push(format!("requests: user {h} names an unknown service"));
        }
    }

    // -- slot clock vs timeline -------------------------------------------
    if timeline.len() != sim.next_slot {
        v.push(format!(
            "clock: timeline has {} slots but the clock is at {}",
            timeline.len(),
            sim.next_slot
        ));
    }
    for (i, m) in timeline.iter().enumerate() {
        if m.slot != i as u64 {
            v.push(format!("clock: timeline entry {i} carries slot {}", m.slot));
            break;
        }
    }

    // -- billing conservation ---------------------------------------------
    let billed: u64 = timeline
        .iter()
        .fold(0u64, |acc, m| acc.saturating_add(u64::from(m.replicas)));
    if billed != sim.billed_replica_slots {
        v.push(format!(
            "billing: accumulator says {} replica-slots, timeline sums to {billed}",
            sim.billed_replica_slots
        ));
    }

    // -- replica conservation ---------------------------------------------
    if let Some(scaler) = sim.scaler.as_ref() {
        let total = scaler.counts().total();
        if let Some(last) = timeline.last() {
            if total != last.replicas {
                v.push(format!(
                    "replicas: control plane holds {total}, last slot recorded {}",
                    last.replicas
                ));
            }
        }
        let last_mid_slot_crash = timeline.last().is_some_and(|m| m.mid_slot_failures > 0);
        for (m, k, c) in scaler.counts().iter_positive() {
            if k.idx() >= cfg.nodes {
                v.push(format!(
                    "replicas: {c} warm replicas of {m} off-grid at {k}"
                ));
            } else if !sim.alive.get(k.idx()).copied().unwrap_or(false) && !last_mid_slot_crash {
                // A mid-slot crash in the *final* slot may legitimately
                // leave re-homed state mid-transition; any earlier crash
                // must have been cleaned up by the next slot's merge.
                v.push(format!(
                    "replicas: {c} warm replicas of {m} on dead node {k}"
                ));
            }
        }
    }

    // -- user coverage ----------------------------------------------------
    if !sim.alive.iter().any(|&a| a) {
        v.push("coverage: no node is alive".into());
    }
    let last_mid_slot_crash = timeline.last().is_some_and(|m| m.mid_slot_failures > 0);
    if !last_mid_slot_crash {
        // Users detour off dead stations during each slot's advance; only a
        // crash *after* the final advance may leave one stranded.
        for (h, loc) in sim.locations.iter().enumerate() {
            if loc.idx() < cfg.nodes && !sim.alive.get(loc.idx()).copied().unwrap_or(false) {
                v.push(format!("coverage: user {h} stranded on dead station {loc}"));
            }
        }
    }

    // -- fault-cursor partition -------------------------------------------
    let boundary = sim.next_slot as f64 * cfg.slot_secs;
    if sim.fault_cursor > cfg.faults.len() {
        v.push(format!(
            "faults: cursor {} past the {}-event schedule",
            sim.fault_cursor,
            cfg.faults.len()
        ));
    } else {
        for (i, ev) in cfg.faults.events().iter().enumerate() {
            if i < sim.fault_cursor && ev.time >= boundary {
                v.push(format!(
                    "faults: consumed event {i} at t={} lies at/after the clock boundary {boundary}",
                    ev.time
                ));
            }
            if i >= sim.fault_cursor && ev.time < boundary {
                v.push(format!(
                    "faults: pending event {i} at t={} lies before the clock boundary {boundary}",
                    ev.time
                ));
            }
        }
    }

    // -- cache-vs-rebuild equivalence --------------------------------------
    let mut net = socl_net::EdgeNetwork::new();
    for k in sim.base.net.node_ids() {
        net.push_server(sim.base.net.server(k).clone());
    }
    for (idx, link) in sim.base.net.links().iter().enumerate() {
        if sim.alive_links.get(idx).copied().unwrap_or(false) {
            net.add_link(link.a, link.b, link.params);
        }
    }
    let rebuilt = socl_net::AllPairs::build_serial(&net);
    if !sim.apsp.all_pairs().identical(&rebuilt) {
        v.push("apsp: incremental cache diverged from a from-scratch rebuild".into());
    }

    AuditReport { violations: v }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineConfig;
    use crate::policy::Policy;
    use socl_core::SoclConfig;

    fn small_cfg(seed: u64) -> OnlineConfig {
        OnlineConfig {
            slots: 8,
            users: 18,
            nodes: 8,
            fail_prob: 0.3,
            recover_prob: 0.4,
            seed,
            ..OnlineConfig::default()
        }
    }

    fn scaled_cfg(seed: u64) -> OnlineConfig {
        OnlineConfig {
            autoscale: Some(socl_autoscale::AutoscaleConfig {
                min_replicas: 1,
                stable_window: 8.0,
                panic_window: 2.0,
                scale_interval: 1.0,
                down_cooldown: 2.0,
                keep_alive: socl_autoscale::KeepAlivePolicy::Fixed(2.0),
                ..socl_autoscale::AutoscaleConfig::default()
            }),
            mid_slot_fail_prob: 0.4,
            repair: true,
            ..small_cfg(seed)
        }
    }

    fn no_measure(_: &socl_model::Scenario, _: &socl_model::Placement) -> Option<(f64, f64)> {
        None
    }

    fn policy() -> Policy {
        Policy::Socl(SoclConfig::default())
    }

    fn run_metrics(sim: &mut OnlineSimulator, policy: &Policy) -> Vec<SlotMetrics> {
        let mut out = Vec::new();
        while sim.next_slot() < sim.cfg.slots {
            let r = sim.step(policy, &mut no_measure);
            out.push(SlotMetrics::of(&r));
        }
        out
    }

    #[test]
    fn checkpoint_roundtrips_through_bytes_bit_exactly() {
        let mut sim = OnlineSimulator::new(scaled_cfg(11));
        let p = policy();
        for _ in 0..3 {
            sim.step(&p, &mut no_measure);
        }
        let ck = sim.snapshot();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("clean image must decode");
        assert_eq!(ck, back);
    }

    #[test]
    fn restore_resumes_bit_identically_mid_run() {
        let p = policy();
        for cfg in [small_cfg(5), scaled_cfg(5)] {
            // Golden: uninterrupted.
            let mut golden_sim = OnlineSimulator::new(cfg.clone());
            let golden = run_metrics(&mut golden_sim, &p);
            // Victim: stop after 3 slots, freeze, thaw into a *fresh* sim.
            let mut victim = OnlineSimulator::new(cfg.clone());
            for _ in 0..3 {
                victim.step(&p, &mut no_measure);
            }
            let ck = Checkpoint::from_bytes(&victim.snapshot().to_bytes())
                .expect("checkpoint must decode");
            drop(victim);
            let mut thawed = OnlineSimulator::new(cfg.clone());
            thawed.restore(&ck).expect("restore must apply");
            assert_eq!(thawed.next_slot(), 3);
            let suffix = run_metrics(&mut thawed, &p);
            assert_eq!(
                &golden[3..],
                &suffix[..],
                "restored run diverged from golden"
            );
        }
    }

    #[test]
    fn snapshot_restore_is_observationally_identity_in_place() {
        let p = policy();
        let cfg = scaled_cfg(19);
        let mut a = OnlineSimulator::new(cfg.clone());
        let mut b = OnlineSimulator::new(cfg);
        for _ in 0..4 {
            a.step(&p, &mut no_measure);
            b.step(&p, &mut no_measure);
        }
        // Freeze/thaw `b` in place; `a` is untouched.
        let ck = b.snapshot();
        b.restore(&ck).expect("self-restore must apply");
        assert_eq!(run_metrics(&mut a, &p), run_metrics(&mut b, &p));
    }

    #[test]
    fn corrupted_checkpoints_error_and_never_panic() {
        let mut sim = OnlineSimulator::new(scaled_cfg(23));
        let p = policy();
        sim.step(&p, &mut no_measure);
        let bytes = sim.snapshot().to_bytes();
        // Truncation at every prefix length.
        for cut in 0..bytes.len().min(64) {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err());
        }
        // Single-byte corruption at a sample of positions: the trailing
        // CRC catches every one of them.
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn restore_rejects_a_checkpoint_from_another_shape() {
        let p = policy();
        let mut donor = OnlineSimulator::new(small_cfg(3));
        donor.step(&p, &mut no_measure);
        let ck = donor.snapshot();
        // Different user count.
        let mut other = OnlineSimulator::new(OnlineConfig {
            users: 5,
            ..small_cfg(3)
        });
        assert!(other.restore(&ck).is_err());
        // Control-plane presence mismatch.
        let mut scaled = OnlineSimulator::new(scaled_cfg(3));
        assert!(scaled.restore(&ck).is_err());
    }

    #[test]
    fn decision_log_roundtrips_and_truncates_torn_tails() {
        let mut log = DecisionLog::new();
        let metrics = SlotMetrics {
            slot: 2,
            objective_bits: 1.5f64.to_bits(),
            cost_bits: 2.5f64.to_bits(),
            mean_latency_bits: 0.25f64.to_bits(),
            max_latency_bits: 0.5f64.to_bits(),
            fallbacks: 1,
            failed_nodes: 2,
            mid_slot_failures: 0,
            repair_churn: 0,
            scale_ups: 3,
            scale_downs: 1,
            shed_requests: 4,
            replicas: 17,
        };
        let records = vec![
            LogRecord::CheckpointTaken { slot: 0, bytes: 99 },
            LogRecord::SlotBegin { slot: 2 },
            LogRecord::FaultCursor { slot: 2, cursor: 1 },
            LogRecord::ScalerTick {
                slot: 2,
                ups: 3,
                downs: 1,
            },
            LogRecord::Shed { slot: 2, count: 4 },
            LogRecord::Repair { slot: 2, churn: 6 },
            LogRecord::SlotEnd { slot: 2, metrics },
        ];
        for r in &records {
            log.append(r);
        }
        assert_eq!(log.records().expect("clean log"), records);

        // Torn tail: garbage after the last frame.
        let mut wire = log.as_bytes().to_vec();
        wire.extend_from_slice(&[1, 2, 3]);
        let (clean, tail) = DecisionLog::from_bytes(&wire);
        assert_eq!(clean.records().expect("clean prefix"), records);
        assert_eq!(tail.clean_records, records.len());
        assert_eq!(tail.truncated_bytes, 3);
        assert_eq!(tail.reason, Some(TornTailReason::TruncatedFrame));

        // Torn tail: a frame whose payload was corrupted in place.
        let mut wire = log.as_bytes().to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        let (clean, tail) = DecisionLog::from_bytes(&wire);
        assert_eq!(
            clean.records().expect("clean prefix").len(),
            records.len() - 1
        );
        assert_eq!(tail.reason, Some(TornTailReason::ChecksumMismatch));
    }

    #[test]
    fn auditor_flags_a_cooked_timeline() {
        let p = policy();
        let mut sim = OnlineSimulator::new(small_cfg(17));
        let mut timeline = run_metrics(&mut sim, &p);
        assert!(audit_invariants(&sim, &timeline).is_clean());
        // Cook the books: claim a replica that was never billed.
        if let Some(last) = timeline.last_mut() {
            last.replicas += 1;
        }
        let report = audit_invariants(&sim, &timeline);
        assert!(
            report.violations.iter().any(|v| v.starts_with("billing")),
            "billing fraud went undetected: {:?}",
            report.violations
        );
    }
}
