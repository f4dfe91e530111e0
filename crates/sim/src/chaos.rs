//! Coverage-guided chaos soak over the crash-recovery machinery.
//!
//! One [`run_crash_recovery`] exercise proves recovery at *one*
//! `(seed, kill-point, fault schedule, torn tail)` combination. The soak
//! sweeps a matrix of them and then goes where the matrix didn't: every
//! run reports which behaviors it actually exercised (mid-slot crashes,
//! repairs, admission sheds, scheduled faults, torn-tail kinds, replay
//! depths…), and runs that light up *new* coverage seed a guided round
//! of deterministic neighbors (adjacent kill-points, derived seeds) —
//! the cheap half of a coverage-guided fuzzer, with the determinism the
//! rest of the codebase demands: same plan, same runs, same summary.
//!
//! Every run's recovered timeline must match its golden run bit for bit
//! and pass the [`audit_invariants`] auditor; the summary counts any
//! violation so a CI gate can fail on `violations > 0`.

use crate::faults::{FaultPlan, FaultSchedule};
use crate::online::OnlineConfig;
use crate::policy::Policy;
use crate::recovery::{run_crash_recovery, RecoveryConfig, RecoveryError, TornTail};
use std::collections::BTreeSet;
use std::time::Duration;

/// The soak's sweep matrix plus guidance budget.
#[derive(Debug, Clone)]
pub struct SoakPlan {
    /// Base run configuration; each soak run overrides `seed` and
    /// `faults`.
    pub base: OnlineConfig,
    /// Placement policy under test.
    pub policy: Policy,
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
    /// Kill-points (slot boundaries) to sweep.
    pub kill_slots: Vec<usize>,
    /// Checkpoint cadence for every run.
    pub checkpoint_every: usize,
    /// Also sweep a generated moderate fault schedule per seed (in
    /// addition to the empty schedule).
    pub with_fault_schedules: bool,
    /// Torn-tail modes to sweep.
    pub torn_tails: Vec<TornTail>,
    /// Extra guided runs budget: neighbors of coverage-discovering runs.
    pub guided_rounds: usize,
}

impl SoakPlan {
    /// A small deterministic plan suitable for CI: 2 seeds × 3
    /// kill-points × {empty, moderate} schedules × all torn-tail modes,
    /// plus a few guided rounds.
    #[must_use]
    pub fn ci(base: OnlineConfig, policy: Policy) -> Self {
        let slots = base.slots;
        Self {
            base,
            policy,
            seeds: vec![1, 2],
            kill_slots: vec![0, slots / 2, slots.saturating_sub(1)],
            checkpoint_every: 3,
            with_fault_schedules: true,
            torn_tails: vec![TornTail::Clean, TornTail::Garbage, TornTail::PartialRecord],
            guided_rounds: 4,
        }
    }
}

/// Identity of one soak run within the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(clippy::disallowed_methods, reason = "derived over integer fields")]
pub struct SoakCase {
    /// Run seed.
    pub seed: u64,
    /// Kill-point (slot boundary).
    pub kill_slot: usize,
    /// Whether a generated fault schedule was active.
    pub faulted: bool,
    /// Torn-tail mode (ordinal, for ordering).
    pub torn: u8,
}

fn torn_of(ord: u8) -> TornTail {
    match ord {
        1 => TornTail::Garbage,
        2 => TornTail::PartialRecord,
        _ => TornTail::Clean,
    }
}

fn torn_ord(t: TornTail) -> u8 {
    match t {
        TornTail::Clean => 0,
        TornTail::Garbage => 1,
        TornTail::PartialRecord => 2,
    }
}

/// One soak run's outcome, flattened for reporting.
#[derive(Debug, Clone)]
pub struct SoakRow {
    /// Which case ran.
    pub case: SoakCase,
    /// Whether this run came from the guided rounds.
    pub guided: bool,
    /// Slot the recovery restored from.
    pub restored_from_slot: usize,
    /// Slots re-executed up to the kill-point.
    pub replayed_slots: usize,
    /// Stitched-vs-golden bit mismatches (must be 0).
    pub metric_mismatches: usize,
    /// Replay-vs-log bit mismatches (must be 0).
    pub replay_log_mismatches: usize,
    /// Invariant violations found by the auditor (must be empty).
    pub violations: Vec<String>,
    /// Serialized checkpoint size.
    pub checkpoint_bytes: usize,
    /// Log size at the kill.
    pub log_bytes: usize,
    /// Wall-clock of checkpoint serialization during the victim run.
    pub checkpoint_wall: Duration,
    /// Wall-clock of the recovery (scan + decode + restore + replay).
    pub recovery_wall: Duration,
    /// Coverage features this run exercised.
    pub features: Vec<&'static str>,
}

/// Aggregated soak results.
#[derive(Debug, Clone)]
pub struct SoakSummary {
    /// Every run, in execution order (matrix first, then guided).
    pub rows: Vec<SoakRow>,
    /// Total invariant violations across all runs.
    pub violations: usize,
    /// Runs whose recovered timeline differed from golden.
    pub mismatch_runs: usize,
    /// Distinct coverage features exercised, sorted.
    pub coverage: Vec<&'static str>,
    /// Largest checkpoint seen.
    pub max_checkpoint_bytes: usize,
    /// Mean checkpoint size across runs.
    pub mean_checkpoint_bytes: f64,
    /// Mean log size at the kill.
    pub mean_log_bytes: f64,
}

impl SoakSummary {
    /// True when every run matched golden and passed the audit.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations == 0 && self.mismatch_runs == 0
    }
}

/// Why the soak aborted (any single run failing to *complete* — match
/// failures are reported in the summary, not here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakError {
    /// The case that failed.
    pub case: SoakCase,
    /// The underlying recovery failure.
    pub error: RecoveryError,
}

impl std::fmt::Display for SoakError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "soak case seed={} kill={} faulted={} torn={}: {}",
            self.case.seed, self.case.kill_slot, self.case.faulted, self.case.torn, self.error
        )
    }
}

impl std::error::Error for SoakError {}

fn schedule_for(base: &OnlineConfig, policy: &Policy, seed: u64) -> FaultSchedule {
    // Build the substrate once per seed to target the generated plan at
    // the actual topology and a representative placement.
    let cfg = OnlineConfig {
        seed,
        faults: FaultSchedule::empty(),
        ..base.clone()
    };
    let sim = crate::online::OnlineSimulator::new(cfg);
    let sc = sim.base();
    let placement = policy.place(sc, 0);
    let horizon = base.slots as f64 * base.slot_secs;
    FaultPlan::moderate(horizon).generate(&sc.net, &placement, base.users, seed)
}

fn features_of(row_case: &SoakCase, out: &crate::recovery::RecoveryOutcome) -> Vec<&'static str> {
    let mut f = Vec::new();
    if out.stitched.iter().any(|m| m.mid_slot_failures > 0) {
        f.push("mid-slot-crash");
    }
    if out.stitched.iter().any(|m| m.repair_churn > 0) {
        f.push("repair-churn");
    }
    if out.stitched.iter().any(|m| m.shed_requests > 0) {
        f.push("admission-shed");
    }
    if out.stitched.iter().any(|m| m.failed_nodes > 0) {
        f.push("node-outage");
    }
    if out.stitched.iter().any(|m| m.scale_ups > 0) {
        f.push("scale-up");
    }
    if out.stitched.iter().any(|m| m.scale_downs > 0) {
        f.push("scale-down");
    }
    if row_case.faulted {
        f.push("scheduled-faults");
    }
    match torn_of(row_case.torn) {
        TornTail::Clean => {}
        TornTail::Garbage => f.push("torn-garbage"),
        TornTail::PartialRecord => f.push("torn-partial-record"),
    }
    if out.truncated_tail_bytes > 0 {
        f.push("tail-truncated");
    }
    if out.replayed_slots == 0 {
        f.push("replay-empty");
    } else if out.replayed_slots >= 3 {
        f.push("replay-deep");
    }
    if out.restored_from_slot == row_case.kill_slot {
        f.push("kill-on-checkpoint");
    }
    f
}

fn run_case(
    plan: &SoakPlan,
    case: SoakCase,
    guided: bool,
) -> Result<(SoakRow, BTreeSet<&'static str>), SoakError> {
    let faults = if case.faulted {
        schedule_for(&plan.base, &plan.policy, case.seed)
    } else {
        FaultSchedule::empty()
    };
    let cfg = OnlineConfig {
        seed: case.seed,
        faults,
        ..plan.base.clone()
    };
    let rcfg = RecoveryConfig {
        checkpoint_every: plan.checkpoint_every.max(1),
        kill_at_slot: case.kill_slot,
        torn_tail: torn_of(case.torn),
    };
    let out =
        run_crash_recovery(&cfg, &plan.policy, &rcfg).map_err(|error| SoakError { case, error })?;
    let features = features_of(&case, &out);
    let feature_set: BTreeSet<&'static str> = features.iter().copied().collect();
    Ok((
        SoakRow {
            case,
            guided,
            restored_from_slot: out.restored_from_slot,
            replayed_slots: out.replayed_slots,
            metric_mismatches: out.metric_mismatches,
            replay_log_mismatches: out.replay_log_mismatches,
            violations: out.audit.violations,
            checkpoint_bytes: out.checkpoint_bytes,
            log_bytes: out.log_bytes,
            checkpoint_wall: out.checkpoint_wall,
            recovery_wall: out.recovery_wall,
            features,
        },
        feature_set,
    ))
}

/// Execute the full soak: the base matrix, then coverage-guided
/// neighbors of every run that exercised a feature no earlier run had.
///
/// Fully deterministic: the same plan produces the same runs in the
/// same order with the same summary (wall-clock fields excepted).
///
/// # Errors
/// [`SoakError`] when a run fails to *complete* (checkpoint decode or
/// restore failure) — a recovered-but-wrong run is not an error; it is
/// reported through the summary's violation and mismatch counters.
pub fn run_chaos_soak(plan: &SoakPlan) -> Result<SoakSummary, SoakError> {
    let mut rows = Vec::new();
    let mut seen_cases: BTreeSet<SoakCase> = BTreeSet::new();
    let mut coverage: BTreeSet<&'static str> = BTreeSet::new();
    let mut frontier: Vec<SoakCase> = Vec::new();

    // -- the base matrix --------------------------------------------------
    for &seed in &plan.seeds {
        for &kill_slot in &plan.kill_slots {
            for faulted in [false, plan.with_fault_schedules] {
                for &tt in &plan.torn_tails {
                    let case = SoakCase {
                        seed,
                        kill_slot,
                        faulted,
                        torn: torn_ord(tt),
                    };
                    if !seen_cases.insert(case) {
                        continue;
                    }
                    let (row, features) = run_case(plan, case, false)?;
                    let novel = features.iter().any(|f| !coverage.contains(f));
                    coverage.extend(features);
                    if novel {
                        frontier.push(case);
                    }
                    rows.push(row);
                }
            }
        }
    }

    // -- guided rounds: walk the neighbors of coverage-discovering runs --
    let mut budget = plan.guided_rounds;
    let mut cursor = 0usize;
    while budget > 0 {
        let Some(&case) = frontier.get(cursor) else {
            break;
        };
        cursor += 1;
        let neighbors = [
            SoakCase {
                kill_slot: case.kill_slot.saturating_sub(1),
                ..case
            },
            SoakCase {
                kill_slot: (case.kill_slot + 1).min(plan.base.slots),
                ..case
            },
            SoakCase {
                seed: case.seed.wrapping_add(1009),
                ..case
            },
        ];
        for n in neighbors {
            if budget == 0 {
                break;
            }
            if !seen_cases.insert(n) {
                continue;
            }
            budget -= 1;
            let (row, features) = run_case(plan, n, true)?;
            let novel = features.iter().any(|f| !coverage.contains(f));
            coverage.extend(features);
            if novel {
                frontier.push(n);
            }
            rows.push(row);
        }
    }

    // -- aggregate --------------------------------------------------------
    let violations = rows.iter().map(|r| r.violations.len()).sum();
    let mismatch_runs = rows
        .iter()
        .filter(|r| r.metric_mismatches > 0 || r.replay_log_mismatches > 0)
        .count();
    let max_checkpoint_bytes = rows.iter().map(|r| r.checkpoint_bytes).max().unwrap_or(0);
    let n = rows.len().max(1) as f64;
    let mean_checkpoint_bytes = rows.iter().map(|r| r.checkpoint_bytes as f64).sum::<f64>() / n;
    let mean_log_bytes = rows.iter().map(|r| r.log_bytes as f64).sum::<f64>() / n;
    Ok(SoakSummary {
        rows,
        violations,
        mismatch_runs,
        coverage: coverage.into_iter().collect(),
        max_checkpoint_bytes,
        mean_checkpoint_bytes,
        mean_log_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_autoscale::{AdmissionPolicy, AutoscaleConfig, ScalingMode};
    use socl_core::SoclConfig;

    /// Small, but control-plane-heavy enough to reach the behaviours
    /// recovery has to survive: mid-slot crashes, repairs, scaling,
    /// admission sheds, every torn-tail mode, empty and deep replays.
    fn quick_plan() -> SoakPlan {
        SoakPlan {
            base: OnlineConfig {
                slots: 6,
                users: 16,
                nodes: 8,
                fail_prob: 0.3,
                mid_slot_fail_prob: 0.3,
                recover_prob: 0.4,
                repair: true,
                autoscale: Some(AutoscaleConfig {
                    mode: ScalingMode::Reactive,
                    admission: AdmissionPolicy {
                        enabled: true,
                        ..AutoscaleConfig::default().admission
                    },
                    ..AutoscaleConfig::default()
                }),
                ..OnlineConfig::default()
            },
            policy: Policy::Socl(SoclConfig::default()),
            seeds: vec![1],
            kill_slots: vec![0, 3, 5],
            checkpoint_every: 4,
            with_fault_schedules: true,
            torn_tails: vec![TornTail::Clean, TornTail::Garbage, TornTail::PartialRecord],
            guided_rounds: 2,
        }
    }

    #[test]
    fn soak_is_clean_and_deterministic() {
        let plan = quick_plan();
        let a = run_chaos_soak(&plan).expect("soak must complete");
        assert!(a.is_clean(), "violations: {:?}", a.rows);
        assert!(!a.rows.is_empty());
        // Fewer features means the plan stopped reaching what recovery is
        // supposed to survive; a large image means derived state leaked in.
        assert!(a.coverage.len() >= 8, "coverage: {:?}", a.coverage);
        assert!(a.max_checkpoint_bytes <= 64 * 1024);
        let b = run_chaos_soak(&plan).expect("soak must complete");
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.case, rb.case);
            assert_eq!(ra.features, rb.features);
            assert_eq!(ra.checkpoint_bytes, rb.checkpoint_bytes);
        }
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn soak_exercises_torn_tails_and_schedules() {
        let summary = run_chaos_soak(&quick_plan()).expect("soak must complete");
        assert!(
            summary.coverage.contains(&"torn-garbage"),
            "coverage: {:?}",
            summary.coverage
        );
        assert!(
            summary.coverage.contains(&"scheduled-faults"),
            "coverage: {:?}",
            summary.coverage
        );
        // Guided rounds actually ran.
        assert!(
            summary.rows.iter().any(|r| r.guided),
            "no guided run executed"
        );
        // The kill-at-0 case restores from the mandatory slot-0 checkpoint.
        assert!(summary
            .rows
            .iter()
            .any(|r| r.case.kill_slot == 0 && r.restored_from_slot == 0));
    }
}
