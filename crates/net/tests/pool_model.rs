//! Model check of the `socl_net::par` worker-pool protocol.
//!
//! The `loom` crate is the usual tool for this, but it is not available in
//! this build environment, so the pool's concurrency protocol is model
//! checked in-tree instead: the protocol is small enough (one atomic
//! fetch-add cursor, one mutex-guarded part list, scoped join) that its
//! schedule space for small configurations can be enumerated *exhaustively*.
//!
//! Soundness of the model: the pool touches shared state at exactly two
//! kinds of points — the `fetch_add` on the chunk cursor (an atomic RMW,
//! indivisible even under `Ordering::Relaxed`) and the mutex-guarded
//! `parts.push` (the lock is the only access path, so the critical section
//! is observably one step). Everything between those points is thread-local.
//! A worker is therefore the loop `Fetch → (Push | Done)`, and every real
//! execution corresponds to one interleaving of those atomic steps. The
//! model explores *all* such interleavings via DFS and asserts, at every
//! terminal state, the invariants the pool's correctness rests on:
//!
//! 1. claimed chunk starts are unique and chunk-aligned (no double claim),
//! 2. the pushed chunks tile `0..n` exactly (no loss, no overlap),
//! 3. sort-by-start reassembly reproduces the serial output,
//! 4. every schedule terminates (the cursor is strictly monotone).
//!
//! What this cannot cover — and `loom` would — is weak-memory reordering of
//! *other* locations around the relaxed cursor. The protocol is insensitive
//! to that by construction: no thread reads data another thread wrote
//! without the mutex (release/acquire) or the scope join in between. The
//! `real_pool_*` tests at the bottom exercise the actual implementation
//! against the same invariants under the OS scheduler.

#![allow(clippy::unreachable, clippy::disallowed_methods, reason = "test code")]

use socl_net::par::{par_map_indexed_with, par_map_with};

/// Per-worker program counter over the protocol's atomic steps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pc {
    /// About to `fetch_add` the cursor.
    Fetch,
    /// Claimed `(start, end)`, about to lock and push it.
    Push(usize, usize),
    /// Observed `start >= n` and exited.
    Done,
}

/// Shared + per-thread state of the modeled pool.
#[derive(Clone)]
struct Model {
    n: usize,
    chunk: usize,
    cursor: usize,
    /// Pushed parts in push order: `(start, end)`.
    parts: Vec<(usize, usize)>,
    pc: Vec<Pc>,
}

impl Model {
    fn new(n: usize, threads: usize, chunk: usize) -> Self {
        Model {
            n,
            chunk,
            cursor: 0,
            parts: Vec::new(),
            pc: vec![Pc::Fetch; threads],
        }
    }

    fn runnable(&self) -> Vec<usize> {
        (0..self.pc.len())
            .filter(|&t| self.pc[t] != Pc::Done)
            .collect()
    }

    /// Execute thread `t`'s next atomic step.
    fn step(&mut self, t: usize) {
        match self.pc[t] {
            Pc::Fetch => {
                let start = self.cursor;
                self.cursor += self.chunk; // atomic RMW: indivisible
                if start >= self.n {
                    self.pc[t] = Pc::Done;
                } else {
                    self.pc[t] = Pc::Push(start, (start + self.chunk).min(self.n));
                }
            }
            Pc::Push(start, end) => {
                self.parts.push((start, end)); // mutex: one observable step
                self.pc[t] = Pc::Fetch;
            }
            Pc::Done => unreachable!("done threads are never scheduled"),
        }
    }

    /// Invariants that must hold in every terminal state.
    fn check_terminal(&self) {
        // 1. Unique, aligned claims.
        let mut starts: Vec<usize> = self.parts.iter().map(|&(s, _)| s).collect();
        let pushed = starts.len();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(
            starts.len(),
            pushed,
            "duplicate chunk claim: {:?}",
            self.parts
        );
        for &(s, e) in &self.parts {
            assert_eq!(s % self.chunk, 0, "unaligned claim {s}");
            assert!(s < self.n && e <= self.n && s < e, "bad claim ({s}, {e})");
        }
        // 2–3. Sorted reassembly tiles 0..n exactly (the serial output).
        let mut sorted = self.parts.clone();
        sorted.sort_by_key(|&(s, _)| s);
        let mut next = 0usize;
        for &(s, e) in &sorted {
            assert_eq!(s, next, "gap or overlap at {s} (expected {next})");
            next = e;
        }
        assert_eq!(next, self.n, "chunks do not cover 0..{}", self.n);
        // 4. Bounded overshoot: the cursor advances once per successful
        // claim (chunk-aligned coverage of 0..n) plus at most one failed
        // fetch per thread.
        let claimed = self.n.div_ceil(self.chunk) * self.chunk;
        assert!(self.cursor <= claimed + self.pc.len() * self.chunk);
    }
}

/// Exhaustive DFS over all schedules; returns the number of terminal states
/// visited (distinct complete schedules).
fn explore(m: &Model, budget: &mut usize) -> usize {
    let runnable = m.runnable();
    if runnable.is_empty() {
        m.check_terminal();
        return 1;
    }
    assert!(*budget > 0, "schedule-space budget exhausted");
    *budget -= 1;
    let mut terminals = 0;
    for t in runnable {
        let mut next = m.clone();
        next.step(t);
        terminals += explore(&next, budget);
    }
    terminals
}

#[test]
fn exhaustive_small_configs() {
    // Every (n, threads, chunk) small enough to enumerate completely.
    let mut total = 0usize;
    for n in 0..=4 {
        for threads in 1..=3 {
            for chunk in 1..=2 {
                let mut budget = 5_000_000;
                total += explore(&Model::new(n, threads, chunk), &mut budget);
            }
        }
    }
    // The explorer must actually branch: a broken scheduler that only ever
    // runs thread 0 would visit exactly one schedule per config.
    assert!(total > 10_000, "only {total} schedules explored");
}

#[test]
fn exhaustive_skewed_chunking() {
    // chunk larger than n, chunk not dividing n, single-item tails.
    for (n, threads, chunk) in [(1, 3, 4), (5, 2, 3), (4, 2, 4), (3, 3, 2)] {
        let mut budget = 5_000_000;
        let count = explore(&Model::new(n, threads, chunk), &mut budget);
        assert!(count >= 1);
    }
}

/// Deterministic LCG so the randomized walk is reproducible (no
/// `thread_rng` — rule L3 bans ambient randomness in this crate's tests
/// feeding CI).
struct Lcg(u64);
impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound
    }
}

#[test]
fn random_walks_on_larger_configs() {
    // Too big to enumerate; sample many schedules instead. CI's nightly
    // pool-model job raises the walk count via POOL_MODEL_WALKS.
    let walks: usize = std::env::var("POOL_MODEL_WALKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    for (n, threads, chunk) in [(16, 4, 2), (33, 5, 3), (64, 8, 8)] {
        let mut rng = Lcg(0x5eed ^ (n as u64) << 16 ^ (threads as u64));
        for _ in 0..walks {
            let mut m = Model::new(n, threads, chunk);
            loop {
                let runnable = m.runnable();
                if runnable.is_empty() {
                    break;
                }
                let pick = runnable[rng.next(runnable.len())];
                m.step(pick);
            }
            m.check_terminal();
        }
    }
}

// ---------------------------------------------------------------------------
// The real pool, driven under the OS scheduler against the same contract.
// ---------------------------------------------------------------------------

#[test]
fn real_pool_matches_serial_for_all_thread_counts() {
    for n in [0usize, 1, 2, 3, 7, 64, 257, 1000] {
        let serial: Vec<u64> = (0..n)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 4, 5, 8, 16, 33] {
            let par = par_map_indexed_with(n, threads, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(par, serial, "n={n} threads={threads}");
        }
    }
}

#[test]
fn real_pool_balances_skewed_work_deterministically() {
    // Per-item cost varies by 100x; chunk claiming must still reassemble in
    // index order, bit-identically to serial.
    let items: Vec<usize> = (0..97).collect();
    let work = |&i: &usize| -> f64 {
        let spins = if i % 7 == 0 { 10_000 } else { 100 };
        let mut acc = i as f64;
        for k in 1..spins {
            acc += 1.0 / (k as f64 * (i + 1) as f64);
        }
        acc
    };
    let serial: Vec<f64> = items.iter().map(work).collect();
    for threads in [2, 4, 8] {
        for _ in 0..8 {
            let got = par_map_with(&items, threads, work);
            // Bit-identical, not approximately equal: determinism contract.
            assert!(
                got.iter()
                    .zip(&serial)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads}"
            );
        }
    }
}

#[test]
fn real_pool_propagates_worker_panics() {
    let result = std::panic::catch_unwind(|| {
        par_map_indexed_with(64, 4, |i| {
            if i == 37 {
                panic!("worker failure must surface at join");
            }
            i
        })
    });
    assert!(result.is_err(), "panic in a worker was swallowed");
}
