//! Deterministic fork-join parallelism for the hot paths.
//!
//! The engine's parallelism contract is simple: **thread count never changes
//! results**. Every `par_map*` in the workspace is one private `fan_out`,
//! which assigns work by index, collects per-chunk outputs, and reassembles
//! them in index order — so the output of a parallel run is, element for
//! element, the output of the serial run. Summations downstream then fold in
//! index order too, keeping floating-point results bit-identical.
//! [`par_map_then`] runs two such stages on one set of workers, with a
//! barrier between them where the calling thread alone folds the first
//! stage's outputs, in index order, into the value every second-stage call
//! reads (`SoclServe`'s tick: the arrival scan, then the regions).
//!
//! The pool size is a process-global knob ([`set_threads`] / the
//! `SOCL_THREADS` environment variable / `--threads` on the CLI), defaulting
//! to the machine's available parallelism. Work is distributed by an atomic
//! chunk cursor (work stealing at chunk granularity), so uneven per-item cost
//! — e.g. Dijkstra trees from well- vs poorly-connected sources — still load
//! balances.
//!
//! Threads are spawned per call with [`std::thread::scope`], and the calling
//! thread works too: a fan-out on `t` workers spawns `t − 1` helpers and
//! runs the same claim loop itself instead of waiting at the join. One
//! fan-out of eight trivial items on two workers measures 29–46 µs on the
//! 2-vCPU reference box after a benchmark workload, down from 50–106 µs
//! (once 160 µs) when the caller only waited (`net.par.dispatch_us`, which
//! passes its thread count explicitly, so no thread-count lookup sits in
//! that figure) — noise for all-pairs Dijkstra, but more than a small
//! phase such as an 8-region autoscaler tick or the 48 routes of a
//! `SoclServe` epoch re-solve. Callers therefore gate every fan-out on a
//! work estimate via [`parallel_worthwhile`].

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, OnceLock};

/// Global thread-count override: 0 = auto (env, then hardware).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Override the worker-thread count for all subsequent parallel sections.
/// `0` restores the auto-detected count (`SOCL_THREADS`, then hardware
/// parallelism, resolved once per process); `1` forces every hot path
/// serial.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// The number of worker threads a parallel section will use right now.
///
/// The auto-detected count is resolved on first use and cached:
/// `available_parallelism` reads cgroup files (~18 µs per call on the
/// 2-core reference box), and the exact solver's branch-and-bound asks on
/// every gated evaluation.
pub fn effective_threads() -> usize {
    let n = THREADS.load(Ordering::SeqCst);
    if n > 0 {
        return n;
    }
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "the thread count only partitions work; the equivalence proptests prove output is identical for any count"
        )]
        if let Ok(v) = std::env::var("SOCL_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "hardware parallelism picks the worker count, never the result — par_map_indexed_with is order-preserving"
        )]
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// True when a fan-out over `items` units of roughly `unit_cost` abstract
/// operations each is worth the thread spawn overhead. The volume test
/// runs first, so a shut gate costs one multiply.
///
/// An abstract operation is about a nanosecond (a multiply, a table
/// look-up). Callers price a unit from what it was measured to cost, not
/// from its asymptotic bound: the routing DP (`socl_model::route_threads`)
/// counts 8 per DP cell (one look-up, add and compare: 4–10 ns measured)
/// plus 24 per chain layer (the host walk and the route fold, read off
/// 0.073–0.103 µs routes of 3.4 layers and 2.4 cells). The calling thread
/// starts on `W` of serial work at once and a helper joins after the
/// dispatch `d`; claiming chunks, they finish together at about
/// `(W + d) / 2`, so two workers win once `W > d`, and `t` workers, whose
/// helpers all start after `d`, at `(W + (t − 1) d) / t` — the same
/// break-even for every thread count. With `d` of 29–46 µs that is
/// 29–46 k operations. The threshold stays at `200_000`: a busy host's
/// dispatch has measured up to ~240 µs, a helper inside a running tick
/// starts later than an isolated one, and every gate's side at the
/// benchmark's sizes is pinned by a test (`routing_gate_at_benchmark_sizes`
/// in `socl-core`, `tick_gate_at_benchmark_sizes` in `socl-serve`).
#[inline]
pub fn parallel_worthwhile(items: usize, unit_cost: usize) -> bool {
    items >= 2 && items.saturating_mul(unit_cost) >= 200_000 && effective_threads() > 1
}

/// Acquire `m`'s guard, absorbing poison instead of panicking.
///
/// A poisoned lock means another thread panicked while holding the guard.
/// Every caller in this workspace either re-raises that panic anyway
/// (`std::thread::scope` propagates worker panics at join) or tolerates a
/// possibly part-written value (per-shard counters that are only read for
/// monotonic snapshots), so recovering the guard keeps library code
/// panic-free without hiding the original failure. Prefer it over
/// open-coded `match m.lock()` poison handling.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One stage of a fan-out: `n` items claimed `chunk` at a time off an
/// atomic cursor, each claimed chunk's outputs kept with its start index.
/// Every worker runs the same claim loop ([`Stage::work`]); the outputs are
/// reassembled in index order ([`Stage::output`]) whatever order the
/// chunks were claimed or finished in.
struct Stage<T> {
    n: usize,
    chunk: usize,
    cursor: AtomicUsize,
    parts: Mutex<Vec<(usize, Vec<T>)>>,
}

impl<T> Stage<T> {
    fn new(n: usize, threads: usize) -> Self {
        Self {
            n,
            // ~4 chunks per worker: coarse enough to amortize the cursor,
            // fine enough to balance skewed per-item costs.
            chunk: n.div_ceil(threads * 4).max(1),
            cursor: AtomicUsize::new(0),
            parts: Mutex::new(Vec::new()),
        }
    }

    /// Claim chunks until the cursor passes `n`, mapping each item by `f`.
    fn work(&self, mut f: impl FnMut(usize) -> T) {
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            let end = (start + self.chunk).min(self.n);
            let out: Vec<T> = (start..end).map(&mut f).collect();
            // A poisoned lock means another worker panicked *inside the
            // critical section* (only possible via OOM-abort in `push`); the
            // panic is re-raised at join, so pushing through it is sound.
            lock_recover(&self.parts).push((start, out));
        }
    }

    /// Take the claimed outputs, in index order. Called once every worker
    /// is past its claim loop (after the scope's join or a barrier).
    fn output(&self) -> Vec<T> {
        let mut parts = std::mem::take(&mut *lock_recover(&self.parts));
        parts.sort_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(self.n);
        for (_, mut chunk) in parts {
            out.append(&mut chunk);
        }
        out
    }
}

/// The one fan-out behind every `par_map*`: map `f` over `0..n` on
/// `threads` workers, each owning one `new_scratch()` value, and return the
/// results in index order. The calling thread is one of the workers, so
/// `threads - 1` helpers are spawned. One worker (or `n <= 1`) is the
/// plain serial loop on the calling thread.
fn fan_out<T, S, N, F>(n: usize, threads: usize, new_scratch: N, f: F) -> Vec<T>
where
    T: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n <= 1 {
        let mut scratch = new_scratch();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let stage = Stage::new(n, threads);
    let work = || {
        let mut scratch = new_scratch();
        stage.work(|i| f(&mut scratch, i));
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    let out = stage.output();
    debug_assert_eq!(out.len(), n);
    out
}

/// Two fan-outs in one: map `first` over `0..n1`, hand its outputs in
/// index order to `between`, then map `second(&b, i)` over `0..n2`, on the
/// same `threads` workers (the calling thread among them). Returns
/// `between`'s value and the second stage's outputs in index order —
/// exactly what the serial `between((0..n1).map(first))` followed by
/// `(0..n2).map(|i| second(&b, i))` returns, for any thread count.
///
/// Each stage is [`fan_out`]'s claim loop. Between them every worker waits
/// at a [`Barrier`]; the calling thread alone runs `between`, and a second
/// barrier releases the others into stage two once its value is published.
/// One spawn serves both stages. A panic in `first` or `between` is caught
/// so that no worker is stranded at a barrier, and is re-raised on the
/// calling thread after the join; a panic in `second` surfaces at the join
/// like any `par_map*` worker panic.
pub fn par_map_then<A, B, C, F, G, H>(
    threads: usize,
    n1: usize,
    first: F,
    between: G,
    n2: usize,
    second: H,
) -> (B, Vec<C>)
where
    A: Send,
    B: Send + Sync,
    C: Send,
    F: Fn(usize) -> A + Sync,
    G: FnOnce(Vec<A>) -> B,
    H: Fn(&B, usize) -> C + Sync,
{
    let threads = threads.clamp(1, n1.max(n2).max(1));
    if threads == 1 {
        let b = between((0..n1).map(first).collect());
        let c = (0..n2).map(|i| second(&b, i)).collect();
        return (b, c);
    }
    let one = Stage::new(n1, threads);
    let two = Stage::new(n2, threads);
    let barrier = Barrier::new(threads);
    let mid: OnceLock<B> = OnceLock::new();
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let catch = |f: &mut dyn FnMut()| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
            lock_recover(&panicked).get_or_insert(payload);
        }
    };
    let stage_two = || {
        if let Some(b) = mid.get() {
            two.work(|i| second(b, i));
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                catch(&mut || one.work(&first));
                barrier.wait();
                barrier.wait();
                stage_two();
            });
        }
        catch(&mut || one.work(&first));
        barrier.wait();
        if lock_recover(&panicked).is_none() {
            let mut between = Some(between);
            catch(&mut || {
                if let Some(between) = between.take() {
                    let _ = mid.set(between(one.output()));
                }
            });
        }
        barrier.wait();
        stage_two();
    });
    let payload = panicked
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    match (mid.into_inner(), payload) {
        (Some(b), None) => {
            let c = two.output();
            debug_assert_eq!(c.len(), n2);
            (b, c)
        }
        // Without a caught panic `between` always publishes its value.
        (_, payload) => {
            resume_unwind(payload.unwrap_or_else(|| Box::new("between published nothing")))
        }
    }
}

/// Map `f` over `0..n` on `threads` workers, returning results in index
/// order. Deterministic: the output is identical to `(0..n).map(f)` for any
/// thread count, including 1 (which short-circuits to the serial loop).
pub fn par_map_indexed_with<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fan_out(n, threads, || (), |(), i| f(i))
}

/// [`par_map_indexed_with`] on the globally configured thread count.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_indexed_with(n, effective_threads(), f)
}

/// Map `f` over a slice on the configured pool, preserving order.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Map `f` over a slice with a per-worker scratch value, preserving order.
///
/// `new_scratch` runs once per worker (and once on the serial path), so a
/// fan-out over `n` items performs `threads` scratch constructions instead
/// of `n`, so the per-item loop allocates nothing. Determinism contract: `f` must produce the same output for a
/// given item regardless of what a previous call left in the scratch —
/// scratch exists to recycle allocations, never to carry state — so
/// results stay identical for any thread count, exactly like
/// [`par_map_with`].
pub fn par_map_scratch_with<I, T, S, N, F>(
    items: &[I],
    threads: usize,
    new_scratch: N,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, &I) -> T + Sync,
{
    fan_out(items.len(), threads, new_scratch, |scratch, i| {
        f(scratch, &items[i])
    })
}

/// Map `f` over a slice on an explicit thread count, preserving order.
pub fn par_map_with<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed_with(items.len(), threads, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_for_any_thread_count() {
        let n = 1000;
        let serial: Vec<usize> = (0..n).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 7, 16, 64] {
            let par = par_map_indexed_with(n, threads, |i| i * i);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn handles_degenerate_sizes() {
        assert_eq!(par_map_indexed_with(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed_with(1, 8, |i| i + 1), vec![1]);
        assert_eq!(par_map_indexed_with(3, 100, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn slice_variant_matches_iter_map() {
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.5).collect();
        let serial: Vec<f64> = items.iter().map(|x| x * 2.0 + 1.0).collect();
        assert_eq!(par_map_with(&items, 5, |x| x * 2.0 + 1.0), serial);
        assert_eq!(par_map(&items, |x| x * 2.0 + 1.0), serial);
    }

    #[test]
    fn scratch_variant_matches_iter_map_for_any_thread_count() {
        let items: Vec<usize> = (0..513).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 5, 16] {
            let got = par_map_scratch_with(
                &items,
                threads,
                || Vec::<usize>::with_capacity(8),
                |buf, &x| {
                    // Deliberately leave state behind: the next call must
                    // clear it, proving results don't depend on carry-over.
                    buf.clear();
                    buf.push(x * 3 + 1);
                    buf.iter().copied().sum::<usize>()
                },
            );
            assert_eq!(got, serial, "threads={threads}");
        }
        assert_eq!(
            par_map_scratch_with(&[] as &[usize], 4, || 0u8, |_, &x| x),
            Vec::<usize>::new()
        );
    }

    /// Spin for about `n` dependent float steps: a per-item cost the
    /// optimizer cannot fold away.
    fn spin(n: usize, seed: usize) -> f64 {
        let mut acc = seed as f64;
        for k in 1..n {
            acc += 1.0 / (k as f64 * (seed + 1) as f64);
        }
        acc
    }

    #[test]
    fn two_stage_keeps_index_order_under_skewed_cost() {
        // Item 0 of each stage costs ~1000x the rest, so the chunk holding
        // it finishes last whichever worker claims it.
        let cost = |i: usize| if i == 0 { 200_000 } else { 200 };
        let first = |i: usize| (i, spin(cost(i), i).to_bits());
        let second = |b: &Vec<(usize, u64)>, i: usize| (b.len(), i, spin(cost(i), i).to_bits());
        let serial_one: Vec<(usize, u64)> = (0..57).map(first).collect();
        let serial_two: Vec<(usize, usize, u64)> =
            (0..23).map(|i| second(&serial_one, i)).collect();
        for threads in 1..=4 {
            let (b, c) = par_map_then(threads, 57, first, |a| a, 23, second);
            assert_eq!(b, serial_one, "threads={threads}");
            assert_eq!(c, serial_two, "threads={threads}");
        }
    }

    #[test]
    fn between_sees_stage_one_in_index_order() {
        for threads in 2..=4 {
            let calls = AtomicUsize::new(0);
            let (seen, c) = par_map_then(
                threads,
                16,
                |i| {
                    if i == 0 {
                        // Every other chunk is claimed and pushed first.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i
                },
                |a| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    a
                },
                8,
                |b: &Vec<usize>, i| b.iter().sum::<usize>() + i,
            );
            assert_eq!(seen, (0..16).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(c, (0..8).map(|i| 120 + i).collect::<Vec<_>>());
            assert_eq!(calls.load(Ordering::SeqCst), 1, "between runs once");
        }
    }

    #[test]
    fn two_stage_handles_empty_and_single_stages() {
        for threads in 1..=4 {
            for n1 in 0..=2 {
                for n2 in 0..=2 {
                    let (b, c) = par_map_then(
                        threads,
                        n1,
                        |i| i + 10,
                        |a: Vec<usize>| a,
                        n2,
                        |b: &Vec<usize>, i| (b.len(), i),
                    );
                    assert_eq!(b, (0..n1).map(|i| i + 10).collect::<Vec<_>>());
                    assert_eq!(c, (0..n2).map(|i| (n1, i)).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn two_stage_reraises_a_panic_from_either_stage_or_between() {
        for (stage, at) in [(1, 5), (1, 0), (2, 3), (3, 0)] {
            for threads in [2, 4] {
                let result = std::panic::catch_unwind(|| {
                    par_map_then(
                        threads,
                        16,
                        |i| assert!(stage != 1 || i != at, "stage one"),
                        |_| assert!(stage != 3, "between"),
                        16,
                        |(), i| assert!(stage != 2 || i != at, "stage two"),
                    )
                });
                assert!(result.is_err(), "stage {stage} at {at}, threads={threads}");
            }
        }
    }

    /// Holds the process-wide thread override at `n` for a test's scope:
    /// tests that set it take turns, and a failed assert still resets it.
    struct Threads {
        _turn: MutexGuard<'static, ()>,
    }

    fn threads(n: usize) -> Threads {
        static TURN: Mutex<()> = Mutex::new(());
        let _turn = lock_recover(&TURN);
        set_threads(n);
        Threads { _turn }
    }

    impl Drop for Threads {
        fn drop(&mut self) {
            set_threads(0);
        }
    }

    #[test]
    fn auto_thread_count_is_stable_and_overridable() {
        let _held = threads(0);
        let auto = effective_threads();
        assert!(auto >= 1);
        for _ in 0..3 {
            assert_eq!(effective_threads(), auto);
        }
        set_threads(auto + 2);
        assert_eq!(effective_threads(), auto + 2);
        set_threads(0);
        assert_eq!(effective_threads(), auto);
    }

    #[test]
    fn thread_override_roundtrips() {
        let _held = threads(0);
        let before = effective_threads();
        set_threads(3);
        assert_eq!(effective_threads(), 3);
        set_threads(0);
        assert!(effective_threads() >= 1);
        // Restore whatever auto resolved to for other tests.
        let _ = before;
    }

    #[test]
    fn worthwhile_requires_threads_and_volume() {
        let _held = threads(0);
        set_threads(1);
        assert!(!parallel_worthwhile(1_000_000, 1_000_000));
        set_threads(4);
        assert!(parallel_worthwhile(100, 10_000));
        assert!(!parallel_worthwhile(10, 100));
        set_threads(0);
    }
}
