//! Deterministic fork-join parallelism for the hot paths.
//!
//! The engine's parallelism contract is simple: **thread count never changes
//! results**. Every `par_map*` in the workspace is one private `fan_out`,
//! which assigns work by index, collects per-chunk outputs, and reassembles
//! them in index order — so the output of a parallel run is, element for
//! element, the output of the serial run. Summations downstream then fold in
//! index order too, keeping floating-point results bit-identical.
//!
//! The pool size is a process-global knob ([`set_threads`] / the
//! `SOCL_THREADS` environment variable / `--threads` on the CLI), defaulting
//! to the machine's available parallelism. Work is distributed by an atomic
//! chunk cursor (work stealing at chunk granularity), so uneven per-item cost
//! — e.g. Dijkstra trees from well- vs poorly-connected sources — still load
//! balances.
//!
//! Threads are spawned per call with [`std::thread::scope`]. One fan-out on
//! two workers has measured 58–82 µs on the 2-core reference box since the
//! benchmark first read it (`net.par.dispatch_us`, which passes its thread
//! count explicitly, so no thread-count lookup sits in that figure) — noise
//! for all-pairs Dijkstra, but two to three times the whole of a small
//! phase such as an 8-region autoscaler tick. Callers therefore gate every
//! fan-out on a work estimate via [`parallel_worthwhile`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

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
/// An abstract operation is about a nanosecond (a multiply, a DP cell, a
/// table look-up). Two workers halve `W` of serial work at the price of one
/// dispatch `d`, so they win once `W / 2 + d < W`, i.e. `W > 2 d`: with the
/// measured `d` ≈ 80 µs that is 160 µs ≈ 160 000 operations, and `200_000`
/// is that figure with a margin for uneven chunks. More workers move the
/// break-even down only slightly (`W > d · t / (t − 1)`), so one threshold
/// serves every thread count.
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

/// The one fan-out behind every `par_map*`: map `f` over `0..n` on
/// `threads` workers, each owning one `new_scratch()` value, and return the
/// results in index order. One worker (or `n <= 1`) is the plain serial
/// loop on the calling thread.
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
    // ~4 chunks per worker: coarse enough to amortize the cursor, fine
    // enough to balance skewed per-item costs.
    let chunk = n.div_ceil(threads * 4).max(1);
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = new_scratch();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    let out: Vec<T> = (start..end).map(|i| f(&mut scratch, i)).collect();
                    // A poisoned lock means another worker's `f` panicked
                    // *inside the critical section* (only possible via
                    // OOM-abort in `push`); `std::thread::scope` will
                    // re-raise that panic at join, so pushing through the
                    // poison is sound.
                    let mut guard = lock_recover(&parts);
                    guard.push((start, out));
                }
            });
        }
    });
    // Reaching this line means `scope` joined every worker without a panic,
    // so the lock cannot be poisoned; recover defensively instead of
    // unwrapping to keep the library panic-free.
    let mut parts = parts
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    parts.sort_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(n);
    for (_, mut chunk) in parts {
        out.append(&mut chunk);
    }
    debug_assert_eq!(out.len(), n);
    out
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
