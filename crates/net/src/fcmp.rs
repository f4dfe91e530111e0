//! NaN-safe float comparison — the one sanctioned way to order `f64`s.
//!
//! The workspace invariant (DESIGN.md "Enforced invariants", rule L1:
//! `PartialOrd::partial_cmp` in `clippy.toml`'s `disallowed-methods`) bans
//! raw `partial_cmp` on computed floats: a NaN produced
//! by a degenerate input (zero-rate link, empty mean, 0/0 ratio) makes
//! `partial_cmp` return `None`, and the usual escapes — `.unwrap()` (panic)
//! or `.unwrap_or(Equal)` (silently treats NaN as equal to *everything*,
//! corrupting sort/heap invariants) — are both wrong. `f64::total_cmp` gives
//! a total order (`-NaN < -∞ < … < +∞ < +NaN`) under which every comparison
//! is defined and deterministic.
//!
//! This module is defined once in `socl-net` and re-exported by the facade
//! crate; downstream crates (`socl-model`, …) use it rather
//! than duplicating helpers, so the NaN policy has exactly one home.

use std::cmp::Ordering;

/// Total-order comparison of two floats (`f64::total_cmp` with call-site
/// ergonomics for `sort_by`/`min_by`/`max_by`: `v.sort_by(fcmp::total)`).
#[inline]
pub fn total(a: &f64, b: &f64) -> Ordering {
    a.total_cmp(b)
}

/// Key-extracting total-order comparator:
/// `items.max_by(fcmp::by_key(|x| x.score))`.
#[inline]
pub fn by_key<T, F: Fn(&T) -> f64>(key: F) -> impl Fn(&T, &T) -> Ordering {
    move |a, b| key(a).total_cmp(&key(b))
}

/// Sort a float slice ascending under the total order (NaNs sort last).
#[inline]
pub fn sort_f64s(v: &mut [f64]) {
    v.sort_by(total);
}

/// An `f64` with the total order as its `Ord` — the sanctioned way to put a
/// float key into a `BinaryHeap`, `BTreeMap` or `sort`/`binary_search`.
///
/// `Eq`/`Ord` are consistent (both derive from `total_cmp`), so heap and
/// tree invariants hold even for NaN keys.
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(pub f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for OrdF64 {
    fn from(x: f64) -> Self {
        OrdF64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_orders_nan_last() {
        let mut v = vec![3.0, f64::NAN, -1.0, f64::INFINITY, 0.0];
        sort_f64s(&mut v);
        assert_eq!(&v[..4], &[-1.0, 0.0, 3.0, f64::INFINITY]);
        assert!(v[4].is_nan());
    }

    #[test]
    fn by_key_selects_deterministically() {
        let items = [(0usize, 2.0f64), (1, 5.0), (2, 5.0), (3, f64::NAN)];
        // NaN sorts above every finite value under the total order, so a
        // NaN-keyed item wins max_by — loudly visible, never silently equal.
        let max = items.iter().max_by(by_key(|x: &&(usize, f64)| x.1));
        assert_eq!(max.map(|m| m.0), Some(3));
        let finite = &items[..3];
        let max = finite.iter().max_by(by_key(|x: &&(usize, f64)| x.1));
        // max_by returns the *last* maximum; with stable index-ordered input
        // the tie-break is deterministic.
        assert_eq!(max.map(|m| m.0), Some(2));
    }

    #[test]
    fn ordf64_heap_survives_nan() {
        use std::collections::BinaryHeap;
        let mut h = BinaryHeap::new();
        for x in [1.0, f64::NAN, -2.0, 7.5] {
            h.push(OrdF64(x));
        }
        // NaN pops first (sorts above +inf), then descending finite order.
        assert!(h.pop().is_some_and(|x| x.0.is_nan()));
        assert_eq!(h.pop().map(|x| x.0), Some(7.5));
        assert_eq!(h.pop().map(|x| x.0), Some(1.0));
        assert_eq!(h.pop().map(|x| x.0), Some(-2.0));
        assert!(h.pop().is_none());
    }
}
