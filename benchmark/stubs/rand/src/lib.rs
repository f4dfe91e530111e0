//! Offline stand-in for `rand` 0.8.5 (the container has no registry).
//!
//! Only what the product crates call: `Rng::{gen, gen_range}`,
//! `SeedableRng`, `rngs::StdRng` (ChaCha12, as upstream) and
//! `seq::SliceRandom::choose`. Each sampler is upstream's
//! algorithm — widening-multiply rejection for integers, the 52-bit
//! `[1, 2)` mantissa trick for floats — so a seed draws the same values
//! it would from the real crate and costs about the same.

pub use rand_chacha::rand_core::{RngCore, SeedableRng};

pub mod rngs {
    use super::{RngCore, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    /// The standard generator: ChaCha12, as in rand 0.8.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng(ChaCha12Rng);

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            self.0.next_u32()
        }
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.0.fill_bytes(dest);
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];
        fn from_seed(seed: [u8; 32]) -> Self {
            Self(ChaCha12Rng::from_seed(seed))
        }
    }
}

/// Types `Rng::gen` can produce (upstream's `Standard` distribution).
pub trait StandardSample: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl StandardSample for u64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl StandardSample for usize {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}
impl StandardSample for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::gen_range` can produce.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($ty:ty, $unsigned:ty, $wide:ty) => {
        impl SampleUniform for $ty {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "cannot sample empty range");
                Self::sample_inclusive(low, high - 1, rng)
            }

            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned;
                if range == 0 {
                    return <$unsigned as StandardSample>::sample_standard(rng) as $ty;
                }
                // Upstream's conservative rejection zone.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = <$unsigned as StandardSample>::sample_standard(rng);
                    let wide = v as $wide * range as $wide;
                    let hi = (wide >> <$unsigned>::BITS) as $unsigned;
                    let lo = wide as $unsigned;
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}
uniform_int!(u32, u32, u64);
uniform_int!(u64, u64, u128);
uniform_int!(usize, usize, u128);

/// A uniform `f64` in `[1, 2)` from the top 52 bits of a `u64`, minus one.
#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    f64::from_bits((1023u64 << 52) | (rng.next_u64() >> 12)) - 1.0
}

/// The next representable value toward zero (upstream's `decrease_masked`).
#[inline]
fn nudge_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        assert!(low < high, "cannot sample empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "Uniform::sample_single: range overflow");
        loop {
            let res = unit_f64(rng) * scale + low;
            if res < high {
                return res;
            }
            scale = nudge_down(scale);
        }
    }

    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        assert!(low <= high, "cannot sample empty range");
        let max_rand = f64::from_bits((1023u64 << 52) | (u64::MAX >> 12)) - 1.0;
        let mut scale = (high - low) / max_rand;
        assert!(scale.is_finite(), "Uniform::new_inclusive: range overflow");
        while scale * max_rand + low > high {
            scale = nudge_down(scale);
        }
        unit_f64(rng) * scale + low
    }
}

/// Range arguments `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

/// User-facing sampling methods, implemented for every `RngCore`.
pub trait Rng: RngCore {
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    #[inline]
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::Rng;

    /// Upstream's `gen_index`: 32-bit sampling whenever the bound fits.
    #[inline]
    fn gen_index<R: Rng + ?Sized>(rng: &mut R, ubound: usize) -> usize {
        if ubound <= u32::MAX as usize {
            rng.gen_range(0..ubound as u32) as usize
        } else {
            rng.gen_range(0..ubound)
        }
    }

    /// Random selection on slices.
    pub trait SliceRandom {
        type Item;
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(gen_index(rng, self.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn ranges_stay_in_bounds_and_cover_them() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..2000 {
            let a: u32 = rng.gen_range(3..10);
            assert!((3..10).contains(&a));
            seen[(a - 3) as usize] = true;
            let b: usize = rng.gen_range(0..=4usize);
            assert!(b <= 4);
            let c: f64 = rng.gen_range(0.5..1.5);
            assert!((0.5..1.5).contains(&c));
            let d: f64 = rng.gen_range(-2.0..=2.0);
            assert!((-2.0..=2.0).contains(&d));
            let e: f64 = rng.gen();
            assert!((0.0..1.0).contains(&e));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn same_seed_same_draws() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let v: Vec<u32> = (0..20).map(|_| rng.gen_range(0..1000)).collect();
            (v, rng.gen_range(0..1000u64), *[1, 2, 3].choose(&mut rng).unwrap())
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9).0, draw(10).0);
    }
}
