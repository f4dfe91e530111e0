//! The workspace's one random-number generator.
//!
//! Decisions in this repository are a pure function of (seed, config), and
//! the first step of that function is this stream — so it lives in-tree:
//! every pinned value, decision digest and checkpoint in the repository was
//! recorded under exactly these draws, and an edit that moves one of them
//! moves them all. The tests at the bottom pin the stream where it is
//! defined.
//!
//! [`ChaCha12Rng`] is the ChaCha block function with 12 rounds, a 64-bit
//! block counter and a 64-bit stream id, buffered one block at a time. Its
//! position is the triple `(seed, stream, word_pos)` the checkpoints of
//! `socl-sim::recovery` store. `seed_from_u64` expands the seed with PCG32;
//! the samplers are widening-multiply rejection for integers and the 52-bit
//! `[1, 2)` mantissa trick for floats — the `rand` 0.8 / `rand_chacha` 0.3
//! algorithms, ported from the stand-ins every benchmark number was measured
//! under (`benchmark/stubs`, PR 11).
//!
//! [`cases`] is the seeded case loop the property suites run on.

const BLOCK_WORDS: usize = 16;
/// Words per buffer refill: one block.
const BUF_WORDS: usize = BLOCK_WORDS;
const DOUBLE_ROUNDS: usize = 6;

#[inline(always)]
fn quarter(x: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

/// The ChaCha block at counter `block_pos`.
fn block(key: &[u32; 8], block_pos: u64, stream: u64, double_rounds: usize) -> [u32; BLOCK_WORDS] {
    let mut init = [0u32; BLOCK_WORDS];
    init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    init[4..12].copy_from_slice(key);
    init[12] = block_pos as u32;
    init[13] = (block_pos >> 32) as u32;
    init[14] = stream as u32;
    init[15] = (stream >> 32) as u32;
    let mut x = init;
    for _ in 0..double_rounds {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (w, i) in x.iter_mut().zip(init) {
        *w = w.wrapping_add(i);
    }
    x
}

/// ChaCha with 12 rounds as a seedable, seekable generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaCha12Rng {
    key: [u32; 8],
    /// Block counter of the *next* buffer refill.
    block_pos: u64,
    stream: u64,
    results: [u32; BUF_WORDS],
    /// Next unread word; `BUF_WORDS` means the buffer is spent.
    index: usize,
}

impl ChaCha12Rng {
    /// A generator at word 0 of stream 0 of the keystream keyed by `seed`.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Self {
            key,
            block_pos: 0,
            stream: 0,
            results: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    /// `from_seed` on a seed filled by a PCG32 stream started at `state`.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&x[..chunk.len()]);
        }
        Self::from_seed(seed)
    }

    fn generate_and_set(&mut self, index: usize) {
        self.results = block(&self.key, self.block_pos, self.stream, DOUBLE_ROUNDS);
        self.block_pos = self.block_pos.wrapping_add(1);
        self.index = index;
    }

    /// The seed this generator was built from.
    pub fn get_seed(&self) -> [u8; 32] {
        let mut seed = [0u8; 32];
        for (chunk, k) in seed.chunks_exact_mut(4).zip(&self.key) {
            chunk.copy_from_slice(&k.to_le_bytes());
        }
        seed
    }

    /// The stream id.
    pub fn get_stream(&self) -> u64 {
        self.stream
    }

    /// Select one of 2^64 independent streams, keeping the word position.
    pub fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        if self.index != BUF_WORDS {
            let wp = self.get_word_pos();
            self.set_word_pos(wp);
        }
    }

    /// Position in the keystream, in 32-bit words.
    pub fn get_word_pos(&self) -> u128 {
        let buf_start_block = self.block_pos.wrapping_sub(1);
        let pos_block = buf_start_block.wrapping_add((self.index / BLOCK_WORDS) as u64);
        u128::from(pos_block) * BLOCK_WORDS as u128 + (self.index % BLOCK_WORDS) as u128
    }

    /// Seek to a position in the keystream, in 32-bit words.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        self.block_pos = (word_offset / BLOCK_WORDS as u128) as u64;
        self.generate_and_set((word_offset % BLOCK_WORDS as u128) as usize);
    }

    /// The next keystream word.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.generate_and_set(0);
        }
        let v = self.results[self.index];
        self.index += 1;
        v
    }

    /// The next two keystream words, low word first — also when they
    /// straddle a buffer refill.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let join = |lo: u32, hi: u32| (u64::from(hi) << 32) | u64::from(lo);
        let i = self.index;
        if i < BUF_WORDS - 1 {
            self.index += 2;
            join(self.results[i], self.results[i + 1])
        } else if i >= BUF_WORDS {
            self.generate_and_set(2);
            join(self.results[0], self.results[1])
        } else {
            let lo = self.results[BUF_WORDS - 1];
            self.generate_and_set(1);
            join(lo, self.results[0])
        }
    }

    /// Fill `dest` with keystream bytes (whole words are consumed).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.index >= BUF_WORDS {
                self.generate_and_set(0);
            }
            let want = dest.len() - filled;
            let words = want.div_ceil(4).min(BUF_WORDS - self.index);
            for w in 0..words {
                let bytes = self.results[self.index + w].to_le_bytes();
                let n = (want - w * 4).min(4);
                dest[filled + w * 4..filled + w * 4 + n].copy_from_slice(&bytes[..n]);
            }
            self.index += words;
            filled += (words * 4).min(want);
        }
    }

    /// A value from `T`'s standard distribution (`f64`: uniform in `[0, 1)`,
    /// `bool`: a fair coin).
    #[inline]
    pub fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform value from `low..high` or `low..=high`.
    #[inline]
    pub fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// A uniformly chosen element, `None` for an empty slice. Indices are
    /// sampled as `u32` whenever the length fits.
    #[inline]
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else if slice.len() <= u32::MAX as usize {
            slice.get(self.gen_range(0..slice.len() as u32) as usize)
        } else {
            slice.get(self.gen_range(0..slice.len()))
        }
    }
}

/// Types [`ChaCha12Rng::gen`] can produce.
pub trait StandardSample: Sized {
    fn sample_standard(rng: &mut ChaCha12Rng) -> Self;
}

impl StandardSample for u32 {
    #[inline]
    fn sample_standard(rng: &mut ChaCha12Rng) -> Self {
        rng.next_u32()
    }
}
impl StandardSample for u64 {
    #[inline]
    fn sample_standard(rng: &mut ChaCha12Rng) -> Self {
        rng.next_u64()
    }
}
impl StandardSample for usize {
    #[inline]
    fn sample_standard(rng: &mut ChaCha12Rng) -> Self {
        rng.next_u64() as usize
    }
}
impl StandardSample for bool {
    /// The most significant bit of a word.
    #[inline]
    fn sample_standard(rng: &mut ChaCha12Rng) -> Self {
        (rng.next_u32() as i32) < 0
    }
}
impl StandardSample for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    #[inline]
    fn sample_standard(rng: &mut ChaCha12Rng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types [`ChaCha12Rng::gen_range`] can produce.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[low, high)`.
    fn sample_half_open(low: Self, high: Self, rng: &mut ChaCha12Rng) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_inclusive(low: Self, high: Self, rng: &mut ChaCha12Rng) -> Self;
}

/// `$ty` is sampled through `$draw` words (`u8` through `u32`, the rest
/// through their own width) multiplied into `$wide`.
macro_rules! uniform_int {
    ($ty:ty, $draw:ty, $wide:ty) => {
        impl SampleUniform for $ty {
            #[inline]
            fn sample_half_open(low: Self, high: Self, rng: &mut ChaCha12Rng) -> Self {
                assert!(low < high, "cannot sample empty range");
                Self::sample_inclusive(low, high - 1, rng)
            }

            #[inline]
            fn sample_inclusive(low: Self, high: Self, rng: &mut ChaCha12Rng) -> Self {
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $draw;
                if range == 0 {
                    return <$draw as StandardSample>::sample_standard(rng) as $ty;
                }
                let zone = if <$ty>::BITS <= 16 {
                    // Small types: the exact modulus zone.
                    <$draw>::MAX - (<$draw>::MAX - range + 1) % range
                } else {
                    // The conservative, division-free rejection zone.
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v = <$draw as StandardSample>::sample_standard(rng);
                    let wide = v as $wide * range as $wide;
                    let hi = (wide >> <$draw>::BITS) as $draw;
                    let lo = wide as $draw;
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}
uniform_int!(u8, u32, u64);
uniform_int!(u32, u32, u64);
uniform_int!(u64, u64, u128);
uniform_int!(usize, usize, u128);

/// A uniform `f64` in `[0, 1)` from the top 52 bits of a `u64`: a `[1, 2)`
/// mantissa, minus one.
#[inline]
fn unit_f64(rng: &mut ChaCha12Rng) -> f64 {
    f64::from_bits((1023u64 << 52) | (rng.next_u64() >> 12)) - 1.0
}

/// The next representable value toward zero.
#[inline]
fn nudge_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

impl SampleUniform for f64 {
    #[inline]
    fn sample_half_open(low: Self, high: Self, rng: &mut ChaCha12Rng) -> Self {
        assert!(low < high, "cannot sample empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "gen_range: range overflow");
        loop {
            let res = unit_f64(rng) * scale + low;
            if res < high {
                return res;
            }
            scale = nudge_down(scale);
        }
    }

    #[inline]
    fn sample_inclusive(low: Self, high: Self, rng: &mut ChaCha12Rng) -> Self {
        assert!(low <= high, "cannot sample empty range");
        let max_rand = f64::from_bits((1023u64 << 52) | (u64::MAX >> 12)) - 1.0;
        let mut scale = (high - low) / max_rand;
        assert!(scale.is_finite(), "gen_range: range overflow");
        while scale * max_rand + low > high {
            scale = nudge_down(scale);
        }
        unit_f64(rng) * scale + low
    }
}

/// Range arguments [`ChaCha12Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    fn sample_single(self, rng: &mut ChaCha12Rng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    #[inline]
    fn sample_single(self, rng: &mut ChaCha12Rng) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample_single(self, rng: &mut ChaCha12Rng) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

/// Seed of the stream the per-case seeds of [`cases`] are drawn from.
const CASE_SEEDS: u64 = 0x50C1_CA5E;

/// The property suites' case loop: runs `body` on `count` freshly seeded
/// generators in a debug build and on `4 * count` in a release build. The
/// case seeds are the same on every run and for every caller, so a failure
/// reproduces by re-running the test; the failing case's index and seed are
/// printed under the panic message, and `ChaCha12Rng::seed_from_u64(seed)`
/// replays that case alone.
pub fn cases(count: u32, mut body: impl FnMut(&mut ChaCha12Rng)) {
    struct Report {
        case: u32,
        seed: u64,
    }
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "rng::cases: failed at case {} (seed {:#018x})",
                    self.case, self.seed
                );
            }
        }
    }

    let count = if cfg!(debug_assertions) {
        count
    } else {
        4 * count
    };
    let mut seeds = ChaCha12Rng::seed_from_u64(CASE_SEEDS);
    for case in 0..count {
        let seed = seeds.next_u64();
        let _report = Report { case, seed };
        body(&mut ChaCha12Rng::seed_from_u64(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le_bytes(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// The block function at 20 rounds against the classic all-zero
    /// key/nonce ChaCha20 keystream, then the second block (counter 1).
    #[test]
    fn block_function_matches_chacha20_zero_vector() {
        let first = block(&[0; 8], 0, 0, 10);
        let second = block(&[0; 8], 1, 0, 10);
        assert_eq!(
            le_bytes(&first[..8]),
            [
                0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
                0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d, 0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc,
                0x8b, 0x77, 0x0d, 0xc7
            ]
        );
        assert_eq!(
            le_bytes(&second[..4]),
            [
                0x9f, 0x07, 0xe7, 0xbe, 0x55, 0x51, 0x38, 0x7a, 0x98, 0xba, 0x97, 0x7c, 0x73, 0x2d,
                0x08, 0x0d
            ]
        );
    }

    /// The 12-round keystream for the all-zero key and nonce.
    #[test]
    fn zero_key_keystream_matches_reference() {
        let mut rng = ChaCha12Rng::from_seed([0u8; 32]);
        let mut bytes = [0u8; 16];
        rng.fill_bytes(&mut bytes);
        assert_eq!(
            bytes,
            [
                0x9b, 0xf4, 0x9a, 0x6a, 0x07, 0x55, 0xf9, 0x53, 0x81, 0x1f, 0xce, 0x12, 0x5f, 0x26,
                0x83, 0xd5
            ]
        );
    }

    /// `(seed, stream, word_pos)` is the whole state: a generator rebuilt
    /// from the triple continues the stream, whether it was frozen mid-block,
    /// on a block boundary, on the buffer boundary or after a `next_u64`
    /// that straddled a refill.
    #[test]
    fn position_round_trips_across_block_and_buffer_boundaries() {
        for words in [
            0,
            5,
            BLOCK_WORDS,
            BUF_WORDS - 1,
            BUF_WORDS,
            3 * BUF_WORDS + 7,
        ] {
            for straddle in [false, true] {
                let mut a = ChaCha12Rng::seed_from_u64(99);
                a.set_stream(7);
                for _ in 0..words {
                    a.next_u32();
                }
                if straddle {
                    a.next_u64();
                }
                assert_eq!(
                    a.get_word_pos(),
                    (words + 2 * usize::from(straddle)) as u128
                );
                let mut b = ChaCha12Rng::from_seed(a.get_seed());
                b.set_stream(a.get_stream());
                b.set_word_pos(a.get_word_pos());
                for _ in 0..200 {
                    assert_eq!(a.next_u64(), b.next_u64(), "words={words}");
                }
            }
        }
    }

    /// FNV-1a over the first 4096 `next_u32` words of `seed_from_u64(17)` on
    /// streams 0 and 7, recorded under the four-block buffer this generator
    /// had before it refilled one block at a time: every refill boundary,
    /// far past the first block, is pinned whatever the buffer size.
    #[test]
    fn long_stream_digests_are_pinned() {
        let digest = |stream: u64| {
            let mut rng = ChaCha12Rng::seed_from_u64(17);
            rng.set_stream(stream);
            (0..4096).fold(0xcbf2_9ce4_8422_2325u64, |h, _| {
                rng.next_u32().to_le_bytes().into_iter().fold(h, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
            })
        };
        assert_eq!(
            [digest(0), digest(7)],
            [0x418f_8ee9_e391_a111, 0x64df_9bc9_d43f_602c]
        );
    }

    #[test]
    fn next_u64_straddles_the_buffer_low_word_first() {
        let mut a = ChaCha12Rng::seed_from_u64(5);
        let mut b = a.clone();
        for _ in 0..BUF_WORDS - 1 {
            a.next_u32();
            b.next_u32();
        }
        let lo = b.next_u32();
        let hi = b.next_u32();
        assert_eq!(a.next_u64(), (u64::from(hi) << 32) | u64::from(lo));
        assert_eq!(a.next_u32(), b.next_u32());
    }

    /// The first eight draws of `seed_from_u64(17)` through each sampler, as
    /// recorded from `benchmark/stubs/{rand,rand_chacha}` at PR 18 — the
    /// stream every pinned value in the repository was measured under. The
    /// stubs had no `bool` or `u8` sampler: those rows follow from the raw
    /// words in the first table (the sign bit; `(word * range) >> 32`, none
    /// of the eight falling in the modulus rejection zone).
    #[test]
    fn first_draws_of_seed_17_are_pinned() {
        fn draws<T>(mut f: impl FnMut(&mut ChaCha12Rng) -> T) -> Vec<T> {
            let mut rng = ChaCha12Rng::seed_from_u64(17);
            (0..8).map(|_| f(&mut rng)).collect()
        }
        assert_eq!(
            draws(|r| r.next_u32()),
            [
                0x8cc33605, 0xaa5fd7ce, 0x3cbe6728, 0x423dbdfb, 0x32998fbd, 0xdd830c92, 0xa1bcdb23,
                0xc87bbaae
            ]
        );
        assert_eq!(
            draws(|r| r.gen::<bool>()),
            [true, true, false, false, false, true, true, true]
        );
        assert_eq!(
            draws(|r| r.gen::<f64>()),
            [
                0.6655249480506995,
                0.25875460990641264,
                0.865280900662219,
                0.7831379581782473,
                0.8501346535063964,
                0.22907303194204498,
                0.18296070824493138,
                0.617463411168408
            ]
        );
        assert_eq!(draws(|r| r.gen_range(0..10usize)), [2, 8, 2, 6, 3, 1, 3, 5]);
        assert_eq!(
            draws(|r| r.gen_range(0..1000u64)),
            [665, 258, 865, 783, 850, 229, 182, 617]
        );
        assert_eq!(draws(|r| r.gen_range(3..=9u32)), [6, 7, 4, 4, 4, 9, 7, 8]);
        assert_eq!(
            draws(|r| r.gen_range(0..200u8)),
            [109, 133, 47, 51, 39, 173, 126, 156]
        );
        assert_eq!(
            draws(|r| r.gen_range(10..=250u8)),
            [142, 170, 67, 72, 57, 218, 162, 198]
        );
        assert_eq!(
            draws(|r| r.gen_range(0.5..3.0)),
            [
                2.163812370126749,
                1.1468865247660316,
                2.663202251655547,
                2.457844895445618,
                2.6253366337659907,
                1.0726825798551123,
                0.9574017706123285,
                2.0436585279210195
            ]
        );
        assert_eq!(
            draws(|r| r.gen_range(-2.0..=2.0)),
            [
                0.6620997922027985,
                -0.9649815603743492,
                1.4611236026488763,
                1.1325518327129895,
                1.400538614025586,
                -1.0837078722318203,
                -1.2681571670202745,
                0.4698536446736319
            ]
        );
        let items = [10, 20, 30, 40, 50, 60, 70];
        assert_eq!(
            draws(|r| r.choose(&items).copied()),
            [40, 50, 20, 20, 20, 70, 50, 60].map(Some)
        );
    }
}
