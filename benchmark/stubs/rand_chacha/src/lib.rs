//! Offline stand-in for `rand_chacha` 0.3.1 (the container has no registry).
//!
//! This is the real generator, not a look-alike: the ChaCha block function
//! with 12 rounds, a 64-bit block counter and a 64-bit stream id, buffered
//! four blocks at a time exactly like the upstream `BlockRng`, so the word
//! stream, `next_u64` straddling, and the `(seed, stream, word_pos)`
//! position contract match upstream. The product's checkpoints store RNG
//! positions through that contract, so it has to hold for recovery to be
//! exercised honestly.

/// The `rand_core` traits the product crates use, re-exported by the
/// `rand` stand-in so both crates share one trait identity.
pub mod rand_core {
    /// Core random-number source.
    pub trait RngCore {
        fn next_u32(&mut self) -> u32;
        fn next_u64(&mut self) -> u64;
        fn fill_bytes(&mut self, dest: &mut [u8]);
    }

    impl<R: RngCore + ?Sized> RngCore for &mut R {
        fn next_u32(&mut self) -> u32 {
            (**self).next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            (**self).next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            (**self).fill_bytes(dest);
        }
    }

    /// A generator constructible from a seed.
    pub trait SeedableRng: Sized {
        type Seed: Sized + Default + AsMut<[u8]>;

        fn from_seed(seed: Self::Seed) -> Self;

        /// rand_core 0.6's expansion: a PCG32 stream fills the seed.
        fn seed_from_u64(mut state: u64) -> Self {
            const MUL: u64 = 6_364_136_223_846_793_005;
            const INC: u64 = 11_634_580_027_462_260_723;
            let mut seed = Self::Seed::default();
            for chunk in seed.as_mut().chunks_mut(4) {
                state = state.wrapping_mul(MUL).wrapping_add(INC);
                let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
                let rot = (state >> 59) as u32;
                let x = xorshifted.rotate_right(rot).to_le_bytes();
                chunk.copy_from_slice(&x[..chunk.len()]);
            }
            Self::from_seed(seed)
        }
    }
}

use rand_core::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
const BUF_BLOCKS: usize = 4;
const BUF_WORDS: usize = BLOCK_WORDS * BUF_BLOCKS;
const DOUBLE_ROUNDS: usize = 6;

/// One lane per buffered block, so the rounds vectorize four-wide.
type Lanes = [u32; BUF_BLOCKS];

#[inline(always)]
fn add(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|i| a[i].wrapping_add(b[i]))
}

#[inline(always)]
fn xor_rotl(a: Lanes, b: Lanes, n: u32) -> Lanes {
    std::array::from_fn(|i| (a[i] ^ b[i]).rotate_left(n))
}

#[inline(always)]
fn quarter(x: &mut [Lanes; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotl(x[d], x[a], 16);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotl(x[b], x[c], 12);
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotl(x[d], x[a], 8);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotl(x[b], x[c], 7);
}

/// ChaCha with 12 rounds as a cryptographically strong, seekable RNG.
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

/// Four consecutive ChaCha blocks (counters `block_pos..block_pos + 4`),
/// block-major: words `16 * b..16 * (b + 1)` are block `b`.
fn blocks4(key: &[u32; 8], block_pos: u64, stream: u64, double_rounds: usize) -> [u32; BUF_WORDS] {
    let mut init = [[0u32; BUF_BLOCKS]; BLOCK_WORDS];
    for (w, c) in [0x6170_7865u32, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]
        .into_iter()
        .enumerate()
    {
        init[w] = [c; BUF_BLOCKS];
    }
    for (w, k) in key.iter().enumerate() {
        init[4 + w] = [*k; BUF_BLOCKS];
    }
    for lane in 0..BUF_BLOCKS {
        let counter = block_pos.wrapping_add(lane as u64);
        init[12][lane] = counter as u32;
        init[13][lane] = (counter >> 32) as u32;
    }
    init[14] = [stream as u32; BUF_BLOCKS];
    init[15] = [(stream >> 32) as u32; BUF_BLOCKS];
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
    let mut out = [0u32; BUF_WORDS];
    for w in 0..BLOCK_WORDS {
        let sum = add(x[w], init[w]);
        for lane in 0..BUF_BLOCKS {
            out[lane * BLOCK_WORDS + w] = sum[lane];
        }
    }
    out
}

impl ChaCha12Rng {
    fn refill(&mut self) {
        self.results = blocks4(&self.key, self.block_pos, self.stream, DOUBLE_ROUNDS);
        self.block_pos = self.block_pos.wrapping_add(BUF_BLOCKS as u64);
    }

    fn generate_and_set(&mut self, index: usize) {
        self.refill();
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
        let buf_start_block = self.block_pos.wrapping_sub(BUF_BLOCKS as u64);
        let pos_block = buf_start_block.wrapping_add((self.index / BLOCK_WORDS) as u64);
        u128::from(pos_block) * BLOCK_WORDS as u128 + (self.index % BLOCK_WORDS) as u128
    }

    /// Seek to a position in the keystream, in 32-bit words.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        self.block_pos = (word_offset / BLOCK_WORDS as u128) as u64;
        self.generate_and_set((word_offset % BLOCK_WORDS as u128) as usize);
    }
}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
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
}

impl RngCore for ChaCha12Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.generate_and_set(0);
        }
        let v = self.results[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
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

    fn fill_bytes(&mut self, dest: &mut [u8]) {
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
        let out = blocks4(&[0; 8], 0, 0, 10);
        assert_eq!(
            le_bytes(&out[..8]),
            [
                0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
                0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d, 0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc,
                0x8b, 0x77, 0x0d, 0xc7
            ]
        );
        assert_eq!(
            le_bytes(&out[16..20]),
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

    #[test]
    fn word_position_round_trips() {
        let mut a = ChaCha12Rng::seed_from_u64(99);
        a.set_stream(7);
        for _ in 0..77 {
            a.next_u32();
        }
        a.next_u64();
        let mut b = ChaCha12Rng::from_seed(a.get_seed());
        b.set_stream(a.get_stream());
        b.set_word_pos(a.get_word_pos());
        for _ in 0..200 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_u64_straddles_the_buffer_like_blockrng() {
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
}
