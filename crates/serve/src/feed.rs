//! Streaming request feed: millions of synthetic users, synthesized lazily.
//!
//! The feed never materializes per-user state. Each user is a pure function
//! of `(feed seed, user id)`: their home base station, their service chain,
//! and their data volumes are derived from a per-user ChaCha12 stream the
//! moment they arrive, and are identical every time they are re-derived —
//! which is what makes queue checkpoints tiny (user id + arrival tick) and
//! crash replay exact. Arrivals are a Bernoulli thinning of the global
//! [`TemporalWorkload`] intensity, keyed by `(seed, tick, user)` through a
//! 64-bit FNV-1a hash, so the *arrival set is independent of the region
//! partitioning*: regions group arrivals, they never change them. A tick's
//! scan asks the coin about whole user ranges ([`Coin::hits_into`]: a
//! low-byte table and three multiplies a user), with the same bits as the
//! single-user [`Coin::hit`].

use socl_model::{DependencyDataset, EshopDataset, RequestConfig, ServiceId, UserId, UserRequest};
use socl_net::rng::ChaCha12Rng;
use socl_net::NodeId;
use socl_trace::{TemporalConfig, TemporalWorkload};

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_PRIME_4: u64 = FNV_PRIME.wrapping_pow(4);
const FNV_PRIME_5: u64 = FNV_PRIME.wrapping_pow(5);

/// One FNV-1a 64-bit byte step — the only definition of the hash in this
/// crate: the feed's keys here and the decision digest (`shard::mix`) fold
/// through it. Not cryptographic; just a fast, seedable,
/// platform-independent mix. FNV-1a is a left fold over the key's bytes,
/// so every key below is folded from whichever prefix state its caller
/// already holds.
#[inline]
pub(crate) const fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// Fold a 32-bit value as one little-endian 64-bit key word: four byte
/// steps, then the four zero high bytes (`h ^ 0 = h`) as one multiply by
/// `FNV_PRIME_4` — 5 multiplies, not 8.
#[inline]
pub(crate) const fn fnv_word(h: u64, x: u32) -> u64 {
    let [a, b, c, d] = x.to_le_bytes();
    fnv_step(fnv_step(fnv_step(fnv_step(h, a), b), c), d).wrapping_mul(FNV_PRIME_4)
}

/// The float rule the arrival coin is defined by: hash `h` arrives at
/// per-user probability `p`. Monotone in `h` (`u64 → f64` rounding never
/// reorders), which is what lets [`cut_off`] replace it by one integer.
fn float_coin(p: f64, h: u64) -> bool {
    p >= 1.0 || (p > 0.0 && (h as f64) < p * (u64::MAX as f64))
}

/// The smallest hash [`float_coin`] rejects at probability `p` — exactly
/// the hashes below it arrive. `None` when every hash arrives (`p ≥ 1`);
/// `Some(0)` when none does (`p ≤ 0`). Found by bisecting the float
/// predicate itself, so the integer comparison cannot disagree with it.
fn cut_off(p: f64) -> Option<u64> {
    if float_coin(p, u64::MAX) {
        return None;
    }
    // Every hash below `lo` arrives; `hi` does not.
    let (mut lo, mut hi) = (0u64, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if float_coin(p, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// One tick's arrival coin: the hash state after `(seed, 0xA221, tick)` and
/// the tick's integer cut-off. Every arrival decision in the crate — the
/// service's scan, crash replay, [`LoadFeed::arrives`] — is [`Coin::hit`].
#[derive(Debug, Clone, Copy)]
pub struct Coin {
    state: u64,
    cut: Option<u64>,
}

impl Coin {
    /// Does `user` issue a request this tick?
    #[inline]
    #[must_use]
    pub fn hit(&self, user: u32) -> bool {
        self.cut.is_none_or(|cut| fnv_word(self.state, user) < cut)
    }

    /// Append every user of `users` that [`hit`](Self::hit) accepts to
    /// `out`, in ascending order, in three multiplies a user instead of
    /// `fnv_word`'s five. The low byte `a` is folded first, so its step
    /// `low[a] = (state ^ a)·P` is a 256-entry table; the users of one
    /// 256-block share the other three bytes `b, c, d`, and the last byte
    /// step and the four zero high bytes merge, `(y·P)·P⁴ = y·P⁵ mod 2⁶⁴`:
    /// the hash is `(((low[a] ^ b)·P ^ c)·P ^ d)·P⁵`.
    pub fn hits_into(&self, users: std::ops::Range<u32>, out: &mut Vec<u32>) {
        let Some(cut) = self.cut else {
            out.extend(users);
            return;
        };
        let low: [u64; 256] = std::array::from_fn(|a| fnv_step(self.state, a as u8));
        let mut lo = users.start;
        while lo < users.end {
            let block = lo & !0xFF;
            let end = users.end.min(block.saturating_add(0x100));
            let [_, b, c, d] = block.to_le_bytes();
            for user in lo..end {
                let h = fnv_step(fnv_step(low[(user & 0xFF) as usize], b), c) ^ u64::from(d);
                if h.wrapping_mul(FNV_PRIME_5) < cut {
                    out.push(user);
                }
            }
            lo = end;
        }
    }
}

/// Feed parameters: the user population, the temporal intensity shape, and
/// the per-request synthesis ranges.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// Synthetic user population size. Users are virtual — memory cost is
    /// O(arrivals), not O(users) — so millions are fine.
    pub users: usize,
    /// Temporal intensity shape (diurnal / flash-crowd, from `socl-trace`).
    pub shape: TemporalConfig,
    /// Expected arrivals per tick at intensity 1.0: the shape's volume
    /// curve is normalized by its mean and scaled by this, then divided by
    /// the population to get each user's per-tick arrival probability.
    pub arrivals_per_tick: f64,
    /// Per-request synthesis ranges (chain length, data volumes, `d_max`).
    pub request: RequestConfig,
    /// Feed seed; independent of the service seed so load and topology can
    /// be varied separately.
    pub seed: u64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        Self {
            users: 100_000,
            shape: TemporalConfig::default(),
            arrivals_per_tick: 200.0,
            request: RequestConfig::default(),
            seed: 7,
        }
    }
}

/// The streaming load source.
#[derive(Debug, Clone)]
pub struct LoadFeed {
    cfg: FeedConfig,
    /// `cfg.users` bounded to the 32-bit user-id space.
    population: u32,
    /// Per-tick arrival probability for one user, `volumes` normalized.
    probs: Vec<f64>,
    /// [`cut_off`] of each entry of `probs`.
    cuts: Vec<Option<u64>>,
    /// Hash state after `(seed, 0xA221)`: the arrival-coin key prefix.
    coin_prefix: u64,
    /// Hash state after `(seed, 0xB0B0)`: the home-station key prefix.
    home_prefix: u64,
    dataset: DependencyDataset,
    nodes: usize,
}

impl LoadFeed {
    /// Build the feed over `nodes` base stations using the embedded
    /// eshopOnContainers dependency dataset. User ids are `u32`: a larger
    /// `cfg.users` is clamped to `u32::MAX` (`config().users` reports the
    /// clamped value; `socl serve` rejects it up front).
    #[must_use]
    pub fn new(mut cfg: FeedConfig, nodes: usize) -> Self {
        let population = u32::try_from(cfg.users).unwrap_or(u32::MAX);
        cfg.users = population as usize;
        let wl = TemporalWorkload::generate(&cfg.shape, cfg.seed);
        let mean = wl.mean().max(1e-12);
        let users = f64::from(population.max(1));
        let probs: Vec<f64> = wl
            .volumes
            .iter()
            .map(|&v| (v / mean * cfg.arrivals_per_tick / users).clamp(0.0, 1.0))
            .collect();
        let seeded = cfg
            .seed
            .to_le_bytes()
            .into_iter()
            .fold(FNV_OFFSET, fnv_step);
        Self {
            population,
            cuts: probs.iter().map(|&p| cut_off(p)).collect(),
            probs,
            coin_prefix: fnv_word(seeded, 0xA221),
            home_prefix: fnv_word(seeded, 0xB0B0),
            cfg,
            dataset: EshopDataset::build(),
            nodes: nodes.max(1),
        }
    }

    /// Feed configuration.
    #[must_use]
    pub fn config(&self) -> &FeedConfig {
        &self.cfg
    }

    /// The user population: ids are `0..population()`.
    #[must_use]
    pub fn population(&self) -> u32 {
        self.population
    }

    /// Number of ticks the intensity shape covers; arrivals wrap around
    /// past the horizon, so the service can run indefinitely.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.probs.len().max(1)
    }

    /// Per-user arrival probability at `tick`.
    #[must_use]
    pub fn arrival_probability(&self, tick: u32) -> f64 {
        let i = tick as usize % self.horizon();
        self.probs.get(i).copied().unwrap_or(0.0)
    }

    /// The arrival coin of `tick`: hash the tick once, ask about many users.
    #[inline]
    #[must_use]
    pub fn coin(&self, tick: u32) -> Coin {
        let i = tick as usize % self.horizon();
        Coin {
            state: fnv_word(self.coin_prefix, tick),
            cut: self.cuts.get(i).copied().unwrap_or(Some(0)),
        }
    }

    /// The first `k` users to arrive at `tick`, ascending by user id:
    /// exactly the first `k` of the tick's full scan (all of it when fewer
    /// arrive), found by scanning only as far as the `k`-th arrival.
    #[must_use]
    pub fn first_arrivals(&self, tick: u32, k: usize) -> Vec<u32> {
        const BLOCK: u32 = 4096;
        let coin = self.coin(tick);
        let mut out = Vec::new();
        let mut lo = 0;
        while out.len() < k && lo < self.population {
            let hi = self.population.min(lo.saturating_add(BLOCK));
            coin.hits_into(lo..hi, &mut out);
            lo = hi;
        }
        out.truncate(k);
        out
    }

    /// Does `user` issue a request at `tick`? A pure function — region
    /// partitioning and shard count cannot change it.
    #[inline]
    #[must_use]
    pub fn arrives(&self, tick: u32, user: u32) -> bool {
        self.coin(tick).hit(user)
    }

    /// The base station `user` is homed at — fixed for the user's lifetime
    /// (mobility stays within the simulator layer; the service boundary
    /// pins users to their home region so shard ownership never migrates).
    #[must_use]
    pub fn home_station(&self, user: u32) -> NodeId {
        let h = fnv_word(self.home_prefix, user);
        NodeId((h % self.nodes as u64) as u32)
    }

    /// Synthesize `user`'s request: [`draw_chain`](Self::draw_chain), then
    /// [`draw_rest`](Self::draw_rest), homed at [`home_station`](Self::home_station).
    /// A request is a function of `(seed, user)` alone: the per-user
    /// ChaCha12 stream is re-seeded on every call, so the same user always
    /// issues the same request, and a queued request is re-derived
    /// bit-for-bit whenever it is drained, live or in crash replay.
    #[must_use]
    pub fn synthesize(&self, user: u32) -> UserRequest {
        let rc = &self.cfg.request;
        let mut attempt = Vec::with_capacity(rc.chain_len.1);
        let mut chain = Vec::with_capacity(rc.chain_len.1);
        let mut edge_data = Vec::with_capacity(rc.chain_len.1);
        let mut rng = self.draw_chain(user, &mut attempt, &mut chain);
        let (r_in, r_out) = self.draw_rest(&mut rng, chain.len(), &mut edge_data);
        UserRequest::new(
            UserId(user),
            self.home_station(user),
            chain,
            edge_data,
            r_in,
            r_out,
            rc.d_max,
        )
    }

    /// The first draws of `user`'s request: seed the user's stream and walk
    /// its service chain into `chain` (previous contents discarded;
    /// `attempt` is the walk's scratch). Returns the stream where
    /// [`draw_rest`](Self::draw_rest) continues it, so a caller that reads
    /// only the chain stops here.
    pub fn draw_chain(
        &self,
        user: u32,
        attempt: &mut Vec<ServiceId>,
        chain: &mut Vec<ServiceId>,
    ) -> ChaCha12Rng {
        let mut rng = ChaCha12Rng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(fnv_word(fnv_word(FNV_OFFSET, 0xC0DE), user)),
        );
        let rc = &self.cfg.request;
        self.dataset
            .sample_chain_into(&mut rng, rc.chain_len.0, rc.chain_len.1, attempt, chain);
        rng
    }

    /// The rest of a request after [`draw_chain`](Self::draw_chain) on
    /// `rng`: the `chain_len - 1` edge volumes into `edge_data` (previous
    /// contents discarded), then `(r_in, r_out)`.
    pub fn draw_rest(
        &self,
        rng: &mut ChaCha12Rng,
        chain_len: usize,
        edge_data: &mut Vec<f64>,
    ) -> (f64, f64) {
        let rc = &self.cfg.request;
        edge_data.clear();
        edge_data.extend((1..chain_len).map(|_| rng.gen_range(rc.edge_data.0..=rc.edge_data.1)));
        let r_in = rng.gen_range(rc.r_in.0..=rc.r_in.1);
        let r_out = rng.gen_range(rc.r_out.0..=rc.r_out.1);
        (r_in, r_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_net::rng::cases;

    /// The hash as first written and as every pinned digest was recorded
    /// under it: byte by byte over whole words. Frozen — the reference the
    /// hoisted folds are held to.
    fn fnv1a_reference(words: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// `LoadFeed::arrives` as first written.
    fn arrives_reference(f: &LoadFeed, tick: u32, user: u32) -> bool {
        let p = f.arrival_probability(tick);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let h = fnv1a_reference(&[f.cfg.seed, 0xA221, u64::from(tick), u64::from(user)]);
        (h as f64) < p * (u64::MAX as f64)
    }

    fn feed() -> LoadFeed {
        LoadFeed::new(
            FeedConfig {
                users: 1000,
                arrivals_per_tick: 50.0,
                ..FeedConfig::default()
            },
            12,
        )
    }

    #[test]
    fn coin_scan_equals_the_reference_filter() {
        cases(24, |rng| {
            // Populations to 300 000 (third user byte non-zero); per-user
            // probabilities from ~1e-6 up to the `p >= 1` clamp.
            let users = rng.gen_range(1usize..=300_000);
            let p = 10f64.powf(rng.gen_range(-6.0..=0.3));
            let f = LoadFeed::new(
                FeedConfig {
                    users,
                    shape: if rng.gen::<bool>() {
                        TemporalConfig::flash_crowd()
                    } else {
                        TemporalConfig::diurnal()
                    },
                    arrivals_per_tick: p * users as f64,
                    seed: rng.next_u64(),
                    ..FeedConfig::default()
                },
                12,
            );
            let n = f.population();
            // In and past the horizon, and with all four tick bytes set.
            for tick in [
                rng.gen_range(0..120u32),
                rng.gen_range(120..1 << 16),
                rng.gen_range(1 << 24..=u32::MAX),
            ] {
                let want: Vec<u32> = (0..n).filter(|&u| arrives_reference(&f, tick, u)).collect();
                let coin = f.coin(tick);
                let hits = |users: std::ops::Range<u32>| users.filter(|&u| coin.hit(u));
                assert_eq!(hits(0..n).collect::<Vec<_>>(), want, "whole range");
                let mut edges: Vec<u32> = (0..6).map(|_| rng.gen_range(0..=n)).collect();
                edges.extend([0, n]);
                edges.sort_unstable();
                let split: Vec<u32> = edges.windows(2).flat_map(|w| hits(w[0]..w[1])).collect();
                assert_eq!(split, want, "split at {edges:?}");
                let u = rng.gen_range(0..n);
                assert_eq!(f.arrives(tick, u), arrives_reference(&f, tick, u));
            }
        });
    }

    /// `Coin::hits_into` is `Coin::hit` filtered over the range: ranges cut
    /// anywhere, not on 256-user blocks, up to the top of the id space,
    /// appended after what the buffer holds; per-user probabilities from
    /// ~1e-6 up past the `p >= 1` clamp.
    #[test]
    fn block_scan_equals_the_single_user_coin() {
        cases(24, |rng| {
            let users = rng.gen_range(1usize..=300_000);
            let p = 10f64.powf(rng.gen_range(-6.0..=0.3));
            let f = LoadFeed::new(
                FeedConfig {
                    users,
                    arrivals_per_tick: p * users as f64,
                    seed: rng.next_u64(),
                    ..FeedConfig::default()
                },
                12,
            );
            let n = f.population();
            for tick in [rng.gen_range(0..120u32), rng.gen_range(1 << 24..=u32::MAX)] {
                let coin = f.coin(tick);
                let mut ranges: Vec<_> = (0..4)
                    .map(|_| {
                        let lo = rng.gen_range(0..=n);
                        lo..n.min(lo + rng.gen_range(0..3000))
                    })
                    .collect();
                let top = rng.gen_range(u32::MAX - 3000..=u32::MAX);
                ranges.extend([0..n, top..u32::MAX]);
                for users in ranges {
                    let mut got = vec![7];
                    coin.hits_into(users.clone(), &mut got);
                    let want: Vec<u32> = std::iter::once(7)
                        .chain(users.clone().filter(|&u| coin.hit(u)))
                        .collect();
                    assert_eq!(got, want, "{users:?}, p = {p:e}");
                }
            }
        });
    }

    /// `shard::mix`, the decision digest, is FNV-1a over whole words:
    /// words below 2³² (ids, tags) through `fnv_word`, full 64-bit words
    /// through eight byte steps, chained from any state.
    #[test]
    fn digest_mix_equals_the_reference() {
        cases(64, |rng| {
            let words: Vec<u64> = (0..rng.gen_range(0..12usize))
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => u64::from(rng.next_u32()),
                    1 => rng.next_u64() | 1 << 63,
                    _ => rng.next_u64(),
                })
                .collect();
            let want = fnv1a_reference(&words);
            assert_eq!(crate::shard::mix(0, &words), want, "{words:x?}");
            let cut = rng.gen_range(0..=words.len());
            let head = crate::shard::mix(0, &words[..cut]);
            assert_eq!(crate::shard::mix(head, &words[cut..]), want, "{words:x?}");
        });
        for w in [0, 1, u64::from(u32::MAX), 1 << 32, u64::MAX] {
            assert_eq!(crate::shard::mix(0, &[w]), fnv1a_reference(&[w]), "{w:x}");
        }
    }

    /// The epoch sample's prefix scan is the first `k` of the full scan:
    /// `k` past the tick's arrivals, `k` of 0 and 1, sparse and dense
    /// ticks, and `p >= 1`, where every user arrives.
    #[test]
    fn first_arrivals_are_the_prefix_of_the_full_scan() {
        cases(24, |rng| {
            let users = rng.gen_range(1usize..=40_000);
            let p = 10f64.powf(rng.gen_range(-4.0..=0.5));
            let f = LoadFeed::new(
                FeedConfig {
                    users,
                    arrivals_per_tick: p * users as f64,
                    seed: rng.next_u64(),
                    ..FeedConfig::default()
                },
                12,
            );
            let tick = rng.gen_range(0..200u32);
            let mut scan = Vec::new();
            f.coin(tick).hits_into(0..f.population(), &mut scan);
            let arrived = scan.len();
            for k in [
                0,
                1,
                47,
                48,
                4097,
                arrived.saturating_sub(1),
                arrived,
                arrived + 1,
                users + 5,
            ] {
                let got = f.first_arrivals(tick, k);
                assert_eq!(got, scan[..k.min(arrived)], "k = {k}, p = {p:e}");
            }
        });
        let every = LoadFeed::new(
            FeedConfig {
                users: 9000,
                arrivals_per_tick: 1e9,
                ..FeedConfig::default()
            },
            12,
        );
        assert!(every.arrival_probability(3) >= 1.0);
        assert_eq!(
            every.first_arrivals(3, 5000),
            (0..5000).collect::<Vec<u32>>()
        );
        assert_eq!(
            every.first_arrivals(3, 10_000),
            (0..9000).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn cut_off_agrees_with_the_float_predicate() {
        let just_below_one = f64::from_bits(1f64.to_bits() - 1);
        let mut probs = vec![
            -1.0,
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            1e-6,
            0.5,
            just_below_one,
            1.0,
            2.0,
            f64::NAN,
        ];
        for shape in [TemporalConfig::flash_crowd(), TemporalConfig::diurnal()] {
            for rate in [0.3, 300.0, 150_000.0, 400_000.0] {
                let f = LoadFeed::new(
                    FeedConfig {
                        users: 200_000,
                        shape: shape.clone(),
                        arrivals_per_tick: rate,
                        ..FeedConfig::default()
                    },
                    12,
                );
                assert_eq!(f.cuts.len(), f.probs.len());
                for (&p, &cut) in f.probs.iter().zip(&f.cuts) {
                    assert_eq!(cut, cut_off(p));
                }
                probs.extend(&f.probs);
            }
        }
        for p in probs {
            let coin = |h: u64| cut_off(p).is_none_or(|cut| h < cut);
            let mut at = vec![0, u64::MAX];
            if let Some(cut) = cut_off(p) {
                at.extend([cut.saturating_sub(1), cut]);
            }
            for h in at {
                assert_eq!(coin(h), float_coin(p, h), "p = {p:e}, h = {h}");
            }
        }
        assert_eq!(cut_off(0.0), Some(0));
        assert_eq!(cut_off(1.0), None);
        // One ulp below 1.0 the top 3071 hashes already round to `p * 2^64`
        // or above and are rejected: "every hash arrives" needs `p >= 1`.
        assert_eq!(cut_off(just_below_one), Some(u64::MAX - 3070));
    }

    #[test]
    fn home_station_and_synthesis_keys_equal_the_reference() {
        let f = LoadFeed::new(
            FeedConfig {
                seed: 0xFEED_0123_4567_89AB,
                ..FeedConfig::default()
            },
            24,
        );
        for user in (0..100_000u32).chain([0x00FF_FFFF, 0x0100_0000, u32::MAX]) {
            let h = fnv1a_reference(&[f.cfg.seed, 0xB0B0, u64::from(user)]);
            assert_eq!(f.home_station(user), NodeId((h % 24) as u32));
            assert_eq!(
                fnv_word(fnv_word(FNV_OFFSET, 0xC0DE), user),
                fnv1a_reference(&[0xC0DE, u64::from(user)])
            );
        }
    }

    #[test]
    fn population_is_bounded_to_the_user_id_space() {
        let at = |users: usize| {
            LoadFeed::new(
                FeedConfig {
                    users,
                    ..FeedConfig::default()
                },
                12,
            )
        };
        assert_eq!(at(7).population(), 7);
        assert_eq!(at(u32::MAX as usize).population(), u32::MAX);
        let over = at(usize::MAX);
        assert_eq!(over.population(), u32::MAX);
        assert_eq!(over.config().users, u32::MAX as usize);
        // The rate is spread over the population actually scanned.
        assert_eq!(
            over.arrival_probability(3),
            at(u32::MAX as usize).arrival_probability(3)
        );
    }

    #[test]
    fn synthesis_is_stable_per_user() {
        let f = feed();
        for user in [0u32, 7, 999] {
            let a = f.synthesize(user);
            let b = f.synthesize(user);
            assert_eq!(a, b);
            assert_eq!(a.location, f.home_station(user));
            assert!(!a.chain.is_empty());
        }
    }

    /// A request's fields with every `f64` as its bits.
    fn bits(r: &UserRequest) -> (u32, NodeId, Vec<ServiceId>, Vec<u64>, [u64; 3]) {
        (
            r.id.0,
            r.location,
            r.chain.clone(),
            r.edge_data.iter().map(|x| x.to_bits()).collect(),
            [r.r_in.to_bits(), r.r_out.to_bits(), r.d_max.to_bits()],
        )
    }

    /// `draw_chain` then `draw_rest`, through one set of buffers reused
    /// across users whose chains go long, short, long, …, with the rest
    /// skipped for every third user as an admission shed skips it, give
    /// `synthesize` field for field.
    #[test]
    fn split_draws_equal_synthesize() {
        let f = feed();
        let whole: Vec<UserRequest> = (0..2000).map(|u| f.synthesize(u)).collect();
        let (long, short): (Vec<u32>, Vec<u32>) =
            (0..2000u32).partition(|&u| whole[u as usize].chain.len() >= 5);
        assert!(long.len() >= 40 && short.len() >= 40, "{}", long.len());
        let (mut attempt, mut chain, mut edge_data) = (Vec::new(), Vec::new(), Vec::new());
        let users = long.iter().zip(&short).flat_map(|(&l, &s)| [l, s]);
        for (i, user) in users.take(240).enumerate() {
            let want = &whole[user as usize];
            let mut rng = f.draw_chain(user, &mut attempt, &mut chain);
            assert_eq!(chain, want.chain, "user {user}");
            if i % 3 == 2 {
                continue;
            }
            let (r_in, r_out) = f.draw_rest(&mut rng, chain.len(), &mut edge_data);
            let got = UserRequest {
                id: UserId(user),
                location: f.home_station(user),
                chain: chain.clone(),
                edge_data: edge_data.clone(),
                r_in,
                r_out,
                d_max: f.cfg.request.d_max,
            };
            assert_eq!(bits(&got), bits(want), "user {user}");
        }
    }

    /// FNV-1a over `synthesize(u)` for the first 10 000 users — location,
    /// chain, every `edge_data` bit, `r_in` and `r_out` — recorded before
    /// the chain walk stopped collecting successors and the generator
    /// refilled one block at a time.
    #[test]
    fn synthesis_digest_is_pinned() {
        let f = feed();
        let mut h = FNV_OFFSET;
        for user in 0..10_000 {
            let r = f.synthesize(user);
            h = fnv_word(h, r.location.0);
            h = fnv_word(h, r.chain.len() as u32);
            for m in &r.chain {
                h = fnv_word(h, m.0);
            }
            for x in r.edge_data.iter().chain([&r.r_in, &r.r_out]) {
                let bits = x.to_bits();
                h = fnv_word(fnv_word(h, bits as u32), (bits >> 32) as u32);
            }
        }
        assert_eq!(h, 0x6787_9969_ed86_955f);
    }

    #[test]
    fn arrival_rate_tracks_target() {
        let f = feed();
        let mut total = 0usize;
        let ticks = f.horizon() as u32;
        for t in 0..ticks {
            total += (0..1000).filter(|&u| f.arrives(t, u)).count();
        }
        let mean = total as f64 / f64::from(ticks);
        // Bernoulli thinning of a mean-50 intensity: loose 3-sigma-ish band.
        assert!(
            mean > 25.0 && mean < 90.0,
            "mean arrivals/tick {mean} out of band"
        );
    }

    #[test]
    fn arrivals_are_partition_independent_pure_functions() {
        let f = feed();
        let g = feed();
        for t in 0..10u32 {
            for u in 0..200u32 {
                assert_eq!(f.arrives(t, u), g.arrives(t, u));
            }
        }
    }
}
