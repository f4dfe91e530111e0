//! Durable state for the service boundary: per-region checkpoints and
//! write-ahead tick records.
//!
//! Both artifacts are thin users of `socl_model::codec`: the checkpoint image
//! is sealed in its envelope (magic `SRGN`, version, trailing CRC-32), the
//! WAL is its `Journal` over [`TickRecord`] (torn tails truncate, never
//! replay). Scaler state crosses through `socl_autoscale`'s codec pair, the
//! same one the simulator's checkpoints use.
//!
//! The [`TickRecord`] is deliberately minimal: the *local* half of a
//! region's evolution (arrivals, drains, routes, sheds) is a pure function
//! of the feed and the restored state, so it is re-derived during replay;
//! only the *remote* in-flight additions — stitched chain stages hosted
//! here but decided elsewhere — plus the oracle fields (digest, counters)
//! that prove the replay honest go to disk.

use socl_autoscale::{get_scaler_state, put_scaler_state, ScalerState};
use socl_model::codec::{open, seal, Journal, Record};
use socl_model::{BinReader, BinWriter, CodecError};

/// Checkpoint format tag (`b"SRGN"` little-endian).
const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"SRGN");
/// Region-checkpoint format version understood by this build. Bump it with
/// any change to the bytes `to_bytes` writes; `tests/persistence.rs` pins them.
const CKPT_VERSION: u32 = 2;

/// One tick of one region in the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickRecord {
    /// The tick this record closes (1-based).
    pub tick: u32,
    /// Per-service in-flight units added this tick by remote origin
    /// regions (cross-shard chain stitching).
    pub remote_add: Vec<u32>,
    /// Arrivals homed to the region this tick.
    pub arrivals: u32,
    /// Decisions issued this tick.
    pub decided: u32,
    /// Queue-full sheds this tick.
    pub shed_queue: u32,
    /// Admission sheds this tick.
    pub shed_admission: u32,
    /// Region digest after the tick — the replay oracle.
    pub digest: u64,
}

impl Record for TickRecord {
    fn encode(&self, w: &mut BinWriter) {
        w.put_u32(self.tick);
        w.put_u32_slice(&self.remote_add);
        w.put_u32(self.arrivals);
        w.put_u32(self.decided);
        w.put_u32(self.shed_queue);
        w.put_u32(self.shed_admission);
        w.put_u64(self.digest);
    }

    fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            tick: r.get_u32()?,
            remote_add: r.get_u32_vec()?,
            arrivals: r.get_u32()?,
            decided: r.get_u32()?,
            shed_queue: r.get_u32()?,
            shed_admission: r.get_u32()?,
            digest: r.get_u64()?,
        })
    }
}

/// A region's append-only WAL: a [`Journal`] of [`TickRecord`]s.
pub type RegionWal = Journal<TickRecord>;

/// A frozen image of one region's complete mutable state at a tick
/// boundary, exactly sufficient to restore and replay bit-identically.
/// Queued requests are stored as `(user, arrival tick)` pairs and go back
/// into the queue as such; a restore draws nothing, and the drain derives
/// each request from the feed when it pops it, as it does live.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionCheckpoint {
    /// Region id.
    pub region: u32,
    /// Last completed tick this image reflects.
    pub tick: u32,
    /// Queued `(user, arrival_tick)` pairs, front to back.
    pub pending: Vec<(u32, u32)>,
    /// Queue depth high-watermark.
    pub queue_high_watermark: u64,
    /// Full autoscaler state (PR 6 scaler codec).
    pub scaler: ScalerState,
    /// In-flight concurrency per service.
    pub in_flight: Vec<u32>,
    /// Expiry ring, `RING_SLOTS × services` flattened.
    pub ring: Vec<u32>,
    /// Lifetime arrival count.
    pub arrivals: u64,
    /// Lifetime decision count.
    pub decided: u64,
    /// Lifetime queue-full sheds.
    pub shed_queue: u64,
    /// Lifetime admission sheds.
    pub shed_admission: u64,
    /// Lifetime cloud fallbacks.
    pub cloud_fallbacks: u64,
    /// Decision digest after `tick`.
    pub digest: u64,
}

impl RegionCheckpoint {
    /// Serialize to the versioned wire format (`socl_model::codec::seal`:
    /// magic, version, payload, trailing CRC-32).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(CKPT_MAGIC, CKPT_VERSION, |w| {
            w.put_u32(self.region);
            w.put_u32(self.tick);
            w.put_usize(self.pending.len());
            for &(user, tick) in &self.pending {
                w.put_u32(user);
                w.put_u32(tick);
            }
            w.put_u64(self.queue_high_watermark);
            put_scaler_state(w, &self.scaler);
            w.put_u32_slice(&self.in_flight);
            w.put_u32_slice(&self.ring);
            w.put_u64(self.arrivals);
            w.put_u64(self.decided);
            w.put_u64(self.shed_queue);
            w.put_u64(self.shed_admission);
            w.put_u64(self.cloud_fallbacks);
            w.put_u64(self.digest);
        })
    }

    /// Decode and verify an image produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    /// [`CodecError`] on truncation, a trailing-CRC mismatch, a bad
    /// magic/version, or a sequence length the input cannot hold.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = open(bytes, CKPT_MAGIC, CKPT_VERSION)?;
        let region = r.get_u32()?;
        let tick = r.get_u32()?;
        let n_pending = r.seq_len(8)?;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            pending.push((r.get_u32()?, r.get_u32()?));
        }
        let ck = Self {
            region,
            tick,
            pending,
            queue_high_watermark: r.get_u64()?,
            scaler: get_scaler_state(&mut r)?,
            in_flight: r.get_u32_vec()?,
            ring: r.get_u32_vec()?,
            arrivals: r.get_u64()?,
            decided: r.get_u64()?,
            shed_queue: r.get_u64()?,
            shed_admission: r.get_u64()?,
            cloud_fallbacks: r.get_u64()?,
            digest: r.get_u64()?,
        };
        r.finish()?;
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_autoscale::{AutoscaleConfig, Autoscaler};
    use socl_model::codec::{TornTail, TornTailReason};
    use socl_model::crc32;

    fn checkpoint() -> RegionCheckpoint {
        let scaler = Autoscaler::new(AutoscaleConfig::default(), 0.5, 3, 6);
        RegionCheckpoint {
            region: 2,
            tick: 9,
            pending: vec![(4, 8), (17, 9)],
            queue_high_watermark: 5,
            scaler: scaler.state(),
            in_flight: vec![1, 0, 3],
            ring: vec![0; 15],
            arrivals: 40,
            decided: 31,
            shed_queue: 2,
            shed_admission: 5,
            cloud_fallbacks: 1,
            digest: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let ck = checkpoint();
        let bytes = ck.to_bytes();
        let back = RegionCheckpoint::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(ck, back);
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let ck = checkpoint();
        let mut bytes = ck.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(RegionCheckpoint::from_bytes(&bytes).is_err());
        assert!(RegionCheckpoint::from_bytes(&bytes[..8]).is_err());
    }

    /// A length prefix claiming one element more than the `SLACK` bytes
    /// after it can hold must fail before anything is sized from it, and
    /// envelope damage is the same typed error for both checkpoint kinds.
    #[test]
    fn length_prefix_beyond_the_input_is_a_typed_error() {
        const SLACK: usize = 20;
        let lie = |head: &[u32], elem: usize, sealed: bool| {
            let mut w = BinWriter::new();
            head.iter().for_each(|&v| w.put_u32(v));
            w.put_usize(SLACK / elem + 1);
            w.put_raw(&[0; SLACK]);
            if sealed {
                let crc = crc32(w.as_bytes());
                w.put_u32(crc);
            }
            w.into_bytes()
        };
        let truncated = |e: &CodecError| matches!(e, CodecError::Truncated { have: SLACK, .. });

        type Getter = fn(&mut BinReader<'_>) -> Result<usize, CodecError>;
        let getters: [(usize, Getter); 4] = [
            (1, |r| r.get_bytes().map(<[u8]>::len)),
            (4, |r| r.get_u32_vec().map(|v| v.len())),
            (8, |r| r.get_f64_vec().map(|v| v.len())),
            (1, |r| r.get_bool_vec().map(|v| v.len())),
        ];
        for (elem, get) in getters {
            let bytes = lie(&[], elem, false);
            let err = get(&mut BinReader::new(&bytes)).expect_err("length lie");
            assert!(truncated(&err), "elem {elem}: {err}");
        }

        // Both checkpoint kinds, through the one envelope. Body up to the
        // first sequence: region, tick, then 8-byte `pending` entries /
        // three u64 counters, then 4-byte `locations`.
        type Decode = fn(&[u8]) -> Option<CodecError>;
        let kinds: [(u32, &[u32], usize, Decode); 2] = [
            (CKPT_MAGIC, &[0; 2], 8, |b| {
                RegionCheckpoint::from_bytes(b).err()
            }),
            (u32::from_le_bytes(*b"SCKP"), &[0; 6], 4, |b| {
                socl_sim::Checkpoint::from_bytes(b).err()
            }),
        ];
        for (magic, body, elem, decode) in kinds {
            let image =
                |magic: u32, version: u32| lie(&[&[magic, version], body].concat(), elem, true);
            let err = decode(&image(magic, CKPT_VERSION)).expect("length lie");
            assert!(truncated(&err), "{err}");
            assert_eq!(
                decode(&image(magic ^ 1, CKPT_VERSION)),
                Some(CodecError::BadMagic {
                    found: magic ^ 1,
                    expected: magic
                })
            );
            assert_eq!(
                decode(&image(magic, CKPT_VERSION + 1)),
                Some(CodecError::BadVersion(CKPT_VERSION + 1))
            );
            // An image from before the last format bump is refused, not misread.
            assert_eq!(decode(&image(magic, 1)), Some(CodecError::BadVersion(1)));
            // Shorter than magic + version + CRC: nothing to check yet.
            for have in 0..12 {
                assert_eq!(
                    decode(&image(magic, CKPT_VERSION)[..have]),
                    Some(CodecError::Truncated { needed: 12, have })
                );
            }
        }
    }

    #[test]
    fn wal_roundtrips_and_truncates_torn_tail() {
        let mut wal = RegionWal::new();
        for t in 1..=3u32 {
            wal.append(&TickRecord {
                tick: t,
                remote_add: vec![0, t, 0],
                arrivals: 10 + t,
                decided: 8,
                shed_queue: 1,
                shed_admission: 1,
                digest: u64::from(t) * 99,
            });
        }
        let (back, report) = RegionWal::from_bytes(wal.as_bytes());
        assert_eq!(report.clean_records, 3);
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.reason.is_none());
        assert_eq!(
            back.records().expect("clean"),
            wal.records().expect("clean")
        );

        // Torn tail: cut the last record mid-frame.
        let bytes = wal.as_bytes();
        let torn = &bytes[..bytes.len() - 5];
        let (prefix, report) = RegionWal::from_bytes(torn);
        assert_eq!(report.clean_records, 2);
        assert!(report.reason.is_some());
        assert_eq!(prefix.records().expect("clean").len(), 2);
    }

    /// Each crash model stops the torn-tail scan for its own reason on a
    /// region's log: a dying writer's garbage frame at the checksum with
    /// every record kept, a cut last frame at the short read with the other
    /// two kept.
    #[test]
    fn each_torn_tail_stops_the_scan_for_its_own_reason() {
        let mut wal = RegionWal::new();
        for t in 1..=3u32 {
            wal.append(&TickRecord {
                tick: t,
                remote_add: vec![t, 0, 2],
                arrivals: 20 + t,
                decided: 9,
                shed_queue: t,
                shed_admission: 0,
                digest: u64::from(t) * 0x9E37,
            });
        }
        let cases = [
            (TornTail::Garbage, TornTailReason::ChecksumMismatch, 3),
            (TornTail::PartialRecord, TornTailReason::TruncatedFrame, 2),
        ];
        for seed in 0..200u64 {
            for (torn, reason, clean_records) in cases {
                let mut bytes = wal.as_bytes().to_vec();
                torn.mangle(&mut bytes, seed);
                let (back, report) = RegionWal::from_bytes(&bytes);
                assert_eq!(report.reason, Some(reason), "{torn:?}, seed {seed}");
                assert_eq!(report.clean_records, clean_records, "{torn:?}");
                assert_eq!(back.records().expect("clean").len(), clean_records);
                assert_eq!(back.as_bytes(), &wal.as_bytes()[..back.len_bytes()]);
            }
        }
    }
}
