//! The persistence layer seen from outside. The four durable artefacts
//! (simulator checkpoint, region checkpoint, decision log, region WAL) all
//! ride `socl_model::codec`'s one envelope and one journal, so their wire
//! compatibility and their behaviour on damaged input are pinned once, here,
//! for all four; so is the one text format, the JSON snapshot documents
//! `socl_model::io` writes.

#![allow(clippy::expect_used, clippy::panic, reason = "test code")]

use socl::autoscale::{ScalerState, ServiceStateSnapshot};
use socl::model::codec::{Journal, Record, TornTailReason};
use socl::model::{crc32, CodecError, ScenarioSnapshot};
use socl::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

// The fixtures are struct literals holding a non-default value in every
// field: a field added to a checkpoint struct stops this file compiling
// until it is given one here, a field its codec then forgets cannot
// round-trip (`sweep_envelope`), and one it carries moves the pinned bytes
// (`wire_format_is_pinned`) until the version is bumped on purpose.

fn scaler_state() -> ScalerState {
    ScalerState {
        services: 2,
        nodes: 3,
        counts: vec![1, 0, 2, 0, 1, 0],
        caps: vec![4, 6],
        states: vec![
            ServiceStateSnapshot {
                samples: vec![(1.0, 2.5), (2.0, 3.5)],
                desires: vec![(2.0, 3)],
                last_down: f64::NEG_INFINITY,
                panic_until: 4.0,
            },
            ServiceStateSnapshot {
                samples: Vec::new(),
                desires: Vec::new(),
                last_down: 1.5,
                panic_until: f64::NEG_INFINITY,
            },
        ],
        up_events: 5,
        down_events: 2,
        cold_start: 0.5,
    }
}

fn sim_checkpoint() -> Checkpoint {
    let request = |id: u32, at: u32, chain: &[u32]| UserRequest {
        id: UserId(id),
        location: NodeId(at),
        chain: chain.iter().copied().map(ServiceId).collect(),
        edge_data: (1..chain.len()).map(|i| 0.25 * i as f64).collect(),
        r_in: 0.5,
        r_out: 0.125,
        d_max: 2.0 + f64::from(id),
    };
    Checkpoint {
        next_slot: 5,
        fault_cursor: 2,
        billed_replica_slots: 77,
        locations: vec![NodeId(0), NodeId(2), NodeId(1)],
        requests: vec![
            request(0, 0, &[1, 0]),
            request(1, 2, &[0]),
            request(2, 1, &[0, 1]),
        ],
        alive: vec![true, false, true],
        alive_links: vec![true, true, false, true],
        rng: RngState {
            seed: [7; 32],
            stream: 1,
            word_pos: 1234,
        },
        mobility_rng: RngState {
            seed: [9; 32],
            stream: 2,
            word_pos: u128::from(u64::MAX) + 99,
        },
        scaler: Some(scaler_state()),
    }
}

fn region_checkpoint() -> RegionCheckpoint {
    RegionCheckpoint {
        region: 2,
        tick: 9,
        pending: vec![(4, 8), (17, 9)],
        queue_high_watermark: 5,
        scaler: scaler_state(),
        in_flight: vec![1, 3],
        ring: vec![0, 1, 1, 0, 0, 1, 0, 0, 0, 1],
        arrivals: 40,
        decided: 31,
        shed_queue: 2,
        shed_admission: 5,
        cloud_fallbacks: 1,
        digest: 0xDEAD_BEEF_0BAD_F00D,
    }
}

fn log_records() -> Vec<LogRecord> {
    vec![
        LogRecord::CheckpointTaken { slot: 0, bytes: 99 },
        LogRecord::ScalerTick {
            slot: 2,
            ups: 3,
            downs: 1,
        },
        LogRecord::SlotEnd {
            slot: 2,
            metrics: SlotMetrics {
                slot: 2,
                objective_bits: 1.5f64.to_bits(),
                cost_bits: 2.5f64.to_bits(),
                mean_latency_bits: 0.25f64.to_bits(),
                max_latency_bits: 0.5f64.to_bits(),
                fallbacks: 1,
                failed_nodes: 2,
                mid_slot_failures: 0,
                repair_churn: 6,
                scale_ups: 3,
                scale_downs: 1,
                shed_requests: 4,
                replicas: 17,
            },
        },
    ]
}

fn tick_records() -> Vec<TickRecord> {
    (1..=3u32)
        .map(|t| TickRecord {
            tick: t,
            remote_add: vec![0, t, 0],
            arrivals: 10 + t,
            decided: 8,
            shed_queue: 1,
            shed_admission: t % 2,
            digest: u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        })
        .collect()
}

fn journal<R: Record>(records: &[R]) -> Journal<R> {
    let mut log = Journal::new();
    records.iter().for_each(|r| log.append(r));
    log
}

/// FNV-1a 64 — the pin below cannot use `crc32`: an image that ends in its
/// own CRC-32 always digests to the residue `0x2144_DF1C`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(fnv1a(image), image.len())` of the four fixtures, recorded at the commit
/// before the envelope and the journal moved into `socl_model::codec`. They
/// move only with a deliberate format change (and a `CKPT_VERSION` bump).
#[test]
fn wire_format_is_pinned() {
    let log: DecisionLog = journal(&log_records());
    let wal: RegionWal = journal(&tick_records());
    let images = [
        sim_checkpoint().to_bytes(),
        region_checkpoint().to_bytes(),
        log.into_bytes(),
        wal.into_bytes(),
    ];
    let got = images.each_ref().map(|b| (fnv1a(b), b.len()));
    let pinned = [
        (0xa9a3_4677_b42c_823a, 584),
        (0xb433_0423_fbee_878d, 368),
        (0x6d4a_d4ef_f57e_9f2a, 175),
        (0xff8c_d06f_3a69_e4f1, 168),
    ];
    assert_eq!(
        got, pinned,
        "[Checkpoint, RegionCheckpoint, DecisionLog, RegionWal]"
    );
}

// ---------------------------------------------------------------------------
// Corruption sweep.
// ---------------------------------------------------------------------------

/// Records the largest single request a thread makes of the allocator while
/// [`bounded`] has it armed, so "no reservation sized from a corrupt length"
/// is an assertion and not a reading of the decoder.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = PEAK.try_with(|p| p.set(p.get().map(|peak| peak.max(size))));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only touches a `Cell<Option<usize>>`, which
// neither allocates nor has a destructor.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Run a decoder over `input` and fail if any single allocation it made was
/// out of proportion to the bytes it was given. The factor covers the
/// in-memory size of the smallest record (a 17-byte `SlotBegin` frame decodes
/// to a 120-byte `LogRecord`) times `Vec`'s doubling, the constant `Vec`'s
/// four-element minimum; a length prefix taken on trust would overshoot both
/// by orders of magnitude.
fn bounded<T>(input: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    PEAK.set(Some(0));
    let out = decode(input);
    let peak = PEAK.take().unwrap_or(0);
    assert!(
        peak <= 16 * input.len() + 512,
        "a {peak}-byte allocation while decoding {} bytes",
        input.len()
    );
    out
}

fn flipped(image: &[u8], bit: usize) -> Vec<u8> {
    let mut bad = image.to_vec();
    bad[bit / 8] ^= 1 << (bit % 8);
    bad
}

/// Every strict prefix and every single-bit flip of a sealed image is stopped
/// by the envelope (short, or checksum); the same flips re-sealed under a
/// valid CRC reach the field decoders, which never panic or over-allocate
/// and accept only what encodes back to the very bytes they were given.
fn sweep_envelope<T: PartialEq + Debug>(
    value: &T,
    encode: fn(&T) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<T, CodecError>,
) {
    let image = &encode(value)[..];
    assert_eq!(bounded(image, decode).as_ref(), Ok(value));
    // An image that ends in its own CRC-32 digests to the CRC-32 residue.
    assert_eq!(crc32(image), 0x2144_DF1C);
    for cut in 0..image.len() {
        let err = bounded(&image[..cut], decode).expect_err("strict prefix");
        match err {
            CodecError::Truncated { needed: 12, have } => assert_eq!((have, cut < 12), (cut, true)),
            CodecError::BadChecksum { .. } => assert!(cut >= 12),
            other => panic!("prefix {cut}: {other}"),
        }
    }
    let body = image.len() - 4;
    for bit in 0..image.len() * 8 {
        let mut bad = flipped(image, bit);
        let err = bounded(&bad, decode).expect_err("bit flip");
        assert!(
            matches!(err, CodecError::BadChecksum { .. }),
            "bit {bit}: {err}"
        );
        if bit / 8 < body {
            let crc = crc32(&bad[..body]);
            bad[body..].copy_from_slice(&crc.to_le_bytes());
            if let Ok(other) = bounded(&bad, decode) {
                assert_eq!(encode(&other), bad, "bit {bit}: not the canonical encoding");
            }
        }
    }
}

/// Every strict prefix and every single-bit flip of a journal scans to the
/// whole frames before the damage — byte-exact, with the cut reported — and
/// payload flips re-framed under a valid CRC are either a malformed record
/// (cut there) or records that encode back to the very bytes given, never a
/// panic or an over-allocation.
fn sweep_journal<R: Record + PartialEq + Debug>(records: &[R]) {
    let mut log = Journal::new();
    // Frame boundaries: `ends[i]` is where record `i` stops.
    let ends: Vec<usize> = records
        .iter()
        .map(|r| {
            log.append(r);
            log.len_bytes()
        })
        .collect();
    let image = log.into_bytes();
    let scan = |input: &[u8], whole: usize, what: &str| {
        let (clean, report) = bounded(input, Journal::<R>::from_bytes);
        let kept = if whole == 0 { 0 } else { ends[whole - 1] };
        assert_eq!(clean.as_bytes(), &image[..kept], "{what}");
        assert_eq!(report.clean_records, whole, "{what}");
        assert_eq!(report.truncated_bytes, input.len() - kept, "{what}");
        assert_eq!(report.reason.is_some(), kept != input.len(), "{what}");
        let decoded = bounded(clean.as_bytes(), |_| clean.records());
        assert_eq!(decoded.as_deref(), Ok(&records[..whole]), "{what}");
    };
    scan(&image, records.len(), "intact");
    for cut in 0..image.len() {
        let whole = ends.iter().filter(|&&e| e <= cut).count();
        scan(&image[..cut], whole, &format!("prefix {cut}"));
    }
    for bit in 0..image.len() * 8 {
        // The frame the flipped byte lies in, and where that frame starts.
        let frame = ends.iter().filter(|&&e| e <= bit / 8).count();
        let start = if frame == 0 { 0 } else { ends[frame - 1] };
        let mut bad = flipped(&image, bit);
        scan(&bad, frame, &format!("bit {bit}"));
        // `[u32 len][u32 crc32(payload)][payload]`: fix a damaged payload's CRC.
        let payload = start + 8;
        if bit / 8 >= payload {
            let crc = crc32(&bad[payload..ends[frame]]);
            bad[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
            let (clean, report) = bounded(&bad, Journal::<R>::from_bytes);
            match report.reason {
                Some(reason) => {
                    assert_eq!(reason, TornTailReason::MalformedRecord, "bit {bit}");
                    assert_eq!(clean.as_bytes(), &image[..start], "bit {bit}");
                }
                None => {
                    let decoded = clean.records().expect("clean scan");
                    assert_eq!(
                        journal(&decoded).as_bytes(),
                        bad,
                        "bit {bit}: not canonical"
                    );
                }
            }
        }
    }
}

#[test]
fn damaged_input_is_a_typed_error_for_all_four_artefacts() {
    sweep_envelope(
        &sim_checkpoint(),
        Checkpoint::to_bytes,
        Checkpoint::from_bytes,
    );
    sweep_envelope(
        &region_checkpoint(),
        RegionCheckpoint::to_bytes,
        RegionCheckpoint::from_bytes,
    );
    sweep_journal(&log_records());
    sweep_journal(&tick_records());
}

// ---------------------------------------------------------------------------
// The text format: JSON snapshots (`socl_model::io`).
// ---------------------------------------------------------------------------

/// A snapshot written by hand in serde_json's pretty layout — the text the
/// serde derives produced before `socl_model::io` had its own writer.
const HAND: &str = r#"{
  "version": 1,
  "servers": [
    {
      "compute_gflops": 12.5,
      "storage_units": 6.0,
      "position": [
        0.0,
        -35.25
      ]
    },
    {
      "compute_gflops": 5.0,
      "storage_units": 4.0,
      "position": [
        100.0,
        1e300
      ]
    }
  ],
  "links": [
    [
      0,
      1,
      {
        "bandwidth": 40.0,
        "tx_power": 1.0,
        "channel_gain": 1.0,
        "noise": 2.2250738585072014e-308
      }
    ]
  ],
  "catalog": [
    {
      "name": "cart\"v2\"\n\u0001é",
      "deploy_cost": 120.0,
      "storage": 1.0,
      "compute_gflop": 0.30000000000000004
    }
  ],
  "requests": [
    {
      "id": 7,
      "location": 1,
      "chain": [
        0
      ],
      "edge_data": [],
      "r_in": 0.5,
      "r_out": -0.0,
      "d_max": 2.0
    }
  ],
  "lambda": 0.5,
  "budget": 6000.0,
  "latency_scale": 1000.0,
  "cloud_penalty": 5.0
}"#;

fn hand() -> ScenarioSnapshot {
    ScenarioSnapshot {
        version: 1,
        servers: vec![
            EdgeServer {
                compute_gflops: 12.5,
                storage_units: 6.0,
                position: (0.0, -35.25),
            },
            EdgeServer {
                compute_gflops: 5.0,
                storage_units: 4.0,
                position: (100.0, 1e300),
            },
        ],
        links: vec![(
            0,
            1,
            LinkParams {
                noise: f64::MIN_POSITIVE,
                ..LinkParams::from_rate(40.0)
            },
        )],
        catalog: vec![Microservice::named(
            "cart\"v2\"\n\u{1}é",
            120.0,
            1.0,
            0.1 + 0.2,
        )],
        requests: vec![UserRequest {
            id: UserId(7),
            location: NodeId(1),
            chain: vec![ServiceId(0)],
            edge_data: Vec::new(),
            r_in: 0.5,
            r_out: -0.0,
            d_max: 2.0,
        }],
        lambda: 0.5,
        budget: 6000.0,
        latency_scale: 1000.0,
        cloud_penalty: 5.0,
    }
}

#[test]
fn document_shape_and_floats_are_pinned_both_ways() {
    assert_eq!(hand().to_json(), HAND);
    // `==` cannot tell -0.0 from 0.0: the text each awkward float of
    // `hand()` is printed as parses back to the same bits.
    for (text, value) in [
        ("1e300", 1e300),
        ("2.2250738585072014e-308", f64::MIN_POSITIVE),
        ("0.30000000000000004", 0.1 + 0.2),
        ("-0.0", -0.0),
    ] {
        assert!(HAND.contains(text), "{text} is not in the document");
        assert_eq!(
            text.parse::<f64>().map(f64::to_bits),
            Ok(value.to_bits()),
            "{text}"
        );
    }
}
