//! Property tests on the wire protocol: every one of the fifteen frame
//! kinds — campaign indices, attachment lists, rosters, address lists
//! and lease vectors sampled, not defaulted — round-trips through
//! encode→decode byte-exactly, every truncation is reported as
//! `Incomplete`, oversized declared lengths are rejected before any
//! payload is read, any flipped payload byte fails the checksum, and
//! forged counts or garbage payloads are clean `Payload` errors.

use maxdo::{DockingOutput, DockingRow, EulerZyz, Vec3};
use netgrid::protocol::{
    decode_versioned, encode_with, frame_payload_versioned, CampaignParams, Codec, DecodeError,
    Message, HEADER_BYTES, MAGIC, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Message kinds (= wire tags) [`build_message`] can produce.
const KINDS: usize = 15;

/// A campaign / address string from a sampled integer: its hex digits
/// cut to a sampled length, the empty string included.
fn name_of(n: u64) -> String {
    let mut name = format!("{n:016x}");
    name.truncate((n % 17) as usize);
    name
}

fn params_of(a: u64, b: u32, x: f64) -> CampaignParams {
    CampaignParams {
        proteins: (b % 64).max(1),
        lib_seed: a,
        h_seconds: x.abs() + 1.0,
        separation_spacing: x.abs() / 2.0 + 1.0,
        max_iterations: b % 500 + 1,
    }
}

/// Builds one message of each protocol kind from sampled primitives.
/// `kind` selects the variant (its wire tag); the other arguments fill
/// its fields — `ids` supplies every variable-length list (names and
/// addresses via [`name_of`], lease ids, leased workunits).
fn build_message(
    kind: usize,
    (a, b, c): (u64, u32, u16),
    x: f64,
    flags: (bool, bool),
    rows: &[(u32, u32, f64, f64)],
    ids: &[u64],
) -> Message {
    let names = || ids.iter().map(|&n| name_of(n)).collect::<Vec<_>>();
    let campaign = (b >> 16) as u16;
    match kind {
        0 => Message::Hello {
            agent: a,
            threads: b,
            campaigns: names(),
        },
        1 => Message::HelloAck {
            protocol: PROTOCOL_VERSION,
            campaign: params_of(a, b, x),
            deadline_seconds: x.abs(),
            campaigns: ids
                .iter()
                .map(|&n| (name_of(n), params_of(n, b, x)))
                .collect(),
        },
        2 => Message::RequestWork,
        3 => Message::Assignment {
            replica: a,
            workunit: b,
            receptor: b % 7,
            ligand: b % 5,
            isep_start: b % 100 + 1,
            positions: b % 50 + 1,
            deadline_seconds: x.abs(),
            campaign: c,
        },
        4 => Message::NoWork {
            campaign_complete: flags.0,
            retry_after_ms: a % 10_000,
        },
        5 => Message::Busy {
            retry_after_ms: a % 10_000,
        },
        6 => Message::ResultReport {
            replica: a,
            workunit: b,
            campaign: c,
            output: DockingOutput {
                rows: rows
                    .iter()
                    .map(|&(isep, irot, e1, e2)| DockingRow {
                        isep,
                        irot,
                        position: Vec3::new(e1, e2, e1 - e2),
                        orientation: EulerZyz {
                            alpha: e1 / 10.0,
                            beta: e2 / 10.0,
                            gamma: (e1 + e2) / 10.0,
                        },
                        elj: e1,
                        eelec: e2,
                    })
                    .collect(),
                evaluations: a,
            },
        },
        7 => Message::ResultAck {
            accepted: flags.0,
            completed_workunit: flags.1,
            campaign_complete: flags.0 != flags.1,
        },
        8 => Message::Bye,
        9 => Message::ShardMapRequest,
        10 => Message::ShardMap {
            shards: c,
            self_shard: campaign,
            addrs: names(),
        },
        11 => Message::Redirect {
            shard: c,
            addr: name_of(a),
        },
        12 => Message::ShardStatus {
            shard: c,
            fresh_backlog: a,
            outstanding: u64::from(b),
            complete: flags.0,
            hungry: flags.1,
            leases_held: ids.to_vec(),
            campaign,
        },
        13 => Message::LeaseGrant {
            lease: a,
            from_shard: c,
            wus: ids.iter().map(|&n| n as u32).collect(),
            complete: flags.0,
            campaign,
        },
        _ => Message::StatusAck {
            shard: c,
            complete: flags.1,
        },
    }
}

/// `build_message` covers the protocol: kind `k` is wire tag `k`.
#[test]
fn every_kind_is_its_wire_tag() {
    for kind in 0..KINDS {
        let msg = build_message(kind, (1, 2, 3), 1.0, (true, false), &[], &[5]);
        assert_eq!(usize::from(encode_with(&msg, Codec)[HEADER_BYTES]), kind);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode→decode is the identity for every frame kind, and decode
    /// consumes exactly the frame (trailing bytes untouched).
    #[test]
    fn encode_decode_identity(
        kind in 0usize..KINDS,
        nums in (0u64..u64::MAX, 0u32..u32::MAX, 0u16..u16::MAX),
        x in -1.0e6f64..1.0e6,
        flags in ((0u8..2), (0u8..2)),
        rows in collection::vec((1u32..500, 1u32..22, -1.0e4f64..1.0e4, -1.0e4f64..1.0e4), 0..5),
        ids in collection::vec(0u64..u64::MAX, 0..5),
        trailer in collection::vec(0u8..=255, 0..8),
    ) {
        let msg = build_message(kind, nums, x, (flags.0 == 1, flags.1 == 1), &rows, &ids);
        let frame = encode_with(&msg, Codec);
        prop_assert_eq!(frame[4], PROTOCOL_VERSION);
        let mut buf = frame.to_vec();
        buf.extend_from_slice(&trailer);
        let (back, consumed, _) = decode_versioned(&buf).expect("well-formed frame must decode");
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(consumed, frame.len());
        // Idempotent: re-encoding the decoded message gives the same bytes.
        prop_assert_eq!(encode_with(&back, Codec).as_ref(), frame.as_ref());
    }

    /// Every strict prefix of a valid frame decodes to `Incomplete` with
    /// a positive byte count; never a panic, never a wrong message.
    #[test]
    fn any_truncation_is_incomplete(
        kind in 0usize..KINDS,
        nums in (0u64..u64::MAX, 0u32..u32::MAX, 0u16..u16::MAX),
        x in -1.0e6f64..1.0e6,
        rows in collection::vec((1u32..500, 1u32..22, -1.0e4f64..1.0e4, -1.0e4f64..1.0e4), 0..4),
        ids in collection::vec(0u64..u64::MAX, 0..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let msg = build_message(kind, nums, x, (false, true), &rows, &ids);
        let frame = encode_with(&msg, Codec);
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < frame.len());
        match decode_versioned(&frame[..cut]) {
            Err(DecodeError::Incomplete { needed }) => {
                prop_assert!(needed > 0);
                // The hint is honest: supplying that many bytes makes
                // progress past `Incomplete` at this cut point.
                prop_assert!(cut + needed <= frame.len());
            }
            other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
        }
    }

    /// A header declaring more than MAX_FRAME_BYTES is rejected from the
    /// header alone, whatever the declared length's value.
    #[test]
    fn oversized_length_rejected(excess in 1u64..1_000_000) {
        let len = (MAX_FRAME_BYTES as u64 + excess).min(u64::from(u32::MAX)) as u32;
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(&MAGIC);
        header.push(PROTOCOL_VERSION);
        header.extend_from_slice(&len.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        match decode_versioned(&header) {
            Err(DecodeError::Oversized { len: got }) => prop_assert_eq!(got, len as usize),
            other => prop_assert!(false, "declared {} gave {:?}", len, other),
        }
    }

    /// Any single flipped payload bit fails the checksum — it never
    /// decodes as a valid message.
    #[test]
    fn flipped_payload_byte_never_decodes(
        kind in 0usize..KINDS,
        nums in (0u64..u64::MAX, 0u32..u32::MAX, 0u16..u16::MAX),
        ids in collection::vec(0u64..u64::MAX, 0..4),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let msg = build_message(kind, nums, 1.5, (true, false), &[], &ids);
        let mut frame = encode_with(&msg, Codec).to_vec();
        let payload_len = frame.len() - HEADER_BYTES;
        let idx = HEADER_BYTES + ((payload_len as f64) * byte_frac) as usize;
        prop_assume!(idx < frame.len());
        frame[idx] ^= 1 << bit;
        prop_assert!(
            matches!(decode_versioned(&frame), Err(DecodeError::Checksum { .. })),
            "flipping payload byte {} bit {} did not fail the checksum",
            idx,
            bit
        );
    }

    /// A corrupt collection-count prefix decodes to a clean `Payload`
    /// error — never a panic, and never a huge up-front allocation:
    /// counts beyond the payload remainder are rejected on sight, and
    /// counts within it cap the reader's reservation to the bytes
    /// actually present, so the worst a forged prefix buys is one
    /// frame's worth of memory.
    #[test]
    fn corrupt_count_prefix_never_panics_or_balloons(
        forged in 0u32..u32::MAX,
        shards in 1u16..8,
    ) {
        let addrs: Vec<String> = (0..shards)
            .map(|i| format!("127.0.0.1:{}", 7000 + i))
            .collect();
        let msg = Message::ShardMap {
            shards,
            self_shard: 0,
            addrs,
        };
        let frame = encode_with(&msg, Codec);
        let mut payload = frame[HEADER_BYTES..].to_vec();
        let off = 1 + 2 + 2; // tag + shards + self_shard
        let original =
            u32::from_le_bytes(payload[off..off + 4].try_into().unwrap());
        prop_assume!(forged != original);
        payload[off..off + 4].copy_from_slice(&forged.to_le_bytes());
        let reframed = frame_payload_versioned(PROTOCOL_VERSION, &payload);
        prop_assert!(
            matches!(decode_versioned(&reframed), Err(DecodeError::Payload(_))),
            "forged count {} (was {}) must be a Payload error",
            forged,
            original
        );
    }

    /// A frame whose *payload* is garbage (checksum patched to match)
    /// is rejected as `Payload`, not misread as some other message —
    /// the strict decoder never guesses.
    #[test]
    fn patched_garbage_binary_payload_rejected(
        payload in collection::vec(0u8..=255, 1..64),
    ) {
        // Tags are 0..=14; anything higher is unconditionally garbage,
        // and a known tag with a random tail is overwhelmingly
        // malformed too — filter to the certain case.
        prop_assume!(payload[0] > 14);
        let frame = frame_payload_versioned(PROTOCOL_VERSION, &payload);
        prop_assert!(
            matches!(decode_versioned(&frame), Err(DecodeError::Payload { .. })),
            "garbage payload must be rejected as Payload"
        );
    }
}
