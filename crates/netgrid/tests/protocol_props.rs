//! Property tests on the wire protocol: every frame kind round-trips
//! through encode→decode byte-exactly under both codecs (JSON v1 and
//! binary v2), the two codecs agree on message semantics, every
//! truncation is reported as `Incomplete`, oversized declared lengths
//! are rejected before any payload is read, and any flipped payload
//! byte fails the checksum. A final wire-level test pins the interop
//! promise: a v1-only agent against the v2 server only ever sees v1
//! reply frames, and still gets real work done.

use maxdo::{DockingOutput, DockingRow, EulerZyz, Vec3};
use netgrid::protocol::{
    decode_versioned, encode_with, CampaignParams, Codec, DecodeError, Message, HEADER_BYTES,
    MAGIC, MAX_FRAME_BYTES, PROTOCOL_V1, PROTOCOL_V2, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Maps a sampled index onto a codec, so every property runs under both
/// wire formats.
fn pick_codec(i: usize) -> Codec {
    if i == 0 {
        Codec::Json
    } else {
        Codec::Binary
    }
}

/// Builds one message of each protocol kind from sampled primitives.
/// `kind` selects the variant; the other arguments fill its fields.
fn build_message(
    kind: usize,
    a: u64,
    b: u32,
    x: f64,
    flags: (bool, bool),
    rows: &[(u32, u32, f64, f64)],
) -> Message {
    match kind {
        0 => Message::Hello {
            agent: a,
            threads: b,
            campaigns: Vec::new(),
        },
        1 => Message::HelloAck {
            protocol: PROTOCOL_VERSION,
            campaign: CampaignParams {
                proteins: (b % 64).max(1),
                lib_seed: a,
                h_seconds: x.abs() + 1.0,
                separation_spacing: x.abs() / 2.0 + 1.0,
                max_iterations: b % 500 + 1,
            },
            deadline_seconds: x.abs(),
            campaigns: Vec::new(),
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
            campaign: 0,
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
            campaign: 0,
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
        _ => Message::Bye,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode→decode is the identity for every frame kind under both
    /// codecs, and decode consumes exactly the frame (trailing bytes
    /// untouched) and reports which codec it saw.
    #[test]
    fn encode_decode_identity(
        codec_pick in 0usize..2,
        kind in 0usize..9,
        a in 0u64..u64::MAX,
        b in 0u32..u32::MAX,
        x in -1.0e6f64..1.0e6,
        flags in ((0u8..2), (0u8..2)),
        rows in collection::vec((1u32..500, 1u32..22, -1.0e4f64..1.0e4, -1.0e4f64..1.0e4), 0..5),
        trailer in collection::vec(0u8..=255, 0..8),
    ) {
        let codec = pick_codec(codec_pick);
        let msg = build_message(kind, a, b, x, (flags.0 == 1, flags.1 == 1), &rows);
        let frame = encode_with(&msg, codec);
        prop_assert_eq!(frame[4], codec.version());
        let mut buf = frame.to_vec();
        buf.extend_from_slice(&trailer);
        let (back, consumed, seen) = decode_versioned(&buf).expect("well-formed frame must decode");
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(seen, codec);
        // Idempotent: re-encoding the decoded message gives the same bytes.
        prop_assert_eq!(encode_with(&back, codec).as_ref(), frame.as_ref());
    }

    /// The two codecs carry identical semantics: a message encoded
    /// under v1 and under v2 decodes to the same `Message` — the
    /// cross-version equivalence the per-frame negotiation relies on.
    #[test]
    fn codecs_agree_on_every_message(
        kind in 0usize..9,
        a in 0u64..u64::MAX,
        b in 0u32..u32::MAX,
        x in -1.0e6f64..1.0e6,
        flags in ((0u8..2), (0u8..2)),
        rows in collection::vec((1u32..500, 1u32..22, -1.0e4f64..1.0e4, -1.0e4f64..1.0e4), 0..5),
    ) {
        let msg = build_message(kind, a, b, x, (flags.0 == 1, flags.1 == 1), &rows);
        let json_frame = encode_with(&msg, Codec::Json);
        let binary_frame = encode_with(&msg, Codec::Binary);
        let (from_json, _, c1) = decode_versioned(&json_frame).expect("v1 frame decodes");
        let (from_binary, _, c2) = decode_versioned(&binary_frame).expect("v2 frame decodes");
        prop_assert_eq!(c1, Codec::Json);
        prop_assert_eq!(c2, Codec::Binary);
        prop_assert_eq!(&from_json, &msg);
        prop_assert_eq!(&from_binary, &msg);
    }

    /// Every strict prefix of a valid frame — either codec — decodes to
    /// `Incomplete` with a positive byte count; never a panic, never a
    /// wrong message.
    #[test]
    fn any_truncation_is_incomplete(
        codec_pick in 0usize..2,
        kind in 0usize..9,
        a in 0u64..u64::MAX,
        b in 0u32..u32::MAX,
        x in -1.0e6f64..1.0e6,
        rows in collection::vec((1u32..500, 1u32..22, -1.0e4f64..1.0e4, -1.0e4f64..1.0e4), 0..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let codec = pick_codec(codec_pick);
        let msg = build_message(kind, a, b, x, (false, true), &rows);
        let frame = encode_with(&msg, codec);
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
    /// header alone under either version byte, whatever the declared
    /// length's value.
    #[test]
    fn oversized_length_rejected(version in 0usize..2, excess in 1u64..1_000_000) {
        let version = if version == 0 { PROTOCOL_V1 } else { PROTOCOL_V2 };
        let len = (MAX_FRAME_BYTES as u64 + excess).min(u64::from(u32::MAX)) as u32;
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(&MAGIC);
        header.push(version);
        header.extend_from_slice(&len.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        match decode_versioned(&header) {
            Err(DecodeError::Oversized { len: got }) => prop_assert_eq!(got, len as usize),
            other => prop_assert!(false, "declared {} gave {:?}", len, other),
        }
    }

    /// Any single flipped payload bit fails the checksum under either
    /// codec (or, for a frame-level mutation, some other decode error)
    /// — it never decodes as a valid message.
    #[test]
    fn flipped_payload_byte_never_decodes(
        codec_pick in 0usize..2,
        kind in 0usize..9,
        a in 0u64..u64::MAX,
        b in 0u32..u32::MAX,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let codec = pick_codec(codec_pick);
        let msg = build_message(kind, a, b, 1.5, (true, false), &[]);
        let mut frame = encode_with(&msg, codec).to_vec();
        let payload_len = frame.len() - HEADER_BYTES;
        prop_assume!(payload_len > 0);
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

    /// A corrupt collection-count prefix in a binary frame decodes to a
    /// clean `Payload` error — never a panic, and never a huge up-front
    /// allocation: counts beyond the payload remainder are rejected on
    /// sight, and counts within it cap the reader's reservation to the
    /// bytes actually present, so the worst a forged prefix buys is one
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
        let frame = encode_with(&msg, Codec::BinaryV3);
        let mut payload = frame[HEADER_BYTES..].to_vec();
        let off = 1 + 2 + 2; // tag + shards + self_shard
        let original =
            u32::from_le_bytes(payload[off..off + 4].try_into().unwrap());
        prop_assume!(forged != original);
        payload[off..off + 4].copy_from_slice(&forged.to_le_bytes());
        let reframed = netgrid::protocol::frame_payload_versioned(
            netgrid::protocol::PROTOCOL_V3,
            &payload,
        );
        prop_assert!(
            matches!(decode_versioned(&reframed), Err(DecodeError::Payload(_))),
            "forged count {} (was {}) must be a Payload error",
            forged,
            original
        );
    }

    /// A v2 frame whose *payload* is garbage (checksum patched to match)
    /// is rejected as `Payload`, not misread as some other message —
    /// the strict binary decoder never guesses.
    #[test]
    fn patched_garbage_binary_payload_rejected(
        payload in collection::vec(0u8..=255, 1..64),
    ) {
        // Tag bytes used by the v2 codec are 0..=8; anything higher is
        // unconditionally garbage, and 0..=8 with random tails is
        // overwhelmingly malformed too — filter to the certain case.
        prop_assume!(payload[0] > 8);
        let frame = netgrid::protocol::frame_payload_versioned(PROTOCOL_V2, &payload);
        prop_assert!(
            matches!(decode_versioned(&frame), Err(DecodeError::Payload { .. })),
            "garbage payload must be rejected as Payload"
        );
    }
}

/// The per-frame negotiation promise, pinned at the socket level: an
/// old agent that only speaks protocol v1 talks to the v2 server,
/// *every* reply frame it receives carries version byte 1, and it still
/// completes real work — while a modern binary-codec agent works the
/// same campaign on the other socket.
#[test]
fn v1_only_agent_against_v2_server_stays_on_v1() {
    use netgrid::protocol::write_message;
    use netgrid::{run_agent, AgentConfig, NetCampaign, NetServer, NetServerConfig};
    use std::io::Read;
    use std::net::TcpStream;
    use std::time::Duration;

    let config = NetServerConfig {
        sweep_ms: 25,
        ..NetServerConfig::loopback(5.0)
    };
    let server = NetServer::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || server.run());

    // The modern half of the grid: a threaded agent on the binary codec
    // carries the campaign so the v1 session below never wedges waiting
    // for a quorum partner.
    let helper_addr = addr.clone();
    let helper = std::thread::spawn(move || {
        run_agent(AgentConfig {
            codec: Codec::Binary,
            ..AgentConfig::new(helper_addr, 901)
        })
    });

    // The legacy half: a hand-rolled v1-only session. It frames every
    // outgoing message with `write_message` (always protocol v1) and
    // inspects the raw version byte of every frame that comes back.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write_message(
        &mut stream,
        &Message::Hello {
            agent: 902,
            threads: 1,
            campaigns: Vec::new(),
        },
    )
    .expect("hello");

    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut campaign: Option<NetCampaign> = None;
    let mut assignments = 0u32;
    let mut accepted = 0u32;
    'session: loop {
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed the v1 session early");
        buf.extend_from_slice(&chunk[..n]);
        loop {
            match decode_versioned(&buf) {
                Ok((msg, consumed, codec)) => {
                    assert_eq!(
                        buf[4], PROTOCOL_V1,
                        "v1-only agent received a frame with version byte {}",
                        buf[4]
                    );
                    assert_eq!(codec, Codec::Json);
                    buf.drain(..consumed);
                    match msg {
                        Message::HelloAck {
                            campaign: params, ..
                        } => {
                            campaign = Some(NetCampaign::build(params));
                            write_message(&mut stream, &Message::RequestWork).expect("request");
                        }
                        Message::Assignment {
                            replica, workunit, ..
                        } => {
                            assignments += 1;
                            let campaign = campaign.as_ref().expect("HelloAck precedes work");
                            let output = campaign.compute(campaign.spec(workunit));
                            write_message(
                                &mut stream,
                                &Message::ResultReport {
                                    replica,
                                    workunit,
                                    campaign: 0,
                                    output,
                                },
                            )
                            .expect("report");
                        }
                        Message::ResultAck {
                            accepted: ok,
                            campaign_complete,
                            ..
                        } => {
                            accepted += u32::from(ok);
                            if campaign_complete {
                                break 'session;
                            }
                            write_message(&mut stream, &Message::RequestWork).expect("request");
                        }
                        Message::NoWork {
                            campaign_complete, ..
                        } => {
                            if campaign_complete {
                                break 'session;
                            }
                            std::thread::sleep(Duration::from_millis(25));
                            write_message(&mut stream, &Message::RequestWork).expect("request");
                        }
                        Message::Busy { retry_after_ms } => {
                            std::thread::sleep(Duration::from_millis(retry_after_ms.min(100)));
                            write_message(&mut stream, &Message::RequestWork).expect("request");
                        }
                        other => panic!("unexpected server frame: {other:?}"),
                    }
                }
                Err(DecodeError::Incomplete { .. }) => break,
                Err(e) => panic!("undecodable server frame: {e:?}"),
            }
        }
    }
    let _ = write_message(&mut stream, &Message::Bye);
    drop(stream);

    helper.join().unwrap().expect("helper agent ran");
    let run = server.join().unwrap().expect("server ran");
    assert!(
        assignments > 0 && accepted > 0,
        "the v1 session must have done real work ({assignments} assignments, {accepted} accepted)"
    );
    assert!(
        !run.outputs.is_empty(),
        "campaign must have produced outputs"
    );
}
