//! The wire, byte for byte: one recorded frame per [`Message`] variant.
//!
//! The literals below are a format, not a regression snapshot: they were
//! recorded from the v4 binary codec *before* the JSON/v2/v3 dialects
//! were removed and must never be edited. Every frame a deployed agent
//! or server can send is built from these fifteen shapes, so as long as
//! this file passes, `wire_bytes_per_wu` and the report frame size
//! cannot move and an agent built at either commit talks to a server
//! built at the other. Each sample carries non-default values in every
//! field that was ever optional on an older dialect (campaign index,
//! attachment list, roster, address list, lease vectors).
//!
//! The codec value comes from [`AgentConfig::new`], exactly as a stock
//! agent gets it, so this file names no dialect and compiles unchanged
//! on both sides of the removal.

use maxdo::{DockingOutput, DockingRow, EulerZyz, Vec3};
use netgrid::protocol::{decode_versioned, encode_with, Message, HEADER_BYTES};
use netgrid::{AgentConfig, CampaignParams};

fn params(proteins: u32, lib_seed: u64) -> CampaignParams {
    CampaignParams {
        proteins,
        lib_seed,
        h_seconds: 40.0,
        separation_spacing: 30.0,
        max_iterations: 10,
    }
}

fn row(isep: u32, irot: u32, shift: f64) -> DockingRow {
    DockingRow {
        isep,
        irot,
        position: Vec3::new(1.0 + shift, -2.0, 3.5),
        orientation: EulerZyz {
            alpha: 0.25,
            beta: -0.5 - shift,
            gamma: 1.75,
        },
        elj: -4.25,
        eelec: 0.5 + shift,
    }
}

/// Every variant, in tag order, with its recorded frame.
fn golden() -> Vec<(Message, &'static str)> {
    vec![
        (
            Message::Hello {
                agent: 0x0102_0304_0506_0708,
                threads: 4,
                campaigns: vec!["prod".into(), "pilot".into()],
            },
            "48434d4404 22000000 b83001d4d595e40d
             00080706050403020104000000020000000400000070726f640500000070696c
             6f74",
        ),
        (
            Message::HelloAck {
                protocol: 4,
                campaign: params(2, 7),
                deadline_seconds: 3.0,
                campaigns: vec![
                    ("prod".into(), params(2, 7)),
                    ("pilot".into(), params(6, 0xdead_beef)),
                ],
            },
            "48434d4404 7f000000 f06108da66fa8a95
             010402000000070000000000000000000000000044400000000000003e400a00
             00000000000000000840020000000400000070726f6402000000070000000000
             000000000000000044400000000000003e400a0000000500000070696c6f7406
             000000efbeadde0000000000000000000044400000000000003e400a000000",
        ),
        (
            Message::RequestWork,
            "48434d4404 01000000 06f51686a41589a9
             02",
        ),
        (
            Message::Assignment {
                replica: 7,
                workunit: 3,
                receptor: 1,
                ligand: 2,
                isep_start: 5,
                positions: 2,
                deadline_seconds: 9.0,
                campaign: 1,
            },
            "48434d4404 27000000 17c5ee47da191ceb
             0307000000000000000300000001000000020000000500000002000000000000
             00000022400100",
        ),
        (
            Message::NoWork {
                campaign_complete: true,
                retry_after_ms: 150,
            },
            "48434d4404 0a000000 2f90de556470d2b1
             04019600000000000000",
        ),
        (
            Message::Busy {
                retry_after_ms: 500,
            },
            "48434d4404 09000000 12099aec39613145
             05f401000000000000",
        ),
        (
            Message::ResultReport {
                replica: 7,
                workunit: 3,
                campaign: 1,
                output: DockingOutput {
                    rows: vec![row(5, 1, 0.0), row(5, 2, 0.125)],
                    evaluations: 99,
                },
            },
            "48434d4404 ab000000 1be8d623eb70c166
             0607000000000000000300000001006300000000000000020000000500000001
             000000000000000000f03f00000000000000c00000000000000c400000000000
             00d03f000000000000e0bf000000000000fc3f00000000000011c00000000000
             00e03f0500000002000000000000000000f23f00000000000000c00000000000
             000c40000000000000d03f000000000000e4bf000000000000fc3f0000000000
             0011c0000000000000e43f",
        ),
        (
            Message::ResultAck {
                accepted: true,
                completed_workunit: false,
                campaign_complete: true,
            },
            "48434d4404 04000000 6beceed4dd68ac4b
             07010001",
        ),
        (
            Message::Bye,
            "48434d4404 01000000 d7d4256cff04e14f
             08",
        ),
        (
            Message::ShardMapRequest,
            "48434d4404 01000000 36d8d6322539242e
             09",
        ),
        (
            Message::ShardMap {
                shards: 2,
                self_shard: 1,
                addrs: vec!["127.0.0.1:7070".into(), "127.0.0.1:7071".into()],
            },
            "48434d4404 2d000000 1b1e243d290c3ed1
             0a02000100020000000e0000003132372e302e302e313a373037300e00000031
             32372e302e302e313a37303731",
        ),
        (
            Message::Redirect {
                shard: 1,
                addr: "127.0.0.1:7071".into(),
            },
            "48434d4404 15000000 1ac65488e6ba9beb
             0b01000e0000003132372e302e302e313a37303731",
        ),
        (
            Message::ShardStatus {
                shard: 1,
                fresh_backlog: 5,
                outstanding: 3,
                complete: false,
                hungry: true,
                leases_held: vec![(1u64 << 48) | 2, 42],
                campaign: 1,
            },
            "48434d4404 2b000000 f6d7954eaa6ebf0c
             0c01000500000000000000030000000000000000010200000002000000000001
             002a000000000000000100",
        ),
        (
            Message::LeaseGrant {
                lease: (1u64 << 48) | 3,
                from_shard: 1,
                wus: vec![11, 12, 13],
                complete: false,
                campaign: 1,
            },
            "48434d4404 1e000000 6a50ed6e07a73059
             0d03000000000001000100030000000b0000000c0000000d000000000100",
        ),
        (
            Message::StatusAck {
                shard: 1,
                complete: true,
            },
            "48434d4404 04000000 0c9ded5271da5e20
             0e010001",
        ),
    ]
}

/// Header fields apart, then the payload in 32-byte lines — the layout
/// the literals above are written in (whitespace is not significant).
fn to_hex(frame: &[u8]) -> String {
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let mut out = format!(
        "{} {} {}",
        hex(&frame[..5]),
        hex(&frame[5..9]),
        hex(&frame[9..HEADER_BYTES])
    );
    for line in frame[HEADER_BYTES..].chunks(32) {
        out.push_str("\n             ");
        out.push_str(&hex(line));
    }
    out
}

fn from_hex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd number of hex digits");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).expect("hex"))
        .collect()
}

#[test]
fn every_variant_encodes_to_its_recorded_frame() {
    let codec = AgentConfig::new("", 0).codec;
    let mut tags = Vec::new();
    let mut moved = String::new();
    for (msg, recorded) in golden() {
        let frame = encode_with(&msg, codec);
        if frame.as_ref() != from_hex(recorded) {
            moved += &format!("{msg:?} encodes to\n            \"{}\",\n", to_hex(&frame));
        }
        assert_eq!(frame[4], 4, "version byte");
        tags.push(frame[HEADER_BYTES]);
    }
    assert!(moved.is_empty(), "the wire moved:\n{moved}");
    assert_eq!(tags, (0..15).collect::<Vec<u8>>(), "one frame per tag");
}

#[test]
fn every_recorded_frame_decodes_to_its_variant() {
    let codec = AgentConfig::new("", 0).codec;
    for (msg, recorded) in golden() {
        let frame = from_hex(recorded);
        let (back, consumed, seen) = decode_versioned(&frame).expect("recorded frame decodes");
        assert_eq!(back, msg);
        assert_eq!(consumed, frame.len());
        assert_eq!(seen, codec);
    }
}
