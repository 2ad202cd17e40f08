//! Micro-benchmark of the two wire codecs: JSON (protocol v1) against
//! the fixed-width binary codec (protocol v2) on a production-sized
//! `ResultReport` frame — the frame that dominates bytes on the wire,
//! since one report carries a whole workunit's docking rows.
//!
//! Writes `BENCH_codec.json` at the workspace root with ns-per-frame
//! for each codec/direction and the binary-over-JSON speedups;
//! `tools/bench_guard` warns if binary ever fails to beat JSON. Two more
//! fields time the frame checksum alone over the binary frame's payload
//! — `protocol::checksum64`, which every encode and decode pays once,
//! beside the byte-serial `fnv1a64` it replaced — so the share of a
//! binary encode or decode that is integrity checking can be read off
//! the report.

use criterion::{criterion_group, criterion_main, Criterion};
use maxdo::{DockingOutput, DockingRow, EulerZyz, Vec3};
use netgrid::protocol::{
    checksum64, decode_versioned, encode_with, fnv1a64, Message, HEADER_BYTES,
};
use netgrid::Codec;
use std::hint::black_box;
use std::time::Instant;

/// A production-sized report: ~36 starting positions × 21 rotations,
/// the workunit granularity the docs size the campaign around.
fn representative_report() -> Message {
    let rows = (1..=36u32)
        .flat_map(|isep| {
            (1..=21u32).map(move |irot| DockingRow {
                isep,
                irot,
                position: Vec3::new(12.5, -3.25, 8.0 + isep as f64),
                orientation: EulerZyz {
                    alpha: 1.0,
                    beta: 0.5,
                    gamma: 0.1 * irot as f64,
                },
                elj: -12.345_678,
                eelec: 3.25,
            })
        })
        .collect::<Vec<_>>();
    Message::ResultReport {
        replica: 7,
        workunit: 3,
        campaign: 0,
        output: DockingOutput {
            rows,
            evaluations: 99_000,
        },
    }
}

fn bench_frame_codec(c: &mut Criterion) {
    let msg = representative_report();
    let json_frame = encode_with(&msg, Codec::Json);
    let binary_frame = encode_with(&msg, Codec::Binary);

    let mut group = c.benchmark_group("frame_codec");
    group.bench_function("json_encode", |b| {
        b.iter(|| black_box(encode_with(black_box(&msg), Codec::Json)))
    });
    group.bench_function("binary_encode", |b| {
        b.iter(|| black_box(encode_with(black_box(&msg), Codec::Binary)))
    });
    group.bench_function("json_decode", |b| {
        b.iter(|| black_box(decode_versioned(black_box(&json_frame)).unwrap()))
    });
    group.bench_function("binary_decode", |b| {
        b.iter(|| black_box(decode_versioned(black_box(&binary_frame)).unwrap()))
    });
    group.finish();
}

/// Times `f` as the best (minimum) wall clock over `reps` runs.
fn best_of<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The `BENCH_codec.json` document.
#[derive(serde::Serialize)]
struct CodecReport {
    bench: String,
    smoke: bool,
    reps_best_of: u32,
    /// Docking rows in the measured report frame.
    rows: usize,
    frame_bytes_json: usize,
    frame_bytes_binary: usize,
    json_encode_ns: f64,
    json_decode_ns: f64,
    binary_encode_ns: f64,
    binary_decode_ns: f64,
    binary_encode_speedup: f64,
    binary_decode_speedup: f64,
    /// `fnv1a64` over the binary frame's payload: what the frame
    /// checksum cost before the word-parallel hash.
    fnv1a64_payload_ns: f64,
    /// `checksum64` over the same payload: what it costs now, once per
    /// encode and once per decode.
    checksum64_payload_ns: f64,
}

/// Measures both codecs with a best-of batch timer (steadier than the
/// calibrated mean on a noisy CI box) and writes `BENCH_codec.json`.
fn bench_codec_report(_c: &mut Criterion) {
    let msg = representative_report();
    let rows = match &msg {
        Message::ResultReport { output, .. } => output.rows.len(),
        _ => unreachable!(),
    };
    let json_frame = encode_with(&msg, Codec::Json);
    let binary_frame = encode_with(&msg, Codec::Binary);

    let reps = if criterion::smoke_mode() { 1 } else { 7 };
    let batch = if criterion::smoke_mode() { 1 } else { 50 };
    let per_frame = |total: f64| total / batch as f64 * 1e9;

    let json_encode_ns = per_frame(best_of(reps, || {
        for _ in 0..batch {
            black_box(encode_with(black_box(&msg), Codec::Json));
        }
    }));
    let binary_encode_ns = per_frame(best_of(reps, || {
        for _ in 0..batch {
            black_box(encode_with(black_box(&msg), Codec::Binary));
        }
    }));
    let json_decode_ns = per_frame(best_of(reps, || {
        for _ in 0..batch {
            black_box(decode_versioned(black_box(&json_frame)).unwrap());
        }
    }));
    let binary_decode_ns = per_frame(best_of(reps, || {
        for _ in 0..batch {
            black_box(decode_versioned(black_box(&binary_frame)).unwrap());
        }
    }));

    let payload = &binary_frame[HEADER_BYTES..];
    let fnv1a64_payload_ns = per_frame(best_of(reps, || {
        for _ in 0..batch {
            black_box(fnv1a64(black_box(payload)));
        }
    }));
    let checksum64_payload_ns = per_frame(best_of(reps, || {
        for _ in 0..batch {
            black_box(checksum64(black_box(payload)));
        }
    }));

    let report = CodecReport {
        bench: "frame_codec".to_string(),
        smoke: criterion::smoke_mode(),
        reps_best_of: reps,
        rows,
        frame_bytes_json: json_frame.len(),
        frame_bytes_binary: binary_frame.len(),
        json_encode_ns,
        json_decode_ns,
        binary_encode_ns,
        binary_decode_ns,
        binary_encode_speedup: json_encode_ns / binary_encode_ns,
        binary_decode_speedup: json_decode_ns / binary_decode_ns,
        fnv1a64_payload_ns,
        checksum64_payload_ns,
    };
    println!(
        "bench frame_codec: {} rows, {} B json vs {} B binary ({:.1}x smaller), \
         encode {:.1}x faster, decode {:.1}x faster; payload checksum {:.0} ns \
         (fnv1a64 {:.0} ns)",
        rows,
        report.frame_bytes_json,
        report.frame_bytes_binary,
        report.frame_bytes_json as f64 / report.frame_bytes_binary as f64,
        report.binary_encode_speedup,
        report.binary_decode_speedup,
        report.checksum64_payload_ns,
        report.fnv1a64_payload_ns,
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // Cargo runs benches with cwd = the package dir; anchor the report
    // at the workspace root where the docs and bench_guard reference it.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json");
    match std::fs::write(path, json + "\n") {
        Ok(()) => println!("bench frame_codec -> {path}"),
        Err(e) => eprintln!("bench: cannot write {path}: {e}"),
    }
}

criterion_group!(benches, bench_frame_codec, bench_codec_report);
criterion_main!(benches);
