//! Compact binary campaign manifest.
//!
//! The World Community Grid servers "host a database of computing work"
//! (§3.1). A phase-I production packaging is ~3.6 million workunits;
//! persisting it as text or JSON wastes an order of magnitude. The
//! manifest is a fixed-record binary file for that database: a magic
//! header, the target duration, then 16 bytes per workunit (receptor
//! u16, ligand u16, isep_start u32, positions u32, plus a 4-byte FNV-1a
//! record checksum), little-endian via `bytes`.
//!
//! The format has no reader in the system: the live task server
//! (`hcmd-netgrid`'s `NetCampaign::build`) derives its catalog from the
//! campaign recipe, and nothing writes or loads a manifest file. Only
//! this module's round-trip tests exercise it.

use crate::package::{CampaignPackage, WorkunitSpec};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use maxdo::ProteinId;

/// File magic: "HCWU" + format version 1.
const MAGIC: &[u8; 5] = b"HCWU\x01";

/// Bytes per workunit record.
pub const RECORD_BYTES: usize = 16;

/// Serialises a packaged campaign into its binary manifest.
pub fn write_manifest(pkg: &CampaignPackage<'_>) -> Bytes {
    let mut records = Vec::with_capacity(pkg.count() as usize);
    pkg.for_each_workunit(|wu| records.push(wu));
    write_records(pkg.h_seconds, &records)
}

/// Serialises an explicit record list (the manifest body behind
/// [`write_manifest`]).
pub fn write_records(h_seconds: f64, records: &[WorkunitSpec]) -> Bytes {
    let mut buf = BytesMut::with_capacity(MAGIC.len() + 16 + records.len() * RECORD_BYTES);
    buf.put_slice(MAGIC);
    buf.put_f64_le(h_seconds);
    buf.put_u64_le(records.len() as u64);
    for wu in records {
        buf.put_u16_le(wu.receptor.0 as u16);
        buf.put_u16_le(wu.ligand.0 as u16);
        buf.put_u32_le(wu.isep_start);
        buf.put_u32_le(wu.positions);
        buf.put_u32_le(record_checksum(wu));
    }
    buf.freeze()
}

/// Errors from [`read_manifest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestError {
    /// Wrong magic or version.
    BadMagic,
    /// File ends before the declared record count.
    Truncated,
    /// A record's checksum does not match (bit rot / torn write).
    BadChecksum {
        /// 0-based record index.
        record: u64,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::BadMagic => write!(f, "not a HCWU v1 manifest"),
            ManifestError::Truncated => write!(f, "manifest truncated"),
            ManifestError::BadChecksum { record } => {
                write!(f, "record {record}: checksum mismatch")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// Parses a manifest back into `(h_seconds, workunits)`.
pub fn read_manifest(data: &[u8]) -> Result<(f64, Vec<WorkunitSpec>), ManifestError> {
    let mut buf = data;
    if buf.len() < MAGIC.len() + 16 || &buf[..MAGIC.len()] != MAGIC {
        return Err(ManifestError::BadMagic);
    }
    buf.advance(MAGIC.len());
    let h_seconds = buf.get_f64_le();
    let count = buf.get_u64_le();
    if (buf.remaining() as u64) < count * RECORD_BYTES as u64 {
        return Err(ManifestError::Truncated);
    }
    let mut out = Vec::with_capacity(count as usize);
    for record in 0..count {
        let wu = WorkunitSpec {
            receptor: ProteinId(buf.get_u16_le() as u32),
            ligand: ProteinId(buf.get_u16_le() as u32),
            isep_start: buf.get_u32_le(),
            positions: buf.get_u32_le(),
        };
        let checksum = buf.get_u32_le();
        if checksum != record_checksum(&wu) {
            return Err(ManifestError::BadChecksum { record });
        }
        out.push(wu);
    }
    Ok((h_seconds, out))
}

/// FNV-1a over the record's payload bytes. Each step xors a byte and
/// multiplies by an odd prime (a bijection on u32), so any single-byte
/// change always changes the checksum — unlike Fletcher-style sums, which
/// cannot tell 0x00 from 0xFF.
fn record_checksum(wu: &WorkunitSpec) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for v in [wu.receptor.0, wu.ligand.0, wu.isep_start, wu.positions] {
        for byte in v.to_le_bytes() {
            h ^= byte as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any record list round-trips bit-exactly through the manifest.
        #[test]
        fn arbitrary_records_round_trip(
            h in 1.0f64..1e6,
            raw in proptest::collection::vec(
                (0u32..1000, 0u32..1000, 1u32..100_000, 1u32..100_000),
                0..200,
            ),
        ) {
            let records: Vec<WorkunitSpec> = raw
                .into_iter()
                .map(|(r, l, s, p)| WorkunitSpec {
                    receptor: ProteinId(r),
                    ligand: ProteinId(l),
                    isep_start: s,
                    positions: p,
                })
                .collect();
            let bytes = write_records(h, &records);
            let (h2, back) = read_manifest(&bytes).unwrap();
            prop_assert_eq!(h2, h);
            prop_assert_eq!(back, records);
        }

        /// Any single-byte corruption of a record payload is detected.
        #[test]
        fn single_byte_corruption_is_detected(
            record in 0usize..5,
            byte in 0usize..12,
            flip in 1u8..=255,
        ) {
            let records: Vec<WorkunitSpec> = (0..5)
                .map(|i| WorkunitSpec {
                    receptor: ProteinId(i),
                    ligand: ProteinId(i + 1),
                    isep_start: 10 * i + 1,
                    positions: 7,
                })
                .collect();
            let mut data = write_records(600.0, &records).to_vec();
            let offset = 5 + 16 + record * RECORD_BYTES + byte;
            data[offset] ^= flip;
            // Either the corrupted record's checksum fires, or — if the
            // corruption hit the checksum field itself — that same record
            // is flagged.
            match read_manifest(&data) {
                Err(ManifestError::BadChecksum { record: r }) => {
                    prop_assert_eq!(r as usize, record)
                }
                other => prop_assert!(false, "corruption missed: {:?}", other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxdo::{CostModel, LibraryConfig, ProteinLibrary};
    use timemodel::CostMatrix;

    fn pkg_fixture() -> (ProteinLibrary, CostMatrix) {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(4), 3);
        let m = CostMatrix::from_cost_model(&lib, &CostModel::with_kappa(0.05));
        (lib, m)
    }

    #[test]
    fn manifest_round_trips_the_whole_campaign() {
        let (lib, m) = pkg_fixture();
        let pkg = CampaignPackage::new(&lib, &m, 600.0);
        let bytes = write_manifest(&pkg);
        let (h, wus) = read_manifest(&bytes).unwrap();
        assert_eq!(h, 600.0);
        assert_eq!(wus.len() as u64, pkg.count());
        assert_eq!(wus, pkg.collect_all());
    }

    #[test]
    fn manifest_is_compact() {
        let (lib, m) = pkg_fixture();
        let pkg = CampaignPackage::new(&lib, &m, 600.0);
        let bytes = write_manifest(&pkg);
        let expected = 5 + 16 + pkg.count() as usize * RECORD_BYTES;
        assert_eq!(bytes.len(), expected);
        // Phase-I production scale: ~3.6 M records ≈ 55 MB — loadable.
        const { assert!(RECORD_BYTES * 3_617_500 < 60_000_000) };
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(read_manifest(b"NOPE"), Err(ManifestError::BadMagic));
        assert_eq!(read_manifest(b""), Err(ManifestError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let (lib, m) = pkg_fixture();
        let pkg = CampaignPackage::new(&lib, &m, 600.0);
        let bytes = write_manifest(&pkg);
        let cut = &bytes[..bytes.len() - 3];
        assert_eq!(read_manifest(cut), Err(ManifestError::Truncated));
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let (lib, m) = pkg_fixture();
        let pkg = CampaignPackage::new(&lib, &m, 600.0);
        let mut data = write_manifest(&pkg).to_vec();
        // Flip a byte inside the first record's payload.
        let offset = 5 + 16 + 4;
        // (offset 4 = the isep_start field of record 0)
        data[offset] ^= 0xFF;
        match read_manifest(&data) {
            Err(ManifestError::BadChecksum { record: 0 }) => {}
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn checksum_distinguishes_field_order() {
        let a = WorkunitSpec {
            receptor: ProteinId(1),
            ligand: ProteinId(2),
            isep_start: 3,
            positions: 4,
        };
        let b = WorkunitSpec {
            receptor: ProteinId(2),
            ligand: ProteinId(1),
            isep_start: 3,
            positions: 4,
        };
        assert_ne!(record_checksum(&a), record_checksum(&b));
    }
}
