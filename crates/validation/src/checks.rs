//! The three §5.2 validation checks.
//!
//! "we validated those results with 3 different checks: check if there are
//! the correct number of files, check if there are the correct number of
//! lines in the files, check if the values in the file are within a valid
//! range."
//!
//! The value-range check is also what allowed World Community Grid to drop
//! comparison validation mid-campaign ("there are some specific boundary
//! conditions on each value") — the same ranges drive the simulator's
//! bounds-check validator.

use crate::format::{FileHeader, ResultFile};
use maxdo::{DockingRow, ProteinId};
use serde::{Deserialize, Serialize};

/// Physical bounds every result value must respect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValueRanges {
    /// Maximum distance of the ligand mass centre from the receptor
    /// centre, Å (a docked ligand cannot be arbitrarily far away).
    pub max_center_distance: f64,
    /// Inclusive bounds on each energy term, kcal·mol⁻¹.
    pub energy: (f64, f64),
}

impl Default for ValueRanges {
    fn default() -> Self {
        Self {
            max_center_distance: 500.0,
            energy: (-1.0e5, 1.0e7),
        }
    }
}

/// One validation failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckFailure {
    /// Check 1: wrong number of files for the couple.
    FileCount {
        /// The couple.
        receptor: ProteinId,
        ligand: ProteinId,
        /// Files expected.
        expected: usize,
        /// Files present.
        got: usize,
    },
    /// Check 2: a file has the wrong number of lines.
    LineCount {
        receptor: ProteinId,
        ligand: ProteinId,
        isep_start: u32,
        expected: usize,
        got: usize,
    },
    /// Check 3: a value is out of range.
    ValueRange {
        receptor: ProteinId,
        ligand: ProteinId,
        /// 0-based row index inside the file.
        row: usize,
        /// Which field violated the range.
        field: &'static str,
    },
    /// Row indices are not the canonical `(isep, irot)` sequence.
    BadIndices {
        receptor: ProteinId,
        ligand: ProteinId,
        row: usize,
    },
}

/// Check 2 + 3 (+ index sanity) for one file.
pub fn check_file(file: &ResultFile, ranges: &ValueRanges) -> Vec<CheckFailure> {
    check_rows(&file.header(), &file.rows, ranges)
}

/// [`check_file`] for rows held elsewhere: `file` says what the rows
/// must cover, `rows` are judged in place.
pub fn check_rows(
    file: &FileHeader,
    rows: &[DockingRow],
    ranges: &ValueRanges,
) -> Vec<CheckFailure> {
    let mut failures = Vec::new();
    let expected = file.expected_rows();
    if rows.len() != expected {
        failures.push(CheckFailure::LineCount {
            receptor: file.receptor,
            ligand: file.ligand,
            isep_start: file.isep_start,
            expected,
            got: rows.len(),
        });
    }
    let mut want_isep = file.isep_start;
    let mut want_irot = 1u32;
    for (i, row) in rows.iter().enumerate() {
        // Value ranges (check 3).
        let d = row.position.norm();
        if !d.is_finite() || d > ranges.max_center_distance {
            failures.push(CheckFailure::ValueRange {
                receptor: file.receptor,
                ligand: file.ligand,
                row: i,
                field: "position",
            });
        }
        for (field, v) in [("elj", row.elj), ("eelec", row.eelec)] {
            if !v.is_finite() || v < ranges.energy.0 || v > ranges.energy.1 {
                failures.push(CheckFailure::ValueRange {
                    receptor: file.receptor,
                    ligand: file.ligand,
                    row: i,
                    field,
                });
            }
        }
        // Canonical ordering.
        if row.isep != want_isep || row.irot != want_irot {
            failures.push(CheckFailure::BadIndices {
                receptor: file.receptor,
                ligand: file.ligand,
                row: i,
            });
            // Resynchronise on the row's own indices so one slip doesn't
            // cascade into a failure per row.
            want_isep = row.isep;
            want_irot = row.irot;
        }
        if want_irot == file.nrot {
            want_irot = 1;
            want_isep += 1;
        } else {
            want_irot += 1;
        }
    }
    failures
}

/// Check 1 + 2 + 3 for the batch of files of one couple: `expected_files`
/// is the number of workunits the couple was split into.
pub fn check_batch(
    receptor: ProteinId,
    ligand: ProteinId,
    files: &[ResultFile],
    expected_files: usize,
    ranges: &ValueRanges,
) -> Vec<CheckFailure> {
    let mut failures = Vec::new();
    if files.len() != expected_files {
        failures.push(CheckFailure::FileCount {
            receptor,
            ligand,
            expected: expected_files,
            got: files.len(),
        });
    }
    for f in files {
        debug_assert_eq!((f.receptor, f.ligand), (receptor, ligand));
        failures.extend(check_file(f, ranges));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxdo::{EulerZyz, Vec3};

    fn good_file() -> ResultFile {
        ResultFile {
            receptor: ProteinId(0),
            ligand: ProteinId(1),
            isep_start: 1,
            isep_end: 2,
            nrot: 2,
            rows: (1..=2u32)
                .flat_map(|isep| {
                    (1..=2u32).map(move |irot| DockingRow {
                        isep,
                        irot,
                        position: Vec3::new(10.0, 0.0, 0.0),
                        orientation: EulerZyz::default(),
                        elj: -3.0,
                        eelec: 1.0,
                    })
                })
                .collect(),
        }
    }

    #[test]
    fn clean_file_passes_all_checks() {
        assert!(check_file(&good_file(), &ValueRanges::default()).is_empty());
    }

    #[test]
    fn missing_line_detected() {
        let mut f = good_file();
        f.rows.pop();
        let fails = check_file(&f, &ValueRanges::default());
        assert!(fails.iter().any(|x| matches!(
            x,
            CheckFailure::LineCount {
                expected: 4,
                got: 3,
                ..
            }
        )));
    }

    #[test]
    fn out_of_range_energy_detected() {
        let mut f = good_file();
        f.rows[1].elj = f64::INFINITY;
        f.rows[2].eelec = -1.0e9;
        let fails = check_file(&f, &ValueRanges::default());
        let fields: Vec<&str> = fails
            .iter()
            .filter_map(|x| match x {
                CheckFailure::ValueRange { field, .. } => Some(*field),
                _ => None,
            })
            .collect();
        assert_eq!(fields, vec!["elj", "eelec"]);
    }

    #[test]
    fn runaway_ligand_detected() {
        let mut f = good_file();
        f.rows[0].position = Vec3::new(1e4, 0.0, 0.0);
        let fails = check_file(&f, &ValueRanges::default());
        assert!(fails.iter().any(|x| matches!(
            x,
            CheckFailure::ValueRange {
                field: "position",
                ..
            }
        )));
    }

    #[test]
    fn scrambled_indices_detected_once() {
        let mut f = good_file();
        f.rows.swap(1, 2);
        let fails = check_file(&f, &ValueRanges::default());
        let bad: Vec<_> = fails
            .iter()
            .filter(|x| matches!(x, CheckFailure::BadIndices { .. }))
            .collect();
        // Two rows out of place, but resync keeps it at those rows only.
        assert!(!bad.is_empty() && bad.len() <= 3, "failures: {fails:?}");
    }

    #[test]
    fn batch_checks_file_count() {
        let files = vec![good_file()];
        let fails = check_batch(
            ProteinId(0),
            ProteinId(1),
            &files,
            2,
            &ValueRanges::default(),
        );
        assert!(fails.iter().any(|x| matches!(
            x,
            CheckFailure::FileCount {
                expected: 2,
                got: 1,
                ..
            }
        )));
    }

    #[test]
    fn batch_with_correct_count_and_clean_files_passes() {
        let files = vec![good_file()];
        assert!(check_batch(
            ProteinId(0),
            ProteinId(1),
            &files,
            1,
            &ValueRanges::default()
        )
        .is_empty());
    }
}
