//! The MAXDo result-file text format.
//!
//! §5.2: "The output of the MAXDo program is a simple text file that
//! contains on each line the coordinate of the ligand and its orientation,
//! and then the interaction energies values."
//!
//! Layout (one header line, then one data line per `(isep, irot)` docking
//! cell in canonical order):
//!
//! ```text
//! MAXDO p1 p2 isep_start isep_end nrot
//! isep irot x y z alpha beta gamma elj eelec
//! ...
//! ```

use maxdo::{DockingRow, EulerZyz, ProteinId, Vec3};
use serde::{Deserialize, Serialize};

/// A parsed (or to-be-written) result file: the output of one workunit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// Receptor protein.
    pub receptor: ProteinId,
    /// Ligand protein.
    pub ligand: ProteinId,
    /// First starting position covered (inclusive, 1-based).
    pub isep_start: u32,
    /// Last starting position covered (inclusive).
    pub isep_end: u32,
    /// Orientation couples per position (21 for HCMD).
    pub nrot: u32,
    /// Data rows in canonical (isep-major) order.
    pub rows: Vec<DockingRow>,
}

impl ResultFile {
    /// The number of rows a well-formed file must contain.
    pub fn expected_rows(&self) -> usize {
        self.header().expected_rows()
    }

    /// The file's header line, without its rows.
    pub fn header(&self) -> FileHeader {
        FileHeader {
            receptor: self.receptor,
            ligand: self.ligand,
            isep_start: self.isep_start,
            isep_end: self.isep_end,
            nrot: self.nrot,
        }
    }
}

/// What a result file's header line says about it: the couple and the
/// cell range its rows must cover. Lets the checks judge rows that live
/// somewhere else (a decoded wire payload) without copying them into a
/// [`ResultFile`] first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    /// Receptor protein.
    pub receptor: ProteinId,
    /// Ligand protein.
    pub ligand: ProteinId,
    /// First starting position covered (inclusive, 1-based).
    pub isep_start: u32,
    /// Last starting position covered (inclusive).
    pub isep_end: u32,
    /// Orientation couples per position (21 for HCMD).
    pub nrot: u32,
}

impl FileHeader {
    /// The number of rows a well-formed file must contain.
    pub fn expected_rows(&self) -> usize {
        ((self.isep_end - self.isep_start + 1) * self.nrot) as usize
    }
}

/// Serialises a result file to its text form.
pub fn write_result_file(file: &ResultFile) -> String {
    let mut out = String::with_capacity(64 + file.rows.len() * 96);
    out.push_str(&format!(
        "MAXDO {} {} {} {} {}\n",
        file.receptor.0, file.ligand.0, file.isep_start, file.isep_end, file.nrot
    ));
    for r in &file.rows {
        out.push_str(&format!(
            "{} {} {:.6} {:.6} {:.6} {:.6} {:.6} {:.6} {:.6} {:.6}\n",
            r.isep,
            r.irot,
            r.position.x,
            r.position.y,
            r.position.z,
            r.orientation.alpha,
            r.orientation.beta,
            r.orientation.gamma,
            r.elj,
            r.eelec
        ));
    }
    out
}

/// Errors from [`parse_result_file`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// First line is not a `MAXDO` header with 5 fields.
    BadHeader,
    /// A data line does not have exactly 10 fields.
    BadRowShape {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse as a number.
    BadNumber {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing or malformed MAXDO header"),
            ParseError::BadRowShape { line } => write!(f, "line {line}: wrong field count"),
            ParseError::BadNumber { line } => write!(f, "line {line}: unparseable number"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses the text form back into a [`ResultFile`].
///
/// Purely syntactic: semantic validity (row counts, ranges) is the job of
/// [`crate::checks`], exactly as the paper separates transport from the
/// three content checks.
pub fn parse_result_file(text: &str) -> Result<ResultFile, ParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(ParseError::BadHeader)?;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() != 6 || h[0] != "MAXDO" {
        return Err(ParseError::BadHeader);
    }
    let parse_u32 = |s: &str| s.parse::<u32>().map_err(|_| ParseError::BadHeader);
    let receptor = ProteinId(parse_u32(h[1])?);
    let ligand = ProteinId(parse_u32(h[2])?);
    let isep_start = parse_u32(h[3])?;
    let isep_end = parse_u32(h[4])?;
    let nrot = parse_u32(h[5])?;
    let mut rows = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != 10 {
            return Err(ParseError::BadRowShape { line: idx + 1 });
        }
        let f = |i: usize| {
            toks[i]
                .parse::<f64>()
                .map_err(|_| ParseError::BadNumber { line: idx + 1 })
        };
        let u = |i: usize| {
            toks[i]
                .parse::<u32>()
                .map_err(|_| ParseError::BadNumber { line: idx + 1 })
        };
        rows.push(DockingRow {
            isep: u(0)?,
            irot: u(1)?,
            position: Vec3::new(f(2)?, f(3)?, f(4)?),
            orientation: EulerZyz {
                alpha: f(5)?,
                beta: f(6)?,
                gamma: f(7)?,
            },
            elj: f(8)?,
            eelec: f(9)?,
        });
    }
    Ok(ResultFile {
        receptor,
        ligand,
        isep_start,
        isep_end,
        nrot,
        rows,
    })
}

/// Builds the result file of a docked workunit from engine output.
pub fn result_file_from_output(
    receptor: ProteinId,
    ligand: ProteinId,
    isep_start: u32,
    isep_end: u32,
    output: &maxdo::DockingOutput,
) -> ResultFile {
    ResultFile {
        receptor,
        ligand,
        isep_start,
        isep_end,
        nrot: maxdo::NROT_COUPLES as u32,
        rows: output.rows.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> ResultFile {
        ResultFile {
            receptor: ProteinId(3),
            ligand: ProteinId(7),
            isep_start: 2,
            isep_end: 3,
            nrot: 2,
            rows: vec![
                DockingRow {
                    isep: 2,
                    irot: 1,
                    position: Vec3::new(1.0, -2.5, 3.25),
                    orientation: EulerZyz {
                        alpha: 0.1,
                        beta: 0.2,
                        gamma: 0.3,
                    },
                    elj: -4.125,
                    eelec: 1.5,
                },
                DockingRow {
                    isep: 2,
                    irot: 2,
                    position: Vec3::new(0.0, 0.0, 0.0),
                    orientation: EulerZyz::default(),
                    elj: -1.0,
                    eelec: -2.0,
                },
                DockingRow {
                    isep: 3,
                    irot: 1,
                    position: Vec3::new(5.0, 5.0, 5.0),
                    orientation: EulerZyz::default(),
                    elj: 0.5,
                    eelec: 0.25,
                },
                DockingRow {
                    isep: 3,
                    irot: 2,
                    position: Vec3::new(-1.0, 2.0, -3.0),
                    orientation: EulerZyz::default(),
                    elj: -0.75,
                    eelec: 0.0,
                },
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let f = sample_file();
        let text = write_result_file(&f);
        let parsed = parse_result_file(&text).unwrap();
        assert_eq!(parsed.receptor, f.receptor);
        assert_eq!(parsed.ligand, f.ligand);
        assert_eq!(parsed.isep_start, f.isep_start);
        assert_eq!(parsed.isep_end, f.isep_end);
        assert_eq!(parsed.nrot, f.nrot);
        assert_eq!(parsed.rows.len(), f.rows.len());
        for (a, b) in parsed.rows.iter().zip(&f.rows) {
            assert_eq!((a.isep, a.irot), (b.isep, b.irot));
            assert!((a.elj - b.elj).abs() < 1e-6);
            assert!((a.eelec - b.eelec).abs() < 1e-6);
            assert!((a.position.x - b.position.x).abs() < 1e-6);
        }
    }

    #[test]
    fn expected_rows_counts_cells() {
        assert_eq!(sample_file().expected_rows(), 4);
    }

    #[test]
    fn header_is_human_readable() {
        let text = write_result_file(&sample_file());
        assert!(text.starts_with("MAXDO 3 7 2 3 2\n"));
    }

    #[test]
    fn parse_rejects_bad_inputs() {
        assert_eq!(parse_result_file(""), Err(ParseError::BadHeader));
        assert_eq!(
            parse_result_file("NOTMAXDO 1 2 3 4 5"),
            Err(ParseError::BadHeader)
        );
        assert_eq!(
            parse_result_file("MAXDO 1 2 3 4"),
            Err(ParseError::BadHeader)
        );
        assert_eq!(
            parse_result_file("MAXDO 1 2 3 4 5\n1 2 3\n"),
            Err(ParseError::BadRowShape { line: 2 })
        );
        assert_eq!(
            parse_result_file("MAXDO 1 2 3 4 5\n1 2 x 0 0 0 0 0 0 0\n"),
            Err(ParseError::BadNumber { line: 2 })
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut text = write_result_file(&sample_file());
        text.push('\n');
        assert_eq!(parse_result_file(&text).unwrap().rows.len(), 4);
    }

    #[test]
    fn real_docking_output_round_trips() {
        use maxdo::{DockingEngine, EnergyParams, LibraryConfig, MinimizeParams, ProteinLibrary};
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 11);
        let engine = DockingEngine::for_couple(
            &lib,
            ProteinId(0),
            ProteinId(1),
            EnergyParams::default(),
            MinimizeParams {
                max_iterations: 5,
                ..Default::default()
            },
        );
        let out = engine.dock_range(1, 2);
        let file = result_file_from_output(ProteinId(0), ProteinId(1), 1, 2, &out);
        assert_eq!(file.rows.len(), file.expected_rows());
        let parsed = parse_result_file(&write_result_file(&file)).unwrap();
        assert_eq!(parsed.rows.len(), file.rows.len());
    }
}
