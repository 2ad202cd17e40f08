//! Workunit checkpointing.
//!
//! §4.3: "the technical team adds a checkpoint feature to the MAXDo
//! program. The MAXDo program can be stopped at any time and restarted from
//! the last checkpoint. ... Anyway the checkpoint occurs only between
//! starting positions. If the program is stopped during the computation of
//! one starting position, the MAXDo program has to be relaunched from this
//! position."
//!
//! [`DockingCheckpoint`] captures exactly that granularity: the completed
//! rows for the starting positions finished so far, plus the index of the
//! next position to compute. Work inside a position is never checkpointed;
//! an interruption mid-position replays the whole position — the source of
//! the *checkpoint replay* term in the §6 speed-down decomposition.

use crate::docking::{DockingEngine, DockingOutput, DockingRow};
use crate::sampling::NROT_COUPLES;
use serde::{Deserialize, Serialize};

/// Resumable state of a partially computed workunit
/// (`isep ∈ [isep_start, isep_end]` for one protein couple).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DockingCheckpoint {
    /// First starting position of the workunit (1-based, inclusive).
    pub isep_start: u32,
    /// Last starting position of the workunit (inclusive).
    pub isep_end: u32,
    /// Next starting position to compute; `> isep_end` when complete.
    pub next_isep: u32,
    /// Rows for all *completed* starting positions, canonical order.
    pub rows: Vec<DockingRow>,
    /// Evaluations accumulated in completed positions.
    pub evaluations: u64,
}

impl DockingCheckpoint {
    /// A fresh checkpoint covering `isep_start..=isep_end`.
    pub fn new(isep_start: u32, isep_end: u32) -> Self {
        assert!(
            isep_start >= 1 && isep_start <= isep_end,
            "bad workunit range {isep_start}..={isep_end}"
        );
        Self {
            isep_start,
            isep_end,
            next_isep: isep_start,
            rows: Vec::new(),
            evaluations: 0,
        }
    }

    /// True when every starting position of the workunit is done.
    pub fn is_complete(&self) -> bool {
        self.next_isep > self.isep_end
    }

    /// Number of starting positions already completed.
    pub fn completed_positions(&self) -> u32 {
        self.next_isep - self.isep_start
    }

    /// Total positions in the workunit.
    pub fn total_positions(&self) -> u32 {
        self.isep_end - self.isep_start + 1
    }

    /// Fraction complete in `[0, 1]` — what the screensaver progress bar
    /// shows.
    pub fn progress(&self) -> f64 {
        self.completed_positions() as f64 / self.total_positions() as f64
    }

    /// Records the output of the next starting position and advances the
    /// checkpoint. `output` must be the rows of `self.next_isep`.
    pub fn commit_position(&mut self, output: DockingOutput) {
        assert!(!self.is_complete(), "workunit already complete");
        assert!(
            output.rows.iter().all(|r| r.isep == self.next_isep),
            "output is not for position {}",
            self.next_isep
        );
        self.rows.extend(output.rows);
        self.evaluations += output.evaluations;
        self.next_isep += 1;
    }

    /// Runs the workunit to completion from the checkpointed state.
    pub fn run_to_completion(&mut self, engine: &DockingEngine<'_>) {
        while !self.is_complete() {
            let out = engine.dock_position(self.next_isep);
            self.commit_position(out);
        }
    }

    /// Serialises to a simple line-oriented text format, for an agent
    /// that keeps its checkpoint on disk between positions (the network
    /// agent's `compute_workunit` keeps it in memory). Floats are written
    /// in their shortest exact form, so [`Self::from_text`] gives back the
    /// same bits: the quorum compares payload bytes.
    pub fn to_text(&self) -> String {
        // One buffer sized for the whole file: a row is two indices and
        // eight shortest-round-trip numbers, ~160 bytes for docking-sized
        // values.
        let mut s = String::with_capacity(64 + 160 * self.rows.len());
        self.write_text(&mut s)
            .expect("writing to a String cannot fail");
        s
    }

    fn write_text(&self, out: &mut String) -> std::fmt::Result {
        use std::fmt::Write;
        write!(
            out,
            "CHECKPOINT v1\nrange {} {}\nnext {}\nevals {}\nrows {}\n",
            self.isep_start,
            self.isep_end,
            self.next_isep,
            self.evaluations,
            self.rows.len()
        )?;
        for r in &self.rows {
            writeln!(
                out,
                "{} {} {} {} {} {} {} {} {} {}",
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
            )?;
        }
        Ok(())
    }

    /// Parses the text format written by [`Self::to_text`]. The file
    /// comes from a volunteer's disk, so it is refused as
    /// [`CheckpointParseError::Inconsistent`] unless its rows are exactly
    /// the canonical `(isep, irot)` rows of the completed positions.
    pub fn from_text(text: &str) -> Result<Self, CheckpointParseError> {
        use CheckpointParseError::*;
        let mut lines = text.lines();
        if lines.next() != Some("CHECKPOINT v1") {
            return Err(BadHeader);
        }
        let field = |line: Option<&str>, key: &str| -> Result<Vec<u64>, CheckpointParseError> {
            let line = line.ok_or(Truncated)?;
            let rest = line.strip_prefix(key).ok_or(BadHeader)?;
            rest.split_whitespace()
                .map(|t| t.parse::<u64>().map_err(|_| BadNumber))
                .collect()
        };
        let range = field(lines.next(), "range ")?;
        if range.len() != 2 {
            return Err(BadHeader);
        }
        let next = field(lines.next(), "next ")?;
        let evals = field(lines.next(), "evals ")?;
        let nrows = field(lines.next(), "rows ")?;
        if next.len() != 1 || evals.len() != 1 || nrows.len() != 1 {
            return Err(BadHeader);
        }
        // The row count comes from a file on a volunteer's disk: reserve
        // for no more rows than the text has bytes for (ten fields, nine
        // separators and a newline each).
        let declared = usize::try_from(nrows[0]).unwrap_or(usize::MAX);
        let mut rows = Vec::with_capacity(declared.min(text.len() / 20));
        for _ in 0..nrows[0] {
            let line = lines.next().ok_or(Truncated)?;
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() != 10 {
                return Err(BadRow);
            }
            let f = |i: usize| toks[i].parse::<f64>().map_err(|_| BadNumber);
            rows.push(DockingRow {
                isep: toks[0].parse().map_err(|_| BadNumber)?,
                irot: toks[1].parse().map_err(|_| BadNumber)?,
                position: crate::geom::Vec3::new(f(2)?, f(3)?, f(4)?),
                orientation: crate::geom::EulerZyz {
                    alpha: f(5)?,
                    beta: f(6)?,
                    gamma: f(7)?,
                },
                elj: f(8)?,
                eelec: f(9)?,
            });
        }
        let index = |n: u64| u32::try_from(n).map_err(|_| BadNumber);
        let cp = Self {
            isep_start: index(range[0])?,
            isep_end: index(range[1])?,
            next_isep: index(next[0])?,
            rows,
            evaluations: evals[0],
        };
        if cp.isep_start < 1
            || cp.isep_start > cp.isep_end
            || cp.next_isep < cp.isep_start
            || cp.next_isep - 1 > cp.isep_end
        {
            return Err(Inconsistent);
        }
        let nrot = NROT_COUPLES as u32;
        let canonical =
            (cp.isep_start..cp.next_isep).flat_map(|isep| (1..=nrot).map(move |irot| (isep, irot)));
        if cp.rows.len() != NROT_COUPLES * cp.completed_positions() as usize
            || !cp.rows.iter().map(|r| (r.isep, r.irot)).eq(canonical)
        {
            return Err(Inconsistent);
        }
        Ok(cp)
    }
}

/// Errors from [`DockingCheckpoint::from_text`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointParseError {
    /// Missing or malformed header lines.
    BadHeader,
    /// File ended before the declared number of rows.
    Truncated,
    /// A data row did not have 10 fields.
    BadRow,
    /// A numeric field failed to parse.
    BadNumber,
    /// Header fields are mutually inconsistent.
    Inconsistent,
}

impl std::fmt::Display for CheckpointParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            Self::BadHeader => "missing or malformed checkpoint header",
            Self::Truncated => "checkpoint file truncated",
            Self::BadRow => "malformed checkpoint row",
            Self::BadNumber => "unparseable number in checkpoint",
            Self::Inconsistent => "inconsistent checkpoint fields",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for CheckpointParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyParams;
    use crate::library::{LibraryConfig, ProteinLibrary};
    use crate::minimize::MinimizeParams;
    use crate::model::ProteinId;

    fn engine(lib: &ProteinLibrary) -> DockingEngine<'_> {
        DockingEngine::for_couple(
            lib,
            ProteinId(0),
            ProteinId(1),
            EnergyParams::default(),
            MinimizeParams {
                max_iterations: 6,
                ..Default::default()
            },
        )
    }

    #[test]
    fn fresh_checkpoint_is_incomplete() {
        let cp = DockingCheckpoint::new(3, 5);
        assert!(!cp.is_complete());
        assert_eq!(cp.completed_positions(), 0);
        assert_eq!(cp.total_positions(), 3);
        assert_eq!(cp.progress(), 0.0);
    }

    #[test]
    fn interrupted_run_resumes_to_identical_result() {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 41);
        let e = engine(&lib);
        // Uninterrupted reference.
        let mut reference = DockingCheckpoint::new(1, 3);
        reference.run_to_completion(&e);
        // Interrupted after one position, round-trip through text (the
        // volunteer machine rebooted), then resumed.
        let mut cp = DockingCheckpoint::new(1, 3);
        cp.commit_position(e.dock_position(1));
        let saved = cp.to_text();
        let mut resumed = DockingCheckpoint::from_text(&saved).unwrap();
        assert_eq!(resumed.completed_positions(), 1);
        resumed.run_to_completion(&e);
        // The quorum compares payload bytes: every row, every bit.
        assert_eq!(resumed, reference);
    }

    #[test]
    fn commit_validates_position_index() {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 41);
        let e = engine(&lib);
        let mut cp = DockingCheckpoint::new(1, 2);
        let wrong = e.dock_position(2); // expected position 1
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cp.commit_position(wrong)));
        assert!(res.is_err());
    }

    #[test]
    fn progress_advances_per_position() {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 41);
        let e = engine(&lib);
        let mut cp = DockingCheckpoint::new(1, 4);
        cp.commit_position(e.dock_position(1));
        assert!((cp.progress() - 0.25).abs() < 1e-12);
        cp.commit_position(e.dock_position(2));
        assert!((cp.progress() - 0.5).abs() < 1e-12);
    }

    /// Canonical rows for positions `isep_start..next_isep`, with values
    /// no short decimal form holds.
    fn rows(isep_start: u32, next_isep: u32) -> Vec<DockingRow> {
        // A logistic map: full-width mantissas in (0, 1).
        let mut x = 0.1f64;
        let mut value = move || {
            x = 3.9 * x * (1.0 - x);
            x
        };
        (isep_start..next_isep)
            .flat_map(|isep| (1..=NROT_COUPLES as u32).map(move |irot| (isep, irot)))
            .map(|(isep, irot)| DockingRow {
                isep,
                irot,
                position: crate::geom::Vec3::new(
                    100.0 * value() - 50.0,
                    -30.0 * value(),
                    1e-9 * value(),
                ),
                orientation: crate::geom::EulerZyz {
                    alpha: std::f64::consts::TAU * value(),
                    beta: std::f64::consts::PI * value(),
                    gamma: value(),
                },
                elj: -1e-30 * value(),
                eelec: 1e3 * value(),
            })
            .collect()
    }

    #[test]
    fn text_round_trip_is_exact() {
        let mut cp = DockingCheckpoint::new(2, 7);
        cp.rows = rows(2, 4);
        cp.next_isep = 4;
        cp.evaluations = 1234;
        assert_eq!(DockingCheckpoint::from_text(&cp.to_text()), Ok(cp));
    }

    #[test]
    fn parse_rejects_garbage() {
        use CheckpointParseError::*;
        assert_eq!(DockingCheckpoint::from_text(""), Err(BadHeader));
        assert_eq!(
            DockingCheckpoint::from_text("CHECKPOINT v1\n"),
            Err(Truncated)
        );
        assert_eq!(
            DockingCheckpoint::from_text("CHECKPOINT v1\nrange 1 2\nnext 1\nevals 0\nrows 1\n"),
            Err(Truncated)
        );
        assert_eq!(
            DockingCheckpoint::from_text(
                "CHECKPOINT v1\nrange 1 2\nnext 1\nevals 0\nrows 1\n1 2 3\n"
            ),
            Err(BadRow)
        );
        assert_eq!(
            DockingCheckpoint::from_text("CHECKPOINT v1\nrange 5 2\nnext 5\nevals 0\nrows 0\n"),
            Err(Inconsistent)
        );
        // Past the end: it would read as complete, 2.67 of the way there.
        assert_eq!(
            DockingCheckpoint::from_text("CHECKPOINT v1\nrange 1 3\nnext 9\nevals 0\nrows 0\n"),
            Err(Inconsistent)
        );
        assert_eq!(
            DockingCheckpoint::from_text(
                "CHECKPOINT v1\nrange 1 4294967295\nnext 4294967295\nevals 0\nrows 0\n"
            ),
            Err(Inconsistent)
        );
        // Rows that are not those of the completed positions, in order.
        let text = |next: u32, rows: &[DockingRow]| {
            let mut cp = DockingCheckpoint::new(1, 3);
            cp.next_isep = next;
            cp.rows = rows.to_vec();
            cp.to_text()
        };
        let two = rows(1, 3);
        let mut swapped = two.clone();
        swapped.swap(3, 4);
        let mut shifted = two.clone();
        shifted[30].isep = 3;
        for (next, rows) in [
            (2, &two[..]),
            (3, &two[..41]),
            (3, &swapped[..]),
            (3, &shifted[..]),
            (2, &rows(2, 3)[..]),
        ] {
            assert_eq!(
                DockingCheckpoint::from_text(&text(next, rows)),
                Err(Inconsistent),
                "next {next}, {} rows",
                rows.len()
            );
        }
        assert!(DockingCheckpoint::from_text(&text(3, &two)).is_ok());
    }

    /// Regression: the declared row count sized an allocation unchecked,
    /// so a damaged `rows` line aborted the agent with a capacity
    /// overflow (or an out-of-memory kill) instead of an error it can
    /// recover from by restarting the workunit.
    #[test]
    fn parse_survives_an_absurd_row_count() {
        use CheckpointParseError::*;
        for rows in [u64::MAX, u64::MAX / 72, 1 << 40] {
            let text = format!("CHECKPOINT v1\nrange 1 2\nnext 1\nevals 0\nrows {rows}\n");
            assert_eq!(DockingCheckpoint::from_text(&text), Err(Truncated));
        }
        // Indices that do not fit the field are rejected, not wrapped.
        assert_eq!(
            DockingCheckpoint::from_text(
                "CHECKPOINT v1\nrange 4294967297 4294967298\nnext 4294967297\nevals 0\nrows 0\n"
            ),
            Err(BadNumber)
        );
    }

    #[test]
    #[should_panic(expected = "bad workunit range")]
    fn zero_start_rejected() {
        DockingCheckpoint::new(0, 3);
    }
}
