//! §5.2 — result processing and verification.
//!
//! "During the project, the World Community Grid team sent results that
//! were calculated by the volunteers to a storage server in France. Then we
//! were in charge of validating those results. ... Each time we received
//! the results, we validated those results with 3 different checks: check
//! if there are the correct number of files, check if there are the correct
//! number of lines in the files, check if the values in the file are within
//! a valid range. Then when the files were checked, we merged result files
//! in order to have one result file for one couple of proteins."
//!
//! * [`mod@format`] — the MAXDo result text file (one line per docking cell:
//!   ligand coordinates, orientation, energies) and its parser;
//! * [`checks`] — the three §5.2 validation checks;
//! * [`merge`] — merging workunit chunk files into one file per couple;
//! * [`report`] — dataset accounting (the "123 Gb of text files, 168²
//!   files" bookkeeping).

pub mod checks;
pub mod format;
pub mod merge;
pub mod parallel;
pub mod pipeline;
pub mod report;

pub use checks::{check_batch, CheckFailure, ValueRanges};
pub use format::{parse_result_file, write_result_file, FileHeader, ResultFile};
pub use merge::{merge_couple_files, MergeError};
pub use parallel::check_files_parallel;
pub use pipeline::{BatchOutcome, ReceptionPipeline};
pub use report::DatasetReport;
