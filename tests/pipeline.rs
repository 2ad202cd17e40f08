//! End-to-end integration: docking kernel → workunit packaging → result
//! files → the three §5.2 checks → merge.
//!
//! This is the scientific pipeline of the paper on a miniature couple,
//! with the real energy kernel (no cost-model shortcuts).

use maxdo::{
    DockingEngine, EnergyParams, LibraryConfig, MinimizeParams, ProteinId, ProteinLibrary,
};
use validation::checks::{check_batch, CheckFailure, ValueRanges};
use validation::format::{parse_result_file, result_file_from_output, write_result_file};
use validation::merge_couple_files;

fn tiny_engine(library: &ProteinLibrary) -> DockingEngine<'_> {
    DockingEngine::new(
        library.protein(ProteinId(0)),
        library.protein(ProteinId(1)),
        5, // keep the kernel work tiny: 5 positions × 21 couples × 10 γ
        EnergyParams::default(),
        MinimizeParams {
            max_iterations: 6,
            ..Default::default()
        },
    )
}

#[test]
fn dock_validate_merge_round_trip() {
    let library = ProteinLibrary::generate(LibraryConfig::tiny(2), 99);
    let engine = tiny_engine(&library);
    let (rid, lid) = (ProteinId(0), ProteinId(1));

    // Package into workunits of 2 positions.
    let mut files = Vec::new();
    let mut isep = 1;
    while isep <= 5 {
        let end = (isep + 1).min(5);
        let out = engine.dock_range(isep, end);
        // Serialize to text and back — the files travel through WCG's
        // storage server as text.
        let file = result_file_from_output(rid, lid, isep, end, &out);
        let parsed = parse_result_file(&write_result_file(&file)).expect("round trip");
        files.push(parsed);
        isep = end + 1;
    }
    assert_eq!(files.len(), 3);

    // §5.2 checks all pass.
    let failures = check_batch(rid, lid, &files, 3, &ValueRanges::default());
    assert!(failures.is_empty(), "{failures:?}");

    // Merge into the couple's result file.
    let merged = merge_couple_files(files, 5).expect("contiguous chunks");
    assert_eq!(merged.rows.len(), 5 * 21);
    // Canonical order survives the pipeline.
    for (i, row) in merged.rows.iter().enumerate() {
        assert_eq!(row.isep as usize, i / 21 + 1);
        assert_eq!(row.irot as usize, i % 21 + 1);
    }
}

#[test]
fn corrupted_results_are_caught_by_the_checks() {
    let library = ProteinLibrary::generate(LibraryConfig::tiny(2), 99);
    let engine = tiny_engine(&library);
    let (rid, lid) = (ProteinId(0), ProteinId(1));
    let out = engine.dock_range(1, 2);
    let mut file = result_file_from_output(rid, lid, 1, 2, &out);

    // A volunteer machine with flaky memory flips an energy to garbage —
    // exactly what the value-range check exists to reject (§5.1: "there
    // are some specific boundary conditions on each value").
    file.rows[5].elj = -8.0e9;
    let failures = check_batch(
        rid,
        lid,
        std::slice::from_ref(&file),
        1,
        &ValueRanges::default(),
    );
    assert!(
        failures
            .iter()
            .any(|f| matches!(f, CheckFailure::ValueRange { field: "elj", .. })),
        "{failures:?}"
    );
}

#[test]
fn missing_workunit_blocks_the_merge() {
    let library = ProteinLibrary::generate(LibraryConfig::tiny(2), 99);
    let engine = tiny_engine(&library);
    let (rid, lid) = (ProteinId(0), ProteinId(1));
    // Workunits for positions 1..=2 and 5..=5; 3..=4 never arrives.
    let a = result_file_from_output(rid, lid, 1, 2, &engine.dock_range(1, 2));
    let b = result_file_from_output(rid, lid, 5, 5, &engine.dock_range(5, 5));
    let err = merge_couple_files(vec![a, b], 5).unwrap_err();
    assert_eq!(err, validation::MergeError::Gap { after: 2, next: 5 });
}

#[test]
fn checkpointed_and_straight_runs_agree_through_the_pipeline() {
    let library = ProteinLibrary::generate(LibraryConfig::tiny(2), 5);
    let engine = tiny_engine(&library);
    // Straight run.
    let straight = engine.dock_range(1, 3);
    // Interrupted run (§4.3): stop after each position, serialize the
    // checkpoint, resume from text.
    let mut cp = maxdo::DockingCheckpoint::new(1, 3);
    while !cp.is_complete() {
        let out = engine.dock_position(cp.next_isep);
        cp.commit_position(out);
        cp = maxdo::DockingCheckpoint::from_text(&cp.to_text()).expect("valid checkpoint");
    }
    // The quorum compares payload bytes: every row, every bit.
    assert_eq!(cp.rows, straight.rows);
    assert_eq!(cp.evaluations, straight.evaluations);
}
