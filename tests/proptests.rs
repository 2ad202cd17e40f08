//! Property-based tests on the cross-crate invariants.

use maxdo::{CostModel, LibraryConfig, ProteinLibrary};
use proptest::prelude::*;
use timemodel::CostMatrix;
use validation::format::ResultFile;
use validation::merge_couple_files;
use workunit::CampaignPackage;

/// A small library + matrix fixture parameterised by seed.
fn fixture(seed: u64) -> (ProteinLibrary, CostMatrix) {
    let lib = ProteinLibrary::generate(LibraryConfig::tiny(3), seed);
    let m = CostMatrix::from_cost_model(&lib, &CostModel::with_kappa(0.1));
    (lib, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packaging tiles every couple's position range exactly, for any
    /// target duration.
    #[test]
    fn packaging_tiles_positions(seed in 0u64..50, h in 60.0f64..100_000.0) {
        let (lib, m) = fixture(seed);
        let pkg = CampaignPackage::new(&lib, &m, h);
        for (r, l) in lib.couples() {
            let mut chunks = Vec::new();
            pkg.for_each_workunit_of_couple(r, l, |wu| chunks.push(wu));
            let mut covered = 0u64;
            let mut next = 1u32;
            for wu in &chunks {
                prop_assert_eq!(wu.isep_start, next);
                covered += wu.positions as u64;
                next = wu.isep_end() + 1;
            }
            prop_assert_eq!(covered, lib.nsep(r) as u64);
        }
    }

    /// Packaging conserves formula (1)'s total exactly, for any h.
    #[test]
    fn packaging_conserves_work(seed in 0u64..50, h in 60.0f64..100_000.0) {
        let (lib, m) = fixture(seed);
        let pkg = CampaignPackage::new(&lib, &m, h);
        let total = timemodel::total_cpu_seconds(&lib, &m);
        let packaged = pkg.total_estimated_seconds();
        prop_assert!((packaged - total).abs() < 1e-9 * total);
    }

    /// Merging any partition of a couple's range reconstructs the whole
    /// file; any partition with a dropped chunk is rejected.
    #[test]
    fn merge_reconstructs_any_partition(
        nsep in 1u32..60,
        cuts in proptest::collection::vec(1u32..60, 0..6),
        drop_index in proptest::option::of(0usize..6),
    ) {
        // Build chunk boundaries from the random cut points.
        let mut bounds: Vec<u32> = cuts.into_iter().filter(|&c| c < nsep).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut chunks = Vec::new();
        let mut start = 1u32;
        for &b in bounds.iter().chain(std::iter::once(&nsep)) {
            let end = b.max(start);
            chunks.push(make_chunk(start, end));
            start = end + 1;
        }
        let n_chunks = chunks.len();
        if let Some(d) = drop_index {
            if n_chunks > 1 && d < n_chunks {
                chunks.remove(d);
                prop_assert!(merge_couple_files(chunks, nsep).is_err());
                return Ok(());
            }
        }
        let merged = merge_couple_files(chunks, nsep).unwrap();
        prop_assert_eq!(merged.rows.len() as u32, nsep * 2);
        // Canonical order.
        for (i, row) in merged.rows.iter().enumerate() {
            prop_assert_eq!(row.isep as usize, i / 2 + 1);
        }
    }

    /// The slicing rule's invariants hold for arbitrary inputs (the §4.2
    /// floor/clamp rule).
    #[test]
    fn slicing_rule_bounds(h in 1.0f64..1e6, mct in 0.1f64..1e6, total in 1u32..100_000) {
        let per = workunit::positions_per_workunit(h, mct, total);
        prop_assert!(per >= 1 && per <= total);
        if per > 1 {
            // A multi-position workunit fits the target.
            prop_assert!(per as f64 * mct <= h);
        }
    }

    /// Ydhms round-trips through its components for arbitrary seconds.
    #[test]
    fn ydhms_component_round_trip(seconds in 0u64..10_u64.pow(13)) {
        let d = metrics::Ydhms::from_seconds(seconds);
        let re = metrics::Ydhms::new(d.years(), d.days(), d.hours(), d.minutes(), d.seconds());
        prop_assert_eq!(re.total_seconds(), seconds);
    }

    /// Histograms never lose observations.
    #[test]
    fn histogram_conserves_count(values in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
        let mut h = metrics::Histogram::new(-100.0, 100.0, 13);
        h.record_all(values.iter().copied());
        prop_assert_eq!(h.total(), values.len() as u64);
    }

    /// The LPT makespan respects its classic bounds for arbitrary jobs.
    #[test]
    fn lpt_bounds(
        jobs in proptest::collection::vec(0.1f64..1e4, 1..60),
        procs in 1usize..16,
    ) {
        let makespan = timemodel::calibration::lpt_makespan(&jobs, procs);
        let total: f64 = jobs.iter().sum();
        let longest = jobs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(makespan >= total / procs as f64 - 1e-9);
        prop_assert!(makespan >= longest - 1e-9);
        prop_assert!(makespan <= total + 1e-9);
        // Graham's LPT bound: ≤ (4/3 − 1/(3m)) · OPT ≤ 4/3 · max(lower bounds).
        let opt_lower = (total / procs as f64).max(longest);
        prop_assert!(makespan <= opt_lower * (4.0 / 3.0) + 1e-9);
    }

    /// Host execution plans are physically sane for any workload.
    #[test]
    fn host_plans_are_sane(
        host_id in 0u64..500,
        ref_seconds in 10.0f64..1e6,
        frac in 0.01f64..1.0,
    ) {
        let params = gridsim::HostParams::wcg_2007();
        let mut host = gridsim::Host::sample(gridsim::HostId(host_id), &params, 1);
        let position = (ref_seconds * frac).max(1e-3).min(ref_seconds);
        let exec = host.plan_execution(ref_seconds, position);
        prop_assert!(exec.accounted_seconds >= ref_seconds / host.speed * host.throttle * 0.9);
        prop_assert!(exec.turnaround_seconds >= exec.accounted_seconds);
        prop_assert!(exec.cpu_seconds >= ref_seconds / host.speed - 1e-6);
        // Replay can at most double the CPU need.
        prop_assert!(exec.cpu_seconds <= 2.0 * ref_seconds / host.speed + 1e-6);
    }
}

/// A 2-orientation chunk file for merge tests.
fn make_chunk(isep_start: u32, isep_end: u32) -> ResultFile {
    ResultFile {
        receptor: maxdo::ProteinId(0),
        ligand: maxdo::ProteinId(1),
        isep_start,
        isep_end,
        nrot: 2,
        rows: (isep_start..=isep_end)
            .flat_map(|isep| {
                (1..=2u32).map(move |irot| maxdo::DockingRow {
                    isep,
                    irot,
                    position: maxdo::Vec3::new(1.0, 0.0, 0.0),
                    orientation: maxdo::EulerZyz::default(),
                    elj: -1.0,
                    eelec: 0.0,
                })
            })
            .collect(),
    }
}
