//! The ops endpoint, byte for byte: `/metrics` and `/` rendered from
//! the two stepped grids of `src/ops/tests/grids.rs`, against files
//! recorded in `tests/data/`.
//!
//! The files are the exposition operators and scrapers depend on, so a
//! change that needs them re-recorded changes what a dashboard shows.
//! Re-record only for an intended exposition change, and say so in the
//! change's description:
//!
//! ```text
//! cargo test -p hcmd-netgrid --test ops_golden -- --ignored --nocapture
//! ```
//!
//! Only the scheduler families are compared: the telemetry registry's
//! families, rendered first when the `telemetry` feature is on, count
//! whatever the process did before.

#[path = "../src/ops/tests/grids.rs"]
mod grids;

use netgrid::ops::{render_dashboard, render_metrics};
use netgrid::{
    CampaignDef, CampaignParams, FsyncPolicy, JournalConfig, MultiGrid, ServerFaults, ShardSpec,
    TrustConfig, Verdict, WorkReply,
};
use std::path::PathBuf;

/// Each recorded grid, by file stem.
fn stepped_grids() -> Vec<(&'static str, MultiGrid)> {
    let dir = std::env::temp_dir().join(format!("hcmd-ops-golden-{}", std::process::id()));
    let stepped = vec![
        ("solo", grids::solo()),
        ("contended", grids::contended(&dir)),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    stepped
}

/// `/metrics` from the first scheduler family on, and `/`.
fn render(grid: &MultiGrid) -> (String, String) {
    let metrics = render_metrics(grid);
    let from = metrics.find("# HELP hcmd_").expect("scheduler families");
    (metrics[from..].to_owned(), render_dashboard(grid))
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

#[test]
fn renders_match_the_recorded_files() {
    for (name, grid) in stepped_grids() {
        let (metrics, dashboard) = render(&grid);
        for (file, rendered) in [
            (format!("ops_{name}.prom"), metrics),
            (format!("ops_{name}.html"), dashboard),
        ] {
            let recorded = std::fs::read_to_string(fixture(&file)).expect("recorded file");
            assert!(
                recorded == rendered,
                "{file} differs; rendered:\n{rendered}"
            );
        }
    }
}

/// What the recorded files must show, so a re-recording cannot quietly
/// drop a family to zero.
#[test]
fn the_recorded_files_show_every_family_in_use() {
    let read = |file: &str| std::fs::read_to_string(fixture(file)).expect("recorded file");
    let nonzero = |text: &str, series: &str| {
        let line = text
            .lines()
            .find(|l| l.starts_with(series) && l[series.len()..].starts_with(' '))
            .unwrap_or_else(|| panic!("no {series}"));
        assert!(!line.ends_with(" 0"), "{line}");
    };
    let solo = read("ops_solo.prom");
    for series in [
        "hcmd_wu_states{state=\"done\"}",
        "hcmd_results_rejected{layer=\"bounds\"}",
        "hcmd_deadline_expiries",
    ] {
        nonzero(&solo, series);
    }
    let contended = read("ops_contended.prom");
    for series in [
        "hcmd_results_rejected{layer=\"quorum\"}",
        "hcmd_results_rejected{layer=\"bounds\"}",
        "hcmd_quorum_candidate_workunits",
        "hcmd_trust_band_agents{band=\"quarantined\"}",
        "hcmd_trust_spot_checks{result=\"passed\"}",
        "hcmd_campaign_cross_quarantine_denials_total",
        "hcmd_journal_wal_records",
        "hcmd_campaign_delivered_ref_seconds{campaign=\"alpha\"}",
        "hcmd_campaign_delivered_ref_seconds{campaign=\"beta\"}",
    ] {
        nonzero(&contended, series);
    }
}

/// Rewrites the recorded files from this build's renders.
#[test]
#[ignore]
fn record() {
    std::fs::create_dir_all(fixture("")).unwrap();
    for (name, grid) in stepped_grids() {
        let (metrics, dashboard) = render(&grid);
        std::fs::write(fixture(&format!("ops_{name}.prom")), metrics).unwrap();
        std::fs::write(fixture(&format!("ops_{name}.html")), dashboard).unwrap();
        println!("recorded ops_{name}.prom and ops_{name}.html");
    }
}
