//! Two grids stepped by hand for the ops endpoint to render, shared by
//! the unit tests of `ops.rs` and `tests/ops_golden.rs` (which includes
//! this file by path). The netgrid names come from the including module,
//! so the file compiles inside the crate and outside it.
//!
//! Between them the two renders show a non-zero value in every family
//! an operator reads: a validated quorum pair, a bounds reject and an
//! expiry (`solo`); quorum rejects, a waiting quorum candidate, a
//! quarantined agent, a cross-campaign quarantine denial, a spot check,
//! the wal and both campaign rows (`contended`).

use super::{
    CampaignDef, CampaignParams, FsyncPolicy, JournalConfig, MultiGrid, ServerFaults, ShardSpec,
    TrustConfig, Verdict, WorkReply,
};
use gridsim::sched::{ReplicaAssignment, ServerConfig};
use gridsim::SimTime;
use maxdo::DockingOutput;
use std::path::Path;

fn t(seconds: f64) -> SimTime {
    SimTime::new(seconds)
}

fn open(
    defs: Vec<CampaignDef>,
    faults: ServerFaults,
    journal: Option<&JournalConfig>,
) -> MultiGrid {
    let scheduler = ServerConfig {
        deadline_seconds: 5.0,
        ..ServerConfig::default()
    };
    MultiGrid::open(defs, scheduler, faults, ShardSpec::solo(), journal)
        .expect("a fixture grid opens")
        .0
}

/// One ask that must be served: the campaign and the replica.
fn fetch(
    grid: &mut MultiGrid,
    now: f64,
    agent: u64,
    attached: &[bool],
) -> (u16, ReplicaAssignment) {
    match grid.fetch(t(now), agent, attached) {
        (campaign, WorkReply::Assigned(a)) => (campaign, a),
        (_, other) => panic!("agent {agent} at {now} s was not served: {other:?}"),
    }
}

/// What an honest volunteer reports for `assigned`.
fn honest(grid: &MultiGrid, (campaign, a): (u16, ReplicaAssignment)) -> DockingOutput {
    let catalog = &grid.slot(campaign).expect("served campaign").campaign;
    catalog.compute(catalog.spec(a.workunit))
}

fn report(
    grid: &mut MultiGrid,
    now: f64,
    (campaign, a): (u16, ReplicaAssignment),
    output: DockingOutput,
) -> Verdict {
    let (_, judged) = grid.report(t(now), campaign, a.replica, a.workunit, output);
    judged.verdict
}

/// `agents` ask one after the other and report honestly in the same
/// order: a quorum pair, validated by the second report.
fn pair(grid: &mut MultiGrid, now: f64, agents: [u64; 2], attached: &[bool]) {
    let first = fetch(grid, now, agents[0], attached);
    let second = fetch(grid, now, agents[1], attached);
    assert_eq!(first.1.workunit, second.1.workunit, "quorum siblings");
    let output = honest(grid, first);
    assert_eq!(
        report(grid, now + 0.1, first, output.clone()),
        Verdict::QuorumPending
    );
    assert_eq!(report(grid, now + 0.2, second, output), Verdict::Accepted);
}

/// The tiny campaign on one unjournaled, trust-off server: a validated
/// pair, a bounds reject, and a replica that expires.
pub fn solo() -> MultiGrid {
    let solo = vec![CampaignDef::default_solo(CampaignParams::tiny())];
    let mut grid = open(solo, ServerFaults::default(), None);
    let one = [true];
    pair(&mut grid, 1.0, [1, 2], &one);
    let wrong = fetch(&mut grid, 2.0, 3, &one);
    let mut output = honest(&grid, wrong);
    output.rows[0].elj = f64::INFINITY;
    assert_eq!(
        report(&mut grid, 2.5, wrong, output),
        Verdict::BoundsRejected
    );
    fetch(&mut grid, 3.0, 4, &one);
    assert!(grid.sweep(t(9.0)) >= 1, "agent 4's replica expires");
    grid
}

/// A journaled 70/30 server of two campaigns under the trust policy
/// (every trusted single audited), with a saboteur quarantined by
/// alpha's ledger and then denied an ask on beta. The wal is
/// `dir/wal.bin`; `dir` is emptied first.
pub fn contended(dir: &Path) -> MultiGrid {
    let _ = std::fs::remove_dir_all(dir);
    let base = CampaignParams::tiny();
    let def = |name: &str, lib_seed, share| CampaignDef {
        name: name.into(),
        params: CampaignParams { lib_seed, ..base },
        share,
        priority: 0,
    };
    let roster = vec![
        def("alpha", base.lib_seed, 0.7),
        def("beta", base.lib_seed + 1, 0.3),
    ];
    let faults = ServerFaults {
        trust: TrustConfig {
            min_samples: 2,
            spot_check_rate: 1.0,
            ..TrustConfig::on()
        },
    };
    let journal = JournalConfig {
        fsync: FsyncPolicy::Never,
        ..JournalConfig::new(dir)
    };
    let mut grid = open(roster, faults, Some(&journal));
    let (alpha, beta) = ([true, false], [false, true]);

    // Two pairs make agents 1 and 2 trusted: agent 1's next workunit is
    // a single, and agent 2 is served its audit.
    pair(&mut grid, 1.0, [1, 2], &alpha);
    pair(&mut grid, 2.0, [1, 2], &alpha);
    let single = fetch(&mut grid, 3.0, 1, &alpha);
    let output = honest(&grid, single);
    assert_eq!(report(&mut grid, 3.1, single, output), Verdict::Accepted);
    let audit = fetch(&mut grid, 3.2, 2, &alpha);
    let output = honest(&grid, audit);
    assert_eq!(
        report(&mut grid, 3.3, audit, output),
        Verdict::SpotConfirmed
    );

    // The saboteur reports second, and wrong, on four pairs in a row;
    // each workunit is validated by the honest reissue.
    const SABOTEUR: u64 = 9;
    let mut now = 4.0;
    for k in 0..u64::from(TrustConfig::on().quarantine_after) {
        let first = fetch(&mut grid, now, 10 + k, &alpha);
        let second = fetch(&mut grid, now, SABOTEUR, &alpha);
        let output = honest(&grid, first);
        let mut corrupted = output.clone();
        corrupted.rows[0].eelec += 1e-9;
        assert_eq!(
            report(&mut grid, now + 0.1, first, output.clone()),
            Verdict::QuorumPending
        );
        assert_eq!(
            report(&mut grid, now + 0.2, second, corrupted),
            Verdict::QuorumRejected
        );
        let reissue = fetch(&mut grid, now + 0.3, 20 + k, &alpha);
        assert_eq!(
            report(&mut grid, now + 0.4, reissue, output),
            Verdict::Accepted
        );
        now += 1.0;
    }
    // Quarantined by alpha, the saboteur is refused on beta too.
    let (_, denied) = grid.fetch(t(now), SABOTEUR, &beta);
    assert!(matches!(denied, WorkReply::Backoff { .. }), "{denied:?}");

    // A bounds reject on alpha, a quorum candidate still waiting for its
    // partner there, and a validated pair on beta.
    let wrong = fetch(&mut grid, now + 0.5, 30, &alpha);
    let mut output = honest(&grid, wrong);
    output.rows[0].elj = f64::INFINITY;
    assert_eq!(
        report(&mut grid, now + 0.6, wrong, output),
        Verdict::BoundsRejected
    );
    let first = fetch(&mut grid, now + 0.7, 31, &alpha);
    let output = honest(&grid, first);
    assert_eq!(
        report(&mut grid, now + 0.8, first, output),
        Verdict::QuorumPending
    );
    pair(&mut grid, now + 1.0, [40, 41], &beta);
    assert!(grid.cross_quarantine_denials >= 1);
    grid
}
