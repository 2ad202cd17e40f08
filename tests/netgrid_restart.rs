//! Journal recovery: a crashed server restarts into the exact state it
//! lost, and the campaign still finishes byte-identical to an
//! uninterrupted run.
//!
//! These tests drive a journaled one-campaign registry through a
//! scripted history covering every command class the journal records —
//! quorum validation, a duplicate, a quorum rejection, a bounds
//! rejection, a deadline expiry, backoffs — each call committing its
//! batch to the wal file as the server's driver does before a reply
//! leaves — then "crash" it (drop it with no clean shutdown; the wal on
//! disk is all that survives) and recover with `MultiGrid::open`. Recovery must reconstruct the whole
//! `GridState` (`==` on every field) and the resume clock exactly, and
//! draining the recovered state to completion must produce the same
//! merged artifact as the in-process baseline, byte for byte.
//!
//! The process-level version of the same property (SIGKILL of a live
//! `hcmd-server`, restart from `--journal`) lives in
//! `crates/netgrid/tests/restart_kill.rs` and the CI restart-smoke job.

mod common;

use common::{Journaled, OneCampaign};
use gridsim::sched::ServerConfig;
use gridsim::SimTime;
use netgrid::{
    CampaignDef, CampaignParams, FaultDice, FaultProfile, FsyncPolicy, GridState, JournalConfig,
    MultiGrid, NetCampaign, ServerFaults, TrustConfig, Verdict, WorkReply,
};
use std::path::PathBuf;

fn t(s: f64) -> SimTime {
    SimTime::new(s)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        deadline_seconds: 10.0,
        ..ServerConfig::default()
    }
}

fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcmd-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(campaign: &NetCampaign, cfg: &JournalConfig) -> (OneCampaign, f64) {
    OneCampaign::open(
        campaign.params(),
        server_config(),
        ServerFaults::default(),
        Some(cfg),
    )
    .expect("journal opens")
}

fn fetch(state: &mut OneCampaign, now: f64, agent: u64) -> gridsim::sched::ReplicaAssignment {
    match state.fetch(t(now), agent) {
        WorkReply::Assigned(a) => a,
        other => panic!("expected work, got {other:?}"),
    }
}

/// The scripted mid-campaign history: every journal record class fires
/// at least once before the "crash".
fn run_script(state: &mut OneCampaign, campaign: &NetCampaign) {
    let a = fetch(state, 0.0, 1);
    let b = fetch(state, 0.0, 2);
    let c = fetch(state, 0.0, 3);
    assert_eq!(a.workunit, b.workunit, "quorum sibling first");
    assert_ne!(a.workunit, c.workunit);
    let honest = campaign.compute(campaign.spec(a.workunit));

    // a: first candidate of the quorum pair.
    let d1 = state.report(t(1.0), a.replica, a.workunit, honest.clone());
    assert_eq!(d1.verdict, Verdict::QuorumPending);
    // a retransmits: dropped at the wire layer.
    let d2 = state.report(t(1.2), a.replica, a.workunit, honest.clone());
    assert_eq!(d2.verdict, Verdict::Duplicate);
    // b disagrees byte-for-byte: quorum rejection + error reissue.
    let mut corrupt = honest.clone();
    corrupt.rows[0].eelec += 1e-9;
    let d3 = state.report(t(2.0), b.replica, b.workunit, corrupt);
    assert_eq!(d3.verdict, Verdict::QuorumRejected);
    // A fourth agent draws c's quorum sibling and reports out of
    // bounds: bounds rejection + error reissue.
    let d4 = fetch(state, 3.0, 4);
    let mut bad = campaign.compute(campaign.spec(d4.workunit));
    bad.rows[0].elj = f64::INFINITY;
    let d5 = state.report(t(4.0), d4.replica, d4.workunit, bad);
    assert_eq!(d5.verdict, Verdict::BoundsRejected);
    // c never reports; the sweep at t=11 expires it (10 s deadline).
    assert_eq!(state.sweep(t(11.0)), 1);
}

/// Finishes the campaign honestly: sweep, then fetch-and-report until
/// every workunit validates.
fn drain(state: &mut OneCampaign, campaign: &NetCampaign) {
    let mut now = 12.0;
    while !state.is_campaign_complete() {
        now += 0.5;
        state.sweep(t(now));
        while let WorkReply::Assigned(a) = state.fetch(t(now), 9) {
            let out = campaign.compute(campaign.spec(a.workunit));
            state.report(t(now), a.replica, a.workunit, out);
        }
    }
}

/// A complete campaign's artifact as the server writes it: every
/// output is `Some`, and `Some(out)` prints as `out`.
fn artifact_json(state: &GridState) -> String {
    assert!(state.is_campaign_complete(), "campaign complete");
    serde_json::to_string(state.outputs()).unwrap()
}

fn baseline_json(campaign: &NetCampaign) -> String {
    serde_json::to_string(&campaign.baseline_outputs()).unwrap()
}

#[test]
fn scripted_history_replays_to_the_exact_live_state_and_artifact() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let cfg = JournalConfig::new(journal_dir("script"));

    let (mut live, resume) = open(&campaign, &cfg);
    assert_eq!(resume, 0.0, "fresh journal starts the clock at zero");
    run_script(&mut live, &campaign);
    let (before, last_now) = (GridState::clone(&live), live.last_now());
    let net = before.net_stats;
    assert!(net.duplicates_dropped >= 1 && net.quorum_rejected >= 1);
    assert!(net.bounds_rejected >= 1 && net.deadline_expiries >= 1);
    drop(live); // crash: no clean shutdown exists, the wal is the truth

    let (mut recovered, resume) = open(&campaign, &cfg);
    assert!(*recovered == before, "replay rebuilt another state");
    assert_eq!(resume, last_now, "clock resumes where the journal ends");

    drain(&mut recovered, &campaign);
    assert_eq!(
        artifact_json(&recovered),
        baseline_json(&campaign),
        "merged artifact after crash+restart must equal the baseline"
    );
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

#[test]
fn torn_wal_tail_recovers_a_consistent_prefix_and_still_completes() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let cfg = JournalConfig::new(journal_dir("torn"));

    let (mut live, _) = open(&campaign, &cfg);
    run_script(&mut live, &campaign);
    let net = live.net_stats;
    drop(live);

    // Tear the tail mid-frame, as a crash between write and sync would:
    // the last record was the expiring sweep.
    let wal = cfg.dir.join("wal.bin");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

    let (mut recovered, _) = open(&campaign, &cfg);
    assert_eq!(
        recovered.net_stats.deadline_expiries,
        net.deadline_expiries - 1,
        "the torn sweep record is dropped — state is the prior prefix"
    );
    // The expiry re-happens on the next sweep; the campaign still
    // converges to the identical artifact.
    drain(&mut recovered, &campaign);
    assert_eq!(artifact_json(&recovered), baseline_json(&campaign));
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

/// What a journal directory holds: one file.
fn assert_only_the_wal(dir: &std::path::Path) {
    let names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["wal.bin"], "{}", dir.display());
}

/// One identity lands thousands of distinct wrong-but-in-bounds results
/// on a quorum workunit (every rejection queues it another replica).
/// Server state grows by a fingerprint each, the journal by a record
/// each, and neither has a size at which the server stops working —
/// the compacting snapshot this replaced framed every retained payload
/// into one record and panicked past the 8 MiB frame cap here.
#[test]
fn a_flood_of_rejected_results_neither_kills_the_server_nor_its_recovery() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let cfg = JournalConfig::new(journal_dir("flood"));
    let (mut live, _) = open(&campaign, &cfg);

    let baseline = campaign.baseline_outputs();
    let mut dice = FaultDice::new(7, 9, FaultProfile::saboteur());
    let mut rejected = 0;
    for k in 0..2_500 {
        let now = f64::from(k) * 0.001; // well inside the 10 s deadline
        let a = fetch(&mut live, now, 9);
        let mut corrupt = baseline[a.workunit as usize].clone();
        dice.corrupt(&mut corrupt);
        let d = live.report(t(now), a.replica, a.workunit, corrupt);
        rejected += usize::from(d.verdict == Verdict::QuorumRejected);
    }
    assert!(
        rejected > 2_400,
        "only {rejected} corruptions were distinct"
    );
    let before = GridState::clone(&live);
    drop(live); // crash

    assert_only_the_wal(&cfg.dir);
    let (mut recovered, _) = open(&campaign, &cfg);
    assert!(*recovered == before, "replay rebuilt another state");
    drain(&mut recovered, &campaign);
    assert_eq!(artifact_json(&recovered), baseline_json(&campaign));
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

/// The campaign the snapshot design could not finish whatever the peers
/// did: 3 392 workunits of honest quorum traffic through the registry,
/// journaled under the default policy, then recovered from the wal
/// alone.
#[test]
#[ignore = "docks 3 392 workunits: cargo test --release --test netgrid_restart -- --ignored"]
fn an_honest_3392_workunit_campaign_journals_to_completion_and_recovers() {
    let defs = vec![CampaignDef::default_solo(CampaignParams {
        proteins: 32,
        lib_seed: 87,
        ..CampaignParams::tiny()
    })];
    let cfg = JournalConfig::new(journal_dir("honest"));
    let open_grid = || {
        Journaled::open(
            defs.clone(),
            ServerConfig::default(),
            ServerFaults::default(),
            Some(&cfg),
        )
        .expect("registry opens journaled")
        .0
    };

    let mut grid = open_grid();
    let campaign = grid.slots()[0].campaign.clone();
    assert_eq!(campaign.len(), 3_392);
    let baseline = campaign.baseline_outputs();
    let mut now = 0.0;
    while !grid.all_complete() {
        now += 0.001;
        let (cidx, reply) = grid.fetch(t(now), 1, &[true]);
        let WorkReply::Assigned(a) = reply else {
            panic!("an honest campaign never runs dry: {reply:?}");
        };
        let out = baseline[a.workunit as usize].clone();
        grid.report(t(now), cidx, a.replica, a.workunit, out);
    }
    let artifact = artifact_json(&grid.slots()[0].state);
    assert!(artifact == serde_json::to_string(&baseline).unwrap());
    drop(grid);

    assert_only_the_wal(&cfg.dir);
    let grid = open_grid();
    assert!(grid.all_complete(), "recovery lost validated workunits");
    assert!(artifact_json(&grid.slots()[0].state) == artifact);
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

#[test]
fn journal_of_a_different_campaign_is_refused() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let cfg = JournalConfig::new(journal_dir("mismatch"));
    let (mut live, _) = open(&campaign, &cfg);
    let a = fetch(&mut live, 0.0, 1);
    let _ = a;
    drop(live);

    // Same directory, different recipe: replay must refuse, not fork.
    let other = NetCampaign::build(CampaignParams {
        lib_seed: 8,
        ..CampaignParams::tiny()
    });
    let err = match OneCampaign::open(
        other.params(),
        server_config(),
        ServerFaults::default(),
        Some(&cfg),
    ) {
        Ok(_) => panic!("foreign journal must be rejected"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("different campaign"), "got: {err}");
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

// --- trust-adaptive replication across a crash ---------------------------

fn trust_faults() -> ServerFaults {
    ServerFaults {
        trust: TrustConfig {
            spot_check_rate: 1.0, // every trusted single gets audited
            ..TrustConfig::on()
        },
    }
}

/// Builds a mid-campaign trust state with every interesting feature
/// populated: two agents graduated to Trusted, a saboteur quarantined
/// mid-sentence, and one accepted single whose audit is still queued.
/// Returns the time the script ended at.
fn trust_script(state: &mut OneCampaign, campaign: &NetCampaign) -> f64 {
    let mut now = 0.0;
    // Agents 1 and 2 earn Trusted with five honest quorum pairs.
    for _ in 0..5 {
        let a = fetch(state, now, 1);
        let b = fetch(state, now, 2);
        assert_eq!(a.workunit, b.workunit);
        let out = campaign.compute(campaign.spec(a.workunit));
        state.report(t(now + 1.0), a.replica, a.workunit, out.clone());
        let d = state.report(t(now + 2.0), b.replica, b.workunit, out);
        assert_eq!(d.verdict, Verdict::Accepted);
        now += 3.0;
    }
    // Agent 9 collects four consecutive quorum rejections and lands in
    // quarantine. Fresh probation agents carry the honest halves so
    // nobody else's band moves.
    for k in 0..4u64 {
        let a = fetch(state, now, 100 + k);
        let b = fetch(state, now, 9);
        assert_eq!(a.workunit, b.workunit);
        let honest = campaign.compute(campaign.spec(a.workunit));
        let mut corrupt = honest.clone();
        corrupt.rows[0].eelec += 1e-9;
        state.report(t(now + 1.0), a.replica, a.workunit, honest.clone());
        let d = state.report(t(now + 2.0), b.replica, b.workunit, corrupt);
        assert_eq!(d.verdict, Verdict::QuorumRejected);
        let c = fetch(state, now + 2.0, 200 + k);
        assert_eq!(c.workunit, a.workunit, "error reissue comes first");
        state.report(t(now + 3.0), c.replica, c.workunit, honest);
        now += 4.0;
    }
    // Trusted agent 1 lands a single; its audit is queued but unserved
    // at the crash.
    let a = fetch(state, now, 1);
    let out = campaign.compute(campaign.spec(a.workunit));
    let d = state.report(t(now + 1.0), a.replica, a.workunit, out);
    assert!(d.completed_workunit, "trusted single validates alone");
    now + 1.0
}

/// Drains a trust-on campaign with the two trusted agents: agent 1
/// computes fresh singles, agent 2 (and 1, for each other's audits)
/// serves the spot-check queue. Deterministic given a start time.
fn trust_drain(state: &mut OneCampaign, campaign: &NetCampaign, start: f64) {
    let mut now = start;
    while !state.is_campaign_complete() {
        now += 0.5;
        state.sweep(t(now));
        for agent in [1, 2] {
            while let WorkReply::Assigned(a) = state.fetch(t(now), agent) {
                let out = campaign.compute(campaign.spec(a.workunit));
                state.report(t(now), a.replica, a.workunit, out);
            }
        }
    }
}

#[test]
fn trust_bands_and_quarantine_replay_exactly_across_a_crash() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let cfg = JournalConfig::new(journal_dir("trust"));

    let (mut live, resume) = OneCampaign::open(
        campaign.params(),
        server_config(),
        trust_faults(),
        Some(&cfg),
    )
    .expect("journal opens");
    assert_eq!(resume, 0.0);
    let crash_now = trust_script(&mut live, &campaign);
    let (before, last_now) = (GridState::clone(&live), live.last_now());
    let live_summary = live.trust_summary().expect("trust on");
    assert_eq!(live_summary.quarantined, 1, "saboteur serving quarantine");
    assert!(!live.is_campaign_complete(), "audit still queued");
    drop(live); // crash

    let (mut recovered, resume) = OneCampaign::open(
        campaign.params(),
        server_config(),
        trust_faults(),
        Some(&cfg),
    )
    .expect("recovery");
    assert_eq!(resume, last_now);
    // One comparison covers the audit books (the queued spot check and
    // any in flight), the trust ledgers and every counter.
    assert!(*recovered == before, "replay rebuilt another state");
    assert_eq!(recovered.trust_summary(), Some(live_summary));

    // An uninterrupted twin run of the identical script...
    let (mut twin, _) = OneCampaign::open(campaign.params(), server_config(), trust_faults(), None)
        .expect("an unjournaled twin opens");
    let twin_crash_now = trust_script(&mut twin, &campaign);
    assert_eq!(crash_now, twin_crash_now);

    // ...must agree with the crash-recovered state from here to the
    // end: same drain, same final trust state, same artifact.
    trust_drain(&mut recovered, &campaign, crash_now + 1.0);
    trust_drain(&mut twin, &campaign, crash_now + 1.0);
    assert_eq!(
        recovered.agent_trust_table(),
        twin.agent_trust_table(),
        "final trust state must not depend on the crash"
    );
    let q9 = recovered.agent_trust(9).expect("saboteur ledger");
    assert_eq!(q9.quarantine_count, 1, "quarantine survived the restart");
    assert_eq!(artifact_json(&recovered), artifact_json(&twin));
    assert_eq!(artifact_json(&recovered), baseline_json(&campaign));
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

#[test]
fn trust_journal_refuses_a_different_trust_policy() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let cfg = JournalConfig::new(journal_dir("trust-mismatch"));
    let (mut live, _) = OneCampaign::open(
        campaign.params(),
        server_config(),
        trust_faults(),
        Some(&cfg),
    )
    .expect("journal opens");
    let _ = fetch(&mut live, 0.0, 1);
    drop(live);

    // Same campaign, trust off: the scheduling decisions in the wal
    // were made under a different policy — replay must refuse.
    let err = match OneCampaign::open(
        campaign.params(),
        server_config(),
        ServerFaults::default(),
        Some(&cfg),
    ) {
        Ok(_) => panic!("journal under a different trust policy must be rejected"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(
        msg.contains("faults") || msg.contains("trust") || msg.contains("different"),
        "got: {msg}"
    );
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

/// The registry keeps one wal per server, whatever the campaign count.
/// A crash mid-contention must recover every slot and the books above
/// them — deliveries, deficits, borrows, the contended share error and
/// the cross-campaign trust denials — exactly, by applying every
/// recorded ask and report again, and still finish each campaign
/// byte-identical to a solo run: crossing a restart must not let the
/// campaigns bleed into each other's artifacts. (While only each
/// campaign's own calls were journaled, borrows and denials restarted
/// from zero.)
#[test]
fn multi_campaign_registry_recovers_one_wal() {
    let base = CampaignParams::tiny();
    let defs = vec![
        CampaignDef {
            name: "alpha".into(),
            params: base,
            share: 0.7,
            priority: 0,
        },
        CampaignDef {
            name: "beta".into(),
            params: CampaignParams {
                lib_seed: base.lib_seed + 1,
                ..base
            },
            share: 0.3,
            priority: 0,
        },
    ];
    let cfg = JournalConfig {
        fsync: FsyncPolicy::Never,
        ..JournalConfig::new(journal_dir("multi"))
    };
    // One rejected result quarantines, so the gate above the campaigns
    // has a denial to count.
    let faults = ServerFaults {
        trust: TrustConfig {
            quarantine_after: 1,
            ..TrustConfig::on()
        },
    };
    let open_multi = |defs: Vec<CampaignDef>| {
        Journaled::open(defs, server_config(), faults, Some(&cfg))
            .expect("registry opens journaled")
    };
    let assigned = |reply: WorkReply| match reply {
        WorkReply::Assigned(a) => a,
        other => panic!("expected work, got {other:?}"),
    };
    // The fair-share ledger and the trust gate, as a restart must find
    // them.
    let ledger = |grid: &MultiGrid| {
        let fair = grid.fair();
        let campaigns: Vec<(u64, f64, f64)> = (0..grid.len())
            .map(|i| (fair.borrows(i), fair.deficit(i), fair.delivered(i)))
            .collect();
        (campaigns, grid.share_error(), grid.cross_quarantine_denials)
    };

    // Agent 9 reports a corrupted copy of the workunit agent 8 reported
    // honestly on alpha and is quarantined there; asking with both
    // campaigns attached, it is denied above them.
    let (mut grid, offset) = open_multi(defs.clone());
    assert_eq!(offset, 0.0);
    let alpha_only = [true, false];
    let a = assigned(grid.fetch(t(0.0), 8, &alpha_only).1);
    let b = assigned(grid.fetch(t(0.0), 9, &alpha_only).1);
    assert_eq!(a.workunit, b.workunit, "quorum sibling first");
    let alpha = grid.slots()[0].campaign.clone();
    let honest = alpha.compute(alpha.spec(a.workunit));
    let mut corrupt = honest.clone();
    corrupt.rows[0].eelec += 1e-9;
    grid.report(t(0.1), 0, a.replica, a.workunit, honest);
    let (_, rejected) = grid.report(t(0.2), 0, b.replica, b.workunit, corrupt);
    assert_eq!(rejected.verdict, Verdict::QuorumRejected);
    assert!(matches!(
        grid.fetch(t(0.3), 9, &[true, true]).1,
        WorkReply::Backoff { .. }
    ));
    assert_eq!(grid.cross_quarantine_denials, 1);

    // Contended phase: a few scripted rounds across both campaigns.
    let mut now = 0.3;
    for round in 0..6 {
        for agent in 1..=3u64 {
            now += 0.01;
            let (cidx, reply) = grid.fetch(t(now), agent, &[true, true]);
            let WorkReply::Assigned(a) = reply else {
                continue;
            };
            // Crash with one replica still in flight on the last round.
            if round == 5 && agent == 3 {
                break;
            }
            let slot = grid.slot(cidx).expect("slot");
            let out = slot.campaign.compute(slot.campaign.spec(a.workunit));
            now += 0.01;
            grid.report(t(now), cidx, a.replica, a.workunit, out);
        }
    }
    // Then asks nobody reports, until the campaign fair order owes the
    // next one has nothing left to issue and lends it.
    for agent in 10.. {
        if (0..grid.len()).any(|i| grid.fair().borrows(i) > 0) {
            break;
        }
        assert!(agent < 500, "no campaign ever lent its turn");
        now += 0.01;
        grid.fetch(t(now), agent, &[true, true]);
    }
    let at_crash = ledger(&grid);
    drop(grid); // no clean shutdown: the wal is all that survives

    let (mut grid, offset) = open_multi(defs.clone());
    assert!(offset > 0.0, "recovery resumes a moved clock");
    assert_eq!(
        ledger(&grid),
        at_crash,
        "fair-share ledger and trust gate replayed exactly"
    );

    // Drain to completion and byte-compare each campaign to its solo
    // reference outputs.
    let mut now = grid.last_now();
    let mut guard = 0u64;
    while !grid.all_complete() {
        guard += 1;
        assert!(guard < 100_000, "recovered registry did not converge");
        now += 0.5;
        grid.sweep(t(now));
        for agent in 1..=3u64 {
            now += 0.01;
            let (cidx, reply) = grid.fetch(t(now), agent, &[true, true]);
            let WorkReply::Assigned(a) = reply else {
                continue;
            };
            let slot = grid.slot(cidx).expect("slot");
            let out = slot.campaign.compute(slot.campaign.spec(a.workunit));
            now += 0.01;
            grid.report(t(now), cidx, a.replica, a.workunit, out);
        }
    }
    for slot in grid.slots() {
        assert_eq!(
            artifact_json(&slot.state),
            baseline_json(&slot.campaign),
            "campaign {} artifact diverged across the crash",
            slot.def.name
        );
    }
    // One wal for the whole server, not a directory per campaign.
    assert_only_the_wal(&cfg.dir);
    let _ = std::fs::remove_dir_all(&cfg.dir);
}
