//! A golden wal: the disk twin of `crates/netgrid/tests/wire_golden.rs`.
//!
//! `tests/data/wal_format8.bin` is a `wal.bin` a journaled, trust-on
//! server of one campaign wrote while a scripted history ran through its
//! registry: a quorum pair, a retransmission, a quorum rejection, a
//! bounds rejection, an expiry and the late report that follows it, and
//! a trusted single with its spot check (one audit expires and its
//! straggler reports anyway, the re-served one confirms). The file is
//! committed as the generator left it; the literals below are what that
//! server held when it stopped.
//!
//! Recovery applies every recorded command again through the live call
//! and refuses on the first outcome that differs from the recorded one,
//! so opening the fixture checks each fetch, verdict and expiry; the
//! literals check what the decisions added up to. A change that needs
//! the fixture regenerated or a literal edited has changed what a
//! journal means — bump `JOURNAL_FORMAT` and refuse the old one instead.
//!
//! The literals were first recorded from this history in journal format
//! 4, on shard 0 of two with a lease out and a lease in, and held
//! unedited through formats 5 and 6. Format 7 has no shards: the history
//! lost its two leases and the server its half of the catalog, so the
//! fetches draw other workunits: the accepted workunits and their
//! payloads (today's baseline) were recorded again, the wire counters
//! lost their five shard fields, and the issue and trust literals held.
//! Format 8 dropped the connection cap from the header: the same history
//! was recorded again and every literal held.
//! The older fixtures stay byte for byte as files this build must refuse
//! by name: `tests/data/wal_format4.bin`
//! ("journal format 4": a wal per campaign), `tests/data/wal_format5.bin`
//! ("journal format 5": the header still carried the server's three
//! backoff knobs), `tests/data/wal_format6.bin` ("journal format 6":
//! the header carried a shard, and leases were records) and
//! `tests/data/wal_format7.bin` ("journal format 7": the header carried
//! the connection cap).
//!
//! Regenerate (only with a format bump, and then keep the old file):
//! `cargo test --test journal_golden -- --ignored --nocapture`.

mod common;

use common::OneCampaign;
use gridsim::sched::{ReplicaAssignment, ServerConfig};
use gridsim::SimTime;
use maxdo::DockingOutput;
use netgrid::{
    fingerprint, CampaignParams, FsyncPolicy, GridState, JournalConfig, NetCampaign, ServerFaults,
    TrustConfig, Verdict, WorkReply,
};
use std::fs;
use std::path::PathBuf;

const SERVER_STATS: &str = "ServerStats { initial_issues: 7, quorum_issues: 5, timeout_reissues: 1, error_reissues: 2, errors_received: 2, late_results: 2, spot_check_issues: 2 }";
const NET_STATS: &str = "NetStats { quorum_rejected: 1, bounds_rejected: 1, duplicates_dropped: 1, deadline_expiries: 2, backoffs_sent: 0, trust_denied_fetches: 0, spot_checks_passed: 1, spot_checks_failed: 0, workunits_invalidated: 0 }";
const AGENT_TRUST: &str = "[(1, AgentTrust { accepted: 3, rejected: 0, consecutive_rejects: 0, quarantined_until_s: 0.0, quarantine_count: 0, spot_passed: 0, spot_failed: 0 }), (2, AgentTrust { accepted: 4, rejected: 0, consecutive_rejects: 0, quarantined_until_s: 0.0, quarantine_count: 0, spot_passed: 0, spot_failed: 0 }), (3, AgentTrust { accepted: 1, rejected: 0, consecutive_rejects: 0, quarantined_until_s: 0.0, quarantine_count: 0, spot_passed: 0, spot_failed: 0 }), (4, AgentTrust { accepted: 0, rejected: 1, consecutive_rejects: 1, quarantined_until_s: 0.0, quarantine_count: 0, spot_passed: 0, spot_failed: 0 }), (5, AgentTrust { accepted: 1, rejected: 0, consecutive_rejects: 0, quarantined_until_s: 0.0, quarantine_count: 0, spot_passed: 0, spot_failed: 0 }), (6, AgentTrust { accepted: 0, rejected: 1, consecutive_rejects: 1, quarantined_until_s: 0.0, quarantine_count: 0, spot_passed: 0, spot_failed: 0 }), (7, AgentTrust { accepted: 1, rejected: 0, consecutive_rejects: 0, quarantined_until_s: 0.0, quarantine_count: 0, spot_passed: 0, spot_failed: 0 }), (8, AgentTrust { accepted: 0, rejected: 0, consecutive_rejects: 0, quarantined_until_s: 0.0, quarantine_count: 0, spot_passed: 0, spot_failed: 0 }), (9, AgentTrust { accepted: 1, rejected: 0, consecutive_rejects: 0, quarantined_until_s: 0.0, quarantine_count: 0, spot_passed: 0, spot_failed: 0 })]";
const ACCEPTED: &str = "[(0, 9d9f48ea7fd17663), (1, d9736c0607e16bac), (2, 7cb8cfd940f89215), (3, bac9492d1f29ac92), (4, ab7ae48f57289dab), (6, 793e52f1133684e0)]";

fn t(s: f64) -> SimTime {
    SimTime::new(s)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        deadline_seconds: 10.0,
        ..ServerConfig::default()
    }
}

/// Two accepts graduate an agent and every trusted single is audited,
/// so a short history reaches the spot-check paths.
fn faults() -> ServerFaults {
    ServerFaults {
        trust: TrustConfig {
            min_samples: 2,
            spot_check_rate: 1.0,
            ..TrustConfig::on()
        },
    }
}

fn fixture(format: u32) -> PathBuf {
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    data.join(format!("wal_format{format}.bin"))
}

fn scratch(tag: &str) -> JournalConfig {
    let dir = std::env::temp_dir().join(format!("hcmd-walgolden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    JournalConfig {
        fsync: FsyncPolicy::Never,
        ..JournalConfig::new(dir)
    }
}

fn open(cfg: &JournalConfig) -> std::io::Result<(OneCampaign, f64)> {
    let params = CampaignParams::tiny();
    OneCampaign::open(params, server_config(), faults(), Some(cfg))
}

/// What the literals pin, as text: the core's issue accounting, the wire
/// counters, the trust table, and which workunits hold an accepted
/// payload with which fingerprint.
fn observed(state: &GridState) -> [String; 4] {
    let accepted: Vec<(usize, u64)> = state
        .outputs()
        .iter()
        .enumerate()
        .filter_map(|(wu, out)| out.as_ref().map(|out| (wu, fingerprint(out))))
        .collect();
    [
        format!("{:?}", state.server_stats()),
        format!("{:?}", state.net_stats),
        format!("{:?}", state.agent_trust_table()),
        format!("{accepted:x?}"),
    ]
}

struct Script {
    live: OneCampaign,
    /// The honest payload of every workunit.
    honest: Vec<DockingOutput>,
}

impl Script {
    fn fetch(&mut self, now: f64, agent: u64) -> ReplicaAssignment {
        match self.live.fetch(t(now), agent) {
            WorkReply::Assigned(a) => a,
            other => panic!("agent {agent} expected work, got {other:?}"),
        }
    }

    fn report(&mut self, now: f64, a: ReplicaAssignment, output: DockingOutput) -> Verdict {
        self.live
            .report(t(now), a.replica, a.workunit, output)
            .verdict
    }

    fn honest(&self, a: ReplicaAssignment) -> DockingOutput {
        self.honest[a.workunit as usize].clone()
    }

    /// One honest probation pair between two agents.
    fn pair(&mut self, now: f64, agents: (u64, u64)) {
        let a = self.fetch(now, agents.0);
        let b = self.fetch(now, agents.1);
        assert_eq!(a.workunit, b.workunit, "quorum sibling first");
        let out = self.honest(a);
        assert_eq!(
            self.report(now + 1.0, a, out.clone()),
            Verdict::QuorumPending
        );
        assert_eq!(self.report(now + 2.0, b, out), Verdict::Accepted);
    }
}

fn scripted_history(s: &mut Script) {
    // A quorum pair with a retransmission in the middle.
    let a = s.fetch(0.0, 1);
    let b = s.fetch(0.0, 2);
    assert_eq!(a.workunit, b.workunit, "quorum sibling first");
    let out = s.honest(a);
    assert_eq!(s.report(1.0, a, out.clone()), Verdict::QuorumPending);
    assert_eq!(s.report(1.2, a, out.clone()), Verdict::Duplicate);
    assert_eq!(s.report(2.0, b, out), Verdict::Accepted);

    // A quorum rejection; the error reissue meets the honest candidate.
    let c = s.fetch(3.0, 3);
    let d = s.fetch(3.0, 4);
    assert_eq!(c.workunit, d.workunit);
    let out = s.honest(c);
    let mut corrupt = out.clone();
    corrupt.rows[0].eelec += 1e-9;
    assert_eq!(s.report(4.0, c, out.clone()), Verdict::QuorumPending);
    assert_eq!(s.report(4.5, d, corrupt), Verdict::QuorumRejected);
    let e = s.fetch(5.0, 5);
    assert_eq!(e.workunit, c.workunit, "error reissue first");
    assert_eq!(s.report(5.5, e, out), Verdict::Accepted);

    // A bounds rejection, then an expiry: the sibling reports, the error
    // copy stalls past its deadline, the timeout copy closes the pair and
    // the straggler reports anyway.
    let f = s.fetch(6.0, 6);
    let mut out_of_bounds = s.honest(f);
    out_of_bounds.rows[0].elj = f64::INFINITY;
    assert_eq!(s.report(6.5, f, out_of_bounds), Verdict::BoundsRejected);
    let g = s.fetch(7.0, 7);
    let h = s.fetch(7.0, 8);
    assert_eq!((g.workunit, h.workunit), (f.workunit, f.workunit));
    let out = s.honest(g);
    assert_eq!(s.report(8.0, g, out.clone()), Verdict::QuorumPending);
    assert_eq!(s.live.sweep(t(17.5)), 1, "h expires (10 s deadline)");
    let i = s.fetch(18.0, 9);
    assert_eq!(i.workunit, h.workunit, "timeout reissue");
    assert_eq!(s.report(18.5, i, out.clone()), Verdict::Accepted);
    assert_eq!(s.report(19.0, h, out), Verdict::Late);

    // A second pair graduates agents 1 and 2.
    s.pair(20.0, (1, 2));

    // A trusted single and its audit. The first audit replica expires,
    // goes back in the queue and is served again; the expired one reports
    // after all and is an ordinary late copy by then.
    let single = s.fetch(30.0, 1);
    let out = s.honest(single);
    assert_eq!(s.report(31.0, single, out.clone()), Verdict::Accepted);
    assert!(!s.live.is_campaign_complete());
    let lost_audit = s.fetch(32.0, 2);
    assert_eq!(lost_audit.workunit, single.workunit, "spot check first");
    assert_eq!(s.live.sweep(t(42.5)), 1, "the audit replica expires");
    let audit = s.fetch(43.0, 2);
    assert_eq!(audit.workunit, single.workunit, "the audit is re-served");
    assert_eq!(s.report(44.0, audit, out.clone()), Verdict::SpotConfirmed);
    assert_eq!(s.report(45.0, lost_audit, out), Verdict::Late);

    // Work left in every book when the server stops: a pending pair, and
    // one more trusted single whose audit is still queued.
    let p = s.fetch(47.0, 3);
    let q = s.fetch(47.0, 5);
    assert_eq!(p.workunit, q.workunit);
    let out = s.honest(p);
    assert_eq!(s.report(48.0, p, out), Verdict::QuorumPending);
    let single = s.fetch(49.0, 2);
    let out = s.honest(single);
    assert_eq!(s.report(50.0, single, out), Verdict::Accepted);
}

/// Finishes the campaign honestly from wherever the wal left off; two
/// agents, so a queued audit always finds somebody who is not its
/// suspect.
fn drain(state: &mut OneCampaign, baseline: &[DockingOutput]) {
    let mut now = 100.0;
    while !state.is_campaign_complete() {
        now += 20.0; // past every deadline the wal left outstanding
        state.sweep(t(now));
        for agent in [11, 12].into_iter().cycle() {
            let WorkReply::Assigned(a) = state.fetch(t(now), agent) else {
                break;
            };
            let out = baseline[a.workunit as usize].clone();
            state.report(t(now), a.replica, a.workunit, out);
        }
    }
}

#[test]
#[ignore = "writes tests/data/wal_format8.bin; run by hand, and only with a format bump"]
fn generate_the_fixture() {
    let cfg = scratch("generate");
    let (live, _) = open(&cfg).expect("fresh journal opens");
    let mut script = Script {
        live,
        honest: NetCampaign::build(CampaignParams::tiny()).baseline_outputs(),
    };
    scripted_history(&mut script);
    let [server_stats, net_stats, agent_trust, accepted] = observed(&script.live);
    drop(script); // the wal is all that is kept

    fs::copy(cfg.dir.join("wal.bin"), fixture(8)).unwrap();
    println!("const SERVER_STATS: &str = {server_stats:?};");
    println!("const NET_STATS: &str = {net_stats:?};");
    println!("const AGENT_TRUST: &str = {agent_trust:?};");
    println!("const ACCEPTED: &str = {accepted:?};");
    let _ = fs::remove_dir_all(&cfg.dir);
}

#[test]
fn the_recorded_wal_replays_to_the_recorded_state() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let baseline = campaign.baseline_outputs();
    let cfg = scratch("replay");
    fs::create_dir_all(&cfg.dir).unwrap();
    fs::copy(fixture(8), cfg.dir.join("wal.bin")).unwrap();

    let (mut state, resume_s) = open(&cfg).expect("every recorded decision replays");
    assert_eq!(resume_s, 50.0, "the last record's clock");
    assert_eq!(
        fs::read(cfg.dir.join("wal.bin")).unwrap(),
        fs::read(fixture(8)).unwrap(),
        "a whole wal is neither cut nor rewritten by recovery"
    );
    let [server_stats, net_stats, agent_trust, accepted] = observed(&state);
    assert_eq!(server_stats, SERVER_STATS);
    assert_eq!(net_stats, NET_STATS);
    assert_eq!(agent_trust, AGENT_TRUST);
    assert_eq!(accepted, ACCEPTED);

    // And the recovered books are live: the campaign finishes on them.
    // The payloads the wal holds were computed by the kernel of the day
    // it was recorded and are pinned by `ACCEPTED`; the ones the drain
    // filled come from today's baseline.
    let from_wal: Vec<bool> = state.outputs().iter().map(Option::is_some).collect();
    drain(&mut state, &baseline);
    let mut filled = 0;
    for (wu, out) in state.outputs().iter().enumerate() {
        if let (Some(out), false) = (out, from_wal[wu]) {
            assert_eq!(fingerprint(out), fingerprint(&baseline[wu]), "wu {wu}");
            filled += 1;
        }
    }
    assert!(filled > 0, "the drain filled no workunit");
    let _ = fs::remove_dir_all(&cfg.dir);
}
