//! Exhaustive crash points for the write-ahead journal.
//!
//! `tests/netgrid_restart.rs` samples a few crash points of a scripted
//! history; this file takes every one. A scripted history of 40-odd
//! commands — fetches, reports of every verdict class that can occur
//! without trust, and expiring sweeps — is journaled once by a
//! one-campaign registry, each call committing its batch to a wal held
//! in memory, and then:
//!
//! * the wal is cut at **every byte offset**. Recovery from the bytes
//!   (`MultiGrid::open_bytes`, the replay `MultiGrid::open` runs on
//!   `wal.bin`; each cut recovers into a clone of one registry built by
//!   `MultiGrid::fresh`, so the catalog is built once, not once per cut)
//!   must yield exactly the state the live server had after
//!   the longest whole-record prefix (whole [`GridState`]s compared with
//!   `==`, every field), leave the wal cut back to that prefix, and —
//!   checked once per distinct prefix — still drain to the baseline
//!   artifact byte for byte.
//! * every byte of one `Report` frame is damaged in place. The scan must
//!   stop at that frame — yielding the records before it, none from it
//!   and none after — either as a torn tail or with `InvalidData`, and
//!   never panic.
//! * once, on a file: `wal.bin` cut mid-frame is truncated back to its
//!   last whole record by `MultiGrid::open`, and the next batch the file
//!   driver writes lands right after it.

mod common;

use common::OneCampaign;
use gridsim::sched::{ReplicaAssignment, ServerConfig};
use gridsim::SimTime;
use maxdo::DockingOutput;
use netgrid::{
    CampaignDef, CampaignParams, Command, FsyncPolicy, GridState, JournalConfig, JournalRecord,
    MultiGrid, NetCampaign, RecordReader, ServerFaults, Unrecovered, Verdict, WorkReply,
};
use std::fs;
use std::io::ErrorKind;

fn t(s: f64) -> SimTime {
    SimTime::new(s)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        deadline_seconds: 10.0,
        ..ServerConfig::default()
    }
}

/// The campaign's registry, built and not yet recovered.
fn fresh(campaign: &NetCampaign) -> Unrecovered {
    let roster = vec![CampaignDef::default_solo(campaign.params())];
    MultiGrid::fresh(roster, server_config(), ServerFaults::default()).expect("a registry")
}

/// The campaign recovered from the wal `wal` holds, into a clone of
/// `fresh`.
fn open(fresh: &Unrecovered, wal: &[u8]) -> std::io::Result<(OneCampaign, f64)> {
    OneCampaign::recover(fresh.clone(), wal.to_vec())
}

/// A journaled history: the wal it left, and the live state after each
/// of its records.
struct History {
    wal: Vec<u8>,
    /// `(wal length, live state)` after the header alone, then after
    /// each transition record.
    marks: Vec<(usize, GridState)>,
}

/// Drives the live state, marking the wal length and the state after
/// every call that journaled a record.
struct Recorder<'a> {
    live: OneCampaign,
    baseline: &'a [DockingOutput],
    marks: Vec<(usize, GridState)>,
}

impl Recorder<'_> {
    fn mark(&mut self) {
        let len = self.live.0.wal().len();
        assert!(
            self.marks.last().is_none_or(|&(last, _)| len > last),
            "every scripted call journals a record"
        );
        self.marks.push((len, GridState::clone(&self.live)));
    }

    fn fetch(&mut self, now: f64, agent: u64) -> ReplicaAssignment {
        let reply = self.live.fetch(t(now), agent);
        self.mark();
        match reply {
            WorkReply::Assigned(a) => a,
            other => panic!("expected work, got {other:?}"),
        }
    }

    fn report(&mut self, now: f64, a: ReplicaAssignment, output: DockingOutput) -> Verdict {
        let d = self.live.report(t(now), a.replica, a.workunit, output);
        self.mark();
        d.verdict
    }

    fn honest(&self, a: ReplicaAssignment) -> DockingOutput {
        self.baseline[a.workunit as usize].clone()
    }
}

fn scripted_history(fresh: &Unrecovered, baseline: &[DockingOutput]) -> History {
    let (live, _) = open(fresh, &[]).expect("fresh journal opens");
    let mut rec = Recorder {
        live,
        baseline,
        marks: Vec::new(),
    };
    rec.mark(); // the header

    // One quorum pair goes through pending, a duplicate and a
    // rejection; a second workunit gets a bounds rejection and an
    // expiry.
    let a = rec.fetch(0.0, 1);
    let b = rec.fetch(0.0, 2);
    let c = rec.fetch(0.0, 3);
    assert_eq!(a.workunit, b.workunit, "quorum sibling first");
    assert_ne!(a.workunit, c.workunit);
    let honest = rec.honest(a);
    assert_eq!(rec.report(1.0, a, honest.clone()), Verdict::QuorumPending);
    assert_eq!(rec.report(1.2, a, honest.clone()), Verdict::Duplicate);
    let mut corrupt = honest.clone();
    corrupt.rows[0].eelec += 1e-9;
    assert_eq!(rec.report(2.0, b, corrupt), Verdict::QuorumRejected);
    let d = rec.fetch(3.0, 4);
    let mut out_of_bounds = rec.honest(d);
    out_of_bounds.rows[0].elj = f64::INFINITY;
    assert_eq!(rec.report(4.0, d, out_of_bounds), Verdict::BoundsRejected);
    assert_eq!(rec.live.sweep(t(11.0)), 1, "c expires (10 s deadline)");
    rec.mark();

    // The three queued reissues come out first: the pair's error copy
    // meets the honest candidate; the second workunit's error and
    // timeout copies validate each other.
    let x = rec.fetch(12.0, 5);
    assert_eq!(x.workunit, a.workunit);
    assert_eq!(rec.report(12.5, x, honest), Verdict::Accepted);
    let y = rec.fetch(13.0, 5);
    let z = rec.fetch(13.0, 6);
    assert_eq!((y.workunit, z.workunit), (c.workunit, c.workunit));
    let out = rec.honest(y);
    assert_eq!(rec.report(13.5, y, out.clone()), Verdict::QuorumPending);
    assert_eq!(rec.report(13.6, z, out), Verdict::Accepted);

    // A stalled replica: its pair closes through a timeout reissue,
    // then it reports anyway — valid, but late.
    let p = rec.fetch(20.0, 5);
    let q = rec.fetch(20.0, 6);
    assert_eq!(p.workunit, q.workunit);
    let out = rec.honest(p);
    assert_eq!(rec.report(21.0, p, out.clone()), Verdict::QuorumPending);
    assert_eq!(rec.live.sweep(t(31.0)), 1, "q expires");
    rec.mark();
    let r = rec.fetch(31.0, 7);
    assert_eq!(r.workunit, p.workunit);
    assert_eq!(rec.report(32.0, r, out.clone()), Verdict::Accepted);
    assert_eq!(rec.report(33.0, q, out), Verdict::Late);

    // Honest pairs until the history is long enough.
    let mut now = 40.0;
    while rec.marks.len() <= 44 {
        let p = rec.fetch(now, 5);
        let q = rec.fetch(now, 6);
        assert_eq!(p.workunit, q.workunit);
        let out = rec.honest(p);
        assert_eq!(
            rec.report(now + 1.0, p, out.clone()),
            Verdict::QuorumPending
        );
        assert_eq!(rec.report(now + 2.0, q, out), Verdict::Accepted);
        now += 3.0;
    }
    assert!(!rec.live.is_campaign_complete(), "a mid-campaign history");

    History {
        wal: rec.live.0.wal().to_vec(), // crash: the wal is all that survives
        marks: rec.marks,
    }
}

/// Finishes the campaign honestly from wherever recovery landed.
fn drain(state: &mut OneCampaign, baseline: &[DockingOutput]) {
    let mut now = 100.0;
    while !state.is_campaign_complete() {
        now += 20.0; // past every deadline the prefix left outstanding
        state.sweep(t(now));
        while let WorkReply::Assigned(a) = state.fetch(t(now), 9) {
            let out = baseline[a.workunit as usize].clone();
            state.report(t(now), a.replica, a.workunit, out);
        }
    }
}

#[test]
fn every_wal_truncation_recovers_the_longest_whole_record_prefix() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let baseline = campaign.baseline_outputs();
    let baseline_json = serde_json::to_string(&baseline).unwrap();
    let fresh = fresh(&campaign);
    let history = scripted_history(&fresh, &baseline);

    // The marks are exactly the wal's record boundaries, and the history
    // holds every record kind.
    let mut reader = RecordReader::over(&history.wal);
    let mut kinds = [0usize; 3];
    for k in 0.. {
        let Some(rec) = reader.next() else { break };
        match rec.expect("the live wal scans cleanly") {
            JournalRecord::Header { .. } => assert_eq!(k, 0),
            JournalRecord::Applied { command, .. } => match command {
                Command::Fetch { .. } => kinds[0] += 1,
                Command::Report { .. } => kinds[1] += 1,
                Command::Sweep => kinds[2] += 1,
            },
        }
        assert_eq!(reader.offset() as usize, history.marks[k].0, "record {k}");
    }
    assert_eq!(reader.offset() as usize, history.wal.len());
    assert!(
        history.marks.len() > 40,
        "{} records",
        history.marks.len() - 1
    );
    assert!(
        kinds.iter().all(|&n| n >= 1),
        "every kind occurs: {kinds:?}"
    );

    let mut drained = vec![false; history.marks.len()];
    for cut in 0..=history.wal.len() {
        // The longest whole-record prefix of the first `cut` bytes. Cut
        // inside the header there is none: a fresh state, like mark 0.
        let k = history
            .marks
            .iter()
            .rposition(|&(len, _)| len <= cut)
            .unwrap_or(0);
        let (prefix_len, expected) = &history.marks[k];

        let (mut recovered, _) =
            open(&fresh, &history.wal[..cut]).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert!(
            *recovered == *expected,
            "cut at {cut}: state is not prefix {k}"
        );
        assert_eq!(
            recovered.0.wal(),
            &history.wal[..*prefix_len],
            "cut at {cut}: wal not cut back to prefix {k}"
        );
        // Once per prefix, at its first (mid-record or boundary) cut.
        if !std::mem::replace(&mut drained[k], true) {
            drain(&mut recovered, &baseline);
            assert!(
                recovered.is_campaign_complete(),
                "cut at {cut}: not complete"
            );
            assert!(
                serde_json::to_string(recovered.outputs()).unwrap() == baseline_json,
                "cut at {cut}: drained artifact differs from the baseline"
            );
        }
    }
    assert!(drained.iter().all(|&d| d));
}

#[test]
fn a_damaged_report_frame_stops_the_scan_without_misdecoding() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let baseline = campaign.baseline_outputs();
    let fresh = fresh(&campaign);
    let history = scripted_history(&fresh, &baseline);

    // The first Report that carries its payload: record `k`, 1-based
    // among the wal's frames with the header as frame 0.
    let k = RecordReader::over(&history.wal)
        .position(|rec| {
            matches!(
                rec,
                Ok(JournalRecord::Applied {
                    command: Command::Report { output, .. },
                    ..
                }) if !output.rows.is_empty()
            )
        })
        .expect("a Report with a payload");
    let (start, end) = (history.marks[k - 1].0, history.marks[k].0);
    assert!(
        end - start > 1000,
        "a full result payload: {} B",
        end - start
    );
    let intact: Vec<String> = RecordReader::over(&history.wal)
        .take(k)
        .map(|rec| format!("{:?}", rec.unwrap()))
        .collect();

    for at in start..end {
        for mask in [0xff, 0x01] {
            let mut damaged = history.wal.clone();
            damaged[at] ^= mask;

            let mut reader = RecordReader::over(&damaged);
            let mut seen = Vec::new();
            let mut refused = false;
            for rec in reader.by_ref() {
                match rec {
                    Ok(rec) => seen.push(format!("{rec:?}")),
                    Err(e) => {
                        assert_eq!(e.kind(), ErrorKind::InvalidData, "byte {at}^{mask:#x}: {e}");
                        refused = true;
                    }
                }
            }
            assert_eq!(
                seen, intact,
                "byte {at}^{mask:#x}: scan must stop at the frame"
            );
            assert_eq!(reader.offset() as usize, start, "byte {at}^{mask:#x}");

            // Recovery agrees with the scan: the prefix before the
            // frame, or a refusal — never a state built from the frame.
            match open(&fresh, &damaged) {
                Ok((recovered, _)) => {
                    assert!(
                        !refused,
                        "byte {at}^{mask:#x}: recovery accepted a bad record"
                    );
                    assert!(*recovered == history.marks[k - 1].1, "byte {at}^{mask:#x}");
                }
                Err(e) => {
                    assert!(refused, "byte {at}^{mask:#x}: {e}");
                    assert_eq!(e.kind(), ErrorKind::InvalidData);
                }
            }
        }
    }
}

/// The file driver's part, once: `wal.bin` cut mid-frame is truncated
/// back to its last whole record when the campaign is opened on it, and
/// the next batch is written right after that record.
#[test]
fn a_wal_file_cut_mid_frame_is_cut_back_and_appended_to() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let baseline = campaign.baseline_outputs();
    let history = scripted_history(&fresh(&campaign), &baseline);
    let (k, mid) = (history.marks.len() / 2, 7);
    let (whole, expected) = &history.marks[k];
    let dir = std::env::temp_dir().join(format!("hcmd-crashpoints-file-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.bin");
    fs::write(&path, &history.wal[..whole + mid]).unwrap();

    let cfg = JournalConfig {
        fsync: FsyncPolicy::Never,
        ..JournalConfig::new(&dir)
    };
    let (mut recovered, _) = OneCampaign::open(
        campaign.params(),
        server_config(),
        ServerFaults::default(),
        Some(&cfg),
    )
    .expect("a torn wal opens");
    assert!(*recovered == *expected, "state is not prefix {k}");
    assert_eq!(fs::read(&path).unwrap(), history.wal[..*whole]);

    recovered.sweep(SimTime::new(1e4));
    let grown = fs::read(&path).unwrap();
    assert_eq!(grown[..*whole], history.wal[..*whole]);
    let mut reader = RecordReader::over(&grown);
    let last = reader
        .by_ref()
        .last()
        .expect("records")
        .expect("a whole wal");
    assert!(matches!(
        last,
        JournalRecord::Applied {
            command: Command::Sweep,
            ..
        }
    ));
    assert_eq!(reader.offset() as usize, grown.len(), "the batch is whole");
    let _ = fs::remove_dir_all(&dir);
}
