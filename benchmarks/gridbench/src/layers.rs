//! Per-layer measurements of the traced run, taken from the benchmark's
//! side: spans and counters around calls into each layer's public
//! functions. Nothing inside the program is instrumented.
//!
//! * [`replay`] feeds the request script recorded from the socket run
//!   through `protocol::decode_versioned` → `MultiGrid::{fetch, report}` →
//!   `protocol::encode_with` with no socket in between — one span per
//!   call, all spans of a request under one parent. Transport is then the
//!   remainder: round-trip p50 − Σ direct-call p50s.
//! * [`scheduler_rows`] drives a bare `gridsim::SchedulerCore` built from
//!   the same catalog through a whole campaign.
//! * [`micro_rows`] times the layers a request never crosses on the wire
//!   path (validation, shard merge, checkpoint text, campaign expansion).
//!
//! Every span costs two clock reads (~50 ns together on the sandbox);
//! sub-microsecond rows carry that as a constant.

use crate::alloc::thread_tally;
use crate::client::Script;
use crate::measure::Series;
use crate::spans::{Recorder, NO_PARENT};
use crate::workload::{Kind, Prepared};
use gridsim::server::ReplicaId;
use gridsim::{SchedulerCore, SimTime};
use maxdo::DockingCheckpoint;
use netgrid::protocol::{decode_versioned, encode_with};
use netgrid::{merge_artifacts, JournalConfig, Message, MultiGrid, ShardSpec, Verdict, WorkReply};
use std::io;
use std::path::Path;
use std::time::Instant;

fn bad_script(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("replay: {what}"))
}

/// What [`replay`] counted besides its spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub asks: u64,
    pub reports: u64,
    pub rejected_reports: u64,
    /// Whether the last reply said the campaign is complete.
    pub completed: bool,
}

/// How a replay's `MultiGrid` is opened; it names the state spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// No journal.
    Plain,
    /// Journaled as the journaled workloads run ([`Kind::journal_config`]).
    Journal,
    /// Journaled with the shipped default policy (`fdatasync` every 64
    /// appends): the only place the benchmark touches the disk's latency.
    JournalFsync,
}

impl Flavour {
    /// Span names of `(fetch, accepted report, rejected report)`.
    pub fn spans(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Flavour::Plain => ("state.fetch", "state.report_accept", "state.report_reject"),
            Flavour::Journal => (
                "state.fetch+journal",
                "state.report_accept+journal",
                "state.report_reject+journal",
            ),
            Flavour::JournalFsync => (
                "state.fetch+journal+fsync",
                "state.report_accept+journal+fsync",
                "state.report_reject+journal+fsync",
            ),
        }
    }

    fn journal(self, dir: &Path) -> Option<JournalConfig> {
        match self {
            Flavour::Plain => None,
            Flavour::Journal => Some(Kind::journal_config(dir)),
            Flavour::JournalFsync => Some(JournalConfig::new(dir)),
        }
    }
}

/// Replays `script` against a fresh `MultiGrid` opened as `flavour` says
/// (journals go under `journal_dir`, which the caller removes). Spans go
/// to `rec` under the flavour's names, allocation counts per call to
/// `series`.
pub fn replay(
    kind: Kind,
    prepared: &Prepared,
    script: &Script,
    flavour: Flavour,
    journal_dir: &Path,
    rec: &mut Recorder,
    series: &mut Series,
) -> io::Result<ReplayCounts> {
    let journal = flavour.journal(journal_dir);
    let defs = prepared.campaigns.iter().map(|c| c.def.clone()).collect();
    let (mut grid, _) = MultiGrid::open(
        defs,
        kind.scheduler(),
        kind.faults(),
        ShardSpec::solo(),
        journal.as_ref(),
    )?;
    let deadline_seconds = kind.scheduler().deadline_seconds;
    let campaigns = prepared.campaigns.len();
    // (agent, attach mask) per session; index 0 is unused.
    let mut sessions: Vec<(u64, Vec<bool>)> = vec![(0, Vec::new())];
    let mut counts = ReplayCounts::default();
    let epoch = Instant::now();

    let (fetch_name, accept_name, reject_name) = flavour.spans();

    for (request, (session, frame)) in script.iter().enumerate() {
        let request = request as u32;
        let root = rec.open("replay.request", NO_PARENT, request);
        let (allocs0, _) = thread_tally();
        let span = rec.open("protocol.decode_other", root, request);
        let (msg, _, codec) =
            decode_versioned(frame).map_err(|e| bad_script(format!("frame {request}: {e}")))?;
        rec.close(span);
        match msg {
            Message::RequestWork => rec.rename(span, "protocol.decode_ask"),
            Message::ResultReport { .. } => rec.rename(span, "protocol.decode_report"),
            _ => {}
        }
        if let Message::ResultReport { .. } = msg {
            series.push(
                "protocol.allocs_per_report_decode",
                (thread_tally().0 - allocs0) as f64,
            );
            series.push("protocol.report_frame_bytes", frame.len() as f64);
        }
        let now = SimTime::new(epoch.elapsed().as_secs_f64());
        match msg {
            Message::Hello {
                agent,
                campaigns: asked,
                ..
            } => {
                // `*` attaches to every campaign, nothing to the default.
                let all = asked.iter().any(|c| c == "*");
                let mask = (0..campaigns).map(|i| all || i == 0).collect();
                if *session as usize != sessions.len() {
                    return Err(bad_script("sessions out of order"));
                }
                sessions.push((agent, mask));
            }
            Message::RequestWork => {
                let (agent, mask) = sessions
                    .get(*session as usize)
                    .ok_or_else(|| bad_script("ask before Hello"))?;
                counts.asks += 1;
                let span = rec.open(fetch_name, root, request);
                let (cidx, reply) = grid.fetch(now, *agent, mask);
                rec.close(span);
                let (reply, encode_name) = match reply {
                    WorkReply::Assigned(a) => {
                        let spec = prepared.campaigns[usize::from(cidx)]
                            .campaign
                            .spec(a.workunit);
                        (
                            Message::Assignment {
                                replica: a.replica.0,
                                workunit: a.workunit,
                                receptor: spec.receptor.0,
                                ligand: spec.ligand.0,
                                isep_start: spec.isep_start,
                                positions: spec.positions,
                                deadline_seconds,
                                campaign: cidx,
                            },
                            "protocol.encode_assignment",
                        )
                    }
                    WorkReply::Backoff {
                        retry_after_ms,
                        campaign_complete,
                    } => {
                        counts.completed = campaign_complete;
                        (
                            Message::NoWork {
                                campaign_complete,
                                retry_after_ms,
                            },
                            "protocol.encode_nowork",
                        )
                    }
                };
                rec.span(encode_name, root, request, || {
                    std::hint::black_box(encode_with(&reply, codec));
                });
            }
            Message::ResultReport {
                replica,
                workunit,
                campaign,
                output,
            } => {
                counts.reports += 1;
                let (allocs0, _) = thread_tally();
                // The verdict names the span, so open it under the accept
                // name and rename on a reject.
                let span = rec.open(accept_name, root, request);
                let (_, disposition) =
                    grid.report(now, campaign, ReplicaId(replica), workunit, output);
                rec.close(span);
                series.push(
                    "state.allocs_per_report",
                    (thread_tally().0 - allocs0) as f64,
                );
                let accepted = matches!(
                    disposition.verdict,
                    Verdict::Accepted
                        | Verdict::QuorumPending
                        | Verdict::Late
                        | Verdict::SpotConfirmed
                        | Verdict::SpotVoid
                );
                if !accepted {
                    counts.rejected_reports += 1;
                    rec.rename(span, reject_name);
                }
                counts.completed = grid.all_complete();
                let reply = Message::ResultAck {
                    accepted,
                    completed_workunit: disposition.completed_workunit,
                    campaign_complete: counts.completed,
                };
                rec.span("protocol.encode_ack", root, request, || {
                    std::hint::black_box(encode_with(&reply, codec));
                });
            }
            Message::Bye => {}
            other => return Err(bad_script(format!("unexpected frame {other:?}"))),
        }
        rec.close(root);
    }
    Ok(counts)
}

/// `sched.fetch_ns` / `sched.report_ns`: a bare `SchedulerCore` built from
/// each campaign's catalog, driven closed-loop to completion (fetch one
/// replica, report it valid, repeat).
pub fn scheduler_rows(kind: Kind, prepared: &Prepared, rec: &mut Recorder) {
    for c in &prepared.campaigns {
        let mut core = SchedulerCore::new(c.campaign.catalog(), kind.scheduler());
        let epoch = Instant::now();
        let mut step = 0u32;
        while !core.is_campaign_complete() {
            let now = SimTime::new(epoch.elapsed().as_secs_f64());
            let span = rec.open("sched.fetch", NO_PARENT, step);
            let assignment = core.fetch_work(now);
            rec.close(span);
            let Some(a) = assignment else { break };
            rec.span("sched.report", NO_PARENT, step, || {
                std::hint::black_box(core.report_result(now, a.replica, false));
            });
            step += 1;
        }
    }
}

/// Layers off the request path: validation, shard merge, campaign
/// expansion and — where the kernel is part of the workload — maxdo.
pub fn micro_rows(kind: Kind, prepared: &Prepared, series: &mut Series) {
    let ranges = validation::ValueRanges::default();
    for c in &prepared.campaigns {
        series.push("campaign.build_ms", c.build_ms);
        if kind.scripted() {
            // The server validates every reported file on arrival.
            for (wu, out) in c.outputs.iter().enumerate() {
                let file = c.campaign.result_file(wu as u32, out);
                let t = Instant::now();
                std::hint::black_box(validation::checks::check_file(&file, &ranges));
                series.push("validation.check_file_us", t.elapsed().as_secs_f64() * 1e6);
            }
        }
        // A two-way split of the baseline (even / odd workunits) merged
        // back: a count-style row, no wall-clock scaling claimed.
        let parts: Vec<Vec<Option<maxdo::DockingOutput>>> = (0..2)
            .map(|p| {
                c.outputs
                    .iter()
                    .enumerate()
                    .map(|(wu, o)| (wu % 2 == p).then(|| o.clone()))
                    .collect()
            })
            .collect();
        let t = Instant::now();
        let merged = merge_artifacts(&parts);
        let merge_s = t.elapsed().as_secs_f64();
        assert!(
            merged.is_ok_and(|m| m == c.outputs),
            "2-way merge differs from the baseline"
        );
        series.push(
            "shard.merge_us_per_wu",
            merge_s * 1e6 / c.outputs.len().max(1) as f64,
        );

        if kind == Kind::VolunteerKernel {
            let evaluations: u64 = c.outputs.iter().map(|o| o.evaluations).sum();
            let compute_s = c.compute_ns.iter().sum::<u64>() as f64 * 1e-9;
            series.push("maxdo.evals_per_s", evaluations as f64 / compute_s);
            for ((spec, out), &ns) in c.campaign.specs().iter().zip(&c.outputs).zip(&c.compute_ns) {
                series.push("maxdo.dock_ms_per_wu", ns as f64 * 1e-6);
                // The agent checkpoints between starting positions; the
                // text form of a finished workunit is the largest one.
                let checkpoint = DockingCheckpoint {
                    isep_start: spec.isep_start,
                    isep_end: spec.isep_end(),
                    next_isep: spec.isep_end() + 1,
                    rows: out.rows.clone(),
                    evaluations: out.evaluations,
                };
                let t = Instant::now();
                let text = checkpoint.to_text();
                let back = DockingCheckpoint::from_text(&text);
                series.push(
                    "maxdo.checkpoint_roundtrip_us",
                    t.elapsed().as_secs_f64() * 1e6,
                );
                series.push("maxdo.checkpoint_bytes", text.len() as f64);
                // The text form keeps six decimals, so only the shape can
                // be compared.
                assert!(
                    back.is_ok_and(|b| b.rows.len() == checkpoint.rows.len()
                        && b.next_isep == checkpoint.next_isep
                        && b.evaluations == checkpoint.evaluations),
                    "checkpoint round trip"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_rep, Env, RepOptions};
    use crate::workload::{prepare, Scale};

    /// The recorded script replays to the same end state the socket run
    /// reached, on every scripted workload, plain and journaled.
    #[test]
    fn replay_reproduces_the_socket_run() {
        let scratch = std::env::temp_dir().join(format!("gridbench-replay-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let env = Env {
            scratch: scratch.clone(),
            core: None,
        };
        for kind in [Kind::WireSteady, Kind::GridMixed] {
            let prepared = prepare(kind, Scale::Tiny, 9);
            let mut rec = Recorder::new(false);
            let options = RepOptions {
                record_script: true,
                scrape_ops: false,
            };
            let rep = run_rep(kind, &prepared, 9, &env, &mut rec, options).unwrap();
            let script = rep.tally.script.as_ref().unwrap();
            let journal_dir = scratch.join("replay-journal");
            for flavour in [Flavour::Plain, Flavour::Journal, Flavour::JournalFsync] {
                let mut rec = Recorder::new(true);
                let mut series = Series::default();
                let counts = replay(
                    kind,
                    &prepared,
                    script,
                    flavour,
                    &journal_dir,
                    &mut rec,
                    &mut series,
                )
                .unwrap();
                assert!(counts.completed, "{kind:?}");
                assert_eq!(counts.asks, rep.tally.asks, "{kind:?}");
                assert_eq!(counts.reports, rep.tally.reports, "{kind:?}");
                assert_eq!(
                    counts.rejected_reports, rep.tally.rejected_reports,
                    "{kind:?}"
                );
                let fetch = flavour.spans().0;
                let times = rec.self_times();
                assert!(times.median_ns(&[fetch]).is_some());
                assert!(times.median_ns(&["protocol.decode_report"]).is_some());
                let _ = std::fs::remove_dir_all(&journal_dir);
            }
        }
    }

    #[test]
    fn scheduler_and_micro_rows_cover_their_layers() {
        let prepared = prepare(Kind::VolunteerKernel, Scale::Tiny, 9);
        let mut rec = Recorder::new(true);
        scheduler_rows(Kind::VolunteerKernel, &prepared, &mut rec);
        let fetches = rec
            .spans()
            .iter()
            .filter(|s| s.name == "sched.fetch")
            .count();
        // Bounds-check validation: one replica per workunit (+ the final
        // empty fetch is never made: the loop stops at completion).
        assert_eq!(fetches, prepared.workunits());
        let mut series = Series::default();
        micro_rows(Kind::VolunteerKernel, &prepared, &mut series);
        for name in [
            "campaign.build_ms",
            "shard.merge_us_per_wu",
            "maxdo.evals_per_s",
            "maxdo.dock_ms_per_wu",
            "maxdo.checkpoint_roundtrip_us",
            "maxdo.checkpoint_bytes",
        ] {
            assert!(series.median(name).is_some_and(|v| v > 0.0), "{name}");
        }
        assert!(series.get("validation.check_file_us").is_empty());
    }
}
