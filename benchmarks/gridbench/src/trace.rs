//! The traced run of one workload (`gridbench-trace`): the socket run
//! again with client-side spans, the counting allocator and per-thread
//! rusage, the socketless replay and the off-path layer rows, folded into
//! one value per per-layer metric. Spans are written to
//! `benchmarks/out/trace-<workload>.jsonl` when the run ends.
//!
//! `--seconds` is the budget of the socket repetitions; the replay and the
//! micro rows do fixed work. Socket repetitions and replay passes
//! alternate, so the round trips and the direct calls they are compared
//! with are measured in the same stretch of time, and only every other
//! socket repetition records spans (see [`repeat`]).

use crate::layers::{micro_rows, replay, scheduler_rows, Flavour};
use crate::measure::{repeat, set_up, Measured, Plan};
use crate::metrics::PER_LAYER;
use crate::runner::{Env, RepOptions};
use crate::spans::{Recorder, SelfTimes};
use crate::workload::{prepare, Kind, Scale, Workload};
use std::io;
use std::path::Path;

/// Passes of each replay flavour, one after each slice of the socket
/// budget; medians are over all of their calls.
const REPLAY_PASSES: usize = 3;

/// The traced run's product.
pub struct Traced {
    pub measured: Measured,
    /// `(name, unit, value)` for every per-layer metric; 0 where the
    /// workload bypasses the layer.
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Where wall time went: total self time per span name.
    pub self_ns: Vec<(&'static str, u64)>,
    /// One line per request kind: do the direct-call rows plus transport
    /// add up to the measured round trip?
    pub sum_checks: Vec<String>,
}

pub fn run_traced(
    workload: &'static Workload,
    plan: Plan,
    env: &Env,
    out_dir: &Path,
) -> io::Result<Traced> {
    let kind = workload.kind;
    let mut rec = Recorder::new(true);
    let first_rep = RepOptions {
        record_script: kind.scripted(),
        scrape_ops: kind == Kind::GridMixed,
    };
    // `setup_s` comes from the untraced run; one set-up is enough here.
    let mut measured = set_up(
        workload,
        Plan {
            setup_reps: 1,
            ..plan
        },
        env,
    );
    let slice = Plan {
        seconds: plan.seconds / REPLAY_PASSES as f64,
        ..plan
    };
    let journal_dir = env
        .scratch
        .join(format!("replay-journal-{}", std::process::id()));
    let mut flavours = vec![Flavour::Plain];
    if kind.journaled() {
        flavours.extend([Flavour::Journal, Flavour::JournalFsync]);
    }
    let mut script = None;
    for pass in 0..REPLAY_PASSES {
        if pass > 0 && !kind.scripted() {
            // `agent.overhead_frac` sets `run_agent`'s wall against the
            // kernel's direct-call time: take that again next to the
            // repetitions it is compared with, not once at the start.
            measured.prepared = prepare(kind, Scale::Full, plan.seed);
        }
        repeat(&mut measured, workload, slice, env, &mut rec, first_rep)?;
        script = script.or_else(|| measured.script.take());
        let Some(script) = &script else {
            continue; // `run_agent` sends the frames, not the benchmark
        };
        for &flavour in &flavours {
            let _ = std::fs::remove_dir_all(&journal_dir);
            let counts = replay(
                kind,
                &measured.prepared,
                script,
                flavour,
                &journal_dir,
                &mut rec,
                &mut measured.series,
            )?;
            if !counts.completed {
                return Err(io::Error::other(
                    "socketless replay did not complete the campaign the socket run completed",
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
    scheduler_rows(kind, &measured.prepared, &mut rec);
    micro_rows(kind, &measured.prepared, &mut measured.series);

    let times = rec.self_times();
    let (layers, sum_checks) = fold(&measured, &times);
    times.write_jsonl(&out_dir.join(format!("trace-{}.jsonl", workload.name)))?;
    Ok(Traced {
        self_ns: times.by_name(),
        measured,
        layers,
        sum_checks,
    })
}

/// One request kind's round trip set against the direct calls it makes.
struct Attribution {
    rtt_ns: f64,
    direct_ns: f64,
}

impl Attribution {
    /// What is left of the round trip for the transport: socket, event
    /// loop, context switches. Never negative — when the replayed calls
    /// alone took longer than the live round trip, the replay did not
    /// reproduce the live server's conditions, and [`Self::gap_frac`]
    /// says by how much.
    fn transport_ns(&self) -> f64 {
        (self.rtt_ns - self.direct_ns).max(0.0)
    }

    /// (direct + transport − round trip) ÷ round trip: 0 when the rows add
    /// up, positive when the direct calls exceed the round trip.
    fn gap_frac(&self) -> f64 {
        if self.rtt_ns > 0.0 {
            (self.direct_ns + self.transport_ns() - self.rtt_ns) / self.rtt_ns
        } else {
            0.0
        }
    }

    fn check_line(&self, what: &str) -> String {
        let verdict = if self.gap_frac() > 0.0 {
            format!(
                "FAILED: the direct calls alone exceed the round trip by {:.1} %",
                self.gap_frac() * 100.0
            )
        } else {
            "ok".into()
        };
        format!(
            "  {what:<7} direct {:>8.2} us + transport {:>7.2} us vs round trip {:>8.2} us  {verdict}",
            self.direct_ns / 1e3,
            self.transport_ns() / 1e3,
            self.rtt_ns / 1e3,
        )
    }
}

/// One value per contract per-layer name, and the sum-check lines.
fn fold(
    m: &Measured,
    times: &SelfTimes<'_>,
) -> (Vec<(&'static str, &'static str, f64)>, Vec<String>) {
    let span = |names: &[&str]| times.median_ns(names).unwrap_or(0.0);
    let kind = crate::workload::by_name(m.workload)
        .expect("measured workloads come from the table")
        .kind;
    let multi = m.prepared.campaigns.len() > 1;
    // The state calls a request of this workload really makes.
    let (fetch, accept, reject) = if kind.journaled() {
        Flavour::Journal.spans()
    } else {
        Flavour::Plain.spans()
    };
    let rtt = |pool: &crate::stats::LatencyPool| pool.percentile_us(50.0).unwrap_or(0.0) * 1e3;
    let ask = Attribution {
        rtt_ns: rtt(&m.ask),
        direct_ns: span(&["protocol.decode_ask"])
            + span(&[fetch])
            + span(&["protocol.encode_assignment"]),
    };
    let report = Attribution {
        rtt_ns: rtt(&m.report),
        direct_ns: span(&["protocol.decode_report"])
            + span(&[accept])
            + span(&["protocol.encode_ack"]),
    };
    let median = |name: &str| m.series.median(name).unwrap_or(0.0);

    let computed = |name: &str| -> Option<f64> {
        Some(match name {
            "protocol.decode_ask_ns" => span(&["protocol.decode_ask"]),
            "protocol.decode_report_ns" => span(&["protocol.decode_report"]),
            "protocol.encode_assignment_ns" => span(&["protocol.encode_assignment"]),
            "protocol.encode_ack_ns" => span(&["protocol.encode_ack"]),
            "sched.fetch_ns" => span(&["sched.fetch"]),
            "sched.report_ns" => span(&["sched.report"]),
            "state.fetch_ns" => span(&["state.fetch"]),
            "state.report_accept_ns" => span(&["state.report_accept"]),
            "state.report_reject_ns" => span(&["state.report_reject"]),
            // State plus the fair-share arbiter at N = 2; the arbiter's
            // own share is this minus a wire workload's `state.*` row.
            "registry.fetch_ns" if multi => span(&[fetch]),
            "registry.report_ns" if multi => span(&[accept, reject]),
            "journal.append_ns" if kind.journaled() => {
                let (plain, journal) = (Flavour::Plain.spans(), Flavour::Journal.spans());
                let added = |journaled: &str, plain: &str| span(&[journaled]) - span(&[plain]);
                (added(journal.0, plain.0) + added(journal.1, plain.1)) / 2.0
            }
            // The batched fdatasync lands on one report in 32 (p96.9):
            // the p99 of the fsync-ing replay's reports over their median.
            "journal.fsync_us" if kind.journaled() => {
                let name = [Flavour::JournalFsync.spans().1];
                (times.percentile_ns(&name, 99.0).unwrap_or(0.0) - span(&name)) / 1e3
            }
            "server.ask_residual_ns" if kind.scripted() => ask.transport_ns(),
            "server.report_residual_ns" if kind.scripted() => report.transport_ns(),
            "server.session_setup_us" => m.session_setup.percentile_us(50.0).unwrap_or(0.0),
            "ops.scrape_p50_us" => m.scrape.percentile_us(50.0).unwrap_or(0.0),
            "agent.ask_p50_us" if !kind.scripted() => ask.rtt_ns / 1e3,
            "bench.drift_frac" => m.drift_frac(),
            "bench.trace_overhead_frac" => {
                let off = median("bench.wu_per_s_spans_off");
                if off > 0.0 {
                    (off - median("bench.wu_per_s_spans_on")) / off
                } else {
                    0.0
                }
            }
            "bench.attribution_gap_frac" if kind.scripted() => {
                ask.gap_frac().max(report.gap_frac())
            }
            "bench.ask_rtt_p50_ns" => ask.rtt_ns,
            "bench.report_rtt_p50_ns" => report.rtt_ns,
            "bench.pinned" => f64::from(u8::from(m.pinned)),
            "bench.repetitions" => m.repetitions as f64,
            _ => return None,
        })
    };

    let layers = PER_LAYER
        .iter()
        .map(|l| {
            let value = computed(l.name)
                .or_else(|| m.series.median(l.name))
                .unwrap_or(0.0);
            (l.name, l.unit, value)
        })
        .collect();
    let sum_checks = if kind.scripted() {
        vec![ask.check_line("ask"), report.check_line("report")]
    } else {
        Vec::new()
    };
    (layers, sum_checks)
}

#[cfg(test)]
mod tests {
    use super::Attribution;

    #[test]
    fn transport_is_never_negative_and_the_gap_says_why() {
        let adds_up = Attribution {
            rtt_ns: 50_000.0,
            direct_ns: 44_000.0,
        };
        assert_eq!(adds_up.transport_ns(), 6_000.0);
        assert_eq!(adds_up.gap_frac(), 0.0);
        assert!(adds_up.check_line("report").ends_with("ok"));
        let exceeds = Attribution {
            rtt_ns: 50_000.0,
            direct_ns: 52_500.0,
        };
        assert_eq!(exceeds.transport_ns(), 0.0);
        assert_eq!(exceeds.gap_frac(), 0.05);
        assert!(exceeds.check_line("report").contains("FAILED"));
    }
}
