//! One workload, one process: set-up, then repetitions for the asked
//! number of seconds, every one verified.
//!
//! Rep-level metrics are kept as one sample per repetition and reported
//! as their median; latencies are pooled over all repetitions so the p99
//! has far more than ten samples beyond it.

use crate::runner::{run_rep, Env, RepOptions, RepOutcome};
use crate::spans::Recorder;
use crate::stats::{median, LatencyPool, Summary};
use crate::sysx;
use crate::workload::{prepare, Prepared, Scale, Workload};
use std::io;
use std::time::{Duration, Instant};

/// How long and how to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Wall budget of the repetition loop (bind, verification and
    /// recovery included).
    pub seconds: f64,
    /// Times set-up runs; `setup_s` is their median.
    pub setup_reps: usize,
    /// Repetitions run whatever `seconds` says — `drift_frac` needs two
    /// halves, the traced run one repetition with spans and one without.
    pub min_reps: usize,
    /// Stop after this many repetitions even if time remains (`smoke`).
    pub max_reps: usize,
}

impl Plan {
    pub fn timed(seed: u64, seconds: f64) -> Self {
        Self {
            seed,
            seconds,
            setup_reps: 3,
            min_reps: 2,
            max_reps: usize::MAX,
        }
    }
}

/// Named per-repetition samples, in first-pushed order.
#[derive(Debug, Default, Clone)]
pub struct Series(Vec<(&'static str, Vec<f64>)>);

impl Series {
    /// Pushes `value` when there is one.
    pub fn extend(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.push(name, v);
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v)
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        Summary::of(self.get(name)).map(|s| s.median)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &[f64])> {
        self.0.iter().map(|(n, v)| (*n, v.as_slice()))
    }
}

/// Everything one workload run measured.
pub struct Measured {
    pub workload: &'static str,
    pub seed: u64,
    /// One sample per repetition of every rep-level metric (and one per
    /// set-up of `setup_s`).
    pub series: Series,
    pub ask: LatencyPool,
    pub report: LatencyPool,
    pub session_setup: LatencyPool,
    pub scrape: LatencyPool,
    pub attempted: u64,
    pub failed: u64,
    /// Every repetition's artifact matched its baseline.
    pub correct: bool,
    pub pinned: bool,
    pub repetitions: usize,
    /// The last set-up's product, for the traced run's layer replay.
    pub prepared: Prepared,
    /// The request script of the first repetition, when recorded.
    pub script: Option<crate::client::Script>,
}

impl Measured {
    /// |median(first half) − median(second half)| ÷ median of `wu_per_s`:
    /// how far the machine drifted while this run was measuring.
    pub fn drift_frac(&self) -> f64 {
        let v = self.series.get("wu_per_s");
        let (a, b) = v.split_at(v.len() / 2);
        let all = median(v);
        if a.is_empty() || all == 0.0 {
            0.0
        } else {
            (median(a) - median(b)).abs() / all
        }
    }

    /// The value of end-to-end metric `name`; `None` where the metric
    /// does not apply to this workload.
    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        match name {
            "ask_p50_us" => self.ask.supported_percentile_us(50.0),
            "ask_p99_us" => self.ask.supported_percentile_us(99.0),
            "report_p50_us" => self.report.supported_percentile_us(50.0),
            "report_p99_us" => self.report.supported_percentile_us(99.0),
            _ => self.series.median(name),
        }
    }
}

fn record(series: &mut Series, rep: &RepOutcome) {
    let wu = rep.workunits as f64;
    series.push("wu_per_s", wu / rep.wall_s);
    series.push("server_cpu_us_per_wu", rep.server.cpu_s * 1e6 / wu);
    series.push("replicas_per_wu", rep.replicas_issued as f64 / wu);
    if rep.tally.wire_bytes > 0 {
        series.push("wire_bytes_per_wu", rep.tally.wire_bytes as f64 / wu);
    }
    if let Some(s) = rep.recovery_s {
        series.push("recovery_s", s);
    }
    if let Some(b) = rep.journal_bytes {
        series.push("journal_bytes_per_wu", b as f64 / wu);
    }
    // Layer-side counts the traced run reports (cheap to keep always).
    let requests = rep.tally.requests().max(1) as f64;
    series.push("server.cpu_us_per_req", rep.server.cpu_s * 1e6 / requests);
    series.push("server.allocs_per_req", rep.server.allocs as f64 / requests);
    series.push(
        "server.alloc_bytes_per_req",
        rep.server.alloc_bytes as f64 / requests,
    );
    series.push(
        "server.ctx_switches_per_req",
        rep.server.ctx_switches as f64 / requests,
    );
    series.push(
        "server.nowork_frac",
        rep.tally.nowork as f64 / rep.tally.asks.max(1) as f64,
    );
    let report = &rep.server.report;
    let sum = |f: &dyn Fn(&netgrid::CampaignRunReport) -> u64| -> f64 {
        report.campaigns.iter().map(f).sum::<u64>() as f64
    };
    series.push(
        "trust.quorum_rejects_per_wu",
        sum(&|c| c.net_stats.quorum_rejected) / wu,
    );
    series.push(
        "trust.spot_checks_per_wu",
        sum(&|c| c.server_stats.spot_check_issues) / wu,
    );
    series.push(
        "trust.quarantine_denials",
        sum(&|c| c.net_stats.trust_denied_fetches) + report.cross_quarantine_denials as f64,
    );
    series.push("registry.share_error", report.share_error);
    if let (Some(bytes), Some(s)) = (rep.journal_bytes, rep.recovery_s) {
        // Every fetch and every report appends one record; with no
        // deadline expiries there are no others.
        series.push("journal.bytes_per_record", bytes as f64 / requests);
        series.push("journal.records_per_wu", requests / wu);
        series.push("journal.replay_ns_per_record", s * 1e9 / requests);
    }
    if let Some(f) = rep.agent_overhead_frac {
        series.push("agent.overhead_frac", f);
        series.push("maxdo.wall_frac", 1.0 - f);
    }
}

/// Set-up, `plan.setup_reps` times: everything a run needs before its
/// first repetition, with `setup_s` sampled once per set-up.
pub fn set_up(workload: &'static Workload, plan: Plan, env: &Env) -> Measured {
    let mut series = Series::default();
    let mut prepared = None;
    for _ in 0..plan.setup_reps.max(1) {
        let started = Instant::now();
        prepared = Some(prepare(workload.kind, Scale::Full, plan.seed));
        series.push("setup_s", started.elapsed().as_secs_f64());
    }
    Measured {
        workload: workload.name,
        seed: plan.seed,
        series,
        ask: LatencyPool::default(),
        report: LatencyPool::default(),
        session_setup: LatencyPool::default(),
        scrape: LatencyPool::default(),
        attempted: 0,
        failed: 0,
        correct: true,
        pinned: env.pinned(),
        repetitions: 0,
        prepared: prepared.expect("set-up ran at least once"),
        script: None,
    }
}

/// Repetitions of `workload` for `plan.seconds` (at least
/// `plan.min_reps`), every one verified, added to `out`. `first_rep`
/// applies to the first repetition `out` ever sees.
///
/// An enabled `rec` records every other repetition only, and the
/// throughput of the two kinds is kept apart (`bench.wu_per_s_spans_on` /
/// `_off`): their gap is what the spans cost, measured on repetitions
/// that alternate in time instead of on two runs minutes apart.
pub fn repeat(
    out: &mut Measured,
    workload: &'static Workload,
    plan: Plan,
    env: &Env,
    rec: &mut Recorder,
    first_rep: RepOptions,
) -> io::Result<()> {
    let budget = Duration::from_secs_f64(plan.seconds.max(0.0));
    let started = Instant::now();
    let mut done = 0;
    while done < plan.max_reps && (done < plan.min_reps || started.elapsed() < budget) {
        let options = if out.repetitions == 0 {
            first_rep
        } else {
            RepOptions::default()
        };
        rec.pause(out.repetitions % 2 == 1);
        let mut rep = run_rep(workload.kind, &out.prepared, plan.seed, env, rec, options)?;
        record(&mut out.series, &rep);
        if rec.enabled() {
            let name = if rec.paused() {
                "bench.wu_per_s_spans_off"
            } else {
                "bench.wu_per_s_spans_on"
            };
            out.series.push(name, rep.workunits as f64 / rep.wall_s);
        }
        let (attempted, failed) = rep.operations();
        out.attempted += attempted;
        out.failed += failed;
        out.correct &= rep.artifact_ok;
        // Per-repetition percentiles: the quartiles `run` prints beside
        // the pooled value, where one repetition supports the percentile.
        for (name, pool, p) in [
            ("rep.ask_p50_us", &rep.tally.ask, 50.0),
            ("rep.ask_p99_us", &rep.tally.ask, 99.0),
            ("rep.report_p50_us", &rep.tally.report, 50.0),
            ("rep.report_p99_us", &rep.tally.report, 99.0),
        ] {
            out.series.extend(name, pool.supported_percentile_us(p));
        }
        out.ask.extend(&rep.tally.ask);
        out.report.extend(&rep.tally.report);
        out.session_setup.extend(&rep.tally.session_setup);
        out.scrape.extend(&rep.tally.scrape);
        if out.repetitions == 0 {
            out.script = rep.tally.script.take();
            // Memory is read here, not at exit: what set-up plus one whole
            // repetition (recovery included) needs. At exit it also holds
            // whatever the allocator happened to strand since, which
            // depends on how many repetitions the time budget allowed: one
            // `wire_durable` run in fourteen ends 8 MB (a WAL-sized read
            // buffer) higher than the rest.
            out.series.extend("peak_rss_mb", sysx::peak_rss_mb());
        }
        out.repetitions += 1;
        done += 1;
    }
    rec.pause(false);
    Ok(())
}

/// Set-up, then repetitions: one whole untraced run.
pub fn measure(workload: &'static Workload, plan: Plan, env: &Env) -> io::Result<Measured> {
    let mut out = set_up(workload, plan, env);
    let mut rec = Recorder::new(false);
    repeat(
        &mut out,
        workload,
        plan,
        env,
        &mut rec,
        RepOptions::default(),
    )?;
    Ok(out)
}
