//! Warn-only perf-regression guard for the committed bench baselines.
//!
//! Compares a fresh bench run against its committed baseline and prints
//! a warning when the fresh numbers regress past the tolerance. CI
//! machines are noisy and heterogeneous, so the guard never fails the
//! build on a perf delta — exit 0 with warnings on stderr; exit 2 only
//! when a report is missing, malformed, or of a different kind than its
//! baseline.
//!
//! ```text
//! bench_guard <baseline.json> <fresh.json> [--tolerance <fraction>]
//! ```
//!
//! The report kind is read from the `"bench"` field and dispatches the
//! comparison:
//!
//! * `sim_scale` (`BENCH_simscale.json`) — events/sec per fleet
//!   scenario, plus the PR-3 claim that the timing wheel stays ≥ 2x the
//!   heap at the 100k-host fleet (warn-only; `--quick` runs don't
//!   include that fleet).
//! * `netgrid_e2e` (`BENCH_netgrid.json`) — loopback workunits/sec and
//!   p99 request latency, plus a warning if the merged wire-level
//!   output diverged from the in-process baseline or a fault path went
//!   unexercised. Reports with the ops-endpoint columns also get
//!   warn-only ceilings on the ops throughput overhead and on the p99
//!   `/metrics` scrape latency; the journal/ops columns are null on
//!   mux-driven runs and simply skipped. Relative compares only apply
//!   between runs with the same fleet size — a `--quick` or `--agents`
//!   override measures a different experiment than the baseline.
//!   Reports with a scale campaign get an absolute warn-only ceiling on
//!   the mux fleet's p99 request latency. Reports with the trust
//!   comparison columns get warn-only floors on the redundancy saving
//!   and the quorum-rejection reduction from trust-adaptive
//!   replication, a wasted-compute sanity check, and warnings if the
//!   saboteur escaped quarantine or either trust run's merged output
//!   diverged. Reports with the `shard_campaigns` rows get, per row,
//!   warnings if the merged per-shard artifacts diverged from the
//!   single-server run, if the redirect count exceeded the request
//!   count (an agent is only ever bounced once per ask, so more
//!   redirects than asks means a steering loop), or if aggregate
//!   sharded throughput fell below 0.9x the single-server reference.
//!   Reports with the multi-campaign `campaign_rows` get a warn-only
//!   ceiling on the contended fair-share error (the 70/30 split must
//!   land within ±5%) and a warning if any hosted campaign's merged
//!   artifact diverged from a solo run of the same recipe.

use serde::Value;
use std::process::ExitCode;

/// Minimum wheel-over-heap speedup the big fleets are expected to keep.
const EXPECTED_WHEEL_SPEEDUP: f64 = 2.0;
/// Hosts from which the speedup expectation applies.
const BIG_FLEET_HOSTS: f64 = 100_000.0;
/// Largest acceptable `(plain - journaled) / plain` throughput loss
/// from the write-ahead journal before the (warn-only) guard fires.
const JOURNAL_OVERHEAD_CEILING: f64 = 0.10;
/// Largest acceptable `(plain - ops) / plain` throughput loss from the
/// live observability endpoint before the (warn-only) guard fires. The
/// endpoint only copies a snapshot under the state mutex, so it should
/// cost essentially nothing.
const OPS_OVERHEAD_CEILING: f64 = 0.10;
/// Absolute warn-only ceiling on the p99 `/metrics` scrape round trip
/// over loopback. A scrape renders a copied snapshot off the hot path,
/// so anything slower than this means the ops thread is blocking.
const OPS_SCRAPE_P99_CEILING_MS: f64 = 50.0;
/// Absolute warn-only ceiling on the scale campaign's p99 request
/// latency — the PR-7 target: single-digit milliseconds with ten
/// thousand multiplexed volunteers on loopback.
const SCALE_P99_CEILING_MS: f64 = 10.0;
/// Smallest acceptable `(off - on) / off` redundancy saving from
/// trust-adaptive replication before the (warn-only) guard fires — the
/// PR-8 headline is a measured drop, so a run where trust saves
/// essentially nothing means graduation stopped happening.
const TRUST_REDUNDANCY_REDUCTION_FLOOR: f64 = 0.05;
/// Smallest acceptable `trust_off / trust_on` quorum-rejection ratio:
/// quarantining the saboteur is expected to at least halve the
/// rejections it can land.
const TRUST_REJECT_REDUCTION_FLOOR: f64 = 2.0;
/// Smallest acceptable sharded-over-single aggregate throughput before
/// the (warn-only) guard fires: splitting a campaign across shards buys
/// address-space and fault isolation, and steering is supposed to keep
/// the work moving — it must not cost more than ~10% of the wire.
const SHARD_THROUGHPUT_FLOOR_FRAC: f64 = 0.9;
/// Largest acceptable contended fair-share error in the multi-campaign
/// run: the deficit scheduler must hold a 70/30 split within ±5% of
/// the configured shares while both campaigns still have fresh work.
const CAMPAIGN_SHARE_ERROR_CEILING: f64 = 0.05;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

/// Flattens a report into `(hosts, wheel events/sec, wheel speedup)` rows.
fn scenario_rows(report: &Value, path: &str) -> Result<Vec<(f64, f64, f64)>, String> {
    let Some(Value::Seq(scenarios)) = report.get("scenarios") else {
        return Err(format!("{path}: no \"scenarios\" array"));
    };
    scenarios
        .iter()
        .map(|s| {
            let hosts = s.get("hosts").and_then(Value::as_f64);
            let eps = s
                .get("wheel")
                .and_then(|w| w.get("events_per_sec"))
                .and_then(Value::as_f64);
            let speedup = s.get("wheel_speedup").and_then(Value::as_f64);
            match (hosts, eps, speedup) {
                (Some(h), Some(e), Some(x)) => Ok((h, e, x)),
                _ => Err(format!("{path}: malformed scenario entry")),
            }
        })
        .collect()
}

/// The numbers the netgrid guard compares, pulled from one report.
struct NetgridSummary {
    /// Honest classic-fleet size; relative compares only make sense
    /// between equal fleets. `None` on pre-PR-7 reports.
    agents: Option<f64>,
    workunits_per_sec: f64,
    p99_ms: f64,
    timeout_reissues: u64,
    quorum_rejects: u64,
    merged_matches_baseline: bool,
    /// `(plain - journaled) / plain` throughput; `None` on reports from
    /// before the journal column existed.
    journal_overhead_frac: Option<f64>,
    journal_merged_matches_baseline: Option<bool>,
    /// `(plain - ops) / plain` throughput; `None` on reports from
    /// before the ops-endpoint columns existed.
    ops_overhead_frac: Option<f64>,
    ops_scrape_p99_ms: Option<f64>,
    ops_merged_matches_baseline: Option<bool>,
    /// Scale-campaign columns; `None`/zero when the campaign was
    /// skipped or the report predates it.
    scale_agents: Option<f64>,
    scale_workunits_per_sec: Option<f64>,
    scale_request_latency_p99_ms: Option<f64>,
    scale_merged_matches_baseline: Option<bool>,
    /// Trust-comparison columns; `None` on reports from before the
    /// trust pair existed.
    trust_redundancy_reduction_frac: Option<f64>,
    trust_off_quorum_rejects: Option<f64>,
    trust_on_quorum_rejects: Option<f64>,
    trust_off_wasted_ref_seconds: Option<f64>,
    trust_on_wasted_ref_seconds: Option<f64>,
    trust_saboteur_quarantined: Option<bool>,
    trust_off_merged_matches_baseline: Option<bool>,
    trust_on_merged_matches_baseline: Option<bool>,
    /// Sharded-campaign rows; `None` on reports from before the
    /// sharding block existed (or when `--shards 0` skipped it).
    shard_rows: Option<Vec<ShardRow>>,
    /// Contended fair-share error of the multi-campaign run; `None` on
    /// reports from before the multi-campaign block existed.
    campaign_share_error: Option<f64>,
    /// Per-hosted-campaign rows of the multi-campaign run; `None` on
    /// pre-multi-campaign reports.
    campaign_rows: Option<Vec<CampaignRow>>,
}

/// One `campaign_rows` entry, as far as the guard cares.
struct CampaignRow {
    name: String,
    share: f64,
    delivered_frac: f64,
    matches_solo_baseline: bool,
}

/// One `shard_campaigns` entry, as far as the guard cares.
struct ShardRow {
    shards: f64,
    trust: bool,
    requests: f64,
    redirects: f64,
    merged_matches_single: bool,
    throughput_vs_single_frac: f64,
}

fn netgrid_summary(report: &Value, path: &str) -> Result<NetgridSummary, String> {
    let f = |key: &str| {
        report
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: missing numeric \"{key}\""))
    };
    let merged = match report.get("merged_matches_baseline") {
        Some(Value::Bool(b)) => *b,
        _ => return Err(format!("{path}: missing bool \"merged_matches_baseline\"")),
    };
    Ok(NetgridSummary {
        agents: report.get("agents").and_then(Value::as_f64),
        workunits_per_sec: f("workunits_per_sec")?,
        p99_ms: f("request_latency_p99_ms")?,
        timeout_reissues: f("timeout_reissues")? as u64,
        quorum_rejects: f("quorum_rejects")? as u64,
        merged_matches_baseline: merged,
        journal_overhead_frac: report.get("journal_overhead_frac").and_then(Value::as_f64),
        journal_merged_matches_baseline: match report.get("journal_merged_matches_baseline") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        },
        ops_overhead_frac: report.get("ops_overhead_frac").and_then(Value::as_f64),
        ops_scrape_p99_ms: report.get("ops_scrape_p99_ms").and_then(Value::as_f64),
        ops_merged_matches_baseline: match report.get("ops_merged_matches_baseline") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        },
        scale_agents: report.get("scale_agents").and_then(Value::as_f64),
        scale_workunits_per_sec: report
            .get("scale_workunits_per_sec")
            .and_then(Value::as_f64),
        scale_request_latency_p99_ms: report
            .get("scale_request_latency_p99_ms")
            .and_then(Value::as_f64),
        scale_merged_matches_baseline: match report.get("scale_merged_matches_baseline") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        },
        trust_redundancy_reduction_frac: report
            .get("trust_redundancy_reduction_frac")
            .and_then(Value::as_f64),
        trust_off_quorum_rejects: report
            .get("trust_off_quorum_rejects")
            .and_then(Value::as_f64),
        trust_on_quorum_rejects: report
            .get("trust_on_quorum_rejects")
            .and_then(Value::as_f64),
        trust_off_wasted_ref_seconds: report
            .get("trust_off_wasted_ref_seconds")
            .and_then(Value::as_f64),
        trust_on_wasted_ref_seconds: report
            .get("trust_on_wasted_ref_seconds")
            .and_then(Value::as_f64),
        trust_saboteur_quarantined: match report.get("trust_saboteur_quarantined") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        },
        trust_off_merged_matches_baseline: match report.get("trust_off_merged_matches_baseline") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        },
        trust_on_merged_matches_baseline: match report.get("trust_on_merged_matches_baseline") {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        },
        shard_rows: match report.get("shard_campaigns") {
            Some(Value::Seq(rows)) => Some(
                rows.iter()
                    .map(|row| {
                        let f = |key: &str| {
                            row.get(key).and_then(Value::as_f64).ok_or_else(|| {
                                format!("{path}: shard row missing numeric \"{key}\"")
                            })
                        };
                        Ok(ShardRow {
                            shards: f("shards")?,
                            trust: matches!(row.get("trust"), Some(Value::Bool(true))),
                            requests: f("requests")?,
                            redirects: f("redirects")?,
                            merged_matches_single: matches!(
                                row.get("merged_matches_single"),
                                Some(Value::Bool(true))
                            ),
                            throughput_vs_single_frac: f("throughput_vs_single_frac")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            ),
            _ => None,
        },
        campaign_share_error: report.get("campaign_share_error").and_then(Value::as_f64),
        campaign_rows: match report.get("campaign_rows") {
            Some(Value::Seq(rows)) => Some(
                rows.iter()
                    .map(|row| {
                        let f = |key: &str| {
                            row.get(key).and_then(Value::as_f64).ok_or_else(|| {
                                format!("{path}: campaign row missing numeric \"{key}\"")
                            })
                        };
                        let name = match row.get("name") {
                            Some(Value::Str(s)) => s.clone(),
                            _ => return Err(format!("{path}: campaign row missing \"name\"")),
                        };
                        Ok(CampaignRow {
                            name,
                            share: f("share")?,
                            delivered_frac: f("delivered_frac")?,
                            matches_solo_baseline: matches!(
                                row.get("matches_solo_baseline"),
                                Some(Value::Bool(true))
                            ),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            ),
            _ => None,
        },
    })
}

/// Warn-only comparison for a `netgrid_e2e` run: throughput floor, p99
/// latency ceiling, and the two correctness signals the e2e run must
/// carry (baseline-identical merge, both fault paths exercised).
fn guard_netgrid(base: &NetgridSummary, fresh: &NetgridSummary, tolerance: f64) -> u32 {
    let mut warnings = 0;
    // A 6-agent baseline says nothing about a 1000-agent fresh run:
    // relative compares need like-for-like fleets.
    let comparable = base.agents == fresh.agents;
    if !comparable {
        println!(
            "bench_guard: note: fleet sizes differ (baseline {:?}, fresh {:?}); relative compares skipped",
            base.agents, fresh.agents
        );
    }
    let floor = base.workunits_per_sec * (1.0 - tolerance);
    if comparable && fresh.workunits_per_sec < floor {
        warnings += 1;
        eprintln!(
            "bench_guard: WARNING: loopback throughput {:.2} wu/s is below baseline {:.2} - {:.0}% tolerance",
            fresh.workunits_per_sec,
            base.workunits_per_sec,
            tolerance * 100.0
        );
    } else if comparable {
        println!(
            "bench_guard: loopback throughput ok: {:.2} wu/s (baseline {:.2})",
            fresh.workunits_per_sec, base.workunits_per_sec
        );
    }
    let ceiling = base.p99_ms * (1.0 + tolerance);
    if comparable && fresh.p99_ms > ceiling {
        warnings += 1;
        eprintln!(
            "bench_guard: WARNING: p99 request latency {:.2} ms is above baseline {:.2} ms + {:.0}% tolerance",
            fresh.p99_ms,
            base.p99_ms,
            tolerance * 100.0
        );
    } else if comparable {
        println!(
            "bench_guard: p99 request latency ok: {:.2} ms (baseline {:.2} ms)",
            fresh.p99_ms, base.p99_ms
        );
    }
    if !fresh.merged_matches_baseline {
        warnings += 1;
        eprintln!(
            "bench_guard: WARNING: merged wire-level output diverged from the in-process baseline"
        );
    }
    if fresh.timeout_reissues == 0 || fresh.quorum_rejects == 0 {
        warnings += 1;
        eprintln!(
            "bench_guard: WARNING: a fault path went unexercised ({} timeout reissues, {} quorum rejects)",
            fresh.timeout_reissues, fresh.quorum_rejects
        );
    }
    match fresh.journal_overhead_frac {
        Some(frac) if frac > JOURNAL_OVERHEAD_CEILING => {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: write-ahead journal costs {:.1}% throughput (ceiling {:.0}%)",
                frac * 100.0,
                JOURNAL_OVERHEAD_CEILING * 100.0
            );
        }
        Some(frac) => println!(
            "bench_guard: journal overhead ok: {:.1}% (ceiling {:.0}%)",
            frac * 100.0,
            JOURNAL_OVERHEAD_CEILING * 100.0
        ),
        None => println!("bench_guard: note: report has no journal overhead column"),
    }
    if fresh.journal_merged_matches_baseline == Some(false) {
        warnings += 1;
        eprintln!(
            "bench_guard: WARNING: journaled run's merged output diverged from the in-process baseline"
        );
    }
    match fresh.ops_overhead_frac {
        Some(frac) if frac > OPS_OVERHEAD_CEILING => {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: ops endpoint costs {:.1}% throughput (ceiling {:.0}%)",
                frac * 100.0,
                OPS_OVERHEAD_CEILING * 100.0
            );
        }
        Some(frac) => println!(
            "bench_guard: ops endpoint overhead ok: {:.1}% (ceiling {:.0}%)",
            frac * 100.0,
            OPS_OVERHEAD_CEILING * 100.0
        ),
        None => println!("bench_guard: note: report has no ops overhead column"),
    }
    match fresh.ops_scrape_p99_ms {
        Some(p99) if p99 > OPS_SCRAPE_P99_CEILING_MS => {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: /metrics scrape p99 {p99:.2} ms is above the {OPS_SCRAPE_P99_CEILING_MS:.0} ms ceiling"
            );
        }
        Some(p99) => println!(
            "bench_guard: /metrics scrape p99 ok: {p99:.2} ms (ceiling {OPS_SCRAPE_P99_CEILING_MS:.0} ms)"
        ),
        None => {}
    }
    if fresh.ops_merged_matches_baseline == Some(false) {
        warnings += 1;
        eprintln!(
            "bench_guard: WARNING: ops-enabled run's merged output diverged from the in-process baseline"
        );
    }
    match fresh.scale_request_latency_p99_ms {
        Some(p99) if p99 > SCALE_P99_CEILING_MS => {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: scale campaign ({:.0} agents) p99 request latency {p99:.2} ms is above the {SCALE_P99_CEILING_MS:.0} ms ceiling",
                fresh.scale_agents.unwrap_or(0.0)
            );
        }
        Some(p99) => println!(
            "bench_guard: scale campaign ({:.0} agents) p99 request latency ok: {p99:.2} ms (ceiling {SCALE_P99_CEILING_MS:.0} ms)",
            fresh.scale_agents.unwrap_or(0.0)
        ),
        None => {}
    }
    if let (Some(base_wps), Some(fresh_wps), true) = (
        base.scale_workunits_per_sec,
        fresh.scale_workunits_per_sec,
        base.scale_agents == fresh.scale_agents,
    ) {
        let floor = base_wps * (1.0 - tolerance);
        if fresh_wps < floor {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: scale-campaign throughput {fresh_wps:.2} wu/s is below baseline {base_wps:.2} - {:.0}% tolerance",
                tolerance * 100.0
            );
        } else {
            println!(
                "bench_guard: scale-campaign throughput ok: {fresh_wps:.2} wu/s (baseline {base_wps:.2})"
            );
        }
    }
    if fresh.scale_merged_matches_baseline == Some(false) {
        warnings += 1;
        eprintln!(
            "bench_guard: WARNING: scale campaign's merged output diverged from the in-process baseline"
        );
    }
    match fresh.trust_redundancy_reduction_frac {
        Some(frac) if frac < TRUST_REDUNDANCY_REDUCTION_FLOOR => {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: trust-adaptive replication saved only {:.1}% redundancy (floor {:.0}%)",
                frac * 100.0,
                TRUST_REDUNDANCY_REDUCTION_FLOOR * 100.0
            );
        }
        Some(frac) => println!(
            "bench_guard: trust redundancy saving ok: {:.1}% (floor {:.0}%)",
            frac * 100.0,
            TRUST_REDUNDANCY_REDUCTION_FLOOR * 100.0
        ),
        None => println!("bench_guard: note: report has no trust comparison columns"),
    }
    if let (Some(off), Some(on)) = (
        fresh.trust_off_quorum_rejects,
        fresh.trust_on_quorum_rejects,
    ) {
        let ratio = off / on.max(1.0);
        if ratio < TRUST_REJECT_REDUCTION_FLOOR {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: quorum rejections only fell {ratio:.1}x under trust \
                 ({off:.0} -> {on:.0}; floor {TRUST_REJECT_REDUCTION_FLOOR:.0}x)"
            );
        } else {
            println!(
                "bench_guard: trust quorum-rejection reduction ok: {ratio:.1}x ({off:.0} -> {on:.0})"
            );
        }
    }
    if let (Some(off), Some(on)) = (
        fresh.trust_off_wasted_ref_seconds,
        fresh.trust_on_wasted_ref_seconds,
    ) {
        if on > off {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: trust-on run wasted more reference CPU than trust-off ({on:.0} vs {off:.0} ref-s)"
            );
        } else {
            println!("bench_guard: trust wasted-compute ok: {on:.0} ref-s (trust-off {off:.0})");
        }
    }
    if fresh.trust_saboteur_quarantined == Some(false) {
        warnings += 1;
        eprintln!("bench_guard: WARNING: the saboteur escaped quarantine in the trust-on run");
    }
    if fresh.trust_off_merged_matches_baseline == Some(false)
        || fresh.trust_on_merged_matches_baseline == Some(false)
    {
        warnings += 1;
        eprintln!(
            "bench_guard: WARNING: a trust-comparison run's merged output diverged from the in-process baseline"
        );
    }
    match &fresh.shard_rows {
        Some(rows) => {
            for row in rows {
                let label = format!(
                    "{:.0}-shard{} campaign",
                    row.shards,
                    if row.trust { " (trust-on)" } else { "" }
                );
                if !row.merged_matches_single {
                    warnings += 1;
                    eprintln!(
                        "bench_guard: WARNING: {label}: merged per-shard artifacts diverged from the single-server run"
                    );
                }
                if row.redirects > row.requests {
                    warnings += 1;
                    eprintln!(
                        "bench_guard: WARNING: {label}: {:.0} redirects exceed {:.0} requests — steering is looping agents",
                        row.redirects, row.requests
                    );
                }
                if row.throughput_vs_single_frac < SHARD_THROUGHPUT_FLOOR_FRAC {
                    warnings += 1;
                    eprintln!(
                        "bench_guard: WARNING: {label}: aggregate throughput is {:.2}x the single server (floor {SHARD_THROUGHPUT_FLOOR_FRAC:.1}x)",
                        row.throughput_vs_single_frac
                    );
                } else {
                    println!(
                        "bench_guard: {label} ok: {:.2}x single-server throughput, {:.0} redirects over {:.0} requests, merge matches",
                        row.throughput_vs_single_frac, row.redirects, row.requests
                    );
                }
            }
        }
        None => println!("bench_guard: note: report has no sharded-campaign rows"),
    }
    match fresh.campaign_share_error {
        Some(err) if err > CAMPAIGN_SHARE_ERROR_CEILING => {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: multi-campaign fair-share error {err:.3} is above the {CAMPAIGN_SHARE_ERROR_CEILING:.2} ceiling"
            );
        }
        Some(err) => println!(
            "bench_guard: multi-campaign fair-share error ok: {err:.3} (ceiling {CAMPAIGN_SHARE_ERROR_CEILING:.2})"
        ),
        None => println!("bench_guard: note: report has no multi-campaign columns"),
    }
    if let Some(rows) = &fresh.campaign_rows {
        for row in rows {
            if !row.matches_solo_baseline {
                warnings += 1;
                eprintln!(
                    "bench_guard: WARNING: campaign {}: merged artifact diverged from its solo-run baseline",
                    row.name
                );
            } else {
                println!(
                    "bench_guard: campaign {} ok: share {:.0}% -> delivered {:.1}%, artifact matches solo run",
                    row.name,
                    row.share * 100.0,
                    row.delivered_frac * 100.0
                );
            }
        }
    }
    warnings
}

/// The report kind, from the `"bench"` field (`sim_scale` reports from
/// before the field existed default to `sim_scale`).
fn report_kind(report: &Value) -> &str {
    report
        .get("bench")
        .and_then(Value::as_str)
        .unwrap_or("sim_scale")
}

fn main() -> ExitCode {
    let mut tolerance = 0.30f64;
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => match args.next().and_then(|s| s.parse().ok()) {
                Some(t) => tolerance = t,
                None => {
                    eprintln!("bench_guard: --tolerance needs a fraction (e.g. 0.3)");
                    return ExitCode::from(2);
                }
            },
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        eprintln!("usage: bench_guard <baseline.json> <fresh.json> [--tolerance <fraction>]");
        return ExitCode::from(2);
    };

    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_guard: {e}");
            return ExitCode::from(2);
        }
    };
    let kind = report_kind(&fresh);
    if report_kind(&baseline) != kind {
        eprintln!(
            "bench_guard: baseline is a {} report but fresh is a {} report",
            report_kind(&baseline),
            kind
        );
        return ExitCode::from(2);
    }
    if kind == "netgrid_e2e" {
        let (base, fresh) = match (
            netgrid_summary(&baseline, baseline_path),
            netgrid_summary(&fresh, fresh_path),
        ) {
            (Ok(b), Ok(f)) => (b, f),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench_guard: {e}");
                return ExitCode::from(2);
            }
        };
        let warnings = guard_netgrid(&base, &fresh, tolerance);
        if warnings > 0 {
            eprintln!(
                "bench_guard: {warnings} warning(s) — informational only, not failing the build"
            );
        }
        return ExitCode::SUCCESS;
    }

    let (base_rows, fresh_rows) = match (
        scenario_rows(&baseline, baseline_path),
        scenario_rows(&fresh, fresh_path),
    ) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_guard: {e}");
            return ExitCode::from(2);
        }
    };

    let mut warnings = 0u32;
    for &(hosts, fresh_eps, speedup) in &fresh_rows {
        // Compare against the baseline scenario with the same fleet size
        // (a --quick fresh run only covers a subset of the baseline).
        if let Some(&(_, base_eps, _)) = base_rows.iter().find(|&&(h, _, _)| h == hosts) {
            let floor = base_eps * (1.0 - tolerance);
            if fresh_eps < floor {
                warnings += 1;
                eprintln!(
                    "bench_guard: WARNING: {hosts:.0}-host fleet: wheel {fresh_eps:.0} \
                     events/sec is below baseline {base_eps:.0} - {:.0}% tolerance",
                    tolerance * 100.0
                );
            } else {
                println!(
                    "bench_guard: {hosts:.0}-host fleet ok: {fresh_eps:.0} events/sec \
                     (baseline {base_eps:.0})"
                );
            }
        } else {
            println!("bench_guard: {hosts:.0}-host fleet has no baseline entry; skipped");
        }
        if hosts >= BIG_FLEET_HOSTS && speedup < EXPECTED_WHEEL_SPEEDUP {
            warnings += 1;
            eprintln!(
                "bench_guard: WARNING: {hosts:.0}-host fleet: wheel speedup {speedup:.2}x \
                 fell below the expected {EXPECTED_WHEEL_SPEEDUP:.1}x over the heap"
            );
        }
    }
    if warnings > 0 {
        eprintln!("bench_guard: {warnings} warning(s) — informational only, not failing the build");
    }
    ExitCode::SUCCESS
}
