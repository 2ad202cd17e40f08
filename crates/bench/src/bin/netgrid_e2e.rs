//! Live-grid end-to-end smoke: the real `hcmd-netgrid` server and a
//! fleet of real agents over loopback TCP, faults on.
//!
//! It runs an actual campaign — length-prefixed frames, maxdo docking,
//! quorum validation on the server — with one fleet of agents
//! (`netgrid::run_mux_fleet`, one `AgentConfig` per volunteer, each run
//! to its own end) that always includes one agent that vanishes
//! mid-workunit and one saboteur that corrupts every payload, so a
//! single run exercises the §5.1 timeout-reissue path and the
//! quorum-rejection path, and the report carries those counts next to
//! the injected fault totals.
//!
//! This binary checks that the artifact survives faults, scale and
//! sharding; it is not where performance is measured, and it compares no
//! number with a baseline. What a layer costs — the journal
//! (`wire_durable` against `wire_steady`), an ops scrape
//! (`ops.scrape_p50_us`), a request — is measured by the benchmark
//! harness in `benchmarks/` (see `BENCHMARK.json`). What a stepped test
//! pins better — the trust policy's quarantine, a fair-share split, a
//! two-campaign server's artifacts — is left to those tests.
//!
//! A second, *scale* campaign is the same fleet with `--scale-agents`
//! (default 10 000) honest volunteers against the same event-loop
//! server; the `scale_*` columns record its throughput and
//! request-latency percentiles. The soft open-file limit is raised
//! first: a loopback run holds both ends of every socket. Every fleet
//! clock runs from the fleet's start to its last session's end.
//!
//! A *sharded* block then splits the same campaign across N
//! `NetServer` shards (2-shard, 2-shard `--trust on` and 4-shard by
//! block) with the fleet's homes round-robined across every shard. Each row
//! in the `shard_campaigns` column reports redirect and lease (steal)
//! counts, per-shard and aggregate throughput, and whether the merged
//! per-shard artifacts are byte-identical to a like-for-like
//! single-server run.
//!
//! The binary exits 1 when any artifact diverges from its reference,
//! when a shard row's fleet followed none of the redirects it was
//! sent, or when a shard row sent more redirects than the fleet made
//! requests (one redirect answers one ask, so more is a steering
//! loop).
//!
//! `--merge p0.json,p1.json[,...]` skips the bench entirely and runs
//! the artifact merge step instead: reads the per-shard partials the
//! sharded servers wrote with `--out`, combines them with
//! `netgrid::merge_artifact_json`, and writes the single-server byte
//! stream to `--out` (or stdout). This is how a real sharded operation
//! — and the CI interop smoke — assembles the final catalog.
//!
//! Writes `BENCH_netgrid.json` at the workspace root (override with
//! `--out`). `--quick` shrinks the fleet and the deadline so the
//! loopback smoke stays seconds-scale.

use bench_support::RunSession;
use metrics::quantile;
use netgrid::{
    merge_artifact_json, merge_artifacts, run_mux_fleet, sys, AgentConfig, AgentReport,
    CampaignParams, CampaignRunReport, FaultProfile, NetCampaign, NetRunReport, NetServer,
    NetServerConfig, NetStats, ShardSpec, ShardTopology, TrustConfig,
};
use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

/// How long any fleet may run before the sessions still running are
/// cut off.
const FLEET_TIMEOUT: Duration = Duration::from_secs(280);

/// Soft open-file limit asked for before the scale campaign: the mux
/// driver keeps at most 8 000 connections open, and a loopback run owns
/// both ends of each.
const SCALE_NOFILE: u64 = 20_000;

/// The `BENCH_netgrid.json` document.
#[derive(serde::Serialize)]
struct NetgridReport {
    bench: String,
    quick: bool,
    seed: u64,
    /// Honest (flaky-profile) agents in the plain campaign's fleet; the
    /// victim and the saboteur ride on top of these.
    agents: usize,
    workunits: usize,
    timeout_reissues: u64,
    quorum_rejects: u64,
    /// Injected fault totals, for context next to the reissue counts.
    disconnect_faults: u64,
    stall_faults: u64,
    corrupt_faults: u64,
    merged_matches_baseline: bool,
    /// Simulated volunteers in the scale campaign (0 = skipped).
    scale_agents: usize,
    scale_wall_seconds: Option<f64>,
    scale_workunits_per_sec: Option<f64>,
    scale_requests: Option<usize>,
    scale_request_latency_p50_ms: Option<f64>,
    scale_request_latency_p99_ms: Option<f64>,
    scale_connections: Option<u64>,
    scale_merged_matches_baseline: Option<bool>,
    /// Throughput of the like-for-like single-server run the sharded
    /// campaigns are scored against: same campaign, same fleet, one
    /// unsharded server. Null when `--shards 0` skipped the block.
    shard_single_workunits_per_sec: Option<f64>,
    /// One row per sharded campaign (2-shard, 2-shard trust-on and
    /// 4-shard by default). Null when `--shards 0` skipped the block.
    shard_campaigns: Option<Vec<ShardBenchRow>>,
}

/// One sharded campaign in the `shard_campaigns` column.
#[derive(serde::Serialize)]
struct ShardBenchRow {
    /// Topology size: the campaign catalog was hash-split across this
    /// many `NetServer` shards.
    shards: u16,
    /// Whether every shard ran trust-adaptive replication.
    trust: bool,
    /// Workunits validated across all shards (the whole catalog).
    workunits: usize,
    /// Fleet-side wall clock, start of the fleet to its last session's
    /// end. (Server-side `wall_seconds` can include the rest a shard
    /// owes volunteers that left it without the final word, which would
    /// understate throughput.)
    wall_seconds: f64,
    /// Aggregate throughput across the topology.
    workunits_per_sec: f64,
    /// Validated-workunit throughput of each shard, in shard order. A
    /// shard that drained early and kept leasing work still shows up
    /// here — steering is why these stay comparable.
    per_shard_workunits_per_sec: Vec<f64>,
    /// `RequestWork` round trips across the fleet; the natural bound on
    /// `redirects` (one redirect answers one ask) — the binary exits 1
    /// when a row exceeds it.
    requests: usize,
    /// `Redirect` frames sent across all shards.
    redirects: u64,
    /// Redirects the fleet's agents followed to the peer they named. The
    /// first one an agent receives is always followed, so zero here with
    /// `redirects` above zero is a driver that ignores the frame — the
    /// binary exits 1 on it.
    redirects_followed: u64,
    /// Work-stealing leases granted across all shards (the steal count).
    leases: u64,
    /// Workunits that moved shard-to-shard under those leases.
    leased_workunits: u64,
    /// The headline invariant: the merged per-shard partials are
    /// byte-identical to the single-server reference artifact.
    merged_matches_single: bool,
    /// `workunits_per_sec / shard_single_workunits_per_sec`. Recorded,
    /// not checked: the 4-shard row's ratio is still unexplained.
    throughput_vs_single_frac: f64,
}

/// Everything one campaign run yields.
struct CampaignOutcome {
    run: NetRunReport,
    /// Fleet-side wall clock, the fleet's start to its last session's
    /// end (the server's own figure also holds the rests it waits out
    /// once done, so it is not a throughput clock).
    wall_seconds: f64,
    latencies: Vec<f64>,
    faults: (u64, u64, u64),
}

impl CampaignOutcome {
    /// The server's one campaign.
    fn campaign(&self) -> &CampaignRunReport {
        &self.run.campaigns[0]
    }

    fn workunits_per_sec(&self) -> f64 {
        self.campaign().workunits as f64 / self.wall_seconds.max(1e-9)
    }
}

/// `agents` clean volunteers on one run seed, ids `1..=agents`, their
/// homes round-robined over `homes`.
fn fleet(homes: &[String], agents: usize, seed: u64) -> Vec<AgentConfig> {
    let volunteer = |id: u64| AgentConfig {
        seed,
        ..AgentConfig::new(homes[(id - 1) as usize % homes.len()].clone(), id)
    };
    (1..=agents as u64).map(volunteer).collect()
}

/// Every `RequestWork` latency a fleet clocked.
fn latencies(reports: &[AgentReport]) -> Vec<f64> {
    let each = reports.iter().map(|r| &r.request_latencies_ms);
    each.flatten().copied().collect()
}

/// One counter summed over a fleet's reports.
fn total(reports: &[AgentReport], counter: fn(&AgentReport) -> u64) -> u64 {
    reports.iter().map(counter).sum()
}

/// Runs a fleet that must see its campaign complete.
fn run_fleet(agents: Vec<AgentConfig>, what: &str) -> (Vec<AgentReport>, f64) {
    let t0 = Instant::now();
    let reports = run_mux_fleet(agents, FLEET_TIMEOUT).expect("fleet ran");
    let wall_seconds = t0.elapsed().as_secs_f64();
    assert!(
        reports.iter().any(|r| r.saw_completion),
        "{what}: no session saw the campaign complete"
    );
    (reports, wall_seconds)
}

/// One full wire-level campaign as one fleet: a victim that takes a
/// workunit and vanishes (forces a timeout reissue), a saboteur that
/// corrupts every payload (forces quorum rejections), and the
/// honest-but-flaky majority that carries the campaign. The two go
/// first, so they dial before thousands of honest volunteers drain the
/// queue.
fn run_campaign(
    campaign_params: CampaignParams,
    deadline_seconds: f64,
    honest_agents: usize,
    seed: u64,
) -> CampaignOutcome {
    let mut config = NetServerConfig {
        campaign: campaign_params,
        sweep_ms: 25,
        ..NetServerConfig::loopback(deadline_seconds)
    };
    // No `Busy` limit: the scale campaign measures the event loop
    // itself, and the plain fleet is far below the default one.
    config.faults.max_connections = 0;
    let server = NetServer::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || server.run());

    let victim = AgentConfig {
        die_after: Some(1),
        seed,
        ..AgentConfig::new(addr.clone(), 100)
    };
    let saboteur = AgentConfig {
        profile: FaultProfile::saboteur(),
        seed,
        ..AgentConfig::new(addr.clone(), 666)
    };
    let honest = fleet(&[addr], honest_agents, seed).into_iter();
    let flaky = honest.map(|config| AgentConfig {
        profile: FaultProfile::flaky(),
        ..config
    });
    let (reports, wall_seconds) = run_fleet(
        [victim, saboteur].into_iter().chain(flaky).collect(),
        "campaign",
    );
    CampaignOutcome {
        run: server.join().unwrap().expect("server ran"),
        wall_seconds,
        latencies: latencies(&reports),
        faults: (
            total(&reports, |r| r.disconnect_faults),
            total(&reports, |r| r.stall_faults),
            total(&reports, |r| r.corrupt_faults),
        ),
    }
}

/// Everything one sharded campaign yields, across all its shards.
struct ShardedOutcome {
    reports: Vec<NetRunReport>,
    /// Fleet-side wall clock (a per-shard server report can include the
    /// rest it owes its volunteers, so it is not a throughput clock).
    wall_seconds: f64,
    requests: usize,
    redirects_followed: u64,
    merged_json: String,
}

impl ShardedOutcome {
    /// One wire counter summed over every shard.
    fn total(&self, counter: impl Fn(&NetStats) -> u64) -> u64 {
        self.reports
            .iter()
            .map(|r| counter(&r.campaigns[0].net_stats))
            .sum()
    }
}

/// Reserves `n` distinct loopback addresses: all listeners are held
/// until every port is known, then dropped together so the shards can
/// rebind them.
fn free_addrs(n: u16) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve loopback port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// One campaign split across `shards` servers by the deterministic
/// shard map, with the fleet's homes round-robined across every shard.
/// Always speaks protocol v3 — steering needs the shard messages.
fn run_sharded_campaign(
    campaign_params: CampaignParams,
    deadline_seconds: f64,
    shards: u16,
    agents: usize,
    seed: u64,
    trust: bool,
) -> ShardedOutcome {
    let addrs = free_addrs(shards);
    let handles: Vec<_> = (0..shards)
        .map(|shard_id| {
            let mut config = NetServerConfig {
                campaign: campaign_params,
                sweep_ms: 25,
                ..NetServerConfig::loopback(deadline_seconds)
            };
            if trust {
                config.faults.trust = TrustConfig::on();
            }
            config.addr = addrs[shard_id as usize].clone();
            config.shard = Some(ShardTopology {
                spec: ShardSpec { shard_id, shards },
                addrs: addrs.clone(),
            });
            let server = NetServer::bind(config).expect("bind shard");
            thread::spawn(move || server.run())
        })
        .collect();

    let (fleet, wall_seconds) = run_fleet(fleet(&addrs, agents, seed), "sharded fleet");
    let reports: Vec<NetRunReport> = handles
        .into_iter()
        .map(|h| h.join().unwrap().expect("shard ran"))
        .collect();
    let parts: Vec<_> = reports
        .iter()
        .map(|r| r.campaigns[0].partial_outputs.clone())
        .collect();
    let merged = merge_artifacts(&parts).expect("shards cover the campaign");
    ShardedOutcome {
        merged_json: serde_json::to_string(&merged).expect("merged artifact serializes"),
        requests: latencies(&fleet).len(),
        redirects_followed: total(&fleet, |r| r.redirects_followed),
        reports,
        wall_seconds,
    }
}

/// The like-for-like single-server run the sharded campaigns are scored
/// against: same campaign, same fleet size, same driver, one
/// unsharded server. Returns the artifact JSON and the fleet-side
/// workunits/sec.
fn run_shard_reference(
    campaign_params: CampaignParams,
    deadline_seconds: f64,
    agents: usize,
    seed: u64,
) -> (String, f64) {
    let config = NetServerConfig {
        campaign: campaign_params,
        sweep_ms: 25,
        ..NetServerConfig::loopback(deadline_seconds)
    };
    let server = NetServer::bind(config).expect("bind single reference");
    let addr = server.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || server.run());
    let (_, wall) = run_fleet(fleet(&[addr], agents, seed), "reference fleet");
    let run = server.join().unwrap().expect("reference server ran");
    let campaign = &run.campaigns[0];
    let json = serde_json::to_string(&campaign.outputs).expect("outputs serialize");
    (json, campaign.workunits as f64 / wall.max(1e-9))
}

fn main() {
    let mut quick = false;
    let mut seed = 42u64;
    let mut scale_agents: Option<usize> = None;
    let mut shards: Option<u16> = None;
    let mut merge: Option<String> = None;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed <n>")
            }
            "--scale-agents" => {
                scale_agents = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--scale-agents <n>"),
                )
            }
            "--shards" => {
                shards = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--shards <n>"),
                )
            }
            "--merge" => merge = Some(args.next().expect("--merge <p0.json,p1.json,...>")),
            "--out" => out = Some(args.next().expect("--out <path>")),
            other => {
                eprintln!("netgrid_e2e: unknown argument {other}");
                eprintln!(
                    "usage: netgrid_e2e [--quick] [--seed <n>] [--scale-agents <n>] [--shards <n>] \
                     [--out <path>] | --merge <p0.json,p1.json,...> [--out <path>]"
                );
                std::process::exit(2);
            }
        }
    }

    // Merge mode: no campaign at all — combine per-shard partial
    // artifacts (what a sharded `hcmd-server --out` writes) into the
    // single-server byte stream and exit. The CI shard-interop smoke
    // drives this path against real server processes.
    if let Some(list) = merge {
        let parts: Vec<String> = list
            .split(',')
            .map(|p| {
                std::fs::read_to_string(p).unwrap_or_else(|e| {
                    eprintln!("netgrid_e2e: cannot read partial artifact {p}: {e}");
                    std::process::exit(2);
                })
            })
            .collect();
        let merged = merge_artifact_json(&parts).unwrap_or_else(|e| {
            eprintln!("netgrid_e2e: merge failed: {e}");
            std::process::exit(1);
        });
        match &out {
            Some(path) => match std::fs::write(path, &merged) {
                Ok(()) => println!("netgrid_e2e: merged {} partials -> {path}", parts.len()),
                Err(e) => {
                    eprintln!("netgrid_e2e: cannot write {path}: {e}");
                    std::process::exit(1);
                }
            },
            None => println!("{merged}"),
        }
        return;
    }
    // Quick keeps the tiny 2-protein campaign and a short deadline so
    // the victim's abandoned replica expires fast; the full run grows
    // the library and the fleet.
    let honest_agents = if quick { 4 } else { 6 };
    let scale_agents = scale_agents.unwrap_or(if quick { 256 } else { 10_000 });
    let deadline_seconds = if quick { 2.0 } else { 4.0 };
    let campaign_params = CampaignParams {
        proteins: if quick { 2 } else { 3 },
        lib_seed: seed,
        ..CampaignParams::tiny()
    };

    let mut session = RunSession::start("netgrid_e2e", seed, 1);

    let plain = run_campaign(campaign_params, deadline_seconds, honest_agents, seed);

    // The scale campaign: the same server, thousands of multiplexed
    // volunteers.
    let scale = (scale_agents > 0).then(|| {
        let limit = sys::raise_nofile_limit(SCALE_NOFILE);
        println!("scale: open-file soft limit {limit}");
        run_campaign(campaign_params, deadline_seconds, scale_agents, seed)
    });

    // The sharded block: the same campaign hash-split across N servers,
    // the fleet's homes round-robined across every shard, scored against a
    // like-for-like single-server run. 2-shard (plain and trust-on) and
    // 4-shard by default; `--shards N` narrows to one topology (plain
    // and trust-on), `--shards 0` (or 1) skips the block.
    let shard_rows: Vec<(u16, bool)> = match shards {
        None => vec![(2, false), (2, true), (4, false)],
        Some(0) | Some(1) => Vec::new(),
        Some(n) => vec![(n, false), (n, true)],
    };
    let sharded = (!shard_rows.is_empty()).then(|| {
        let max_shards = shard_rows.iter().map(|&(n, _)| n).max().unwrap() as usize;
        let shard_fleet = honest_agents.max(max_shards);
        // A larger catalog than the classic campaigns: global completion
        // travels by gossip (one ~100 ms steering tick), a fixed lag
        // that would dominate the throughput ratio on a sub-second
        // campaign. The single-server reference uses these same params,
        // so the comparison stays like-for-like.
        let shard_params = CampaignParams {
            proteins: if quick { 5 } else { 6 },
            ..campaign_params
        };
        let (single_json, single_wps) =
            run_shard_reference(shard_params, deadline_seconds, shard_fleet, seed);
        let rows: Vec<ShardBenchRow> = shard_rows
            .iter()
            .map(|&(n, trust)| {
                let o = run_sharded_campaign(
                    shard_params,
                    deadline_seconds,
                    n,
                    shard_fleet,
                    seed,
                    trust,
                );
                let validated =
                    |r: &NetRunReport| r.campaigns[0].partial_outputs.iter().flatten().count();
                let workunits: usize = o.reports.iter().map(&validated).sum();
                let workunits_per_sec = workunits as f64 / o.wall_seconds.max(1e-9);
                ShardBenchRow {
                    shards: n,
                    trust,
                    workunits,
                    wall_seconds: o.wall_seconds,
                    workunits_per_sec,
                    per_shard_workunits_per_sec: o
                        .reports
                        .iter()
                        .map(|r| validated(r) as f64 / o.wall_seconds.max(1e-9))
                        .collect(),
                    requests: o.requests,
                    redirects: o.total(|n| n.shard_redirects),
                    redirects_followed: o.redirects_followed,
                    leases: o.total(|n| n.shard_leases_out),
                    leased_workunits: o.total(|n| n.shard_wus_leased_out),
                    merged_matches_single: o.merged_json == single_json,
                    throughput_vs_single_frac: workunits_per_sec / single_wps.max(1e-9),
                }
            })
            .collect();
        (single_wps, rows)
    });

    let baseline = NetCampaign::build(campaign_params).baseline_outputs();
    let baseline_json = serde_json::to_string(&baseline).expect("baseline serializes");
    let matches_baseline = |o: &CampaignOutcome| {
        serde_json::to_string(&o.campaign().outputs).expect("outputs serialize") == baseline_json
    };
    let merged_matches_baseline = matches_baseline(&plain);
    let scale_merged_matches_baseline = scale.as_ref().map(matches_baseline);

    let report = NetgridReport {
        bench: "netgrid_e2e".to_string(),
        quick,
        seed,
        agents: honest_agents,
        workunits: plain.campaign().workunits,
        timeout_reissues: plain.campaign().server_stats.timeout_reissues,
        quorum_rejects: plain.campaign().net_stats.quorum_rejected,
        disconnect_faults: plain.faults.0,
        stall_faults: plain.faults.1,
        corrupt_faults: plain.faults.2,
        merged_matches_baseline,
        scale_agents,
        scale_wall_seconds: scale.as_ref().map(|o| o.wall_seconds),
        scale_workunits_per_sec: scale.as_ref().map(CampaignOutcome::workunits_per_sec),
        scale_requests: scale.as_ref().map(|o| o.latencies.len()),
        scale_request_latency_p50_ms: scale
            .as_ref()
            .map(|o| quantile(&o.latencies, 0.50).unwrap_or(0.0)),
        scale_request_latency_p99_ms: scale
            .as_ref()
            .map(|o| quantile(&o.latencies, 0.99).unwrap_or(0.0)),
        scale_connections: scale.as_ref().map(|o| o.run.connections),
        scale_merged_matches_baseline,
        shard_single_workunits_per_sec: sharded.as_ref().map(|(wps, _)| *wps),
        shard_campaigns: sharded.map(|(_, rows)| rows),
    };
    println!(
        "{} workunits over loopback ({} honest agents + victim + saboteur)",
        report.workunits, report.agents,
    );
    println!(
        "faults: {} timeout reissues, {} quorum rejects ({} disconnects, {} stalls, {} corruptions injected)",
        report.timeout_reissues,
        report.quorum_rejects,
        report.disconnect_faults,
        report.stall_faults,
        report.corrupt_faults
    );
    if report.scale_agents > 0 {
        println!(
            "scale: {} mux agents, {:.1} wu/s in {:.2} s, request p50 {:.3} ms p99 {:.3} ms over {} requests ({} connections)",
            report.scale_agents,
            report.scale_workunits_per_sec.unwrap_or(0.0),
            report.scale_wall_seconds.unwrap_or(0.0),
            report.scale_request_latency_p50_ms.unwrap_or(0.0),
            report.scale_request_latency_p99_ms.unwrap_or(0.0),
            report.scale_requests.unwrap_or(0),
            report.scale_connections.unwrap_or(0),
        );
    }
    if let Some(rows) = &report.shard_campaigns {
        for row in rows {
            println!(
                "sharded: {} shards{} -> {:.1} wu/s aggregate ({:.2}x single-server {:.1}), \
                 {} redirects ({} followed), {} leases ({} wus stolen), merge matches single: {}",
                row.shards,
                if row.trust { " (trust on)" } else { "" },
                row.workunits_per_sec,
                row.throughput_vs_single_frac,
                report.shard_single_workunits_per_sec.unwrap_or(0.0),
                row.redirects,
                row.redirects_followed,
                row.leases,
                row.leased_workunits,
                row.merged_matches_single,
            );
        }
    }
    println!(
        "merged output matches in-process baseline: plain {}, scale {:?}",
        report.merged_matches_baseline, report.scale_merged_matches_baseline,
    );
    let ok = report.merged_matches_baseline
        && report.scale_merged_matches_baseline.unwrap_or(true)
        && report
            .shard_campaigns
            .as_ref()
            .is_none_or(|rows| rows.iter().all(|r| r.merged_matches_single));
    if !ok {
        eprintln!("netgrid_e2e: ERROR: merged output diverged from the baseline");
    }
    let redirects_ignored = report.shard_campaigns.as_ref().is_some_and(|rows| {
        rows.iter()
            .any(|r| r.redirects > 0 && r.redirects_followed == 0)
    });
    if redirects_ignored {
        eprintln!("netgrid_e2e: ERROR: shards sent redirects and the fleet followed none");
    }
    // One redirect answers one ask: more redirects than asks is the
    // fleet being bounced between shards.
    let steering_loop = report
        .shard_campaigns
        .as_ref()
        .is_some_and(|rows| rows.iter().any(|r| r.redirects > r.requests as u64));
    if steering_loop {
        eprintln!(
            "netgrid_e2e: ERROR: a shard row sent more redirects than the fleet made requests"
        );
    }
    if report.timeout_reissues == 0 || report.quorum_rejects == 0 {
        eprintln!("netgrid_e2e: WARNING: a fault path went unexercised this run");
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netgrid.json");
    let path = out.as_deref().unwrap_or(default_path);
    match std::fs::write(path, json + "\n") {
        Ok(()) => println!("netgrid_e2e -> {path}"),
        Err(e) => {
            eprintln!("netgrid_e2e: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    session.record_engine(plain.latencies.len() as u64, 0, report.workunits as u64);
    session.finish();
    if !ok || redirects_ignored || steering_loop {
        std::process::exit(1);
    }
}
