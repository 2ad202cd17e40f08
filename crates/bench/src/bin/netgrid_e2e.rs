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
//! the injected fault totals. Stdout also gives that fleet's wall clock
//! and its ask latencies (p50, p99), the figures a change to the agent
//! driver or the scheduler core is read by.
//!
//! This binary checks that the artifact survives faults and scale; it
//! is not where performance is measured, and it compares no
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
//! The binary exits 1 when either artifact diverges from the baseline.
//!
//! Writes `BENCH_netgrid.json` at the workspace root (override with
//! `--out`). `--quick` shrinks the fleet and the deadline so the
//! loopback smoke stays seconds-scale.

use bench_support::RunSession;
use metrics::quantile;
use netgrid::{
    run_mux_fleet, sys, AgentConfig, AgentReport, CampaignParams, CampaignRunReport, FaultProfile,
    NetCampaign, NetRunReport, NetServer, NetServerConfig,
};
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

/// `agents` clean volunteers of the server at `addr` on one run seed,
/// ids `1..=agents`.
fn fleet(addr: &str, agents: usize, seed: u64) -> Vec<AgentConfig> {
    let volunteer = |id: u64| AgentConfig {
        seed,
        ..AgentConfig::new(addr, id)
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
    let config = NetServerConfig {
        campaign: campaign_params,
        sweep_ms: 25,
        ..NetServerConfig::loopback(deadline_seconds)
    };
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
    let honest = fleet(&addr, honest_agents, seed).into_iter();
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

fn main() {
    let mut quick = false;
    let mut seed = 42u64;
    let mut scale_agents: Option<usize> = None;
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
            "--out" => out = Some(args.next().expect("--out <path>")),
            other => {
                eprintln!("netgrid_e2e: unknown argument {other}");
                eprintln!(
                    "usage: netgrid_e2e [--quick] [--seed <n>] [--scale-agents <n>] [--out <path>]"
                );
                std::process::exit(2);
            }
        }
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
    println!(
        "campaign: fleet wall {:.2} s, ask p50 {:.3} ms p99 {:.3} ms over {} asks",
        plain.wall_seconds,
        quantile(&plain.latencies, 0.50).unwrap_or(0.0),
        quantile(&plain.latencies, 0.99).unwrap_or(0.0),
        plain.latencies.len(),
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
    println!(
        "merged output matches in-process baseline: plain {}, scale {:?}",
        report.merged_matches_baseline, report.scale_merged_matches_baseline,
    );
    let ok = report.merged_matches_baseline && report.scale_merged_matches_baseline.unwrap_or(true);
    if !ok {
        eprintln!("netgrid_e2e: ERROR: merged output diverged from the baseline");
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
    if !ok {
        std::process::exit(1);
    }
}
