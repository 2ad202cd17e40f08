//! Live-grid end-to-end bench: the real `hcmd-netgrid` server and a
//! fleet of real agents over loopback TCP, faults on.
//!
//! This is the wire-level counterpart of `sim_scale`: instead of a
//! synthetic event fleet it runs an actual campaign — length-prefixed
//! frames, maxdo docking in agent threads, quorum validation on the
//! server — and reports throughput plus request-latency percentiles.
//! The fleet always includes one agent that vanishes mid-workunit and
//! one saboteur that corrupts every payload, so a single run exercises
//! the §5.1 timeout-reissue path and the quorum-rejection path, and the
//! report carries those counts.
//!
//! The campaign runs three times: once plain, once with
//! `--journal`-style durability (write-ahead log under a scratch
//! directory), and once with the `--ops-addr` observability
//! endpoint enabled while a scraper thread polls `/metrics` through the
//! whole run. The report carries the journaled and ops-enabled
//! throughputs, their overhead fractions, and the scrape latency
//! percentiles (`ops_scrape_p99_ms`) so `tools/bench_guard` can flag a
//! journal or an ops endpoint that gets in the way of the wire.
//!
//! A fourth, *scale* campaign then drives `--scale-agents` (default
//! 10 000) simulated volunteers through the multiplexed driver
//! (`netgrid::run_mux_fleet`) against the same event-loop server —
//! the `scale_*` columns report its throughput and request-latency
//! percentiles. `--agents` beyond 64 switches the classic fleet itself
//! to the mux driver (journal/ops campaigns are skipped and their
//! columns go null; the separate scale campaign too, since the classic
//! run *is* the scale run then).
//!
//! A final *trust* pair prices trust-adaptive replication: the same
//! campaign with an honest-but-unreliable fleet plus the saboteur,
//! once under the fixed-quorum policy and once with `--trust on`. The
//! `trust_*` columns report the redundancy fraction (replicas issued
//! per workunit), quorum-rejection counts, wasted reference
//! CPU-seconds, spot-check tallies and whether the saboteur was
//! quarantined — the CI `netgrid-trust-smoke` job asserts the last
//! plus artifact identity.
//!
//! A *sharded* block then splits the same campaign across N
//! `NetServer` shards (2-shard, 2-shard `--trust on` and 4-shard by
//! default; `--shards N` overrides the topology, `--shards 0` skips the
//! block) with the mux fleet round-robined across every shard. Each row
//! in the `shard_campaigns` column reports redirect and lease (steal)
//! counts, per-shard and aggregate throughput, and whether the merged
//! per-shard artifacts are byte-identical to a like-for-like
//! single-server run — the CI `netgrid-shard-smoke` job asserts that
//! flag, and bench_guard warns when steering degrades aggregate
//! throughput below 0.9x the single server.
//!
//! A *multi-campaign* block then hosts a 70/30 pair of campaigns
//! (same recipe, different library seeds) on one server, with a small
//! threaded fleet volunteering for both over protocol v4. The
//! `campaign_*` columns report each campaign's delivered share,
//! borrow count and whether its merged artifact is byte-identical to
//! a solo run of the same recipe, plus the fair-share error sampled
//! while both campaigns still had fresh work — bench_guard warns when
//! that error exceeds 0.05 or an artifact diverges.
//!
//! `--merge p0.json,p1.json[,...]` skips the bench entirely and runs
//! the artifact merge step instead: reads the per-shard partials the
//! sharded servers wrote with `--out`, combines them with
//! `netgrid::merge_artifact_json`, and writes the single-server byte
//! stream to `--out` (or stdout). This is how a real sharded operation
//! — and the CI interop smoke — assembles the final catalog.
//!
//! Writes `BENCH_netgrid.json` at the workspace root (override with
//! `--out`); `tools/bench_guard` compares fresh runs against the
//! committed baseline in CI (warn-only). `--quick` shrinks the fleet
//! and the deadline so the loopback smoke stays seconds-scale.

use bench_support::RunSession;
use metrics::quantile;
use netgrid::{
    http_get, merge_artifact_json, merge_artifacts, run_agent, run_mux_fleet, AgentConfig,
    CampaignDef, CampaignParams, FaultProfile, JournalConfig, MuxFleetConfig, MuxFleetReport,
    NetCampaign, NetRunReport, NetServer, NetServerConfig, ShardSpec, ShardTopology, TrustConfig,
};
use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

/// Threaded-fleet ceiling: more honest agents than this and the classic
/// campaign switches to the multiplexed driver.
const THREADED_FLEET_MAX: usize = 64;

/// The `BENCH_netgrid.json` document.
#[derive(serde::Serialize)]
struct NetgridReport {
    bench: String,
    quick: bool,
    seed: u64,
    /// Honest (flaky-profile) agents; the victim and the saboteur ride
    /// on top of these.
    agents: usize,
    /// Whether the classic fleet ran through the multiplexed driver
    /// (`--agents` beyond the threaded ceiling).
    mux: bool,
    workunits: usize,
    wall_seconds: f64,
    workunits_per_sec: f64,
    /// `RequestWork` round trips observed across the whole fleet.
    requests: usize,
    request_latency_p50_ms: f64,
    request_latency_p99_ms: f64,
    timeout_reissues: u64,
    quorum_rejects: u64,
    /// Injected fault totals, for context next to the reissue counts.
    disconnect_faults: u64,
    stall_faults: u64,
    corrupt_faults: u64,
    merged_matches_baseline: bool,
    /// Throughput of the same campaign with the write-ahead journal on.
    /// Null when the classic fleet is mux-driven (journal campaign
    /// skipped).
    journal_workunits_per_sec: Option<f64>,
    /// `(plain - journaled) / plain` throughput; noise makes small
    /// negative values normal. Guarded warn-only at 10% by bench_guard.
    journal_overhead_frac: Option<f64>,
    journal_merged_matches_baseline: Option<bool>,
    /// Throughput of the same campaign with the `--ops-addr` endpoint
    /// enabled and a scraper polling `/metrics` through the whole run.
    ops_workunits_per_sec: Option<f64>,
    /// `(plain - ops) / plain` throughput; guarded warn-only by
    /// bench_guard.
    ops_overhead_frac: Option<f64>,
    /// `/metrics` scrapes completed during the ops-enabled run.
    ops_scrapes: Option<usize>,
    ops_scrape_p50_ms: Option<f64>,
    /// Guarded warn-only by bench_guard.
    ops_scrape_p99_ms: Option<f64>,
    ops_merged_matches_baseline: Option<bool>,
    /// Simulated volunteers in the scale campaign (0 = skipped).
    scale_agents: usize,
    scale_wall_seconds: Option<f64>,
    scale_workunits_per_sec: Option<f64>,
    scale_requests: Option<usize>,
    scale_request_latency_p50_ms: Option<f64>,
    /// Guarded warn-only by bench_guard against an absolute ceiling.
    scale_request_latency_p99_ms: Option<f64>,
    scale_connections: Option<u64>,
    scale_merged_matches_baseline: Option<bool>,
    /// Honest (reliable-profile) agents in the trust comparison pair;
    /// the same corrupt-everything saboteur rides along in both runs.
    trust_agents: usize,
    /// Replicas issued per workunit with the fixed-quorum policy
    /// (`--trust off`): initial + quorum + reissues, over workunits.
    trust_off_redundancy_frac: f64,
    /// Replicas issued per workunit with trust-adaptive replication on
    /// (single-replica issues to trusted agents + seeded spot checks).
    trust_on_redundancy_frac: f64,
    /// `(off - on) / off` — the headline saving. Guarded warn-only by
    /// bench_guard against regressing to ~0.
    trust_redundancy_reduction_frac: f64,
    trust_off_quorum_rejects: u64,
    /// With trust on the saboteur is quarantined after a short run of
    /// rejections and stops burning quorum slots; the acceptance bar is
    /// a >= 2x reduction vs `trust_off_quorum_rejects`.
    trust_on_quorum_rejects: u64,
    /// Reference CPU-seconds burned on redundant replicas of
    /// already-validated workunits, fixed-quorum policy.
    trust_off_wasted_ref_seconds: f64,
    /// Same measure with trust on. Guarded warn-only by bench_guard.
    trust_on_wasted_ref_seconds: f64,
    trust_on_spot_checks_passed: u64,
    trust_on_spot_checks_failed: u64,
    /// True when the trust-on run ever quarantined an agent (the
    /// saboteur); the CI trust-smoke job asserts this.
    trust_saboteur_quarantined: bool,
    trust_off_merged_matches_baseline: bool,
    trust_on_merged_matches_baseline: bool,
    /// Throughput of the like-for-like single-server run the sharded
    /// campaigns are scored against: same campaign, same mux fleet, one
    /// unsharded server. Null when `--shards 0` skipped the block.
    shard_single_workunits_per_sec: Option<f64>,
    /// One row per sharded campaign (2-shard, 2-shard trust-on and
    /// 4-shard by default). Null when `--shards 0` skipped the block.
    shard_campaigns: Option<Vec<ShardBenchRow>>,
    /// Fair-share error of the two-campaign run, sampled at the last
    /// report where both campaigns still had fresh work (the ±5%
    /// convergence figure; bench_guard warns above 0.05).
    campaign_share_error: f64,
    /// One row per hosted campaign in the 70/30 two-campaign run.
    campaign_rows: Vec<CampaignBenchRow>,
}

/// One hosted campaign of the multi-campaign run, in roster order.
#[derive(serde::Serialize)]
struct CampaignBenchRow {
    name: String,
    /// Configured fair-share weight (normalised).
    share: f64,
    priority: u32,
    workunits: usize,
    /// Validated reference CPU-seconds this campaign received.
    delivered_ref_seconds: f64,
    /// This campaign's fraction of everything delivered.
    delivered_frac: f64,
    /// Issues taken while higher-deficit campaigns had nothing to give.
    borrows: u64,
    /// The isolation invariant: this campaign's merged artifact is
    /// byte-identical to a solo run of the same recipe.
    matches_solo_baseline: bool,
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
    /// Fleet-side wall clock, start of the fleet to global completion.
    /// (Server-side `wall_seconds` can include the shutdown grace a
    /// shard sits out when no volunteer heard the final word from it,
    /// which would understate throughput.)
    wall_seconds: f64,
    /// Aggregate throughput across the topology; bench_guard warns when
    /// this falls below 0.9x the single-server reference.
    workunits_per_sec: f64,
    /// Validated-workunit throughput of each shard, in shard order. A
    /// shard that drained early and kept leasing work still shows up
    /// here — steering is why these stay comparable.
    per_shard_workunits_per_sec: Vec<f64>,
    /// `RequestWork` round trips across the fleet; the natural bound on
    /// `redirects` (one redirect answers one ask).
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
    /// `workunits_per_sec / shard_single_workunits_per_sec`; guarded
    /// warn-only at 0.9 by bench_guard.
    throughput_vs_single_frac: f64,
}

/// Everything one campaign run yields, whichever driver carried it.
struct CampaignOutcome {
    run: NetRunReport,
    latencies: Vec<f64>,
    faults: (u64, u64, u64),
    scrape_ms: Vec<f64>,
    connections: u64,
}

/// One full wire-level campaign: fleet, faults and all. The honest
/// majority runs as real threaded agents up to [`THREADED_FLEET_MAX`],
/// then switches to the multiplexed driver; the victim (takes a
/// workunit and vanishes) and the saboteur (corrupts every payload)
/// are always real threaded agents.
fn run_campaign(
    campaign_params: CampaignParams,
    deadline_seconds: f64,
    honest_agents: usize,
    seed: u64,
    journal: Option<JournalConfig>,
    ops: bool,
) -> CampaignOutcome {
    run_campaign_with(
        campaign_params,
        deadline_seconds,
        honest_agents,
        seed,
        journal,
        ops,
        FaultProfile::flaky(),
        false,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_campaign_with(
    campaign_params: CampaignParams,
    deadline_seconds: f64,
    honest_agents: usize,
    seed: u64,
    journal: Option<JournalConfig>,
    ops: bool,
    honest_profile: FaultProfile,
    trust: bool,
) -> CampaignOutcome {
    let mut config = NetServerConfig {
        campaign: campaign_params,
        sweep_ms: 25,
        journal,
        ops_addr: ops.then(|| "127.0.0.1:0".to_string()),
        ..NetServerConfig::loopback(deadline_seconds)
    };
    if trust {
        config.faults.trust = TrustConfig::on();
    }
    if honest_agents > THREADED_FLEET_MAX {
        // The default 64-connection Busy limit models a small server;
        // the scale campaign measures the event loop itself, so the
        // brush-off path must not throttle the fleet.
        config.faults.max_connections = 0;
    }
    let server = NetServer::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    // Scrape `/metrics` continuously while the campaign runs, timing
    // each round trip; stop once the endpoint closes after its linger.
    let scraper = server.ops_addr().map(|ops_addr| {
        thread::spawn(move || {
            let mut scrape_ms: Vec<f64> = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(120);
            while Instant::now() < deadline {
                let t0 = Instant::now();
                match http_get(ops_addr, "/metrics") {
                    Ok((200, _)) => scrape_ms.push(t0.elapsed().as_secs_f64() * 1e3),
                    _ if !scrape_ms.is_empty() => break,
                    _ => {}
                }
                thread::sleep(Duration::from_millis(20));
            }
            scrape_ms
        })
    });
    let server = thread::spawn(move || server.run());

    // The fleet: one victim that takes a workunit and vanishes (forces
    // a timeout reissue), one saboteur that corrupts everything it
    // touches (forces quorum rejections), and the honest-but-flaky
    // majority that actually carries the campaign.
    let victim = {
        let addr = addr.clone();
        thread::spawn(move || {
            run_agent(AgentConfig {
                die_after: Some(1),
                seed,
                ..AgentConfig::new(addr, 100)
            })
        })
    };
    victim.join().unwrap().expect("victim agent ran");
    let saboteur = {
        let addr = addr.clone();
        thread::spawn(move || {
            run_agent(AgentConfig {
                profile: FaultProfile::saboteur(),
                seed,
                ..AgentConfig::new(addr, 666)
            })
        })
    };
    thread::sleep(Duration::from_millis(50));

    let mut latencies: Vec<f64> = Vec::new();
    let mut faults = (0u64, 0u64, 0u64);
    if honest_agents > THREADED_FLEET_MAX {
        let fleet = run_mux_fleet(MuxFleetConfig {
            seed,
            profile: honest_profile,
            timeout: Duration::from_secs(280),
            ..MuxFleetConfig::new(addr, honest_agents)
        })
        .expect("mux fleet ran");
        let MuxFleetReport {
            disconnect_faults,
            stall_faults,
            corrupt_faults,
            request_latencies_ms,
            ..
        } = fleet;
        latencies = request_latencies_ms;
        faults = (disconnect_faults, stall_faults, corrupt_faults);
    } else {
        let honest: Vec<_> = (1..=honest_agents as u64)
            .map(|agent| {
                let addr = addr.clone();
                thread::spawn(move || {
                    run_agent(AgentConfig {
                        profile: honest_profile,
                        threads: if agent == 1 { 2 } else { 1 },
                        seed,
                        ..AgentConfig::new(addr, agent)
                    })
                })
            })
            .collect();
        for h in honest {
            let r = h.join().unwrap().expect("honest agent ran");
            latencies.extend_from_slice(&r.request_latencies_ms);
            faults.0 += r.disconnect_faults;
            faults.1 += r.stall_faults;
            faults.2 += r.corrupt_faults;
        }
    }
    if let Ok(r) = saboteur.join().unwrap() {
        latencies.extend_from_slice(&r.request_latencies_ms);
        faults.2 += r.corrupt_faults;
    }
    let run = server.join().unwrap().expect("server ran");
    let scrape_ms = scraper.map(|s| s.join().unwrap()).unwrap_or_default();
    let connections = run.connections;
    CampaignOutcome {
        run,
        latencies,
        faults,
        scrape_ms,
        connections,
    }
}

/// The multi-campaign run: one server hosting `defs` (a 70/30 pair in
/// practice), a reliable threaded fleet volunteering for every
/// campaign over protocol v4. The returned report's `campaigns` rows
/// carry per-campaign delivery and artifacts; its `share_error` is the
/// fair-share error sampled while every campaign still had fresh work.
fn run_multi_campaign(
    defs: Vec<CampaignDef>,
    deadline_seconds: f64,
    agents: usize,
    seed: u64,
) -> NetRunReport {
    let config = NetServerConfig {
        campaigns: defs,
        sweep_ms: 25,
        ..NetServerConfig::loopback(deadline_seconds)
    };
    let server = NetServer::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || server.run());
    let fleet: Vec<_> = (1..=agents as u64)
        .map(|agent| {
            let addr = addr.clone();
            thread::spawn(move || {
                run_agent(AgentConfig {
                    profile: FaultProfile::reliable(),
                    seed,
                    campaigns: vec!["*".into()],
                    ..AgentConfig::new(addr, agent)
                })
            })
        })
        .collect();
    for h in fleet {
        h.join().unwrap().expect("multi-campaign agent ran");
    }
    server.join().unwrap().expect("multi-campaign server ran")
}

/// Everything one sharded campaign yields, across all its shards.
struct ShardedOutcome {
    reports: Vec<NetRunReport>,
    /// Fleet-side wall clock (a per-shard server report can include the
    /// shutdown grace, so it is not a throughput clock).
    wall_seconds: f64,
    requests: usize,
    redirects_followed: u64,
    merged_json: String,
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
/// shard map, with the mux fleet round-robined across every shard.
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

    let t0 = Instant::now();
    let fleet = run_mux_fleet(MuxFleetConfig {
        seed,
        addrs: addrs.clone(),
        timeout: Duration::from_secs(280),
        ..MuxFleetConfig::new(addrs[0].clone(), agents)
    })
    .expect("sharded mux fleet ran");
    let wall_seconds = t0.elapsed().as_secs_f64();
    assert!(
        fleet.saw_completion,
        "sharded fleet should see global completion"
    );
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
        requests: fleet.request_latencies_ms.len(),
        redirects_followed: fleet.redirects_followed,
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
    let t0 = Instant::now();
    let fleet = run_mux_fleet(MuxFleetConfig {
        seed,
        timeout: Duration::from_secs(280),
        ..MuxFleetConfig::new(addr, agents)
    })
    .expect("reference mux fleet ran");
    let wall = t0.elapsed().as_secs_f64();
    assert!(fleet.saw_completion, "reference fleet saw completion");
    let run = server.join().unwrap().expect("reference server ran");
    let json = serde_json::to_string(&run.campaigns[0].outputs).expect("outputs serialize");
    (json, run.workunits as f64 / wall.max(1e-9))
}

fn main() {
    let mut quick = false;
    let mut seed = 42u64;
    let mut agents: Option<usize> = None;
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
            "--agents" => {
                agents = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--agents <n>"),
                )
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
                    "usage: netgrid_e2e [--quick] [--seed <n>] [--agents <n>] \
                     [--scale-agents <n>] [--shards <n>] \
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
    let honest_agents = agents.unwrap_or(if quick { 4 } else { 6 });
    let mux = honest_agents > THREADED_FLEET_MAX;
    // A mux-driven classic fleet IS the scale run; a separate scale
    // campaign would just repeat it.
    let scale_agents = if mux {
        0
    } else {
        scale_agents.unwrap_or(if quick { 256 } else { 10_000 })
    };
    let deadline_seconds = if quick { 2.0 } else { 4.0 };
    let campaign_params = CampaignParams {
        proteins: if quick { 2 } else { 3 },
        lib_seed: seed,
        ..CampaignParams::tiny()
    };

    let mut session = RunSession::start("netgrid_e2e", seed, 1);

    let plain = run_campaign(
        campaign_params,
        deadline_seconds,
        honest_agents,
        seed,
        None,
        false,
    );

    // Same campaign again, durably (threaded classic only): every
    // transition through the write-ahead log at the default fsync
    // cadence. And once more with the observability endpoint on and a
    // scraper hammering `/metrics` the whole time, to price each path.
    let (journaled, ops_enabled) = if mux {
        (None, None)
    } else {
        let journal_dir = std::env::temp_dir().join(format!("hcmd-bench-journal-{}", seed));
        let _ = std::fs::remove_dir_all(&journal_dir);
        let journaled = run_campaign(
            campaign_params,
            deadline_seconds,
            honest_agents,
            seed,
            Some(JournalConfig::new(&journal_dir)),
            false,
        );
        let _ = std::fs::remove_dir_all(&journal_dir);
        let ops_enabled = run_campaign(
            campaign_params,
            deadline_seconds,
            honest_agents,
            seed,
            None,
            true,
        );
        (Some(journaled), Some(ops_enabled))
    };

    // The scale campaign: the same server, thousands of multiplexed
    // volunteers.
    let scale = (scale_agents > 0).then(|| {
        run_campaign(
            campaign_params,
            deadline_seconds,
            scale_agents,
            seed,
            None,
            false,
        )
    });

    // The trust comparison pair: an honest-but-unreliable fleet (drops
    // and stalls, never corrupts — the fleet the policy is designed to
    // reward) plus the same corrupt-everything saboteur, once under the
    // fixed-quorum policy and once with trust-adaptive replication on.
    // A small threaded fleet regardless of `--agents`: the pair
    // measures replication policy, not driver throughput.
    let trust_fleet = honest_agents.min(8);
    let trust_run = |trust: bool| {
        run_campaign_with(
            campaign_params,
            deadline_seconds,
            trust_fleet,
            seed,
            None,
            false,
            FaultProfile::reliable(),
            trust,
        )
    };
    let trust_off = trust_run(false);
    let trust_on = trust_run(true);

    // The multi-campaign block: one server hosting a 70/30 pair of
    // campaigns (same recipe, different library seeds), every agent
    // volunteering for both. Priorities differ so exact deficit ties
    // exercise the tie-break.
    let campaign_defs = vec![
        CampaignDef {
            name: "alpha".into(),
            params: campaign_params,
            share: 0.7,
            priority: 1,
        },
        CampaignDef {
            name: "beta".into(),
            params: CampaignParams {
                lib_seed: seed + 1,
                ..campaign_params
            },
            share: 0.3,
            priority: 0,
        },
    ];
    let multi = run_multi_campaign(
        campaign_defs.clone(),
        deadline_seconds,
        honest_agents.min(8),
        seed,
    );

    // The sharded block: the same campaign hash-split across N servers,
    // the mux fleet round-robined across every shard, scored against a
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
        let shard_fleet = honest_agents.min(8).max(max_shards);
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
                    redirects: o.reports.iter().map(|r| r.net_stats.shard_redirects).sum(),
                    redirects_followed: o.redirects_followed,
                    leases: o.reports.iter().map(|r| r.net_stats.shard_leases_out).sum(),
                    leased_workunits: o
                        .reports
                        .iter()
                        .map(|r| r.net_stats.shard_wus_leased_out)
                        .sum(),
                    merged_matches_single: o.merged_json == single_json,
                    throughput_vs_single_frac: workunits_per_sec / single_wps.max(1e-9),
                }
            })
            .collect();
        (single_wps, rows)
    });

    let baseline = NetCampaign::build(campaign_params).baseline_outputs();
    let baseline_json = serde_json::to_string(&baseline).expect("baseline serializes");
    let matches_baseline = |run: &NetRunReport| {
        serde_json::to_string(&run.campaigns[0].outputs).expect("outputs serialize")
            == baseline_json
    };
    let merged_matches_baseline = matches_baseline(&plain.run);
    let total_delivered: f64 = multi
        .campaigns
        .iter()
        .map(|c| c.delivered_ref_seconds)
        .sum();
    let campaign_rows: Vec<CampaignBenchRow> = multi
        .campaigns
        .iter()
        .map(|c| {
            let def = campaign_defs
                .iter()
                .find(|d| d.name == c.name)
                .expect("configured campaign");
            let solo_json =
                serde_json::to_string(&NetCampaign::build(def.params).baseline_outputs())
                    .expect("solo baseline serializes");
            let artifact_json =
                serde_json::to_string(&c.outputs).expect("campaign outputs serialize");
            CampaignBenchRow {
                name: c.name.clone(),
                share: c.share,
                priority: c.priority,
                workunits: c.workunits,
                delivered_ref_seconds: c.delivered_ref_seconds,
                delivered_frac: c.delivered_ref_seconds / total_delivered.max(1e-9),
                borrows: c.borrows,
                matches_solo_baseline: artifact_json == solo_json,
            }
        })
        .collect();
    let journal_merged_matches_baseline = journaled.as_ref().map(|o| matches_baseline(&o.run));
    let ops_merged_matches_baseline = ops_enabled.as_ref().map(|o| matches_baseline(&o.run));
    let scale_merged_matches_baseline = scale.as_ref().map(|o| matches_baseline(&o.run));

    // Replicas issued per workunit: every issue class the scheduler
    // has, over the campaign size. The fixed-quorum floor is 2.0; trust
    // pulls it toward 1.0 plus the spot-check fraction.
    let redundancy_frac = |o: &CampaignOutcome| {
        let s = &o.run.server_stats;
        (s.initial_issues
            + s.quorum_issues
            + s.timeout_reissues
            + s.error_reissues
            + s.spot_check_issues) as f64
            / (o.run.workunits as f64).max(1.0)
    };
    let trust_off_redundancy_frac = redundancy_frac(&trust_off);
    let trust_on_redundancy_frac = redundancy_frac(&trust_on);
    let trust_summary = trust_on.run.trust.expect("trust-on run has a summary");

    let wu_per_sec = |o: &CampaignOutcome| o.run.workunits as f64 / o.run.wall_seconds.max(1e-9);
    let workunits_per_sec = wu_per_sec(&plain);
    let journal_workunits_per_sec = journaled.as_ref().map(&wu_per_sec);
    let ops_workunits_per_sec = ops_enabled.as_ref().map(&wu_per_sec);
    let report = NetgridReport {
        bench: "netgrid_e2e".to_string(),
        quick,
        seed,
        agents: honest_agents,
        mux,
        workunits: plain.run.workunits,
        wall_seconds: plain.run.wall_seconds,
        workunits_per_sec,
        requests: plain.latencies.len(),
        request_latency_p50_ms: quantile(&plain.latencies, 0.50).unwrap_or(0.0),
        request_latency_p99_ms: quantile(&plain.latencies, 0.99).unwrap_or(0.0),
        timeout_reissues: plain.run.server_stats.timeout_reissues,
        quorum_rejects: plain.run.net_stats.quorum_rejected,
        disconnect_faults: plain.faults.0,
        stall_faults: plain.faults.1,
        corrupt_faults: plain.faults.2,
        merged_matches_baseline,
        journal_workunits_per_sec,
        journal_overhead_frac: journal_workunits_per_sec
            .map(|j| (workunits_per_sec - j) / workunits_per_sec.max(1e-9)),
        journal_merged_matches_baseline,
        ops_workunits_per_sec,
        ops_overhead_frac: ops_workunits_per_sec
            .map(|o| (workunits_per_sec - o) / workunits_per_sec.max(1e-9)),
        ops_scrapes: ops_enabled.as_ref().map(|o| o.scrape_ms.len()),
        ops_scrape_p50_ms: ops_enabled
            .as_ref()
            .map(|o| quantile(&o.scrape_ms, 0.50).unwrap_or(0.0)),
        ops_scrape_p99_ms: ops_enabled
            .as_ref()
            .map(|o| quantile(&o.scrape_ms, 0.99).unwrap_or(0.0)),
        ops_merged_matches_baseline,
        scale_agents,
        scale_wall_seconds: scale.as_ref().map(|o| o.run.wall_seconds),
        scale_workunits_per_sec: scale.as_ref().map(&wu_per_sec),
        scale_requests: scale.as_ref().map(|o| o.latencies.len()),
        scale_request_latency_p50_ms: scale
            .as_ref()
            .map(|o| quantile(&o.latencies, 0.50).unwrap_or(0.0)),
        scale_request_latency_p99_ms: scale
            .as_ref()
            .map(|o| quantile(&o.latencies, 0.99).unwrap_or(0.0)),
        scale_connections: scale.as_ref().map(|o| o.connections),
        scale_merged_matches_baseline,
        trust_agents: trust_fleet,
        trust_off_redundancy_frac,
        trust_on_redundancy_frac,
        trust_redundancy_reduction_frac: (trust_off_redundancy_frac - trust_on_redundancy_frac)
            / trust_off_redundancy_frac.max(1e-9),
        trust_off_quorum_rejects: trust_off.run.net_stats.quorum_rejected,
        trust_on_quorum_rejects: trust_on.run.net_stats.quorum_rejected,
        trust_off_wasted_ref_seconds: trust_off.run.wasted_ref_seconds,
        trust_on_wasted_ref_seconds: trust_on.run.wasted_ref_seconds,
        trust_on_spot_checks_passed: trust_summary.spot_checks_passed,
        trust_on_spot_checks_failed: trust_summary.spot_checks_failed,
        trust_saboteur_quarantined: trust_summary.ever_quarantined >= 1,
        trust_off_merged_matches_baseline: matches_baseline(&trust_off.run),
        trust_on_merged_matches_baseline: matches_baseline(&trust_on.run),
        shard_single_workunits_per_sec: sharded.as_ref().map(|(wps, _)| *wps),
        shard_campaigns: sharded.map(|(_, rows)| rows),
        campaign_share_error: multi.share_error,
        campaign_rows,
    };
    println!(
        "{} workunits in {:.2} s over loopback ({:.1} wu/s, {} agents [{}] + victim + saboteur)",
        report.workunits,
        report.wall_seconds,
        report.workunits_per_sec,
        report.agents,
        if mux { "mux" } else { "threaded" },
    );
    println!(
        "request latency p50 {:.2} ms, p99 {:.2} ms over {} requests",
        report.request_latency_p50_ms, report.request_latency_p99_ms, report.requests
    );
    println!(
        "faults: {} timeout reissues, {} quorum rejects ({} disconnects, {} stalls, {} corruptions injected)",
        report.timeout_reissues,
        report.quorum_rejects,
        report.disconnect_faults,
        report.stall_faults,
        report.corrupt_faults
    );
    if let (Some(j), Some(frac)) = (
        report.journal_workunits_per_sec,
        report.journal_overhead_frac,
    ) {
        println!(
            "journaled: {:.1} wu/s ({:+.1}% overhead vs plain)",
            j,
            frac * 100.0
        );
    }
    if let (Some(o), Some(frac)) = (report.ops_workunits_per_sec, report.ops_overhead_frac) {
        println!(
            "ops endpoint on: {:.1} wu/s ({:+.1}% overhead vs plain), {} scrapes, scrape p50 {:.2} ms p99 {:.2} ms",
            o,
            frac * 100.0,
            report.ops_scrapes.unwrap_or(0),
            report.ops_scrape_p50_ms.unwrap_or(0.0),
            report.ops_scrape_p99_ms.unwrap_or(0.0)
        );
    }
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
        "trust: redundancy {:.2} -> {:.2} replicas/wu ({:.0}% saved), quorum rejects {} -> {}, \
         wasted {:.0} -> {:.0} ref-s, spot checks {} passed / {} failed, saboteur quarantined: {}",
        report.trust_off_redundancy_frac,
        report.trust_on_redundancy_frac,
        report.trust_redundancy_reduction_frac * 100.0,
        report.trust_off_quorum_rejects,
        report.trust_on_quorum_rejects,
        report.trust_off_wasted_ref_seconds,
        report.trust_on_wasted_ref_seconds,
        report.trust_on_spot_checks_passed,
        report.trust_on_spot_checks_failed,
        report.trust_saboteur_quarantined,
    );
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
    for row in &report.campaign_rows {
        println!(
            "campaign {}: share {:.0}% -> delivered {:.1}% ({:.0} ref-s, {} workunits, {} borrows), artifact matches solo: {}",
            row.name,
            row.share * 100.0,
            row.delivered_frac * 100.0,
            row.delivered_ref_seconds,
            row.workunits,
            row.borrows,
            row.matches_solo_baseline,
        );
    }
    println!(
        "multi-campaign fair-share error {:.3} (sampled while contended)",
        report.campaign_share_error
    );
    println!(
        "merged output matches in-process baseline: plain {}, journaled {:?}, ops {:?}, scale {:?}, trust off/on {}/{}",
        report.merged_matches_baseline,
        report.journal_merged_matches_baseline,
        report.ops_merged_matches_baseline,
        report.scale_merged_matches_baseline,
        report.trust_off_merged_matches_baseline,
        report.trust_on_merged_matches_baseline,
    );
    let ok = report.merged_matches_baseline
        && report.journal_merged_matches_baseline.unwrap_or(true)
        && report.ops_merged_matches_baseline.unwrap_or(true)
        && report.scale_merged_matches_baseline.unwrap_or(true)
        && report.trust_off_merged_matches_baseline
        && report.trust_on_merged_matches_baseline
        && report
            .shard_campaigns
            .as_ref()
            .is_none_or(|rows| rows.iter().all(|r| r.merged_matches_single))
        && report.campaign_rows.iter().all(|r| r.matches_solo_baseline);
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
    if report.timeout_reissues == 0 || report.quorum_rejects == 0 {
        eprintln!("netgrid_e2e: WARNING: a fault path went unexercised this run");
    }
    if !report.trust_saboteur_quarantined {
        eprintln!("netgrid_e2e: WARNING: the saboteur escaped quarantine this run");
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
    session.record_engine(report.requests as u64, 0, report.workunits as u64);
    session.finish();
    if !ok || redirects_ignored {
        std::process::exit(1);
    }
}
