//! Wire-level fault injection, end to end over loopback TCP.
//!
//! These tests run the real campaign — live `hcmd-netgrid` server, real
//! agents, real maxdo docking — with volunteers that misbehave on
//! purpose, and assert the server's §5.1 failure handling: a vanished
//! agent's replica is reissued after its deadline, corrupted results
//! are caught by quorum comparison, and the campaign still completes
//! with a merged output byte-identical to the in-process baseline.
//! The first two scenarios also run journaled, and the wal they leave
//! must rebuild the finished campaign on its own.

use netgrid::{
    run_agent, AgentConfig, CampaignDef, CampaignParams, FaultProfile, JournalConfig, Message,
    MultiGrid, NetCampaign, NetRunReport, NetServer, NetServerConfig, ShardSpec,
};
use std::thread;
use std::time::Duration;

/// A loopback server configuration for the tiny campaign.
fn loopback(deadline_seconds: f64) -> NetServerConfig {
    NetServerConfig {
        sweep_ms: 25,
        ..NetServerConfig::loopback(deadline_seconds)
    }
}

/// Binds a server and returns the resolved address plus the thread
/// computing `run()`.
fn spawn_server(
    config: NetServerConfig,
) -> (String, thread::JoinHandle<std::io::Result<NetRunReport>>) {
    let server = NetServer::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, thread::spawn(move || server.run()))
}

fn baseline_json() -> String {
    let baseline = NetCampaign::build(CampaignParams::tiny()).baseline_outputs();
    serde_json::to_string(&baseline).unwrap()
}

/// Runs `scenario` with the write-ahead journal in a scratch directory
/// of its own, then reopens that wal with no server: the replay alone
/// must find the campaign complete, holding the artifact that was
/// served.
fn journaled(name: &str, deadline_seconds: f64, scenario: fn(NetServerConfig) -> NetRunReport) {
    let dir = std::env::temp_dir().join(format!("hcmd-faults-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = JournalConfig::new(&dir);
    let config = NetServerConfig {
        journal: Some(journal.clone()),
        ..loopback(deadline_seconds)
    };
    let (scheduler, faults) = (config.scheduler, config.faults);
    let report = scenario(config);

    let roster = vec![CampaignDef::default_solo(CampaignParams::tiny())];
    let (grid, _) = MultiGrid::open(roster, scheduler, faults, ShardSpec::solo(), Some(&journal))
        .expect("the wal replays");
    assert!(grid.all_complete(), "the wal rebuilds a finished campaign");
    let recovered: Option<Vec<_>> = grid.slots()[0].state.outputs().iter().cloned().collect();
    assert_eq!(
        serde_json::to_string(&recovered.expect("every workunit validated")).unwrap(),
        serde_json::to_string(&report.campaigns[0].outputs).unwrap(),
        "the recovered artifact is the served one"
    );
    drop(grid);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_agent_times_out_and_campaign_still_completes() {
    killed_agent(loopback(1.5));
}

#[test]
fn killed_agent_times_out_and_campaign_still_completes_journaled() {
    journaled("killed-agent", 1.5, killed_agent);
}

fn killed_agent(config: NetServerConfig) -> NetRunReport {
    let (addr, server) = spawn_server(config);

    // The victim takes one assignment and vanishes without reporting —
    // the volunteer's PC switched off mid-workunit.
    let victim = {
        let addr = addr.clone();
        thread::spawn(move || {
            run_agent(AgentConfig {
                die_after: Some(1),
                ..AgentConfig::new(addr, 100)
            })
        })
    };
    victim.join().unwrap().expect("victim ran");

    // Two honest volunteers finish the campaign, including the replica
    // the victim abandoned (reissued once its deadline expires).
    let honest: Vec<_> = (1..=2u64)
        .map(|agent| {
            let addr = addr.clone();
            thread::spawn(move || run_agent(AgentConfig::new(addr, agent)))
        })
        .collect();
    let reports: Vec<_> = honest
        .into_iter()
        .map(|h| h.join().unwrap().expect("honest agent ran"))
        .collect();
    // The agent that reports the final validating result is always told
    // `campaign_complete` in its ack. The other may legitimately miss
    // the notice if it was computing a redundant replica when the
    // campaign ended and the server was gone by the time it reported.
    assert!(
        reports.iter().any(|r| r.saw_completion),
        "at least one agent must see the campaign end: {reports:?}"
    );

    let report = server.join().unwrap().expect("server ran");
    let campaign = &report.campaigns[0];
    assert!(
        campaign.net_stats.deadline_expiries >= 1,
        "the abandoned replica must expire: {:?}",
        campaign.net_stats
    );
    assert!(
        campaign.server_stats.timeout_reissues >= 1,
        "expiry must become a timeout reissue: {:?}",
        campaign.server_stats
    );
    assert_eq!(campaign.outputs.len(), campaign.workunits);
    assert_eq!(
        serde_json::to_string(&campaign.outputs).unwrap(),
        baseline_json(),
        "merged wire-level output must be byte-identical to the in-process baseline"
    );
    report
}

#[test]
fn corrupted_results_are_quorum_rejected_and_the_honest_output_wins() {
    corrupted_results(loopback(8.0));
}

#[test]
fn corrupted_results_are_quorum_rejected_and_the_honest_output_wins_journaled() {
    journaled("corrupted-results", 8.0, corrupted_results);
}

fn corrupted_results(config: NetServerConfig) -> NetRunReport {
    let (addr, server) = spawn_server(config);

    // One saboteur corrupts every result; three honest agents (one
    // multicore) outvote it on every workunit.
    let saboteur = {
        let addr = addr.clone();
        thread::spawn(move || {
            run_agent(AgentConfig {
                profile: FaultProfile {
                    disconnect: 0.0,
                    stall: 0.0,
                    corrupt: 1.0,
                },
                seed: 5,
                ..AgentConfig::new(addr, 666)
            })
        })
    };
    // Give the saboteur first crack at the queue so at least one of its
    // corrupted results is in before the honest agents finish.
    thread::sleep(Duration::from_millis(50));
    let honest: Vec<_> = (1..=3u64)
        .map(|agent| {
            let addr = addr.clone();
            thread::spawn(move || {
                run_agent(AgentConfig {
                    threads: if agent == 1 { 2 } else { 1 },
                    ..AgentConfig::new(addr, agent)
                })
            })
        })
        .collect();
    for h in honest {
        h.join().unwrap().expect("honest agent ran");
    }
    let _ = saboteur.join().unwrap();

    let report = server.join().unwrap().expect("server ran");
    let campaign = &report.campaigns[0];
    assert!(
        campaign.net_stats.quorum_rejected >= 1,
        "a corrupted result must disagree with an honest candidate: {:?}",
        campaign.net_stats
    );
    assert!(
        campaign.server_stats.error_reissues >= 1,
        "each quorum rejection reissues the workunit: {:?}",
        campaign.server_stats
    );
    assert_eq!(
        serde_json::to_string(&campaign.outputs).unwrap(),
        baseline_json(),
        "corruption must never reach the accepted artifact"
    );
    report
}

/// Regression: a connection turned away with `Busy` used to be counted
/// in `NetRunReport.connections` *and* `rejected_connections`, so the
/// two columns double-counted the same TCP accept. The counts must be
/// disjoint: accepted connections on one side, rejections on the other.
#[test]
fn busy_rejections_are_not_double_counted_as_connections() {
    let mut config = loopback(8.0);
    // One slot, held by a volunteer that has said Hello and asks for
    // nothing, so the probe below draws `Busy` whatever the clock does.
    config.faults.max_connections = 1;
    let (addr, server) = spawn_server(config);

    let mut holder = std::net::TcpStream::connect(&addr).expect("holder connects");
    let hello = Message::Hello {
        agent: 2,
        threads: 1,
        campaigns: Vec::new(),
    };
    netgrid::protocol::write_message_with(&mut holder, &hello, netgrid::Codec).expect("hello");
    match netgrid::protocol::read_message(&mut holder) {
        Ok(Some(Message::HelloAck { .. })) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // Probe the full server with a raw socket and read the brush-off.
    let mut probe = std::net::TcpStream::connect(&addr).expect("probe connects");
    match netgrid::protocol::read_message(&mut probe) {
        Ok(Some(Message::Busy { retry_after_ms })) => {
            assert!(retry_after_ms > 0, "Busy must carry a retry hint")
        }
        other => panic!("expected Busy at the connection limit, got {other:?}"),
    }
    drop(probe);
    netgrid::protocol::write_message_with(&mut holder, &Message::Bye, netgrid::Codec).expect("bye");
    // The server hangs up on a Bye as it frees the slot; until then an
    // accept it drains in the probe's turn could still find it full.
    let hung_up = netgrid::protocol::read_message(&mut holder);
    assert!(matches!(hung_up, Ok(None)), "no hang-up: {hung_up:?}");
    drop(holder);

    // The freed slot goes to an honest volunteer, which runs the
    // campaign to the end.
    run_agent(AgentConfig::new(addr, 1)).expect("honest agent ran");
    let report = server.join().unwrap().expect("server ran");
    assert_eq!(
        report.connections, 2,
        "the holder's and the agent's sessions are the accepted connections: {report:?}"
    );
    assert_eq!(
        report.rejected_connections, 1,
        "the probe is a rejection, nothing else: {report:?}"
    );
    assert_eq!(
        serde_json::to_string(&report.campaigns[0].outputs).unwrap(),
        baseline_json(),
        "a rejected probe must not perturb the artifact"
    );
}
