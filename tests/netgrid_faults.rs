//! Wire-level fault injection, end to end over loopback TCP.
//!
//! These tests run the real campaign — live `hcmd-netgrid` server, real
//! agents, real maxdo docking — with volunteers that misbehave on
//! purpose, and assert the server's §5.1 failure handling: a vanished
//! agent's replica is reissued after its deadline, corrupted results
//! are caught by quorum comparison, and the campaign still completes
//! with a merged output byte-identical to the in-process baseline.

use netgrid::{
    run_agent, AgentConfig, CampaignParams, FaultProfile, Message, NetCampaign, NetRunReport,
    NetServer, NetServerConfig,
};
use std::thread;
use std::time::Duration;

/// Binds a loopback server for a tiny campaign and returns the resolved
/// address plus the thread computing `run()`.
fn spawn_server(
    deadline_seconds: f64,
) -> (String, thread::JoinHandle<std::io::Result<NetRunReport>>) {
    let config = NetServerConfig {
        sweep_ms: 25,
        ..NetServerConfig::loopback(deadline_seconds)
    };
    let server = NetServer::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, thread::spawn(move || server.run()))
}

fn baseline_json() -> String {
    let baseline = NetCampaign::build(CampaignParams::tiny()).baseline_outputs();
    serde_json::to_string(&baseline).unwrap()
}

#[test]
fn killed_agent_times_out_and_campaign_still_completes() {
    let (addr, server) = spawn_server(1.5);

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
    assert!(
        report.net_stats.deadline_expiries >= 1,
        "the abandoned replica must expire: {:?}",
        report.net_stats
    );
    assert!(
        report.server_stats.timeout_reissues >= 1,
        "expiry must become a timeout reissue: {:?}",
        report.server_stats
    );
    let outputs = &report.campaigns[0].outputs;
    assert_eq!(outputs.len(), report.workunits);
    assert_eq!(
        serde_json::to_string(outputs).unwrap(),
        baseline_json(),
        "merged wire-level output must be byte-identical to the in-process baseline"
    );
}

#[test]
fn corrupted_results_are_quorum_rejected_and_the_honest_output_wins() {
    let (addr, server) = spawn_server(8.0);

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
    assert!(
        report.net_stats.quorum_rejected >= 1,
        "a corrupted result must disagree with an honest candidate: {:?}",
        report.net_stats
    );
    assert!(
        report.server_stats.error_reissues >= 1,
        "each quorum rejection reissues the workunit: {:?}",
        report.server_stats
    );
    assert_eq!(
        serde_json::to_string(&report.campaigns[0].outputs).unwrap(),
        baseline_json(),
        "corruption must never reach the accepted artifact"
    );
}

/// Regression: a connection turned away with `Busy` used to be counted
/// in `NetRunReport.connections` *and* `rejected_connections`, so the
/// two columns double-counted the same TCP accept. The counts must be
/// disjoint: accepted connections on one side, rejections on the other.
#[test]
fn busy_rejections_are_not_double_counted_as_connections() {
    let mut config = NetServerConfig {
        sweep_ms: 25,
        ..NetServerConfig::loopback(8.0)
    };
    // The event-loop server clears the stock tiny campaign in tens of
    // milliseconds — faster than the probe below can land — so give
    // every workunit enough docking iterations that the solo volunteer
    // is still mid-campaign when the probe arrives.
    config.campaign = CampaignParams {
        max_iterations: 400,
        ..CampaignParams::tiny()
    };
    let params = config.campaign;
    // One slot: the single honest volunteer holds it for the whole
    // campaign, so any probe while it runs draws `Busy`.
    config.faults.max_connections = 1;
    let server = NetServer::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || server.run());

    let agent = {
        let addr = addr.clone();
        thread::spawn(move || run_agent(AgentConfig::new(addr, 1)))
    };

    // Probe the full server with a raw socket and read the brush-off.
    thread::sleep(Duration::from_millis(250));
    let mut probe = std::net::TcpStream::connect(&addr).expect("probe connects");
    match netgrid::protocol::read_message(&mut probe) {
        Ok(Some(Message::Busy { retry_after_ms })) => {
            assert!(retry_after_ms > 0, "Busy must carry a retry hint")
        }
        other => panic!("expected Busy at the connection limit, got {other:?}"),
    }
    drop(probe);

    agent.join().unwrap().expect("honest agent ran");
    let report = server.join().unwrap().expect("server ran");
    assert_eq!(
        report.connections, 1,
        "only the agent's session is an accepted connection: {report:?}"
    );
    assert_eq!(
        report.rejected_connections, 1,
        "the probe is a rejection, nothing else: {report:?}"
    );
    let baseline = NetCampaign::build(params).baseline_outputs();
    assert_eq!(
        serde_json::to_string(&report.campaigns[0].outputs).unwrap(),
        serde_json::to_string(&baseline).unwrap(),
        "a rejected probe must not perturb the artifact"
    );
}
