//! The paper-scale durability property at process level: `kill -9` a
//! live `hcmd-server` mid-campaign, restart it from `--journal`, and
//! the merged validated artifact is byte-identical to an uninterrupted
//! in-process run.
//!
//! This is the same contract `tests/netgrid_restart.rs` pins for a
//! scripted in-process history, but here the crash is a real SIGKILL of
//! a real daemon at an arbitrary instant, with real volunteer agents
//! riding through the restart gap on their reconnect loop. The CI
//! `netgrid-restart-smoke` job runs exactly this test.

use maxdo::DockingOutput;
use netgrid::{
    merge_artifact_json, run_agent, AgentConfig, AgentTrust, CampaignParams, FaultProfile,
    NetCampaign,
};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcmd-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reserves a loopback port both server generations will bind, so the
/// agents' reconnect loop carries them across the restart.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn spawn_server(addr: &str, journal: &PathBuf, out: Option<&PathBuf>) -> Child {
    spawn_server_with(addr, journal, out, &[])
}

fn spawn_server_with(
    addr: &str,
    journal: &PathBuf,
    out: Option<&PathBuf>,
    extra: &[&str],
) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hcmd-server"));
    cmd.args(["--addr", addr, "--deadline", "2"])
        .arg("--journal")
        .arg(journal)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = out {
        cmd.arg("--out").arg(path);
    }
    cmd.spawn().expect("spawn hcmd-server")
}

#[test]
fn sigkill_mid_campaign_then_restart_yields_the_baseline_artifact() {
    let dir = scratch("restart");
    let journal = dir.join("journal");
    let artifact = dir.join("artifact.json");
    let addr = format!("127.0.0.1:{}", free_port());

    let mut first = spawn_server(&addr, &journal, None);

    // Volunteers that survive the restart: generous reconnect budget
    // (50 ms between attempts) so the kill→rebind gap is routine.
    let agents: Vec<_> = (1..=3u64)
        .map(|agent| {
            let addr = addr.clone();
            thread::spawn(move || {
                run_agent(AgentConfig {
                    max_connect_attempts: 600,
                    ..AgentConfig::new(addr, agent)
                })
            })
        })
        .collect();

    // Let the campaign get properly underway, then SIGKILL — no flush,
    // no goodbye. (On a fast box the tiny campaign may already have
    // finished; the restart path below must cope with that too, by
    // recovering a complete state and exiting immediately.)
    thread::sleep(Duration::from_millis(1200));
    let _ = first.kill(); // SIGKILL on unix
    first.wait().expect("reap first server");

    let mut second = spawn_server(&addr, &journal, Some(&artifact));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match second.try_wait().expect("poll second server") {
            Some(status) => {
                assert!(status.success(), "restarted server failed: {status}");
                break;
            }
            None if Instant::now() > deadline => {
                let _ = second.kill();
                panic!("restarted server did not finish the campaign in time");
            }
            None => thread::sleep(Duration::from_millis(100)),
        }
    }
    for a in agents {
        a.join().unwrap().expect("agent survived the restart");
    }

    let merged = std::fs::read_to_string(&artifact).expect("artifact written");
    let baseline =
        serde_json::to_string(&NetCampaign::build(CampaignParams::tiny()).baseline_outputs())
            .unwrap();
    assert_eq!(
        merged, baseline,
        "kill -9 + restart must converge to the byte-identical artifact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sharding variant: two journaled shards carry one campaign, every
/// agent sits on shard 1 so shard 0's work can only move by lease (or
/// agents by redirect), and a SIGKILL lands on shard 0 mid-stream —
/// plausibly mid-lease. The restarted shard 0 must replay its `LeaseOut`
/// records to a consistent ownership picture: the per-shard artifacts
/// stay disjoint (no workunit validated by both shards, i.e. nobody
/// double-issued a leased range) and their merge is byte-identical to
/// the single-server baseline.
#[test]
fn sigkill_one_shard_mid_lease_then_restart_keeps_ownership_consistent() {
    let dir = scratch("shard");
    let journals = [dir.join("journal0"), dir.join("journal1")];
    let artifacts = [dir.join("artifact0.json"), dir.join("artifact1.json")];
    let addrs = [
        format!("127.0.0.1:{}", free_port()),
        format!("127.0.0.1:{}", free_port()),
    ];
    let peers = addrs.join(",");
    let shard_flags = |id: &str| -> Vec<String> {
        vec![
            "--shard-id".into(),
            id.into(),
            "--shards".into(),
            "2".into(),
            "--peers".into(),
            peers.clone(),
        ]
    };
    let spawn_shard = |id: usize| -> Child {
        let flags = shard_flags(&id.to_string());
        let flags: Vec<&str> = flags.iter().map(String::as_str).collect();
        spawn_server_with(&addrs[id], &journals[id], Some(&artifacts[id]), &flags)
    };

    let mut shard0 = spawn_shard(0);
    let mut shard1 = spawn_shard(1);

    // Every volunteer on shard 1: shard 0 has zero demand of its own.
    let agents: Vec<_> = (1..=3u64)
        .map(|agent| {
            let addr = addrs[1].clone();
            thread::spawn(move || {
                run_agent(AgentConfig {
                    max_connect_attempts: 600,
                    ..AgentConfig::new(addr, agent)
                })
            })
        })
        .collect();

    // Long enough for shard 1 to drain its own slice and start pulling
    // leases out of shard 0; the assertions below hold wherever in that
    // stream the kill actually lands.
    thread::sleep(Duration::from_millis(2500));
    if shard0.try_wait().expect("poll shard 0").is_none() {
        let _ = shard0.kill(); // SIGKILL on unix
        shard0.wait().expect("reap shard 0");
        shard0 = spawn_shard(0);
    }

    let deadline = Instant::now() + Duration::from_secs(120);
    for (name, child) in [("shard 0", &mut shard0), ("shard 1", &mut shard1)] {
        loop {
            match child.try_wait().expect("poll shard") {
                Some(status) => {
                    assert!(status.success(), "{name} failed: {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    panic!("{name} did not finish the campaign in time");
                }
                None => thread::sleep(Duration::from_millis(100)),
            }
        }
    }
    for a in agents {
        a.join().unwrap().expect("agent survived the restart");
    }

    let parts: Vec<String> = artifacts
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("partial artifact written"))
        .collect();

    // Ownership stayed disjoint across the kill: no workunit was
    // validated (and therefore issued) by both shards.
    let parsed: Vec<Vec<Option<DockingOutput>>> = parts
        .iter()
        .map(|t| serde_json::from_str(t).expect("partial parses"))
        .collect();
    for wu in 0..parsed[0].len() {
        let owners = parsed.iter().filter(|p| p[wu].is_some()).count();
        assert_eq!(
            owners, 1,
            "workunit {wu} validated by {owners} shards — a leased range was double-issued"
        );
    }

    let merged = merge_artifact_json(&parts).expect("partials cover the campaign");
    let baseline =
        serde_json::to_string(&NetCampaign::build(CampaignParams::tiny()).baseline_outputs())
            .unwrap();
    assert_eq!(
        merged, baseline,
        "kill -9 of one shard must not perturb the merged artifact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trust variant: a saboteur fleet member corrupts every payload,
/// the campaign runs with `--trust on`, and a SIGKILL lands in the
/// middle. The restarted server must replay the accept/reject ledger
/// from the journal — the saboteur's quarantine survives the crash —
/// and the merged artifact must still be byte-identical to the
/// baseline, because corrupt results never validate: the saboteur is
/// never trusted with singles, and any spot check it poisons only
/// forces an honest re-replication.
///
/// The exact-determinism version of this property (identical trust
/// tables for crashed and uninterrupted runs of one scripted history)
/// is pinned in `tests/netgrid_restart.rs`; wall-clock scheduling makes
/// the process-level assertions deliberately coarser.
#[test]
fn sigkill_with_saboteur_under_trust_keeps_quarantine_and_artifact() {
    let dir = scratch("trust");
    let journal = dir.join("journal");
    let artifact = dir.join("artifact.json");
    let trust_state = dir.join("trust.json");
    let addr = format!("127.0.0.1:{}", free_port());
    let trust_flags = [
        "--trust",
        "on",
        "--trust-state-out",
        trust_state.to_str().unwrap(),
    ];

    let mut first = spawn_server_with(&addr, &journal, None, &trust_flags);

    let honest: Vec<_> = (1..=3u64)
        .map(|agent| {
            let addr = addr.clone();
            thread::spawn(move || {
                run_agent(AgentConfig {
                    max_connect_attempts: 600,
                    ..AgentConfig::new(addr, agent)
                })
            })
        })
        .collect();
    let saboteur = {
        let addr = addr.clone();
        thread::spawn(move || {
            run_agent(AgentConfig {
                max_connect_attempts: 600,
                profile: FaultProfile::saboteur(),
                ..AgentConfig::new(addr, 9)
            })
        })
    };

    thread::sleep(Duration::from_millis(1200));
    let _ = first.kill(); // SIGKILL on unix
    first.wait().expect("reap first server");

    let mut second = spawn_server_with(&addr, &journal, Some(&artifact), &trust_flags);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match second.try_wait().expect("poll second server") {
            Some(status) => {
                assert!(status.success(), "restarted server failed: {status}");
                break;
            }
            None if Instant::now() > deadline => {
                let _ = second.kill();
                panic!("restarted server did not finish the campaign in time");
            }
            None => thread::sleep(Duration::from_millis(100)),
        }
    }
    for a in honest {
        a.join()
            .unwrap()
            .expect("honest agent survived the restart");
    }
    // The saboteur may still be serving quarantine when the finished
    // server's shutdown grace expires; either exit path is fine — the
    // trust ledger on disk is the assertion.
    let _ = saboteur.join().unwrap();

    let table: Vec<(u64, AgentTrust)> =
        serde_json::from_str(&std::fs::read_to_string(&trust_state).expect("trust state written"))
            .expect("trust state parses");
    let nine = table
        .iter()
        .find(|(agent, _)| *agent == 9)
        .map(|(_, t)| *t)
        .expect("saboteur has a ledger entry");
    assert!(
        nine.quarantine_count >= 1,
        "saboteur quarantine must survive the restart: {nine:?}"
    );
    assert_eq!(nine.accepted, 0, "no corrupt result ever validated");

    let merged = std::fs::read_to_string(&artifact).expect("artifact written");
    let baseline =
        serde_json::to_string(&NetCampaign::build(CampaignParams::tiny()).baseline_outputs())
            .unwrap();
    assert_eq!(
        merged, baseline,
        "a saboteur under trust must not perturb the artifact across a kill -9"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
