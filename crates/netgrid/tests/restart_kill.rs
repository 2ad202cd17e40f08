//! The paper-scale durability property at process level: `kill -9` a
//! live `hcmd-server` mid-campaign, restart it from `--journal`, and
//! the merged validated artifact is byte-identical to an uninterrupted
//! in-process run.
//!
//! This is the same contract `tests/netgrid_restart.rs` pins for a
//! scripted in-process history, but here the crash is a real SIGKILL of
//! a real daemon, with real volunteer agents riding through the restart
//! gap on their reconnect loop. The trust-on variant runs on the stepped
//! world in `registry.rs`, killed at a chosen turn. The CI restart job
//! runs exactly this test.

use gridsim::sched::ServerConfig;
use netgrid::journal::open_wal;
use netgrid::{
    run_agent, AgentConfig, CampaignDef, CampaignParams, Command, JournalConfig, JournalRecord,
    MultiGrid, NetCampaign, ServerFaults, ShardSpec,
};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::thread;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcmd-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_server(addr: &str, journal: &Path, out: Option<&Path>, stdout: Stdio) -> Child {
    let mut cmd = Process::new(env!("CARGO_BIN_EXE_hcmd-server"));
    cmd.args(["--addr", addr, "--deadline", "2"])
        .arg("--journal")
        .arg(journal)
        .stdout(stdout)
        .stderr(Stdio::inherit());
    if let Some(path) = out {
        cmd.arg("--out").arg(path);
    }
    cmd.spawn().expect("spawn hcmd-server")
}

/// Checks `done` every 5 ms for up to `secs` seconds: whether it held.
fn poll(secs: u64, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(5));
    }
    true
}

/// The `Report` records whole in the wal under `journal` so far.
fn reports(journal: &Path) -> usize {
    let Ok(records) = open_wal(journal) else {
        return 0;
    };
    let report = |rec: &Result<JournalRecord, _>| {
        matches!(
            rec,
            Ok(JournalRecord::Applied {
                command: Command::Report { .. },
                ..
            })
        )
    };
    records.filter(report).count()
}

#[test]
fn sigkill_mid_campaign_then_restart_yields_the_baseline_artifact() {
    let dir = scratch("restart");
    let journal = dir.join("journal");
    let artifact = dir.join("artifact.json");

    // The first server binds a free port and names it (followed by its
    // open-files limit); the second binds the same one, so the agents'
    // reconnect loop carries them across.
    let mut first = spawn_server("127.0.0.1:0", &journal, None, Stdio::piped());
    let mut said = BufReader::new(first.stdout.take().expect("piped stdout")).lines();
    let addr = said
        .find_map(|line| {
            let line = line.ok()?;
            let named = line.strip_prefix("hcmd-server: listening on ")?;
            Some(named.split(' ').next()?.to_string())
        })
        .expect("the server names its address");

    // Volunteers that survive the restart: a reconnect budget of about
    // 5 s (50 ms between attempts, plus each agent's jitter) makes the
    // kill→rebind gap routine. The end does not spend it: a server stays
    // up one rest for each volunteer that left without the final word, so
    // a volunteer resting then wakes to hear `campaign_complete`, not a
    // refused port.
    let agents: Vec<_> = (1..=3u64)
        .map(|agent| {
            let addr = addr.clone();
            thread::spawn(move || {
                run_agent(AgentConfig {
                    max_connect_attempts: 100,
                    ..AgentConfig::new(addr, agent)
                })
            })
        })
        .collect();

    // SIGKILL — no flush, no goodbye — once a result is on disk.
    assert!(
        poll(120, || reports(&journal) > 0),
        "no report was journaled"
    );
    let _ = first.kill(); // SIGKILL on unix
    first.wait().expect("reap first server");
    drop(said);

    // The kill landed mid-campaign: a copy of the wal it left replays
    // at least one report, and not the whole campaign.
    let copy = dir.join("copy");
    std::fs::create_dir_all(&copy).unwrap();
    std::fs::copy(journal.join("wal.bin"), copy.join("wal.bin")).unwrap();
    let scheduler = ServerConfig {
        deadline_seconds: 2.0,
        ..ServerConfig::default()
    };
    let roster = vec![CampaignDef::default_solo(CampaignParams::tiny())];
    let (killed, _) = MultiGrid::open(
        roster,
        scheduler,
        ServerFaults::default(),
        ShardSpec::solo(),
        Some(&JournalConfig::new(&copy)),
    )
    .expect("the killed server's wal replays");
    let ledgers = killed.slots()[0].state.agent_ledgers();
    let replayed: u64 = ledgers.iter().map(|(_, ledger)| ledger.reports).sum();
    assert!(replayed >= 1, "a report replayed");
    assert!(!killed.all_complete(), "killed mid-campaign, not after it");

    let mut second = spawn_server(&addr, &journal, Some(&artifact), Stdio::null());
    let mut status = None;
    if !poll(120, || {
        status = second.try_wait().expect("poll second server");
        status.is_some()
    }) {
        let _ = second.kill();
        panic!("restarted server did not finish the campaign in time");
    }
    assert!(status.unwrap().success(), "restarted server failed");
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
