//! Multi-server sharding, end to end on loopback: N `NetServer` shards
//! carry one campaign, agents are steered between them, work moves by
//! lease, and the merged artifact is byte-identical to a single-server
//! run.
//!
//! Also pins the steering edge cases the design leans on:
//! * duplicate gossip frames re-apply the same lease (no double grant);
//! * a lease missing from the lessee's `leases_held` advertisement is
//!   re-sent verbatim, never re-cut;
//! * shard A's journal refuses to replay into a server configured as
//!   shard B (or as a solo server).
//!
//! The SIGKILL-mid-lease variant lives in `restart_kill.rs`; the
//! agent-side redirect-loop guard is a unit test in `agent.rs`.

use gridsim::sched::ServerConfig;
use netgrid::protocol::{read_message, write_message_with};
use netgrid::shard::ownership_map;
use netgrid::{
    merge_artifacts, run_agent, run_mux_fleet, AgentConfig, CampaignDef, CampaignParams, Codec,
    FsyncPolicy, JournalConfig, Message, MultiGrid, MuxFleetConfig, NetCampaign, NetRunReport,
    NetServer, NetServerConfig, ServerFaults, ShardSpec, ShardTopology, TrustConfig,
};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

/// Reserves `n` distinct loopback addresses. All listeners are held
/// until every port is known, then dropped together — the usual
/// reserve-then-rebind test pattern.
fn free_addrs(n: u16) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

/// Binds every shard of an N-server topology over one tiny campaign.
/// Returns the join handles and the shared address list.
fn bind_shards(
    shards: u16,
    trust: bool,
) -> (
    Vec<thread::JoinHandle<std::io::Result<NetRunReport>>>,
    Vec<String>,
    CampaignParams,
) {
    let addrs = free_addrs(shards);
    let mut params = None;
    let handles = (0..shards)
        .map(|shard_id| {
            let mut config = NetServerConfig {
                sweep_ms: 25,
                ..NetServerConfig::loopback(5.0)
            };
            if trust {
                config.faults.trust = TrustConfig::on();
            }
            config.addr = addrs[shard_id as usize].clone();
            config.shard = Some(ShardTopology {
                spec: ShardSpec { shard_id, shards },
                addrs: addrs.clone(),
            });
            params = Some(config.campaign);
            let server = NetServer::bind(config).expect("bind shard");
            thread::spawn(move || server.run())
        })
        .collect();
    (handles, addrs, params.unwrap())
}

/// Runs a fleet round-robined across every shard, joins the servers,
/// and asserts the merged artifact is byte-identical to the baseline
/// (which single-server runs are already held to elsewhere).
fn run_sharded_campaign(shards: u16, trust: bool) -> Vec<NetRunReport> {
    let (handles, addrs, params) = bind_shards(shards, trust);

    let fleet = run_mux_fleet(MuxFleetConfig {
        seed: 7,
        addrs: addrs.clone(),
        timeout: Duration::from_secs(120),
        ..MuxFleetConfig::new(addrs[0].clone(), 8)
    })
    .expect("fleet ran");
    assert!(fleet.saw_completion, "fleet should see global completion");

    let reports: Vec<NetRunReport> = handles
        .into_iter()
        .map(|h| h.join().unwrap().expect("shard ran"))
        .collect();

    for (i, r) in reports.iter().enumerate() {
        assert_eq!(
            r.shard,
            ShardSpec {
                shard_id: i as u16,
                shards
            }
        );
        assert!(
            r.campaigns[0].outputs.is_empty(),
            "sharded runs publish partials only"
        );
    }
    let parts: Vec<_> = reports
        .iter()
        .map(|r| r.campaigns[0].partial_outputs.clone())
        .collect();
    let merged = merge_artifacts(&parts).expect("shards cover the campaign");
    let baseline = NetCampaign::build(params).baseline_outputs();
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&baseline).unwrap(),
        "{shards}-shard merge must be byte-identical to the single-server artifact"
    );
    reports
}

#[test]
fn two_shard_campaign_merges_byte_identical_to_single_server() {
    let reports = run_sharded_campaign(2, false);
    // The explicit single-server comparison, not just the baseline: a
    // lone server over the same recipe must produce the same bytes the
    // merge did.
    let config = NetServerConfig {
        sweep_ms: 25,
        ..NetServerConfig::loopback(5.0)
    };
    let solo = NetServer::bind(config).expect("bind solo");
    let addr = solo.local_addr().expect("addr").to_string();
    let solo = thread::spawn(move || solo.run());
    let fleet = run_mux_fleet(MuxFleetConfig {
        seed: 7,
        timeout: Duration::from_secs(120),
        ..MuxFleetConfig::new(addr, 8)
    })
    .expect("solo fleet ran");
    assert!(fleet.saw_completion);
    let solo = solo.join().unwrap().expect("solo ran");

    let parts: Vec<_> = reports
        .iter()
        .map(|r| r.campaigns[0].partial_outputs.clone())
        .collect();
    let merged = merge_artifacts(&parts).unwrap();
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&solo.campaigns[0].outputs).unwrap(),
        "sharded merge vs. an actual single-server run"
    );
}

#[test]
fn four_shard_campaign_merges_byte_identical() {
    let reports = run_sharded_campaign(4, false);
    // Leases never appear from nowhere: nothing adopted that was not
    // granted, workunit for workunit.
    let out: u64 = reports
        .iter()
        .map(|r| r.campaigns[0].net_stats.shard_wus_leased_out)
        .sum();
    let adopted: u64 = reports
        .iter()
        .map(|r| r.campaigns[0].net_stats.shard_wus_leased_in)
        .sum();
    assert!(
        adopted <= out,
        "adopted {adopted} leased workunits but only {out} were granted"
    );
}

#[test]
fn two_shard_campaign_under_trust_merges_byte_identical() {
    let reports = run_sharded_campaign(2, true);
    // Trust is scoped per shard by design (DESIGN.md §6): each shard
    // keeps its own ledger over the agents it served.
    for r in &reports {
        assert!(
            r.campaigns[0].trust.is_some(),
            "trust summary present on every shard"
        );
    }
}

/// Every agent parked on shard 0: the campaign can only finish if
/// steering moves shard 1's work to where the demand is (leases) or
/// moves the demand to the work (redirects).
#[test]
fn agents_on_one_shard_finish_the_campaign_via_steering() {
    let (handles, addrs, params) = bind_shards(2, false);

    let agents: Vec<_> = (1..=3u64)
        .map(|agent| {
            let addr = addrs[0].clone();
            thread::spawn(move || {
                run_agent(AgentConfig {
                    max_connect_attempts: 600,
                    ..AgentConfig::new(addr, agent)
                })
            })
        })
        .collect();

    let reports: Vec<NetRunReport> = handles
        .into_iter()
        .map(|h| h.join().unwrap().expect("shard ran"))
        .collect();
    let mut redirects_followed = 0;
    for a in agents {
        let r = a.join().unwrap().expect("agent finished");
        assert!(r.saw_completion, "every agent sees global completion");
        redirects_followed += r.redirects_followed;
    }

    let [s0, s1] = [0, 1].map(|i| reports[i].campaigns[0].net_stats);
    let steered = s0.shard_leases_in + s1.shard_leases_out + s0.shard_redirects;
    assert!(
        steered > 0,
        "an agentless shard's work must move by lease or redirect: {s0:?} / {s1:?}"
    );
    assert_eq!(
        redirects_followed, s0.shard_redirects,
        "every redirect the server issued was followed exactly once"
    );

    let parts: Vec<_> = reports
        .iter()
        .map(|r| r.campaigns[0].partial_outputs.clone())
        .collect();
    let merged = merge_artifacts(&parts).expect("covered");
    let baseline = NetCampaign::build(params).baseline_outputs();
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&baseline).unwrap()
    );
}

/// Plays shard 1 by hand against a live shard 0 and pins the lease
/// idempotence contract frame by frame:
/// * a hungry status with an empty `leases_held` draws one grant;
/// * repeating it (duplicate gossip / lost adoption) re-sends the SAME
///   grant — same lease id, same workunits — and cuts nothing new;
/// * advertising the lease as held draws the NEXT grant, disjoint from
///   the first.
#[test]
fn duplicate_gossip_resends_the_same_lease_never_a_new_one() {
    let addrs = free_addrs(2);
    let mut config = NetServerConfig {
        sweep_ms: 25,
        ..NetServerConfig::loopback(5.0)
    };
    config.addr = addrs[0].clone();
    config.shard = Some(ShardTopology {
        spec: ShardSpec {
            shard_id: 0,
            shards: 2,
        },
        addrs: addrs.clone(),
    });
    let params = config.campaign;
    let server = NetServer::bind(config).expect("bind shard 0");
    let server = thread::spawn(move || server.run());

    let mut stream = TcpStream::connect(&addrs[0]).expect("connect to shard 0");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // One gossip exchange: send our status, collect replies through the
    // closing StatusAck.
    let mut gossip = |held: Vec<u64>, complete: bool| -> Vec<(u64, Vec<u32>)> {
        write_message_with(
            &mut stream,
            &Message::ShardStatus {
                shard: 1,
                fresh_backlog: 0,
                outstanding: 0,
                complete,
                hungry: !complete,
                leases_held: held,
                campaign: 0,
            },
            Codec,
        )
        .expect("send status");
        let mut grants = Vec::new();
        loop {
            match read_message(&mut stream).expect("read reply") {
                Some(Message::LeaseGrant { lease, wus, .. }) => grants.push((lease, wus)),
                Some(Message::StatusAck { shard, .. }) => {
                    assert_eq!(shard, 0);
                    return grants;
                }
                other => panic!("unexpected steering reply: {other:?}"),
            }
        }
    };

    let first = gossip(Vec::new(), false);
    assert_eq!(first.len(), 1, "hungry status draws one grant");
    let (lease1, wus1) = first[0].clone();
    assert!(!wus1.is_empty());

    // Duplicate gossip frame: same empty `leases_held`. The grantor
    // must conclude the grant was lost and re-send it verbatim.
    let dup = gossip(Vec::new(), false);
    assert_eq!(dup, first, "duplicate gossip re-sends, never re-cuts");

    // Adoption acknowledged: the next hunger draws the next lease,
    // disjoint from the first.
    let mut held = vec![lease1];
    let mut leased: Vec<u32> = wus1.clone();
    loop {
        let grants = gossip(held.clone(), false);
        if grants.is_empty() {
            break; // shard 0's fresh backlog is drained
        }
        for (lease, wus) in grants {
            assert!(!held.contains(&lease), "every grant has a fresh lease id");
            for wu in &wus {
                assert!(
                    !leased.contains(wu),
                    "workunit {wu} leased twice (leases {held:?} then {lease:#x})"
                );
            }
            held.push(lease);
            leased.extend(wus);
        }
    }

    // We leased away shard 0's entire slice, so it is complete; tell it
    // we are too and let it shut down.
    let campaign = NetCampaign::build(params);
    let owned = ownership_map(
        &campaign,
        ShardSpec {
            shard_id: 0,
            shards: 2,
        },
    );
    let mut expected: Vec<u32> = owned
        .iter()
        .enumerate()
        .filter(|(_, &o)| o)
        .map(|(i, _)| i as u32)
        .collect();
    let mut got = leased.clone();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, expected, "leases drained exactly shard 0's slice");

    let final_ack = gossip(held.clone(), true);
    assert!(final_ack.is_empty());
    drop(stream);

    let report = server.join().unwrap().expect("shard 0 ran");
    let stats = report.campaigns[0].net_stats;
    assert_eq!(stats.shard_leases_out, held.len() as u64);
    assert_eq!(stats.shard_wus_leased_out, leased.len() as u64);
    assert_eq!(stats.shard_leases_in, 0);
}

/// Regression: a shard whose own slice was already complete never
/// redirected (and, its slice being skipped by `fetch`, never recorded
/// demand or begged a lease), so volunteers parked on it polled `NoWork`
/// for ever while a peer's backlog sat untouched. It only showed once
/// the kernel got fast enough for a slice to validate inside one
/// steering interval, before the first lease could be cut. Played by
/// hand: lease away shard 0's whole slice, advertise backlog as shard 1,
/// then ask shard 0 for work as an agent.
#[test]
fn a_complete_shard_still_redirects_to_a_peer_with_backlog() {
    let addrs = free_addrs(2);
    let mut config = NetServerConfig {
        sweep_ms: 25,
        ..NetServerConfig::loopback(5.0)
    };
    config.addr = addrs[0].clone();
    config.shard = Some(ShardTopology {
        spec: ShardSpec {
            shard_id: 0,
            shards: 2,
        },
        addrs: addrs.clone(),
    });
    let server = NetServer::bind(config).expect("bind shard 0");
    let server = thread::spawn(move || server.run());

    let connect = || {
        let stream = TcpStream::connect(&addrs[0]).expect("connect to shard 0");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    };
    let mut peer = connect();
    // One gossip exchange as shard 1; returns the lease ids granted.
    let mut gossip = |held: &[u64], fresh_backlog: u64, hungry: bool, complete: bool| {
        let status = Message::ShardStatus {
            shard: 1,
            fresh_backlog,
            outstanding: 0,
            complete,
            hungry,
            leases_held: held.to_vec(),
            campaign: 0,
        };
        write_message_with(&mut peer, &status, Codec).expect("send status");
        let mut leases = Vec::new();
        loop {
            match read_message(&mut peer).expect("read reply") {
                Some(Message::LeaseGrant { lease, .. }) => leases.push(lease),
                Some(Message::StatusAck { complete, .. }) => return (leases, complete),
                other => panic!("unexpected steering reply: {other:?}"),
            }
        }
    };
    let mut held = Vec::new();
    loop {
        let (leases, _) = gossip(&held, 0, true, false);
        if leases.is_empty() {
            break;
        }
        held.extend(leases);
    }
    let (_, shard0_complete) = gossip(&held, 5, false, false);
    assert!(shard0_complete, "shard 0 leased its whole slice away");

    let mut agent = connect();
    let hello = Message::Hello {
        agent: 9,
        threads: 1,
        campaigns: Vec::new(),
    };
    write_message_with(&mut agent, &hello, Codec).expect("hello");
    assert!(matches!(
        read_message(&mut agent).expect("hello ack"),
        Some(Message::HelloAck { .. })
    ));
    write_message_with(&mut agent, &Message::RequestWork, Codec).expect("ask");
    match read_message(&mut agent).expect("reply to the ask") {
        Some(Message::Redirect { shard, addr }) => {
            assert_eq!((shard, &addr), (1, &addrs[1]));
        }
        other => panic!("a drained, complete shard must redirect, got {other:?}"),
    }
    write_message_with(&mut agent, &Message::Bye, Codec).expect("bye");
    drop(agent);

    // Shard 1 finishes too; shard 0 can shut down.
    gossip(&held, 0, false, true);
    drop(peer);
    let report = server.join().unwrap().expect("shard 0 ran");
    assert_eq!(report.campaigns[0].net_stats.shard_redirects, 1);
}

/// Shard identity is part of the journal header: a WAL written as one
/// shard refuses to replay into a server configured as another shard,
/// another topology width, or a solo server.
#[test]
fn journal_of_one_shard_refuses_replay_into_another() {
    let dir = std::env::temp_dir().join(format!("hcmd-shard-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = JournalConfig {
        fsync: FsyncPolicy::Always,
        ..JournalConfig::new(&dir)
    };
    let sc = ServerConfig {
        deadline_seconds: 5.0,
        ..ServerConfig::default()
    };
    let shard0 = ShardSpec {
        shard_id: 0,
        shards: 2,
    };
    let open_journaled = |shard| {
        let roster = vec![CampaignDef::default_solo(CampaignParams::tiny())];
        MultiGrid::open(roster, sc, ServerFaults::default(), shard, Some(&cfg))
    };

    let opened = open_journaled(shard0).expect("fresh shard-0 journal opens");
    drop(opened);

    // Same shard, same topology: replays fine.
    let reopened = open_journaled(shard0);
    assert!(reopened.is_ok(), "shard 0 reopens its own journal");
    drop(reopened);

    for (what, wrong) in [
        (
            "sibling shard",
            ShardSpec {
                shard_id: 1,
                shards: 2,
            },
        ),
        (
            "wider topology",
            ShardSpec {
                shard_id: 0,
                shards: 4,
            },
        ),
        ("solo server", ShardSpec::solo()),
    ] {
        let err = match open_journaled(wrong) {
            Ok(_) => panic!("{what} must refuse shard 0's journal"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("refusing to replay"),
            "{what}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
