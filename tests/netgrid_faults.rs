//! The one real-socket smoke of the server's `Busy` path: a full
//! server turns a connection away with a `Busy` frame, counts it apart
//! from the connections it served, and with `--features telemetry` logs
//! it apart too, so the event log's open/close pairing stays exact.
//!
//! What a vanished volunteer and corrupted results do to a campaign is
//! checked on the stepped world (`registry::tests::killed_agent_*` and
//! `registry::tests::corrupted_results_*` in `hcmd-netgrid`). The JSONL
//! sink is process-global, so this binary holds exactly one test.

use netgrid::protocol::{read_message, write_message_with};
use netgrid::{
    run_agent, AgentConfig, CampaignParams, Codec, Message, NetCampaign, NetServer, NetServerConfig,
};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How long the server may take to return once its volunteer has: it
/// leaves within its shutdown grace, so one still running by then has
/// hung, and the test fails naming itself instead of holding up the run.
const SERVER_EXIT: Duration = Duration::from_secs(30);

/// Regression: a connection turned away with `Busy` used to be counted
/// in `NetRunReport.connections` *and* `rejected_connections`, so the
/// two columns double-counted the same TCP accept; and it used to log a
/// `ConnectionClosed { reason: "server-full" }` that no
/// `ConnectionOpened` matched. Accepted connections and rejections are
/// disjoint, and only a connection that said `Hello` is logged as
/// opened and closed: one that leaves before its `Hello` is neither.
#[test]
fn busy_rejections_are_not_double_counted_as_connections() {
    #[cfg(feature = "telemetry")]
    let log = {
        let log = std::env::temp_dir().join(format!("hcmd-events-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&log);
        telemetry::install_jsonl(&log).expect("event log opens");
        log
    };

    // One slot. A hand-held session occupies it while a raw probe draws
    // `Busy` — not a docking agent, whose hold on the slot lasts as long
    // as the kernel takes and no longer — then hands it to an honest
    // volunteer that runs the campaign.
    let mut config = NetServerConfig {
        sweep_ms: 25,
        ..NetServerConfig::loopback(8.0)
    };
    config.faults.max_connections = 1;
    let server = NetServer::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let (ran, run) = mpsc::channel();
    let server = thread::spawn(move || {
        // Fails only once the test has stopped waiting.
        let _ = ran.send(server.run());
    });

    // A connection that never says `Hello`: it says `Bye` and waits for
    // the server to hang up, which frees the slot before the holder
    // connects.
    let mut stranger = TcpStream::connect(&addr).expect("stranger connects");
    write_message_with(&mut stranger, &Message::Bye, Codec).expect("bye");
    let hung_up = read_message(&mut stranger);
    assert!(matches!(hung_up, Ok(None)), "no hang-up: {hung_up:?}");
    drop(stranger);

    let mut holder = TcpStream::connect(&addr).expect("holder connects");
    let hello = Message::Hello {
        agent: 2,
        threads: 1,
        campaigns: Vec::new(),
    };
    write_message_with(&mut holder, &hello, Codec).expect("hello");
    match read_message(&mut holder) {
        Ok(Some(Message::HelloAck { .. })) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // Probe the full server with a raw socket and read the brush-off.
    let mut probe = TcpStream::connect(&addr).expect("probe connects");
    match read_message(&mut probe) {
        Ok(Some(Message::Busy { retry_after_ms })) => {
            assert!(retry_after_ms > 0, "Busy must carry a retry hint")
        }
        other => panic!("expected Busy at the connection limit, got {other:?}"),
    }
    drop(probe);
    write_message_with(&mut holder, &Message::Bye, Codec).expect("bye");
    // The server hangs up on a Bye as it frees the slot; until then an
    // accept it drains in the probe's turn could still find it full.
    let hung_up = read_message(&mut holder);
    assert!(matches!(hung_up, Ok(None)), "no hang-up: {hung_up:?}");
    drop(holder);

    // The freed slot goes to an honest volunteer, which runs the
    // campaign to the end.
    run_agent(AgentConfig::new(addr, 1)).expect("honest agent ran");
    let report = run.recv_timeout(SERVER_EXIT).unwrap_or_else(|e| {
        panic!("busy_rejections_are_not_double_counted_as_connections: no server exit ({e})")
    });
    server.join().unwrap();
    let report = report.expect("server ran");
    assert_eq!(
        report.connections, 3,
        "the stranger's, the holder's and the agent's are the accepted connections: {report:?}"
    );
    assert_eq!(
        report.rejected_connections, 1,
        "the probe is a rejection, nothing else: {report:?}"
    );
    let baseline = NetCampaign::build(CampaignParams::tiny()).baseline_outputs();
    assert_eq!(
        serde_json::to_string(&report.campaigns[0].outputs).unwrap(),
        serde_json::to_string(&baseline).unwrap(),
        "a rejected probe must not perturb the artifact"
    );

    #[cfg(feature = "telemetry")]
    {
        use telemetry::{Event, Record};
        telemetry::shutdown();
        let text = std::fs::read_to_string(&log).expect("event log written");
        let (mut opened, mut closed, mut rejected) = (0u64, 0u64, 0u64);
        for line in text.lines() {
            let record: Record = serde_json::from_str(line).expect("event log line parses");
            match record.event {
                Event::ConnectionOpened { .. } => opened += 1,
                Event::ConnectionClosed { reason, .. } => {
                    assert_ne!(
                        reason, "server-full",
                        "rejections must not masquerade as closes"
                    );
                    closed += 1;
                }
                Event::ConnectionRejected { retry_after_ms } => {
                    assert!(retry_after_ms > 0);
                    rejected += 1;
                }
                _ => {}
            }
        }
        assert!(opened >= 2, "the holder and the agent said Hello: {opened}");
        assert_eq!(
            opened, closed,
            "every ConnectionOpened pairs with exactly one ConnectionClosed"
        );
        assert_eq!(rejected, 1, "the probe is logged as a rejection");
        let _ = std::fs::remove_file(&log);
    }
}
