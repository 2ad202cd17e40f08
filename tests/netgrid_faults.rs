//! The one real-socket smoke of the server's connection accounting: it
//! counts every connection it accepted once, and with `--features
//! telemetry` logs only those that said `Hello`, each opened and closed
//! exactly once.
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

/// A connection that leaves before its `Hello` is counted as accepted,
/// and logged as neither opened nor closed; one that said `Hello` is
/// logged opened and closed once each, so the event log's pairing stays
/// exact.
#[test]
fn accepted_connections_are_counted_once_and_logged_in_pairs() {
    #[cfg(feature = "telemetry")]
    let log = {
        let log = std::env::temp_dir().join(format!("hcmd-events-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&log);
        telemetry::install_jsonl(&log).expect("event log opens");
        log
    };

    let config = NetServerConfig {
        sweep_ms: 25,
        ..NetServerConfig::loopback(8.0)
    };
    let server = NetServer::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let (ran, run) = mpsc::channel();
    let server = thread::spawn(move || {
        // Fails only once the test has stopped waiting.
        let _ = ran.send(server.run());
    });

    // A connection that never says `Hello`: it says `Bye` and leaves.
    let mut stranger = TcpStream::connect(&addr).expect("stranger connects");
    write_message_with(&mut stranger, &Message::Bye, Codec).expect("bye");
    drop(stranger);

    // One that says `Hello`, hears back, and leaves with a `Bye`.
    let mut greeter = TcpStream::connect(&addr).expect("greeter connects");
    let hello = Message::Hello {
        agent: 2,
        threads: 1,
        campaigns: Vec::new(),
    };
    write_message_with(&mut greeter, &hello, Codec).expect("hello");
    match read_message(&mut greeter) {
        Ok(Some(Message::HelloAck { .. })) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    write_message_with(&mut greeter, &Message::Bye, Codec).expect("bye");
    drop(greeter);

    // An honest volunteer runs the campaign to the end.
    run_agent(AgentConfig::new(addr, 1)).expect("honest agent ran");
    let report = run.recv_timeout(SERVER_EXIT).unwrap_or_else(|e| {
        panic!("accepted_connections_are_counted_once_and_logged_in_pairs: no server exit ({e})")
    });
    server.join().unwrap();
    let report = report.expect("server ran");
    assert_eq!(
        report.connections, 3,
        "the stranger's, the greeter's and the agent's are the accepted connections: {report:?}"
    );
    let baseline = NetCampaign::build(CampaignParams::tiny()).baseline_outputs();
    assert_eq!(
        serde_json::to_string(&report.campaigns[0].outputs).unwrap(),
        serde_json::to_string(&baseline).unwrap(),
        "the stranger and the greeter must not perturb the artifact"
    );

    #[cfg(feature = "telemetry")]
    {
        use telemetry::{Event, Record};
        telemetry::shutdown();
        let text = std::fs::read_to_string(&log).expect("event log written");
        let (mut opened, mut closed) = (0u64, 0u64);
        for line in text.lines() {
            let record: Record = serde_json::from_str(line).expect("event log line parses");
            match record.event {
                Event::ConnectionOpened { .. } => opened += 1,
                Event::ConnectionClosed { .. } => closed += 1,
                _ => {}
            }
        }
        assert!(
            opened >= 2,
            "the greeter and the agent said Hello: {opened}"
        );
        assert_eq!(
            opened, closed,
            "every ConnectionOpened pairs with exactly one ConnectionClosed"
        );
        let _ = std::fs::remove_file(&log);
    }
}
