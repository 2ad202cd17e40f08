//! Telemetry pairing over a live wire-level run (requires
//! `--features telemetry`; the whole file compiles away without it).
//!
//! Regression: a connection turned away with `Busy` used to emit
//! `ConnectionClosed { agent: 0, reason: "server-full" }` without a
//! matching `ConnectionOpened`, so the open/close pairing in the event
//! log never balanced. Rejections now get their own
//! `ConnectionRejected` event and the pairing must be exact.
//!
//! The JSONL sink is process-global, so this binary holds exactly one
//! test function.
#![cfg(feature = "telemetry")]

use netgrid::{run_agent, AgentConfig, Message, NetServer, NetServerConfig};
use std::thread;
use telemetry::{Event, Record};

#[test]
fn busy_rejections_keep_open_close_pairing_exact() {
    let log = std::env::temp_dir().join(format!("hcmd-events-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    telemetry::install_jsonl(&log).expect("event log opens");

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
    let server = thread::spawn(move || server.run());

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
    let mut probe = std::net::TcpStream::connect(&addr).expect("probe connects");
    match netgrid::protocol::read_message(&mut probe) {
        Ok(Some(Message::Busy { .. })) => {}
        other => panic!("expected Busy at the connection limit, got {other:?}"),
    }
    drop(probe);
    netgrid::protocol::write_message_with(&mut holder, &Message::Bye, netgrid::Codec).expect("bye");
    // The server hangs up on a Bye as it frees the slot; until then an
    // accept it drains in the probe's turn could still find it full.
    let hung_up = netgrid::protocol::read_message(&mut holder);
    assert!(matches!(hung_up, Ok(None)), "no hang-up: {hung_up:?}");
    drop(holder);

    let agent = thread::spawn(move || run_agent(AgentConfig::new(addr, 1)));
    agent.join().unwrap().expect("honest agent ran");
    let report = server.join().unwrap().expect("server ran");
    assert_eq!(report.rejected_connections, 1, "{report:?}");
    telemetry::shutdown();

    let text = std::fs::read_to_string(&log).expect("event log written");
    let mut opened = 0u64;
    let mut closed = 0u64;
    let mut rejected = 0u64;
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
    assert!(opened >= 1, "the honest agent's session must be logged");
    assert_eq!(
        opened, closed,
        "every ConnectionOpened pairs with exactly one ConnectionClosed"
    );
    assert_eq!(rejected, 1, "the probe is logged as a rejection");
    let _ = std::fs::remove_file(&log);
}
