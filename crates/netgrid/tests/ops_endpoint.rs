//! The one property of the ops endpoint that needs a real socket:
//! accepts are readiness-driven, so a scrape is answered without
//! waiting out a poll interval. What a scrape says, and how a malformed
//! request is answered, is checked on the stepped loop in `ops.rs`.

use netgrid::{http_get, run_agent, AgentConfig, NetServer, NetServerConfig};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How long the server may take to return once its volunteer has: it
/// leaves within its shutdown grace and the ops linger, so one still
/// running by then has hung, and the test fails naming itself instead
/// of holding up the run.
const SERVER_EXIT: Duration = Duration::from_secs(30);

/// Regression guard for the accept path: the ops thread used to poll
/// its listener on a 10 ms sleep, so a scrape arriving just after the
/// poll ate a ~5 ms median wait before the endpoint even accepted.
/// Readiness-driven accepts answer in well under a millisecond; the
/// median over a burst of sequential scrapes must stay far below the
/// old sleep-quantum floor.
#[test]
fn scrape_latency_is_not_sleep_quantised() {
    let config = NetServerConfig {
        ops_addr: Some("127.0.0.1:0".into()),
        ..NetServerConfig::loopback(10.0)
    };
    let server = NetServer::bind(config).expect("bind server");
    let addr = server.local_addr().unwrap().to_string();
    let ops = server.ops_addr().expect("ops endpoint bound");
    let (ran, run) = mpsc::channel();
    let server = thread::spawn(move || {
        // Fails only once the test has stopped waiting.
        let _ = ran.send(server.run());
    });

    // The listener is bound already: the first scrape waits in its
    // backlog until the loop runs, then the burst is measured.
    assert_eq!(http_get(ops, "/metrics").expect("first scrape").0, 200);
    let mut latencies_ms: Vec<f64> = (0..40)
        .map(|_| {
            let start = Instant::now();
            let (status, _) = http_get(ops, "/metrics").expect("scrape");
            assert_eq!(status, 200);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = latencies_ms[latencies_ms.len() / 2];
    assert!(
        median < 3.0,
        "median /metrics scrape took {median:.2} ms — the accept path \
         looks sleep-polled again (tail: {:?})",
        &latencies_ms[latencies_ms.len() - 4..]
    );

    // One volunteer finishes the campaign, so the server returns.
    run_agent(AgentConfig::new(addr, 1)).expect("agent finished");
    let report = run
        .recv_timeout(SERVER_EXIT)
        .unwrap_or_else(|e| panic!("scrape_latency_is_not_sleep_quantised: no server exit ({e})"));
    server.join().unwrap();
    report.expect("campaign run");
}
