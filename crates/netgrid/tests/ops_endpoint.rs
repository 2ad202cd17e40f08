//! Integration tests for the live observability endpoint: a loopback
//! campaign is scraped while it runs, and the scraped state must agree
//! with the final [`NetRunReport`]. Malformed requests must come back
//! as 4xx without touching scheduler state.

use netgrid::{
    http_get, run_agent, AgentConfig, CampaignParams, NetCampaign, NetRunReport, NetServer,
    NetServerConfig,
};
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

/// Pulls the value of `series` (exact name + label text) out of a
/// Prometheus exposition document.
fn metric(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(series) && l[series.len()..].starts_with(' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn ops_server(deadline_seconds: f64) -> NetServer {
    let config = NetServerConfig {
        ops_addr: Some("127.0.0.1:0".into()),
        ..NetServerConfig::loopback(deadline_seconds)
    };
    NetServer::bind(config).expect("bind server")
}

fn honest_fleet(addr: SocketAddr, n: u64) -> Vec<thread::JoinHandle<()>> {
    (1..=n)
        .map(|agent| {
            let addr = addr.to_string();
            thread::spawn(move || {
                run_agent(AgentConfig::new(addr, agent)).expect("agent finished");
            })
        })
        .collect()
}

#[test]
fn live_scrapes_agree_with_the_final_report() {
    let server = ops_server(10.0);
    let addr = server.local_addr().unwrap();
    let ops = server.ops_addr().expect("ops endpoint bound");

    // Scrape both routes as fast as the endpoint answers, holding on to
    // the last successful pair. The endpoint lingers ~1 s after the
    // campaign completes, so the final pair reflects the finished state.
    let scraper = thread::spawn(move || {
        let mut last: Option<(String, String)> = None;
        let mut successes = 0u32;
        let deadline = Instant::now() + Duration::from_secs(120);
        while Instant::now() < deadline {
            match (http_get(ops, "/metrics"), http_get(ops, "/")) {
                (Ok((200, metrics)), Ok((200, html))) => {
                    successes += 1;
                    last = Some((metrics, html));
                }
                _ if successes > 0 => break, // endpoint closed after the linger
                _ => {}
            }
            thread::sleep(Duration::from_millis(10));
        }
        (last, successes)
    });

    let agents = honest_fleet(addr, 3);
    let report: NetRunReport = server.run().expect("campaign run");
    for a in agents {
        a.join().unwrap();
    }
    let (last, successes) = scraper.join().unwrap();
    let (metrics, html) = last.expect("at least one successful scrape pair");
    assert!(successes >= 2, "expected repeated scrapes, got {successes}");

    // Scraping never touches what is served: the artifact is the
    // in-process baseline, byte for byte.
    let campaign = &report.campaigns[0];
    assert_eq!(
        serde_json::to_string(&campaign.outputs).unwrap(),
        serde_json::to_string(&NetCampaign::build(CampaignParams::tiny()).baseline_outputs())
            .unwrap(),
        "a scraped run's artifact must match the in-process baseline"
    );

    // The last scrape saw the finished campaign: every workunit done,
    // and the counts agree with the run report.
    let wu = campaign.workunits as f64;
    assert_eq!(metric(&metrics, "hcmd_campaign_complete"), Some(1.0));
    assert_eq!(
        metric(&metrics, "hcmd_wu_states{state=\"total\"}"),
        Some(wu)
    );
    assert_eq!(metric(&metrics, "hcmd_wu_states{state=\"done\"}"), Some(wu));
    assert_eq!(
        metric(&metrics, "hcmd_wu_states{state=\"in_flight\"}"),
        Some(0.0)
    );
    assert_eq!(
        metric(&metrics, "hcmd_replicas_issued{cause=\"initial\"}"),
        Some(report.server_stats.initial_issues as f64)
    );
    assert_eq!(
        metric(&metrics, "hcmd_results_rejected{layer=\"quorum\"}"),
        Some(campaign.net_stats.quorum_rejected as f64)
    );
    let received = metric(&metrics, "hcmd_results_received").expect("results_received present");
    assert!(received >= wu, "at least one result per workunit");
    // Per-receptor series sum to the campaign totals.
    let receptor_done: f64 = metrics
        .lines()
        .filter(|l| l.starts_with("hcmd_receptor_workunits{") && l.contains("state=\"done\""))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum();
    assert_eq!(receptor_done, wu);

    // The dashboard reflects the same finished state, self-contained.
    assert!(html.contains("status: complete"), "dashboard not final");
    assert!(html.contains(&format!("{}/{}", campaign.workunits, campaign.workunits)));
    for forbidden in ["http://", "https://", "src=", "href="] {
        assert!(!html.contains(forbidden), "external asset via {forbidden}");
    }
}

/// Regression guard for the accept path: the ops thread used to poll
/// its listener on a 10 ms sleep, so a scrape arriving just after the
/// poll ate a ~5 ms median wait before the endpoint even accepted.
/// Readiness-driven accepts answer in well under a millisecond; the
/// median over a burst of sequential scrapes must stay far below the
/// old sleep-quantum floor.
#[test]
fn scrape_latency_is_not_sleep_quantised() {
    let server = ops_server(10.0);
    let addr = server.local_addr().unwrap();
    let ops = server.ops_addr().expect("ops endpoint bound");
    let run = thread::spawn(move || server.run().expect("campaign run"));

    // Wait for the endpoint to come up, then measure sequential scrapes.
    loop {
        if let Ok((200, _)) = http_get(ops, "/metrics") {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
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

    let agents = honest_fleet(addr, 3);
    run.join().unwrap();
    for a in agents {
        a.join().unwrap();
    }
}

#[test]
fn malformed_requests_get_4xx_and_leave_scheduler_state_alone() {
    let server = ops_server(10.0);
    let addr = server.local_addr().unwrap();
    let ops = server.ops_addr().expect("ops endpoint bound");
    let run = thread::spawn(move || server.run().expect("campaign run"));

    // No agents yet: the scheduler is provably idle, so any change
    // between the two bracketing scrapes could only come from the
    // malformed requests themselves.
    let before = loop {
        if let Ok((200, body)) = http_get(ops, "/metrics") {
            break body;
        }
        thread::sleep(Duration::from_millis(10));
    };

    let (status, _) = http_get(ops, "/nope").unwrap();
    assert_eq!(status, 404);
    let long_path = format!("/{}", "a".repeat(4096));
    let (status, _) = http_get(ops, &long_path).unwrap();
    assert_eq!(status, 414);
    // Bad method: hand-rolled request, since http_get only speaks GET.
    {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(ops).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "got: {raw}");
    }

    let (status, after) = http_get(ops, "/metrics").unwrap();
    assert_eq!(status, 200);
    // Scheduler families are untouched; only net.ops.* registry counters
    // (when telemetry is compiled in) may differ between the scrapes.
    let scheduler_lines = |body: &str| -> Vec<String> {
        body.lines()
            .filter(|l| l.starts_with("hcmd_") || l.contains(" hcmd_"))
            .filter(|l| !l.contains("server_clock"))
            .map(String::from)
            .collect()
    };
    assert_eq!(
        scheduler_lines(&before),
        scheduler_lines(&after),
        "malformed requests mutated scheduler state"
    );
    assert_eq!(metric(&after, "hcmd_results_received"), Some(0.0));

    // Now let the campaign actually finish so run() returns.
    let agents = honest_fleet(addr, 3);
    run.join().unwrap();
    for a in agents {
        a.join().unwrap();
    }
}
