//! The live grid's per-workunit events follow the event log's sampling
//! stride, as the simulator's do (requires `--features telemetry`; the
//! whole file compiles away without it). A stride is a power of two, so
//! the one this test asks for is.
//!
//! A campaign's scheduler reads `HCMD_TELEMETRY_SAMPLE` when it is built
//! and the JSONL sink is process-global, so this binary holds exactly
//! one test function.
#![cfg(feature = "telemetry")]

use gridsim::sched::ServerConfig;
use gridsim::SimTime;
use netgrid::{CampaignDef, CampaignParams, MultiGrid, ServerFaults, ShardSpec, WorkReply};
use std::collections::BTreeSet;
use telemetry::{Event, Record};

#[test]
fn dispatch_events_are_logged_for_sampled_workunits_only() {
    std::env::set_var("HCMD_TELEMETRY_SAMPLE", "4");
    let (mut grid, _) = MultiGrid::open(
        vec![CampaignDef::default_solo(CampaignParams::tiny())],
        ServerConfig::default(),
        ServerFaults::default(),
        ShardSpec::solo(),
        None,
    )
    .expect("grid opens");
    let workunits = grid.slots()[0].campaign.len() as u32;
    assert!(workunits > 4, "a catalog the stride can thin");

    let log = std::env::temp_dir().join(format!("hcmd-sampling-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    telemetry::install_jsonl(&log).expect("event log opens");
    // A fresh volunteer per ask, none of them reporting, until every
    // workunit has gone out at least once.
    let mut fetched = BTreeSet::new();
    for agent in 1..=4 * u64::from(workunits) {
        if fetched.len() == workunits as usize {
            break;
        }
        let (_, reply) = grid.fetch(SimTime::new(agent as f64 * 0.01), agent, &[true]);
        if let WorkReply::Assigned(a) = reply {
            fetched.insert(a.workunit);
        }
    }
    telemetry::shutdown();
    assert_eq!(fetched.len(), workunits as usize, "every workunit went out");

    let text = std::fs::read_to_string(&log).expect("event log written");
    let logged: BTreeSet<u64> = text
        .lines()
        .map(|line| serde_json::from_str::<Record>(line).expect("event log line parses"))
        .filter_map(|record| match record.event {
            Event::WorkunitDispatched { workunit, .. } => Some(workunit),
            _ => None,
        })
        .collect();
    let sampled: BTreeSet<u64> = (0..u64::from(workunits)).filter(|w| w % 4 == 0).collect();
    assert_eq!(
        logged, sampled,
        "WorkunitDispatched for every fourth workunit only"
    );
    let _ = std::fs::remove_file(&log);
}
