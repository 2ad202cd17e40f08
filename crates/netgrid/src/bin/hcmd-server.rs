//! The task-server daemon.
//!
//! ```text
//! hcmd-server [--addr 127.0.0.1:7070] [--proteins 2] [--seed 7]
//!             [--h-seconds 40] [--deadline 30]
//!             [--events PATH] [--journal DIR] [--fsync always|never]
//!             [--out PATH] [--ops-addr HOST:PORT]
//!             [--trust on|off] [--trust-spot-rate F] [--trust-spot-seed N]
//!             [--trust-min-samples N] [--trust-state-out PATH]
//!             [--campaign NAME:SHARE:PRIORITY[:k=v,...]]...
//! ```
//!
//! Binds, prints the resolved address, then runs the campaign to
//! completion and prints the closing statistics. Pair it with one or
//! more `hcmd-agent` processes (see README "Two terminals, one grid").
//!
//! A docking volunteer holds its connection from its assignment to its
//! report, so the server turns no volunteer away: how many may be
//! connected at once is bounded by the open-files limit alone, which it
//! raises to the hard limit at start and prints with the address. Out
//! of descriptors, it pauses accepting until its next sweep tick, and
//! the backlog waits in the kernel.
//!
//! With `--ops-addr` the server additionally serves a read-only HTTP
//! observability endpoint while it runs: `GET /metrics` (Prometheus
//! text exposition) and `GET /` (a self-contained HTML status page).
//! See README "Watching a live campaign".
//!
//! With `--journal DIR` the server is crash-safe: every decision a
//! restart must rebuild is appended to one write-ahead log, `DIR/wal.bin`,
//! and a restarted server replays it and resumes the campaign exactly
//! where the crash left it (see DESIGN.md §6 "Durability"). Under the
//! default `--fsync always` no reply leaves before the records it follows
//! are on disk (one `fdatasync` per event-loop batch), so a power cut
//! costs nothing any peer or volunteer was told; `--fsync never` leaves
//! syncing to the OS (tmpfs, benchmarks). `--out PATH`
//! writes the merged validated artifact as JSON on completion, which
//! the restart smoke test byte-compares against an uninterrupted run.
//!
//! With `--trust on` the server runs trust-adaptive replication (see
//! DESIGN.md §6 "Trust-adaptive replication"): agents with a clean
//! accept history get single-replica issues backed by seeded spot
//! checks, agents with a dirty one get full quorum or quarantine.
//! `--trust-state-out PATH` writes the closing per-agent trust ledger
//! as JSON, which the trust restart regression compares across a
//! `kill -9`. Every campaign keeps its own ledger, so with several
//! campaigns it writes one per campaign, named like `--out`'s
//! (`base.json` → `base.NAME.json`).
//!
//! With repeated `--campaign NAME:SHARE:PRIORITY[:k=v,...]` flags the
//! server hosts several isolated campaigns at once, arbitrated by the
//! deficit-weighted fair-share scheduler (see DESIGN.md §6
//! "Multi-campaign fair-share"). Knobs: `proteins`, `seed`, `hours`,
//! `spacing`, `iters` — unset knobs inherit the top-level flags. With
//! multiple campaigns, `--out base.json` writes one artifact per
//! campaign as `base.NAME.json`, each byte-identical to the artifact a
//! solo server running only that campaign would write, and
//! `--trust-state-out` names its ledgers the same way. `--journal DIR`
//! still keeps the one `DIR/wal.bin`, and pins the roster — names,
//! recipes, shares, priorities — so a restart must name the same.

use netgrid::{
    CampaignDef, CampaignRunReport, FsyncPolicy, JournalConfig, NetServer, NetServerConfig,
};
use std::fs::{self, File};
use std::io;
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: hcmd-server [--addr HOST:PORT] [--proteins N] [--seed N] \
         [--h-seconds S] [--deadline S] [--events PATH] \
         [--journal DIR] [--fsync always|never] \
         [--out PATH] [--ops-addr HOST:PORT] [--trust on|off] \
         [--trust-spot-rate F] [--trust-spot-seed N] [--trust-min-samples N] \
         [--trust-state-out PATH] \
         [--campaign NAME:SHARE:PRIORITY[:k=v,...]]..."
    );
    std::process::exit(2);
}

fn take(args: &[String], i: &mut usize) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| usage())
}

/// `base.json` + campaign `pilot` → `base.pilot.json`; extensionless
/// paths just append (`artifact` → `artifact.pilot`).
fn campaign_out_path(base: &str, name: &str) -> String {
    match base.rfind('.') {
        Some(dot) if !base[dot + 1..].contains('/') => {
            format!("{}.{}{}", &base[..dot], name, &base[dot..])
        }
        _ => format!("{base}.{name}"),
    }
}

/// Writes `value` to `path` as compact JSON, whole or not at all: the
/// text streams into `PATH.tmp`, which is synced, renamed over `path`,
/// and the rename synced through the directory. A crash leaves the old
/// file or none under `path`, never a torn one that a reader or a `cmp`
/// would take for the artifact.
fn write_json_file<T: serde::Serialize>(path: &str, value: &T) -> io::Result<()> {
    let tmp = format!("{path}.tmp");
    let mut file = File::create(&tmp)?;
    serde_json::to_writer(&mut file, value).map_err(io::Error::other)?;
    file.sync_all()?;
    fs::rename(&tmp, path)?;
    let dir = match Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

fn main() {
    // Every connected volunteer holds a descriptor: without this the
    // usual soft limit of 1 024 would cap the volunteers at about that.
    let nofile = netgrid::sys::raise_nofile_limit(u64::MAX);
    let mut config = NetServerConfig::loopback(30.0);
    config.addr = "127.0.0.1:7070".into();
    let mut events: Option<String> = None;
    let mut out: Option<String> = None;
    let mut trust_state_out: Option<String> = None;
    let mut fsync = FsyncPolicy::default();
    let mut campaign_specs: Vec<String> = Vec::new();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => config.addr = take(&args, &mut i),
            "--proteins" => {
                config.campaign.proteins = take(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--seed" => {
                config.campaign.lib_seed = take(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--h-seconds" => {
                config.campaign.h_seconds = take(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--deadline" => {
                config.scheduler.deadline_seconds =
                    take(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--events" => events = Some(take(&args, &mut i)),
            "--journal" => {
                config.journal = Some(JournalConfig::new(take(&args, &mut i)));
            }
            "--fsync" => {
                fsync = FsyncPolicy::parse(&take(&args, &mut i)).unwrap_or_else(|e| {
                    eprintln!("hcmd-server: {e}");
                    usage()
                })
            }
            "--out" => out = Some(take(&args, &mut i)),
            "--ops-addr" => config.ops_addr = Some(take(&args, &mut i)),
            "--trust" => match take(&args, &mut i).as_str() {
                "on" => config.faults.trust.enabled = true,
                "off" => config.faults.trust.enabled = false,
                _ => usage(),
            },
            "--trust-spot-rate" => {
                config.faults.trust.spot_check_rate =
                    take(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--trust-spot-seed" => {
                config.faults.trust.spot_seed =
                    take(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--trust-min-samples" => {
                config.faults.trust.min_samples =
                    take(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--trust-state-out" => trust_state_out = Some(take(&args, &mut i)),
            "--campaign" => campaign_specs.push(take(&args, &mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    if let Some(journal) = &mut config.journal {
        journal.fsync = fsync;
    }
    // Campaign specs resolve against the top-level recipe flags, so
    // they are parsed only after the whole command line is read.
    for spec in &campaign_specs {
        match CampaignDef::parse(spec, config.campaign) {
            Ok(def) => config.campaigns.push(def),
            Err(e) => {
                eprintln!("hcmd-server: bad --campaign {spec}: {e}");
                usage()
            }
        }
    }
    if let Some(path) = &events {
        if let Err(e) = telemetry::install_jsonl(std::path::Path::new(path)) {
            eprintln!("hcmd-server: cannot open event log {path}: {e}");
            std::process::exit(1);
        }
        if !telemetry::ENABLED {
            eprintln!("hcmd-server: --events given but telemetry is compiled out (build with --features telemetry)");
        }
    }

    let server = match NetServer::bind(config) {
        Ok(s) => s,
        // A setting the server cannot honour (a NaN, a non-positive
        // deadline, no proteins).
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            eprintln!("hcmd-server: configuration error: {e}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("hcmd-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("hcmd-server: listening on {addr} (open-files limit {nofile})"),
        Err(e) => eprintln!("hcmd-server: local_addr: {e}"),
    }
    for spec in &campaign_specs {
        println!("hcmd-server: hosting campaign {spec}");
    }
    if let Some(addr) = server.ops_addr() {
        println!("hcmd-server: ops endpoint on http://{addr}/ (metrics at /metrics)");
    }

    match server.run() {
        Ok(report) => {
            // Totals over every hosted campaign; the wire and trust
            // lines are per campaign, named when there are several.
            let total = |f: &dyn Fn(&CampaignRunReport) -> u64| -> u64 {
                report.campaigns.iter().map(f).sum()
            };
            println!(
                "campaign complete: {} workunits in {:.1} s ({} connections)",
                total(&|c| c.workunits as u64),
                report.wall_seconds,
                report.connections
            );
            println!(
                "issues: {} initial, {} quorum, {} timeout reissues, {} error reissues",
                total(&|c| c.server_stats.initial_issues),
                total(&|c| c.server_stats.quorum_issues),
                total(&|c| c.server_stats.timeout_reissues),
                total(&|c| c.server_stats.error_reissues)
            );
            for c in &report.campaigns {
                let label = match report.campaigns.len() {
                    1 => String::new(),
                    _ => format!("campaign {} ", c.name),
                };
                let n = &c.net_stats;
                println!(
                    "{label}wire: {} quorum-rejected, {} bounds-rejected, {} duplicates, \
                     {} expiries, {} backoffs",
                    n.quorum_rejected,
                    n.bounds_rejected,
                    n.duplicates_dropped,
                    n.deadline_expiries,
                    n.backoffs_sent
                );
                if let Some(t) = &c.trust {
                    println!(
                        "{label}trust: {} trusted, {} probation, {} untrusted, {} quarantined \
                         ({} ever), spot checks {} passed / {} failed, {} fetches denied, \
                         {} workunits retracted, {:.0} ref-s wasted",
                        t.trusted,
                        t.probation,
                        t.untrusted,
                        t.quarantined,
                        t.ever_quarantined,
                        t.spot_checks_passed,
                        t.spot_checks_failed,
                        n.trust_denied_fetches,
                        n.workunits_invalidated,
                        c.wasted_ref_seconds
                    );
                }
            }
            if report.campaigns.len() > 1 {
                let delivered: f64 = report
                    .campaigns
                    .iter()
                    .map(|c| c.delivered_ref_seconds)
                    .sum();
                for c in &report.campaigns {
                    let got = if delivered > 0.0 {
                        c.delivered_ref_seconds / delivered
                    } else {
                        0.0
                    };
                    println!(
                        "campaign {}: {} workunits, share {:.0}% -> delivered {:.1}% \
                         ({:.0} ref-s, {} borrows)",
                        c.name,
                        c.workunits,
                        100.0 * c.share,
                        100.0 * got,
                        c.delivered_ref_seconds,
                        c.borrows
                    );
                }
                println!(
                    "fair-share error {:.3}, {} cross-campaign quarantine denials",
                    report.share_error, report.cross_quarantine_denials
                );
            }
            // A multi-campaign server writes one file per campaign as
            // `<stem>.<name><ext>`: each campaign keeps its own trust
            // ledger, and each artifact is byte-identical to a solo run
            // of that campaign.
            let per_campaign = |base: &str, name: &str| match report.campaigns.len() {
                1 => base.to_string(),
                _ => campaign_out_path(base, name),
            };
            for c in &report.campaigns {
                if let Some(base) = &trust_state_out {
                    let path = per_campaign(base, &c.name);
                    if let Err(e) = write_json_file(&path, &c.agent_trust) {
                        eprintln!("hcmd-server: cannot write trust state {path}: {e}");
                        telemetry::shutdown();
                        std::process::exit(1);
                    }
                    println!("trust state for campaign {} written to {path}", c.name);
                }
                if let Some(base) = &out {
                    let path = per_campaign(base, &c.name);
                    if let Err(e) = write_json_file(&path, &c.outputs) {
                        eprintln!("hcmd-server: cannot write artifact {path}: {e}");
                        telemetry::shutdown();
                        std::process::exit(1);
                    }
                    println!("artifact for campaign {} written to {path}", c.name);
                }
            }
            telemetry::shutdown();
        }
        Err(e) => {
            eprintln!("hcmd-server: {e}");
            telemetry::shutdown();
            std::process::exit(1);
        }
    }
}
