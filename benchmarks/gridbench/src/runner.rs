//! One repetition: a fresh in-process `NetServer` on its own thread, the
//! client on the calling thread, then verification and (journaled
//! workloads) timed recovery.
//!
//! Thread budget: the server thread plus the client thread — `nproc` on
//! the two-core sandbox. On `volunteer_kernel` a real `run_agent` with
//! one docking thread replaces the client. Bind and teardown sit outside
//! the timed window, which runs from the client's first connect to the
//! reply that says the campaign is complete.

use crate::alloc::thread_tally;
use crate::client::{agent_codec, Client, Scrape, Tally};
use crate::spans::{Recorder, NO_PARENT};
use crate::sysx;
use crate::workload::{artifact_json, Identities, Kind, Prepared};
use netgrid::{
    run_agent, AgentConfig, MultiGrid, NetRunReport, NetServer, NetServerConfig, ShardSpec,
};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

/// Where a run keeps its files, and how its threads are placed.
///
/// Server and client are pinned to the **same** core (the last one). With
/// one request in flight the two never need to run at once, so sharing a
/// core costs nothing — and it removes the largest noise source on a
/// virtual machine: on separate cores every request wakes an idle vCPU
/// twice (≈45 µs each on the sandbox, three times the request's own
/// work), so the round trip measures the hypervisor's wake-up path
/// rather than the program. On one core a request is two context
/// switches and the program's own cycles. The other core is left to the
/// rest of the machine.
pub struct Env {
    /// Scratch directory for journals (inside the checkout).
    pub scratch: PathBuf,
    /// The core both threads are pinned to, when pinning worked.
    pub core: Option<usize>,
}

impl Env {
    /// Pins the calling thread to the last core (core 0 takes the
    /// virtual machine's interrupts) and creates the scratch directory.
    pub fn new(scratch: PathBuf) -> io::Result<Self> {
        std::fs::create_dir_all(&scratch)?;
        let core = std::thread::available_parallelism().map_or(1, usize::from) - 1;
        Ok(Self {
            scratch,
            core: sysx::pin_current_thread(core).then_some(core),
        })
    }

    /// True when both threads are pinned.
    pub fn pinned(&self) -> bool {
        self.core.is_some()
    }
}

/// What the server thread measured around `NetServer::run`.
pub struct ServerSide {
    pub report: NetRunReport,
    /// `CLOCK_THREAD_CPUTIME_ID` consumed inside `run`.
    pub cpu_s: f64,
    /// Allocation calls / bytes inside `run` (0 in the untraced binary).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Context switches inside `run` (`getrusage(RUSAGE_THREAD)`).
    pub ctx_switches: u64,
}

struct RunningServer {
    addr: SocketAddr,
    ops_addr: Option<SocketAddr>,
    thread: std::thread::JoinHandle<io::Result<ServerSide>>,
}

fn spawn_server(config: NetServerConfig, core: Option<usize>) -> io::Result<RunningServer> {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("gridbench-server".into())
        .spawn(move || {
            if let Some(core) = core {
                sysx::pin_current_thread(core);
            }
            let server = match NetServer::bind(config) {
                Ok(s) => s,
                Err(e) => {
                    let _ = tx.send(Err(io::Error::new(e.kind(), e.to_string())));
                    return Err(e);
                }
            };
            let addrs = server.local_addr().map(|a| (a, server.ops_addr()));
            let bound = addrs.is_ok();
            let _ = tx.send(addrs);
            if !bound {
                return Err(io::Error::other("listener has no local address"));
            }
            let cpu0 = sysx::thread_cpu_seconds().unwrap_or(0.0);
            let ctx0 = sysx::thread_context_switches().unwrap_or(0);
            let (allocs0, bytes0) = thread_tally();
            let report = server.run()?;
            let (allocs1, bytes1) = thread_tally();
            Ok(ServerSide {
                report,
                cpu_s: sysx::thread_cpu_seconds().unwrap_or(0.0) - cpu0,
                allocs: allocs1 - allocs0,
                alloc_bytes: bytes1 - bytes0,
                ctx_switches: sysx::thread_context_switches().unwrap_or(0) - ctx0,
            })
        })?;
    let (addr, ops_addr) = rx
        .recv()
        .map_err(|_| io::Error::other("server thread died before binding"))??;
    Ok(RunningServer {
        addr,
        ops_addr,
        thread,
    })
}

/// Per-repetition switches of the traced run.
#[derive(Default, Clone, Copy)]
pub struct RepOptions {
    /// Record the request frames for the socketless replay.
    pub record_script: bool,
    /// Serve the ops endpoint and scrape `/metrics` between sessions.
    pub scrape_ops: bool,
}

/// Everything one repetition measured.
pub struct RepOutcome {
    pub workunits: u64,
    /// Client-side wall, first connect → `campaign_complete`.
    pub wall_s: f64,
    pub server: ServerSide,
    pub tally: Tally,
    /// Every campaign's served artifact equals its baseline, byte for byte.
    pub artifact_ok: bool,
    /// Replicas issued, all causes, all campaigns.
    pub replicas_issued: u64,
    /// `MultiGrid::open` on the finished journal → complete state.
    pub recovery_s: Option<f64>,
    /// `wal.bin` + `snapshot.bin` at completion, all campaigns.
    pub journal_bytes: Option<u64>,
    /// `run_agent` only: seconds of wall not spent in the kernel's
    /// direct-call equivalent, as a share of wall.
    pub agent_overhead_frac: Option<f64>,
}

impl RepOutcome {
    /// `(attempted, failed)`: a repetition whose artifact differs from
    /// the baseline counts all its operations as failed.
    pub fn operations(&self) -> (u64, u64) {
        if self.artifact_ok {
            (self.tally.attempted, self.tally.failed)
        } else {
            (self.tally.attempted, self.tally.attempted)
        }
    }
}

/// Whether every campaign's served outputs equal the prepared baseline
/// byte for byte (in the canonical JSON form the artifact is written in).
pub fn artifacts_match(report: &NetRunReport, prepared: &Prepared) -> bool {
    report.campaigns.len() == prepared.campaigns.len()
        && report
            .campaigns
            .iter()
            .zip(&prepared.campaigns)
            .all(|(served, base)| artifact_json(&served.outputs) == base.artifact)
}

fn journal_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += journal_bytes(&entry.path())?;
        } else if matches!(entry.file_name().to_str(), Some("wal.bin" | "snapshot.bin")) {
            total += meta.len();
        }
    }
    Ok(total)
}

/// The server configuration of one repetition of `kind`.
pub fn server_config(
    kind: Kind,
    prepared: &Prepared,
    journal_dir: Option<&Path>,
    ops: bool,
) -> NetServerConfig {
    NetServerConfig {
        addr: "127.0.0.1:0".into(),
        campaign: prepared.campaigns[0].def.params,
        scheduler: kind.scheduler(),
        faults: kind.faults(),
        sweep_ms: 50,
        journal: journal_dir.map(Kind::journal_config),
        ops_addr: ops.then(|| "127.0.0.1:0".into()),
        shard: None,
        campaigns: prepared.campaigns.iter().map(|c| c.def.clone()).collect(),
    }
}

/// Runs one repetition of `kind` and verifies it.
pub fn run_rep(
    kind: Kind,
    prepared: &Prepared,
    seed: u64,
    env: &Env,
    rec: &mut Recorder,
    options: RepOptions,
) -> io::Result<RepOutcome> {
    let ids = Identities::for_run(kind, seed);
    let journal_dir = kind
        .journaled()
        .then(|| env.scratch.join(format!("journal-{}", std::process::id())));
    if let Some(dir) = &journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let config = server_config(kind, prepared, journal_dir.as_deref(), options.scrape_ops);
    let scheduler = config.scheduler;
    let faults = config.faults;
    let server = spawn_server(config, env.core)?;

    let rep_span = rec.open("client.rep", NO_PARENT, 0);
    let mut client = Client {
        addr: server.addr,
        prepared,
        codec: agent_codec(),
        tally: if options.record_script {
            Tally::recording()
        } else {
            Tally::default()
        },
        rec,
        rep_span,
    };
    let mut agent_wall = None;
    let wall = match kind {
        Kind::WireSteady | Kind::WireDurable => client.drive_persistent(&ids)?,
        Kind::GridMixed => {
            let scrape = server.ops_addr.map(|addr| Scrape {
                addr,
                every_sessions: 64,
            });
            client.drive_sessions(&ids, ids.saboteur_dice(seed), scrape)?
        }
        Kind::VolunteerKernel => {
            let started = Instant::now();
            let report = run_agent(AgentConfig {
                seed,
                ..AgentConfig::new(server.addr.to_string(), ids.ids[0])
            })?;
            let wall = started.elapsed();
            agent_wall = Some(wall.as_secs_f64());
            let tally = &mut client.tally;
            tally.asks = report.request_latencies_ms.len() as u64;
            tally.reports = report.reported;
            tally.rejected_reports = report.reported - report.accepted;
            tally.attempted = 1 + tally.asks + tally.reports;
            tally.failed = tally.rejected_reports + u64::from(!report.saw_completion);
            for ms in &report.request_latencies_ms {
                tally.ask.push(std::time::Duration::from_secs_f64(ms / 1e3));
            }
            wall
        }
    };
    let Client { tally, rec, .. } = client;
    rec.close(rep_span);

    let server = server
        .thread
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))??;
    let artifact_ok = artifacts_match(&server.report, prepared);
    let replicas_issued = server
        .report
        .campaigns
        .iter()
        .map(|c| c.server_stats.total_issues())
        .sum();

    let (mut recovery_s, mut journal_size) = (None, None);
    if let Some(dir) = &journal_dir {
        journal_size = Some(journal_bytes(dir)?);
        let defs = prepared.campaigns.iter().map(|c| c.def.clone()).collect();
        let span = rec.open("journal.recovery", NO_PARENT, 0);
        let started = Instant::now();
        let (grid, _) = MultiGrid::open(
            defs,
            scheduler,
            faults,
            ShardSpec::solo(),
            Some(&Kind::journal_config(dir)),
        )?;
        recovery_s = Some(started.elapsed().as_secs_f64());
        rec.close(span);
        if !grid.all_complete() {
            return Err(io::Error::other(
                "journal recovery returned an incomplete campaign",
            ));
        }
        drop(grid);
        std::fs::remove_dir_all(dir)?;
    }

    Ok(RepOutcome {
        workunits: prepared.workunits() as u64,
        wall_s: wall.as_secs_f64(),
        server,
        tally,
        artifact_ok,
        replicas_issued,
        recovery_s,
        journal_bytes: journal_size,
        agent_overhead_frac: agent_wall.map(|w| (w - prepared.compute_seconds()) / w),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{prepare, Scale};

    fn test_env(tag: &str) -> Env {
        // Unpinned: `cargo test` runs tests on parallel threads.
        let scratch = std::env::temp_dir().join(format!("gridbench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        Env {
            scratch,
            core: None,
        }
    }

    /// Same seed ⇒ the client sends the identical bytes, and every count
    /// derived from the server-side history repeats exactly.
    #[test]
    fn wire_steady_repetitions_are_deterministic() {
        let prepared = prepare(Kind::WireSteady, Scale::Tiny, 11);
        let env = test_env("det");
        let mut rec = Recorder::new(false);
        let options = RepOptions {
            record_script: true,
            scrape_ops: false,
        };
        let a = run_rep(Kind::WireSteady, &prepared, 11, &env, &mut rec, options).unwrap();
        let b = run_rep(Kind::WireSteady, &prepared, 11, &env, &mut rec, options).unwrap();
        assert!(a.artifact_ok && b.artifact_ok);
        assert_eq!(a.operations().1, 0);
        assert_eq!(a.tally.script, b.tally.script, "script bytes differ");
        assert!(a.tally.script.as_ref().unwrap().len() as u64 >= a.tally.requests());
        assert_eq!(a.tally.wire_bytes, b.tally.wire_bytes);
        assert_eq!(a.replicas_issued, b.replicas_issued);
        assert_eq!(a.replicas_issued, 2 * a.workunits, "quorum of two");
        let stats = |o: &RepOutcome| {
            let s = o.server.report.server_stats;
            (
                s.initial_issues,
                s.quorum_issues,
                s.timeout_reissues,
                s.error_reissues,
            )
        };
        assert_eq!(stats(&a), stats(&b));
        // Another seed plays other identities: the script differs.
        let c = run_rep(Kind::WireSteady, &prepared, 12, &env, &mut rec, options).unwrap();
        assert_ne!(a.tally.script, c.tally.script);
        assert_eq!(a.replicas_issued, c.replicas_issued);
    }

    #[test]
    fn every_workload_completes_and_verifies_at_tiny_scale() {
        let env = test_env("all");
        for w in &crate::workload::WORKLOADS {
            let prepared = prepare(w.kind, Scale::Tiny, 5);
            let mut rec = Recorder::new(true);
            let out = run_rep(w.kind, &prepared, 5, &env, &mut rec, RepOptions::default()).unwrap();
            assert!(out.artifact_ok, "{}", w.name);
            assert_eq!(out.operations().1, 0, "{}", w.name);
            assert_eq!(out.recovery_s.is_some(), w.kind.journaled(), "{}", w.name);
            assert!(out.tally.asks >= out.workunits, "{}", w.name);
            assert_eq!(
                rec.spans().iter().any(|s| s.name == "client.ask"),
                w.kind.scripted(),
                "{}",
                w.name
            );
        }
    }

    /// A served artifact that differs from the baseline in one bit fails
    /// the comparison, and the repetition then counts every operation as
    /// failed.
    #[test]
    fn corrupted_artifact_fails_every_operation() {
        let prepared = prepare(Kind::WireSteady, Scale::Tiny, 11);
        let env = test_env("corrupt");
        let mut rec = Recorder::new(false);
        let mut rep = run_rep(
            Kind::WireSteady,
            &prepared,
            3,
            &env,
            &mut rec,
            RepOptions::default(),
        )
        .unwrap();
        assert!(rep.artifact_ok);
        assert_eq!(rep.operations(), (rep.tally.attempted, 0));

        let row = &mut rep.server.report.campaigns[0].outputs[0].rows[0];
        row.eelec = f64::from_bits(row.eelec.to_bits() ^ 1);
        rep.artifact_ok = artifacts_match(&rep.server.report, &prepared);
        assert!(!rep.artifact_ok);
        let (attempted, failed) = rep.operations();
        assert_eq!(failed, attempted);
        assert_eq!(failed as f64 / attempted as f64, 1.0);
    }
}
