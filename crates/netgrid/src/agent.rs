//! The volunteer agent: fetch, dock, checkpoint, report.
//!
//! One agent models one volunteer machine. Its session loop mirrors the
//! BOINC client the paper's volunteers ran: connect, learn the campaign
//! from `HelloAck`, then cycle *request work → compute → report* until
//! the server says the campaign is complete. The docking is the real
//! maxdo kernel; with `threads > 1` each starting position's 21
//! orientation couples run on the vendored rayon pool
//! (order-preserving, so the payload is byte-identical to a
//! single-threaded volunteer's — a prerequisite for byte-level quorum).
//!
//! Progress is checkpointed *between starting positions* (§4.3,
//! [`DockingCheckpoint`]): when fault injection kills the connection
//! mid-workunit, the replica is abandoned exactly the way a powered-off
//! volunteer PC abandons work — the server's deadline sweep reissues it,
//! and this agent starts the next assignment from scratch.

use crate::campaign::NetCampaign;
use crate::faults::{FaultAction, FaultDice, FaultProfile};
use crate::protocol::{read_message, write_message_with, Codec, Message};
use maxdo::{DockingCheckpoint, DockingOutput};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Stable agent identity (also salts the fault stream).
    pub agent: u64,
    /// Docking threads (1 = sequential).
    pub threads: usize,
    /// Fault injection profile.
    pub profile: FaultProfile,
    /// Run seed shared by every agent of a campaign.
    pub seed: u64,
    /// Abandon the session (no report, no `Bye`) after this many
    /// assignments — the "volunteer switched the PC off" test hook.
    pub die_after: Option<u32>,
    /// Give up after this many consecutive failed connection attempts.
    pub max_connect_attempts: u32,
    /// The one wire dialect. A vestige with a single value, kept because
    /// `benchmarks/gridbench` reads it (see [`Codec`]); `run_agent`
    /// never changes it, whatever a handshake does.
    pub codec: Codec,
    /// Campaign attachments announced in the handshake: names of the
    /// hosted campaigns this volunteer works for. Empty means the
    /// default campaign; the single entry `"*"` attaches to all.
    pub campaigns: Vec<String>,
}

impl AgentConfig {
    /// A reliable single-threaded volunteer.
    pub fn new(addr: impl Into<String>, agent: u64) -> Self {
        Self {
            addr: addr.into(),
            agent,
            threads: 1,
            profile: FaultProfile::none(),
            seed: 0,
            die_after: None,
            max_connect_attempts: 50,
            codec: Codec,
            campaigns: Vec::new(),
        }
    }
}

/// What one agent did over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct AgentReport {
    /// Assignments received.
    pub assignments: u64,
    /// Results reported (honest + corrupted + stalled).
    pub reported: u64,
    /// Reports the server accepted.
    pub accepted: u64,
    /// Injected disconnects.
    pub disconnect_faults: u64,
    /// Injected stalls.
    pub stall_faults: u64,
    /// Injected corruptions.
    pub corrupt_faults: u64,
    /// Round-trip latency of each `RequestWork`, milliseconds.
    pub request_latencies_ms: Vec<f64>,
    /// Whether the agent saw the campaign complete (vs. dying early).
    pub saw_completion: bool,
    /// Cross-shard redirects followed (sharded servers only).
    pub redirects_followed: u64,
}

/// Runs one agent until the campaign completes (or it dies on purpose).
pub fn run_agent(config: AgentConfig) -> io::Result<AgentReport> {
    let mut report = AgentReport::default();
    let mut dice = FaultDice::new(config.seed, config.agent, config.profile);
    // Campaigns the agent is attached to, indexed by the wire campaign
    // id from `Assignment::campaign`. A single-campaign server has
    // exactly one entry, index 0.
    let mut roster: Vec<NetCampaign> = Vec::new();
    let mut connect_failures = 0u32;
    let codec = config.codec;
    // Where the next session dials. A sharded server may answer a
    // RequestWork with a Redirect to a loaded peer; the agent follows
    // at most ONE redirect per ask (`bounced` below), so two drained
    // shards pointing at each other cannot trap an agent in a loop.
    let mut addr = config.addr.clone();
    let mut bounced = false;

    'session: loop {
        let mut stream = match TcpStream::connect(&addr) {
            Ok(s) => {
                connect_failures = 0;
                s
            }
            Err(e) => {
                // A dead redirect target is not a dead campaign: fall
                // back to the home shard before giving up.
                if addr != config.addr {
                    addr = config.addr.clone();
                    bounced = false;
                    continue 'session;
                }
                connect_failures += 1;
                if connect_failures >= config.max_connect_attempts {
                    // The server is gone — most likely the campaign
                    // finished while this agent was between sessions.
                    // Any received assignment counts as progress: an
                    // agent whose every assignment drew a disconnect
                    // fault has reported nothing yet still ran exactly
                    // as configured, so its report is a result, not an
                    // error.
                    return if report.saw_completion || report.assignments > 0 {
                        Ok(report)
                    } else {
                        Err(e)
                    };
                }
                std::thread::sleep(Duration::from_millis(50));
                continue 'session;
            }
        };
        stream.set_nodelay(true)?;

        write_message_with(
            &mut stream,
            &Message::Hello {
                agent: config.agent,
                threads: config.threads as u32,
                campaigns: config.campaigns.clone(),
            },
            codec,
        )?;
        let deadline_seconds = match read_message(&mut stream) {
            Ok(Some(Message::HelloAck {
                campaign: params,
                deadline_seconds,
                campaigns,
                ..
            })) => {
                if roster.is_empty() {
                    roster = if campaigns.is_empty() {
                        vec![NetCampaign::build(params)]
                    } else {
                        campaigns
                            .iter()
                            .map(|(_, p)| NetCampaign::build(*p))
                            .collect()
                    };
                }
                deadline_seconds
            }
            Ok(Some(Message::Busy { retry_after_ms })) => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(2_000)));
                continue 'session;
            }
            Ok(_) | Err(_) => {
                // A handshake that dies says nothing about the peer's
                // dialect — there is only one — so the next session
                // says the same `Hello`, attachments and all. A
                // redirect target that hangs up is a peer that finished
                // its drain and closed between gossip ticks: fall home.
                if addr != config.addr {
                    addr = config.addr.clone();
                    bounced = false;
                    continue 'session;
                }
                std::thread::sleep(Duration::from_millis(50));
                continue 'session;
            }
        };
        loop {
            let asked = Instant::now();
            if write_message_with(&mut stream, &Message::RequestWork, codec).is_err() {
                continue 'session;
            }
            let reply = match read_message(&mut stream) {
                Ok(Some(m)) => m,
                _ => continue 'session,
            };
            report
                .request_latencies_ms
                .push(asked.elapsed().as_secs_f64() * 1e3);
            match reply {
                Message::NoWork {
                    campaign_complete,
                    retry_after_ms,
                } => {
                    bounced = false;
                    if campaign_complete {
                        report.saw_completion = true;
                        let _ = write_message_with(&mut stream, &Message::Bye, codec);
                        return Ok(report);
                    }
                    // A drained redirect target with the campaign still
                    // open is the home shard's problem, not this peer's:
                    // fall home rather than camping on the peer — home
                    // tracks global completion and can re-steer.
                    if addr != config.addr {
                        let _ = write_message_with(&mut stream, &Message::Bye, codec);
                        addr = config.addr.clone();
                        continue 'session;
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms.min(2_000)));
                }
                Message::Busy { retry_after_ms } => {
                    std::thread::sleep(Duration::from_millis(retry_after_ms.min(2_000)));
                    continue 'session;
                }
                Message::Redirect { addr: peer, .. } => {
                    if bounced || peer == addr {
                        // Already followed one redirect for this ask
                        // (or the server pointed at itself): back off
                        // in place instead of chasing pointers around
                        // a ring of drained shards.
                        bounced = false;
                        std::thread::sleep(Duration::from_millis(100));
                    } else {
                        report.redirects_followed += 1;
                        bounced = true;
                        addr = peer;
                        let _ = write_message_with(&mut stream, &Message::Bye, codec);
                        continue 'session;
                    }
                }
                Message::Assignment {
                    replica,
                    workunit,
                    isep_start,
                    positions,
                    deadline_seconds: wu_deadline,
                    campaign: campaign_idx,
                    ..
                } => {
                    // The roster entry this assignment docks against —
                    // index 0 unless a multi-campaign server said
                    // otherwise. An index the handshake never announced
                    // is a server bug; drop the session.
                    let Some(campaign) = roster.get(usize::from(campaign_idx)) else {
                        continue 'session;
                    };
                    bounced = false;
                    report.assignments += 1;
                    if config
                        .die_after
                        .is_some_and(|n| report.assignments >= u64::from(n))
                    {
                        // Vanish mid-workunit: no report, no Bye.
                        return Ok(report);
                    }
                    let action = dice.draw();
                    if action == FaultAction::Disconnect {
                        report.disconnect_faults += 1;
                        // Drop the TCP stream on the floor; the replica
                        // ages out and the server reissues it.
                        std::thread::sleep(Duration::from_millis(20));
                        continue 'session;
                    }
                    let mut output =
                        compute_workunit(campaign, workunit, isep_start, positions, config.threads);
                    match action {
                        FaultAction::Stall => {
                            report.stall_faults += 1;
                            let past_deadline =
                                Duration::from_secs_f64(wu_deadline.max(deadline_seconds) + 0.3);
                            std::thread::sleep(past_deadline);
                        }
                        FaultAction::Corrupt => {
                            report.corrupt_faults += 1;
                            dice.corrupt(&mut output);
                        }
                        FaultAction::None | FaultAction::Disconnect => {}
                    }
                    if write_message_with(
                        &mut stream,
                        &Message::ResultReport {
                            replica,
                            workunit,
                            campaign: campaign_idx,
                            output,
                        },
                        codec,
                    )
                    .is_err()
                    {
                        continue 'session;
                    }
                    report.reported += 1;
                    match read_message(&mut stream) {
                        Ok(Some(Message::ResultAck {
                            accepted,
                            campaign_complete,
                            ..
                        })) => {
                            if accepted {
                                report.accepted += 1;
                            }
                            if campaign_complete {
                                report.saw_completion = true;
                                let _ = write_message_with(&mut stream, &Message::Bye, codec);
                                return Ok(report);
                            }
                        }
                        _ => continue 'session,
                    }
                }
                _ => continue 'session,
            }
        }
    }
}

/// Computes one workunit through the §4.3 checkpoint, position by
/// position — on `threads > 1`, each position's orientation fan runs on
/// the shared rayon pool with a thread-local cap.
fn compute_workunit(
    campaign: &NetCampaign,
    workunit: u32,
    isep_start: u32,
    positions: u32,
    threads: usize,
) -> DockingOutput {
    let spec = campaign.spec(workunit);
    debug_assert_eq!((spec.isep_start, spec.positions), (isep_start, positions));
    let engine = campaign.engine(spec);
    let mut cp = DockingCheckpoint::new(isep_start, isep_start + positions - 1);
    while !cp.is_complete() {
        let next = cp.next_isep;
        let out = if threads > 1 {
            rayon::with_threads(threads, || engine.dock_position_parallel(next))
        } else {
            engine.dock_position(next)
        };
        cp.commit_position(out);
    }
    DockingOutput {
        rows: cp.rows,
        evaluations: cp.evaluations,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::{decode_versioned, CampaignParams, HEADER_BYTES, PROTOCOL_VERSION};
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A scripted server's listener on an ephemeral port, and its address.
    pub(crate) fn listen() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    fn hello_ack() -> Message {
        Message::HelloAck {
            protocol: PROTOCOL_VERSION,
            campaign: CampaignParams::tiny(),
            deadline_seconds: 5.0,
            campaigns: Vec::new(),
        }
    }

    pub(crate) fn redirect(shard: u16, addr: &str) -> Message {
        Message::Redirect {
            shard,
            addr: addr.to_string(),
        }
    }

    fn campaign_done() -> Message {
        Message::NoWork {
            campaign_complete: true,
            retry_after_ms: 0,
        }
    }

    /// Plays a scripted session on `s`: `Hello` gets a tiny-campaign
    /// `HelloAck`, every `RequestWork` gets `on_ask()`, until the agent
    /// says `Bye` or drops the connection.
    pub(crate) fn serve(s: &mut TcpStream, mut on_ask: impl FnMut() -> Message) {
        loop {
            let reply = match read_message(s) {
                Ok(Some(Message::Hello { .. })) => hello_ack(),
                Ok(Some(Message::RequestWork)) => on_ask(),
                _ => return,
            };
            if write_message_with(s, &reply, Codec).is_err() {
                return;
            }
        }
    }

    /// Reads one `Hello` frame raw off the socket, returning the version
    /// byte it was framed with and the attachments it carries.
    fn read_raw_hello(s: &mut TcpStream) -> (u8, Vec<String>) {
        let mut frame = vec![0u8; HEADER_BYTES];
        s.read_exact(&mut frame).unwrap();
        let len = u32::from_le_bytes(frame[5..9].try_into().unwrap()) as usize;
        frame.resize(HEADER_BYTES + len, 0);
        s.read_exact(&mut frame[HEADER_BYTES..]).unwrap();
        match decode_versioned(&frame) {
            Ok((Message::Hello { campaigns, .. }, _, _)) => (frame[4], campaigns),
            other => panic!("expected a Hello, got {other:?}"),
        }
    }

    /// Regression: an agent whose *every* assignment drew a disconnect
    /// fault has `reported == 0` when the server exits. That agent ran
    /// exactly as configured, so giving up on a vanished server must be
    /// `Ok(report)` — it used to demand `reported > 0` and returned the
    /// connect error instead.
    #[test]
    fn give_up_with_assignments_but_no_reports_is_ok() {
        let (listener, addr) = listen();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Close the listener immediately: once the faulty agent
            // drops this connection, every reconnect is refused.
            drop(listener);
            let campaign = NetCampaign::build(CampaignParams::tiny());
            let spec = campaign.spec(0);
            serve(&mut s, || Message::Assignment {
                replica: 0,
                workunit: 0,
                receptor: spec.receptor.0,
                ligand: spec.ligand.0,
                isep_start: spec.isep_start,
                positions: spec.positions,
                deadline_seconds: 5.0,
                campaign: 0,
            });
        });

        let report = run_agent(AgentConfig {
            profile: FaultProfile {
                disconnect: 1.0,
                stall: 0.0,
                corrupt: 0.0,
            },
            max_connect_attempts: 3,
            ..AgentConfig::new(addr, 9)
        })
        .expect("an agent that received assignments made progress");
        assert!(report.assignments >= 1, "{report:?}");
        assert_eq!(report.reported, 0, "every assignment disconnected");
        assert_eq!(report.disconnect_faults, report.assignments);
        assert!(!report.saw_completion);
        server.join().unwrap();
    }

    /// Two drained shards pointing at each other must not trap an
    /// agent: the first Redirect is followed, the second (on the next
    /// ask, back toward shard A) is treated as a backoff. The agent
    /// therefore asks shard A exactly once.
    #[test]
    fn redirect_is_followed_at_most_once_per_ask() {
        let ((a, a_addr), (b, b_addr)) = (listen(), listen());
        let a_asks = Arc::new(AtomicU64::new(0));
        let a_count = a_asks.clone();
        let a_for_b = a_addr.clone();
        let shard_a = std::thread::spawn(move || {
            let (mut s, _) = a.accept().unwrap();
            drop(a);
            serve(&mut s, || {
                a_count.fetch_add(1, Ordering::SeqCst);
                redirect(1, &b_addr)
            });
        });
        let shard_b = std::thread::spawn(move || {
            let (mut s, _) = b.accept().unwrap();
            drop(b);
            let mut asks = 0u32;
            serve(&mut s, || {
                asks += 1;
                if asks == 1 {
                    // Point straight back at shard A: if the agent
                    // chased it, A would see a second ask.
                    redirect(0, &a_for_b)
                } else {
                    campaign_done()
                }
            });
        });

        let report = run_agent(AgentConfig::new(a_addr, 7)).unwrap();
        assert!(report.saw_completion);
        assert_eq!(report.redirects_followed, 1, "one bounce per ask");
        assert_eq!(
            a_asks.load(Ordering::SeqCst),
            1,
            "agent chased the redirect loop back to shard A"
        );
        shard_a.join().unwrap();
        shard_b.join().unwrap();
    }

    /// A server hiccup between `connect` and `HelloAck` costs one retry
    /// and nothing else: the next session opens with the same `Hello` —
    /// same version byte, same campaign attachments.
    #[test]
    fn a_dropped_handshake_retries_with_the_same_hello() {
        let (home, home_addr) = listen();
        let attachments = vec!["prod".to_string(), "pilot".to_string()];

        let expected = attachments.clone();
        let home_thread = std::thread::spawn(move || {
            // Session 1: read the Hello, hang up without a reply.
            let (mut s, _) = home.accept().unwrap();
            assert_eq!(read_raw_hello(&mut s), (PROTOCOL_VERSION, expected.clone()));
            drop(s);
            // Session 2: the retry.
            let (mut s, _) = home.accept().unwrap();
            assert_eq!(
                read_raw_hello(&mut s),
                (PROTOCOL_VERSION, expected),
                "a failed handshake must not change what the agent says"
            );
            write_message_with(&mut s, &hello_ack(), Codec).unwrap();
            serve(&mut s, campaign_done);
        });

        let report = run_agent(AgentConfig {
            campaigns: attachments,
            ..AgentConfig::new(home_addr, 10)
        })
        .unwrap();
        assert!(report.saw_completion, "{report:?}");
        home_thread.join().unwrap();
    }

    /// A redirect target that completed and shut down between gossip
    /// ticks hangs up on the agent's Hello. The agent must fall home
    /// and terminate there rather than re-asking the dead peer.
    #[test]
    fn dead_redirect_target_falls_home() {
        let ((home, home_addr), (peer, peer_addr)) = (listen(), listen());
        let peer_thread = std::thread::spawn(move || {
            // The "completed and draining" peer: accept, read the
            // Hello, hang up without a reply.
            let (mut s, _) = peer.accept().unwrap();
            drop(peer);
            let _ = read_message(&mut s);
        });
        let home_thread = std::thread::spawn(move || {
            // Session 1: hand out a redirect to the doomed peer.
            serve(&mut home.accept().unwrap().0, || redirect(1, &peer_addr));
            // Session 2: the agent is back, saying what it always says.
            let (mut s, _) = home.accept().unwrap();
            assert_eq!(read_raw_hello(&mut s), (PROTOCOL_VERSION, Vec::new()));
            write_message_with(&mut s, &hello_ack(), Codec).unwrap();
            serve(&mut s, campaign_done);
        });

        let report = run_agent(AgentConfig::new(home_addr, 11)).unwrap();
        assert!(report.saw_completion, "{report:?}");
        assert_eq!(report.redirects_followed, 1);
        home_thread.join().unwrap();
        peer_thread.join().unwrap();
    }

    /// A redirect target that is merely *drained* (NoWork, campaign
    /// still open) must not hold the agent either: one NoWork from the
    /// peer sends the agent home, where it learns the campaign is done.
    #[test]
    fn drained_redirect_target_sends_the_agent_home() {
        let ((home, home_addr), (peer, peer_addr)) = (listen(), listen());
        let peer_asks = Arc::new(AtomicU64::new(0));
        let peer_count = peer_asks.clone();
        let peer_thread = std::thread::spawn(move || {
            let (mut s, _) = peer.accept().unwrap();
            drop(peer);
            // Returns on the agent's Bye: it went home.
            serve(&mut s, || {
                peer_count.fetch_add(1, Ordering::SeqCst);
                Message::NoWork {
                    campaign_complete: false,
                    retry_after_ms: 5,
                }
            });
        });
        let home_thread = std::thread::spawn(move || {
            // Session 1: redirect to the drained peer.
            serve(&mut home.accept().unwrap().0, || redirect(1, &peer_addr));
            // Session 2: home finishes the agent off.
            serve(&mut home.accept().unwrap().0, campaign_done);
        });

        let report = run_agent(AgentConfig::new(home_addr, 12)).unwrap();
        assert!(report.saw_completion, "{report:?}");
        assert_eq!(report.redirects_followed, 1);
        assert_eq!(
            peer_asks.load(Ordering::SeqCst),
            1,
            "the agent must ask the drained peer exactly once, then go home"
        );
        home_thread.join().unwrap();
        peer_thread.join().unwrap();
    }

    #[test]
    fn checkpointed_compute_matches_direct_dock_range() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let spec = campaign.spec(0);
        let direct = campaign.compute(spec);
        let via_checkpoint = compute_workunit(&campaign, 0, spec.isep_start, spec.positions, 1);
        assert_eq!(via_checkpoint, direct);
        let parallel = compute_workunit(&campaign, 0, spec.isep_start, spec.positions, 4);
        assert_eq!(parallel, direct, "thread count must not change bytes");
    }
}
