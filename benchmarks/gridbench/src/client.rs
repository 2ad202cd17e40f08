//! The benchmark's closed-loop wire client.
//!
//! It plays agents itself over `protocol::write_message_with` /
//! `read_message` with strictly one request in flight, replaying outputs
//! precomputed in set-up — so the timed window holds no kernel work and,
//! because the server never sees two requests race, its history (every
//! replica id, every issue count) is a function of the request order
//! alone. `run_mux_fleet` is deliberately not used: it computes
//! workunits on a helper thread and opens thousands of sockets, which on
//! two cores measures the kernel and the OS scheduler instead.
//!
//! Two session shapes:
//! * [`drive_persistent`] — two identities on two long-lived connections
//!   alternating ask → report (the `wire_*` workloads);
//! * [`drive_sessions`] — one full session per ask, identities round
//!   robin, one socket open at a time (`grid_mixed`).
//!
//! The codec is whatever `AgentConfig::new` defaults to: the client
//! speaks the dialect a stock agent speaks and names no variant.

use crate::spans::{Recorder, SpanId};
use crate::stats::LatencyPool;
use crate::workload::{Identities, Prepared};
use netgrid::protocol::{encode_with, read_message, write_message_with};
use netgrid::{AgentConfig, Codec, FaultDice, Message};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Everything the client counted over one repetition.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted: sessions opened, asks, reports.
    pub attempted: u64,
    /// Operations that failed: connect/handshake errors, `Busy`,
    /// unexpected or missing replies, and — on workloads without a
    /// saboteur, where nothing can legitimately reject — reports not
    /// accepted.
    pub failed: u64,
    pub sessions: u64,
    pub asks: u64,
    pub nowork: u64,
    pub reports: u64,
    pub rejected_reports: u64,
    pub ask: LatencyPool,
    pub report: LatencyPool,
    /// connect + `Hello` → `HelloAck`.
    pub session_setup: LatencyPool,
    /// `http_get("/metrics")` round trips (traced `grid_mixed` only).
    pub scrape: LatencyPool,
    /// Bytes written + read on every socket.
    pub wire_bytes: u64,
    /// The request frames sent, in order, when recording was asked for —
    /// the script the socketless replay feeds to the layers directly.
    pub script: Option<Script>,
}

impl Tally {
    pub fn recording() -> Self {
        Self {
            script: Some(Vec::new()),
            ..Self::default()
        }
    }

    pub fn requests(&self) -> u64 {
        self.asks + self.reports
    }
}

/// A `TcpStream` that counts the bytes crossing it.
struct Counted {
    stream: TcpStream,
    bytes: u64,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.stream.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// The codec `AgentConfig::new` defaults to — the client names no variant.
pub fn agent_codec() -> Codec {
    AgentConfig::new(String::new(), 0).codec
}

/// Request frames in the order they were sent, each tagged with the
/// session (1-based, in opening order) that sent it.
pub type Script = Vec<(u32, Vec<u8>)>;

/// One open agent session.
struct Session {
    conn: Counted,
    codec: Codec,
    /// 1-based position in the repetition's session sequence.
    index: u32,
}

fn unexpected(what: &str, got: &Option<Message>) -> io::Error {
    let got = match got {
        Some(m) => format!("{m:?}").chars().take(80).collect::<String>(),
        None => "connection closed".into(),
    };
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {what}, got {got}"),
    )
}

/// The client side of one repetition: where it connects, what it
/// replays, and where it counts and records.
pub struct Client<'a> {
    pub addr: SocketAddr,
    pub prepared: &'a Prepared,
    /// The dialect a stock agent speaks: [`agent_codec`].
    pub codec: Codec,
    pub tally: Tally,
    pub rec: &'a mut Recorder,
    /// The repetition's span; sessions are its children.
    pub rep_span: SpanId,
}

impl Session {
    /// Sends one frame and reads one back.
    fn exchange(&mut self, msg: &Message, tally: &mut Tally) -> io::Result<Option<Message>> {
        if let Some(script) = &mut tally.script {
            script.push((self.index, encode_with(msg, self.codec).to_vec()));
        }
        write_message_with(&mut self.conn, msg, self.codec)?;
        read_message(&mut self.conn)
    }

    /// `Bye`, then wait for the server's close: the server has retired
    /// this connection before the caller opens the next one.
    fn close(mut self, tally: &mut Tally) -> io::Result<()> {
        if let Some(script) = &mut tally.script {
            script.push((self.index, encode_with(&Message::Bye, self.codec).to_vec()));
        }
        write_message_with(&mut self.conn, &Message::Bye, self.codec)?;
        let mut sink = [0u8; 64];
        while self.conn.read(&mut sink)? > 0 {}
        tally.wire_bytes += self.conn.bytes;
        Ok(())
    }
}

/// What one ask → report cycle ended in.
enum Step {
    /// Work was assigned, computed (replayed) and reported.
    Reported { campaign_complete: bool },
    /// `NoWork`: nothing issuable for this identity right now.
    NoWork {
        campaign_complete: bool,
        retry_after_ms: u64,
    },
}

impl Step {
    fn campaign_complete(&self) -> bool {
        match *self {
            Step::Reported { campaign_complete }
            | Step::NoWork {
                campaign_complete, ..
            } => campaign_complete,
        }
    }
}

/// Where a traced `grid_mixed` run scrapes `/metrics`, and how often.
pub struct Scrape {
    pub addr: SocketAddr,
    pub every_sessions: u64,
}

impl Client<'_> {
    /// Opens a session span and, under it, connect → `Hello` → `HelloAck`.
    fn open(&mut self, agent: u64, campaigns: &[String]) -> io::Result<(Session, SpanId)> {
        let tally = &mut self.tally;
        tally.attempted += 1;
        tally.sessions += 1;
        let index = tally.sessions as u32;
        let span = self.rec.open("client.session", self.rep_span, index);
        let started = Instant::now();
        let connect = self.rec.open("client.connect", span, index);
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.rec.close(connect);
        let mut session = Session {
            conn: Counted { stream, bytes: 0 },
            codec: self.codec,
            index,
        };
        let hello = self.rec.open("client.hello", span, index);
        let reply = session.exchange(
            &Message::Hello {
                agent,
                threads: 1,
                campaigns: campaigns.to_vec(),
            },
            tally,
        )?;
        self.rec.close(hello);
        tally.session_setup.push(started.elapsed());
        match reply {
            Some(Message::HelloAck { .. }) => Ok((session, span)),
            other => {
                tally.failed += 1;
                Err(unexpected("HelloAck", &other))
            }
        }
    }

    /// One `RequestWork` and, if it yields an assignment, the
    /// `ResultReport` carrying the precomputed output (corrupted first
    /// when `dice` is set). `rejects_are_failures`: whether an honest
    /// report that is not accepted counts as a failed operation.
    fn ask_and_report(
        &mut self,
        session: &mut Session,
        span: SpanId,
        dice: Option<&mut FaultDice>,
        rejects_are_failures: bool,
    ) -> io::Result<Step> {
        let (tally, rec) = (&mut self.tally, &mut *self.rec);
        tally.attempted += 1;
        tally.asks += 1;
        let ask = rec.open("client.ask", span, tally.requests() as u32);
        let asked = Instant::now();
        let reply = session.exchange(&Message::RequestWork, tally)?;
        tally.ask.push(asked.elapsed());
        rec.close(ask);
        let (replica, workunit, campaign) = match reply {
            Some(Message::Assignment {
                replica,
                workunit,
                campaign,
                ..
            }) => (replica, workunit, campaign),
            Some(Message::NoWork {
                campaign_complete,
                retry_after_ms,
            }) => {
                tally.nowork += 1;
                return Ok(Step::NoWork {
                    campaign_complete,
                    retry_after_ms,
                });
            }
            other => {
                tally.failed += 1;
                return Err(unexpected("Assignment or NoWork", &other));
            }
        };
        let mut output = self
            .prepared
            .campaigns
            .get(usize::from(campaign))
            .and_then(|c| c.outputs.get(workunit as usize))
            .cloned()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "assignment outside the catalog: campaign {campaign} workunit {workunit}"
                    ),
                )
            })?;
        let honest = dice.is_none();
        if let Some(dice) = dice {
            dice.corrupt(&mut output);
        }
        let message = Message::ResultReport {
            replica,
            workunit,
            campaign,
            output,
        };
        tally.attempted += 1;
        tally.reports += 1;
        let report = rec.open("client.report", span, tally.requests() as u32);
        let sent = Instant::now();
        let reply = session.exchange(&message, tally)?;
        tally.report.push(sent.elapsed());
        rec.close(report);
        match reply {
            Some(Message::ResultAck {
                accepted,
                campaign_complete,
                ..
            }) => {
                if !accepted {
                    tally.rejected_reports += 1;
                    if honest && rejects_are_failures {
                        tally.failed += 1;
                    }
                }
                Ok(Step::Reported { campaign_complete })
            }
            other => {
                tally.failed += 1;
                Err(unexpected("ResultAck", &other))
            }
        }
    }

    /// `wire_*`: the identities on one persistent connection each,
    /// alternating ask → report until the server says the campaign is
    /// complete. Returns the wall time from the first connect to that
    /// moment; the `Bye`s and closes that let the server drain happen
    /// after it.
    pub fn drive_persistent(&mut self, ids: &Identities) -> io::Result<Duration> {
        let started = Instant::now();
        let mut sessions = Vec::with_capacity(ids.ids.len());
        for &agent in &ids.ids {
            sessions.push(self.open(agent, &[])?);
        }
        let mut turn = 0usize;
        let wall = loop {
            let (session, span) = &mut sessions[turn % ids.ids.len()];
            turn += 1;
            let step = self.ask_and_report(session, *span, None, true)?;
            if step.campaign_complete() {
                break started.elapsed();
            }
            // One request in flight and no faults: an incomplete campaign
            // always has something issuable.
            if let Step::NoWork { .. } = step {
                self.tally.failed += 1;
            }
        };
        for (session, span) in sessions {
            session.close(&mut self.tally)?;
            self.rec.close(span);
        }
        Ok(wall)
    }

    /// `grid_mixed`: one session per ask (connect → Hello → HelloAck →
    /// RequestWork → Assignment → ResultReport → ResultAck → Bye →
    /// close), identities round robin, one socket open at a time; the
    /// saboteur's reports go through `dice` first. `NoWork` moves on to
    /// the next identity without sleeping; only when every identity in a
    /// row got `NoWork` does the client sleep, for the shortest
    /// `retry_after_ms` it was told.
    pub fn drive_sessions(
        &mut self,
        ids: &Identities,
        mut dice: Option<FaultDice>,
        scrape: Option<Scrape>,
    ) -> io::Result<Duration> {
        let started = Instant::now();
        let attach = ["*".to_string()];
        let mut idle_streak = 0usize;
        let mut shortest_retry_ms = u64::MAX;
        for slot in (0..ids.ids.len()).cycle() {
            let (mut session, span) = self.open(ids.ids[slot], &attach)?;
            let dice = match ids.saboteur {
                Some(s) if s == slot => dice.as_mut(),
                _ => None,
            };
            let step = self.ask_and_report(&mut session, span, dice, false)?;
            session.close(&mut self.tally)?;
            self.rec.close(span);
            if step.campaign_complete() {
                break;
            }
            match step {
                Step::Reported { .. } => {
                    idle_streak = 0;
                    shortest_retry_ms = u64::MAX;
                }
                Step::NoWork { retry_after_ms, .. } => {
                    idle_streak += 1;
                    shortest_retry_ms = shortest_retry_ms.min(retry_after_ms);
                    if idle_streak >= ids.ids.len() {
                        std::thread::sleep(Duration::from_millis(shortest_retry_ms));
                        idle_streak = 0;
                        shortest_retry_ms = u64::MAX;
                    }
                }
            }
            if let Some(s) = &scrape {
                if self.tally.sessions.is_multiple_of(s.every_sessions) {
                    let t = Instant::now();
                    let (status, _) = netgrid::http_get(s.addr, "/metrics")?;
                    self.tally.scrape.push(t.elapsed());
                    if status != 200 {
                        self.tally.failed += 1;
                    }
                }
            }
        }
        Ok(started.elapsed())
    }
}
