//! Write-ahead journal: the server's command log.
//!
//! The paper's campaign ran for 26 weeks; a server whose scheduling
//! state lives only in RAM cannot survive such a run. This module makes
//! a [`MultiGrid`] durable the way BOINC's database does, but with the
//! repo's own machinery: every decision a restart must rebuild is one
//! [`Command`] applied through [`MultiGrid::apply`], and the journal
//! appends it — with the time it was made at and the [`Outcome`] it
//! drew — as a length-prefixed, checksummed frame (the exact wire
//! framing from [`crate::protocol`], checksum included:
//! [`protocol::checksum64`]). The log *is* the state: nothing else is
//! ever written, and nothing in it is ever rewritten.
//!
//! [`MultiGrid`]: crate::registry::MultiGrid
//! [`MultiGrid::apply`]: crate::registry::MultiGrid::apply
//! [`MultiGrid::open`]: crate::registry::MultiGrid::open
//! [`MultiGrid::open_bytes`]: crate::registry::MultiGrid::open_bytes
//! [`MultiGrid::commit`]: crate::registry::MultiGrid::commit
//!
//! The log is bytes: a `Wal` is the open group-commit batch and the
//! counts, held by the grid and compared and cloned with it. It touches
//! no file. Whoever drives the grid persists each batch: the server's
//! socket driver into `wal.bin` through the file driver ([`mod@file`]), the
//! stepped world into a `Vec<u8>` that stands for its disk.
//!
//! # File layout
//!
//! A journal directory holds one file, `wal.bin`, however many
//! campaigns the server hosts: a [`JournalRecord::Header`] frame (the
//! roster — every campaign's name, recipe, share and priority, in
//! order — server config, fault knobs, shard, format) followed by one
//! [`JournalRecord::Applied`] frame per command, in the exact order the
//! grid's one owner applied them. It only grows; the one thing recovery
//! ever cuts off is a torn tail.
//!
//! Every frame is the same kind (the frame-kind byte of its header —
//! the byte a wire frame keeps its protocol version in — is always 2)
//! and every record has exactly one payload encoding: a tag byte and
//! fixed-width little-endian fields written with the wire codec's own
//! primitives ([`crate::protocol::binary`]), decoded strictly. A
//! report's payload is the same 72-byte rows the agent sent, encoded
//! straight from the command that carried them. Commands are the hot
//! path: one per request, framed onto the end of the `Wal`'s batch,
//! whose capacity every commit keeps; the driver writes each committed
//! batch with one `write_all`.
//!
//! `hcmd-journal dump DIR` prints every record as one JSON line,
//! through the same [`open_wal`] recovery uses.
//!
//! # Recovery
//!
//! [`MultiGrid::open`] has one path: a fresh registry, then every
//! recorded command handed to the live call, [`MultiGrid::apply`], and
//! the outcome it decides compared with the recorded one. A difference
//! means the journal and the code disagree, and recovery fails loudly
//! instead of silently forking the campaign. Records are read, decoded
//! and applied one at a time; neither the file nor the decoded wal is
//! ever held as a whole. [`MultiGrid::open_bytes`] runs the same replay
//! over a wal held in memory.
//!
//! The price is a wal that is O(requests), not O(state): a request that
//! left no state behind (a `NoWork` fetch is a 51-byte record) stays in
//! the log for the life of the campaign. On every traffic mix the
//! benchmark runs that is both smaller and faster to replay than a
//! serialised copy of the state would be to write (DESIGN.md §6,
//! "Durability").
//!
//! A report keeps its payload in the log only when the payload decided
//! something: accepted artifacts and quorum candidates are kept in full
//! (replay recomputes their fingerprints), while `BoundsRejected`,
//! `Duplicate`, `SpotMismatch` and `SpotVoid` reports — whose payloads
//! the server discards on arrival — are replayed with an empty payload
//! (an empty result file always fails the §5.2 line-count check, an
//! empty payload's fingerprint never matches an accepted artifact, and
//! the other two never look at theirs, reproducing each verdict
//! exactly).
//!
//! # Consistency model
//!
//! One rule makes the wal the truth: **no frame leaves the server before
//! every record appended ahead of it is on disk** — rollback recovery's
//! output commit (Elnozahy et al., 2002), done as group commit:
//! `Wal::append` only frames a record into the open batch, and the
//! event loop calls [`MultiGrid::commit`] before it writes a byte of any
//! reply, which hands the batch to its driver to persist (one
//! `write_all`, and one `fdatasync` under [`FsyncPolicy::Always`]) and
//! empties it. A `kill -9` or a power cut loses only the open batch,
//! which no peer or volunteer was told of; under [`FsyncPolicy::Never`]
//! a power cut can take committed batches too. Recovery syncs the wal it
//! replayed under `Always`, since a `kill -9` can leave those records in
//! the page cache only.
//!
//! Replay stops at the first torn frame and truncates the wal there, so
//! the recovered state is always a *prefix* of the crashed run — a
//! consistent earlier state. Three kinds of damage are told apart:
//!
//! * **torn tail** — the file ends inside a frame, a payload fails its
//!   header checksum, or the bytes where a frame should start are not
//!   the magic (a filesystem can leave zeros past the last completed
//!   write). This is what a crash mid-`write` leaves; the scan stops
//!   there and the rest is dropped. A wal torn inside its very first
//!   frame is an empty wal: nothing was journaled yet.
//! * **bad record** — a frame whose checksum passes but whose payload
//!   does not decode strictly (unknown tag or verdict, trailing or
//!   missing bytes, a header of another format) or whose frame kind is
//!   one the journal never writes, or a header that names an impossible
//!   length. No crash writes that; the file was written by different
//!   code or damaged in place, and recovery refuses with `InvalidData`
//!   rather than guess.
//! * **legacy file** — what a build from before this format left
//!   behind, refused by name with `InvalidData`, not a byte touched and
//!   no file created, because each would otherwise read as "an empty
//!   wal" and be re-initialised, silently restarting the campaign:
//!   - journal formats 1 and 2 sealed their frames with FNV-1a 64, so
//!     a whole such file looks torn inside its first frame. When the
//!     *first* frame of a file fails its checksum, that one frame is
//!     re-checked with [`protocol::fnv1a64`]; if it passes, the refusal
//!     names "journal format 2 (FNV-1a checksums)". Only the first
//!     frame is probed: an FNV frame cannot follow a frame this build
//!     accepted.
//!   - journal format 3 opened its wal with a kind-1 (JSON) header
//!     frame and kept a compacting `snapshot.bin` beside it that held
//!     most of the campaign. A wal whose first frame is kind 1, or a
//!     directory that contains a `snapshot.bin` at all, is refused
//!     naming "journal format 3 or earlier".
//!   - journal format 4 recorded each campaign's own calls, in a wal
//!     per campaign (`DIR/NAME/wal.bin` on a multi-campaign server). Its
//!     header decodes as far as its format field, and a directory that
//!     holds a `NAME/wal.bin` is refused too, naming "journal format 4".
//!   - journal format 5 is this one with three more fields in the
//!     header's faults (the server's backoff knobs); its header decodes
//!     as far as its format field and is refused naming "journal
//!     format 5".
//!
//! Prefix loss is safe by construction: a lost `Fetch` replica
//! ages out of nothing (it was never outstanding in the recovered
//! state), a lost `Report` is re-requested because its replica is still
//! outstanding and will expire, a lost `Grant` was never sent, so the
//! next grant may reuse its lease id without anyone holding both, and
//! the §5 validation rules (quorum / bounds) judge the re-computed
//! results exactly as they would have the originals. The merged
//! artifact is therefore byte-identical to an uninterrupted run's no
//! matter where the crash landed — the property
//! `tests/journal_crash_points.rs` (every byte offset of a scripted
//! wal) and the CI restart-smoke job pin.

pub mod file;

use crate::faults::ServerFaults;
use crate::protocol::binary::{Reader, Writer};
use crate::protocol::{self, DecodeError, HEADER_BYTES};
use crate::registry::{CampaignDef, Command, Outcome};
use crate::shard::ShardSpec;
use crate::state::{ResultDisposition, Verdict, WorkReply};
use crate::trust::TrustConfig;
use gridsim::sched::{FeederConfig, ReplicaAssignment, ReplicaId, ServerConfig};
use gridsim::SimTime;
use maxdo::DockingOutput;
use serde::Serialize;
use std::borrow::Cow;
use std::io::{self, Read};

pub use file::{open_wal, FsyncPolicy, JournalConfig, WalFile};

/// Wal file name inside the journal directory.
pub const WAL_FILE: &str = "wal.bin";

/// The frame kind of every journal record: a disk format pinned by
/// [`JOURNAL_FORMAT`], not a protocol version.
const FRAME_BINARY: u8 = 2;
/// The frame kind journal formats 1–3 gave their JSON header frame;
/// seen at the front of a wal it names a legacy file (module docs).
const LEGACY_FRAME_KIND: u8 = 1;

/// The journal format this build writes, pinned in every `Header`.
/// Format 1 encoded transitions as JSON; format 2 encodes them in
/// binary; format 3 is format 2 with every frame sealed by
/// [`protocol::checksum64`] instead of FNV-1a 64; format 4 is format 3
/// with a binary header and no `snapshot.bin`; format 5 records what the
/// registry was told, in one wal per server; format 6 is format 5 with
/// the three backoff knobs gone from the header's faults (a volunteer's
/// rests are its own). Formats 1–3 never get as far as a parsed header
/// — [`RecordReader`] recognises their first frame (module docs,
/// "legacy file"); formats 4 and 5 are refused at the header's format
/// field.
pub(crate) const JOURNAL_FORMAT: u32 = 6;

/// One journaled frame: the `Header` that opens the wal, then one per
/// command.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum JournalRecord {
    /// Identity of the journaled server. Recovery refuses to replay a
    /// wal whose roster/config/faults/shard differ from the server's.
    Header {
        /// Every campaign's registration in roster order: name, recipe
        /// (both ends re-derive the catalog from it), share and priority
        /// (another share would re-decide every arbitrated ask).
        roster: Vec<CampaignDef>,
        /// Scheduler configuration.
        config: ServerConfig,
        /// Server-side fault/limit knobs.
        faults: ServerFaults,
        /// Which shard of the campaigns this journal belongs to. Shard
        /// 0's wal refuses to replay into a server configured as shard
        /// 1 — workunit ownership differs, so replay would diverge or
        /// silently fork the campaign.
        shard: ShardSpec,
        /// The journal format of the file: always `JOURNAL_FORMAT` in
        /// a header that decoded (it is the first field, and any other
        /// value is refused before the rest is read).
        format: u32,
    },
    /// One command the registry applied, and what it decided. A report
    /// whose verdict discarded its payload is recorded (and so decoded)
    /// with an empty one (module docs, "Recovery").
    Applied {
        /// Server-clock seconds of the call.
        now_s: f64,
        /// What the registry was told.
        command: Command<'static>,
        /// What it decided; replay must decide the same.
        outcome: Outcome,
    },
}

/// The write-ahead log as bytes, owned by the registry and appended to
/// from inside [`crate::registry::MultiGrid::apply`], so the wal order
/// is exactly the apply order. It holds only what its driver has not
/// persisted yet — the open group-commit batch — and counts the rest,
/// so two logs of the same history are `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Wal {
    /// Whole frames appended since the last [`Self::commit`]. Emptied
    /// by each commit, its capacity kept, so steady-state appends never
    /// allocate.
    batch: Writer,
    /// Command records in the wal, the batch's included: what a restart
    /// would replay.
    records: u64,
    /// Bytes the driver has persisted: the wal's length at the last
    /// commit, header frame included.
    committed: u64,
}

impl Wal {
    /// The log of a wal that holds nothing yet: `header`'s frame is the
    /// open batch, for the driver's first commit to write.
    fn fresh(header: &JournalRecord) -> Self {
        let mut wal = Self::default();
        frame_record(&mut wal.batch, |w| encode_record(header, w));
        wal
    }

    /// Frames one applied command onto the open batch. It is durable
    /// once a [`Self::commit`] has returned. The command is encoded where
    /// it lies: a report's payload is not copied on its way to the batch.
    pub(crate) fn append(&mut self, now_s: f64, command: &Command, outcome: &Outcome) {
        frame_record(&mut self.batch, |w| {
            encode_applied(now_s, command, outcome, w)
        });
        self.records += 1;
    }

    /// Hands the open batch to `persist` — the driver's write, and its
    /// sync — and counts it committed, emptied, once that returns. A
    /// failed persist leaves the batch open.
    pub(crate) fn commit(
        &mut self,
        persist: impl FnOnce(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        persist(&self.batch.0)?;
        self.committed += self.batch.0.len() as u64;
        self.batch.0.clear();
        Ok(())
    }

    /// Bytes appended since the last [`Self::commit`]: what a power cut
    /// could still take.
    pub(crate) fn uncommitted(&self) -> u64 {
        self.batch.0.len() as u64
    }

    /// Command records in the wal — what a restart would replay.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Size of the wal in bytes, header frame and open batch included.
    pub(crate) fn bytes(&self) -> u64 {
        self.committed + self.uncommitted()
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The refusal of a file of another journal format, `found`.
fn other_format(found: &str) -> String {
    format!(
        "{found}, this build reads and writes format {JOURNAL_FORMAT} only; finish or discard \
         that campaign with the build that wrote it"
    )
}

const TAG_FETCH: u8 = 0;
const TAG_REPORT: u8 = 1;
const TAG_SWEEP: u8 = 2;
const TAG_GRANT: u8 = 3;
const TAG_ADOPT: u8 = 4;
const TAG_HEADER: u8 = 5;
const TAG_PEER_COMPLETE: u8 = 6;

/// Verdicts in the order of their byte on disk (the byte is the index).
const VERDICTS: [Verdict; 9] = [
    Verdict::Accepted,
    Verdict::QuorumPending,
    Verdict::QuorumRejected,
    Verdict::BoundsRejected,
    Verdict::Duplicate,
    Verdict::Late,
    Verdict::SpotConfirmed,
    Verdict::SpotMismatch,
    Verdict::SpotVoid,
];

/// Whether a report judged `verdict` keeps its payload in the log: it
/// does exactly when replay needs it to judge the report the same way.
fn keeps_payload(verdict: Verdict) -> bool {
    !matches!(
        verdict,
        Verdict::BoundsRejected | Verdict::Duplicate | Verdict::SpotMismatch | Verdict::SpotVoid
    )
}

/// Encodes one record as a binary payload (no frame header).
fn encode_record(rec: &JournalRecord, w: &mut Writer) {
    match rec {
        JournalRecord::Header {
            roster,
            config,
            faults,
            shard,
            format,
        } => {
            w.u8(TAG_HEADER);
            w.u32(*format);
            w.u32(roster.len() as u32);
            for def in roster {
                w.str(&def.name);
                w.params(&def.params);
                w.f64(def.share);
                w.u32(def.priority);
            }
            w.flag(config.validation_switch_day.is_some());
            if let Some(day) = config.validation_switch_day {
                w.u64(day as u64);
            }
            w.f64(config.deadline_seconds);
            w.flag(config.feeder.is_some());
            if let Some(feeder) = config.feeder {
                w.u64(feeder.cache_size as u64);
                w.u64(feeder.refill_batch as u64);
            }
            w.u64(faults.max_connections as u64);
            let trust = &faults.trust;
            w.flag(trust.enabled);
            w.f64(trust.trusted_threshold);
            w.f64(trust.untrusted_threshold);
            w.u32(trust.min_samples);
            w.f64(trust.spot_check_rate);
            w.u64(trust.spot_seed);
            w.u32(trust.quarantine_after);
            w.f64(trust.quarantine_base_s);
            w.f64(trust.quarantine_max_s);
            w.u16(shard.shard_id);
            w.u16(shard.shards);
        }
        JournalRecord::Applied {
            now_s,
            command,
            outcome,
        } => encode_applied(*now_s, command, outcome, w),
    }
}

/// Encodes one applied command: its tag, time and fields, what it
/// decided, and last — where the codec wants a payload's output — a
/// report's payload when [`keeps_payload`] says so.
fn encode_applied(now_s: f64, command: &Command, outcome: &Outcome, w: &mut Writer) {
    w.u8(match command {
        Command::Fetch { .. } => TAG_FETCH,
        Command::Report { .. } => TAG_REPORT,
        Command::Sweep => TAG_SWEEP,
        Command::Grant { .. } => TAG_GRANT,
        Command::Adopt { .. } => TAG_ADOPT,
        Command::PeerComplete { .. } => TAG_PEER_COMPLETE,
    });
    w.f64(now_s);
    match command {
        Command::Fetch { agent, attached } => {
            w.u64(*agent);
            w.u32(attached.len() as u32);
            attached.iter().for_each(|&a| w.flag(a));
        }
        Command::Report {
            campaign,
            replica,
            workunit,
            ..
        } => {
            w.u16(*campaign);
            w.u64(*replica);
            w.u32(*workunit);
        }
        Command::Sweep => {}
        Command::Grant {
            campaign,
            to_shard,
            max,
        } => {
            w.u16(*campaign);
            w.u16(*to_shard);
            w.u32(*max);
        }
        Command::Adopt {
            campaign,
            lease,
            wus,
        } => {
            w.u16(*campaign);
            w.u64(*lease);
            w.u32s(wus);
        }
        Command::PeerComplete { campaign, shard } => {
            w.u16(*campaign);
            w.u16(*shard);
        }
    }
    match outcome {
        Outcome::Fetched { campaign, reply } => {
            w.u16(*campaign);
            w.flag(matches!(reply, WorkReply::Assigned(_)));
            match reply {
                WorkReply::Assigned(a) => {
                    w.u64(a.replica.0);
                    w.u32(a.workunit);
                    w.f64(a.ref_seconds);
                    w.f64(a.position_ref_seconds);
                }
                WorkReply::Backoff {
                    retry_after_ms,
                    campaign_complete,
                } => {
                    w.u64(*retry_after_ms);
                    w.flag(*campaign_complete);
                }
            }
        }
        Outcome::Judged(d) => {
            let byte = VERDICTS.iter().position(|&v| v == d.verdict);
            w.u8(byte.expect("every verdict is in VERDICTS") as u8);
            w.flag(d.completed_workunit);
        }
        Outcome::Expired(n) | Outcome::Adopted(n) => w.u64(*n),
        Outcome::Granted { lease, wus } => {
            w.u64(*lease);
            w.u32s(wus);
        }
        Outcome::Noted | Outcome::Unchanged => {}
    }
    if let (Command::Report { output, .. }, Outcome::Judged(d)) = (command, outcome) {
        w.flag(keeps_payload(d.verdict));
        if keeps_payload(d.verdict) {
            w.output(output);
        }
    }
}

/// Decodes the fields behind a `TAG_HEADER` byte. The format comes
/// first and is judged first: what follows it is only known to have
/// this layout under [`JOURNAL_FORMAT`].
fn decode_header(r: &mut Reader) -> Result<JournalRecord, String> {
    let format = r.u32()?;
    if format != JOURNAL_FORMAT {
        return Err(other_format(&format!("journal format {format}")));
    }
    Ok(JournalRecord::Header {
        // A name's length, a recipe, a share and a priority at least.
        roster: r.counted(48, |r| {
            Ok(CampaignDef {
                name: r.str()?,
                params: r.params()?,
                share: r.f64()?,
                priority: r.u32()?,
            })
        })?,
        config: ServerConfig {
            validation_switch_day: match r.flag()? {
                true => Some(r.u64()? as usize),
                false => None,
            },
            deadline_seconds: r.f64()?,
            feeder: match r.flag()? {
                true => Some(FeederConfig {
                    cache_size: r.u64()? as usize,
                    refill_batch: r.u64()? as usize,
                }),
                false => None,
            },
        },
        faults: ServerFaults {
            max_connections: r.u64()? as usize,
            trust: TrustConfig {
                enabled: r.flag()?,
                trusted_threshold: r.f64()?,
                untrusted_threshold: r.f64()?,
                min_samples: r.u32()?,
                spot_check_rate: r.f64()?,
                spot_seed: r.u64()?,
                quarantine_after: r.u32()?,
                quarantine_base_s: r.f64()?,
                quarantine_max_s: r.f64()?,
            },
        },
        shard: ShardSpec {
            shard_id: r.u16()?,
            shards: r.u16()?,
        },
        format,
    })
}

/// Decodes one checksum-verified frame, as strictly as the wire
/// decoder: a foreign frame kind, unknown tags and verdicts, non-0/1
/// flags, counts that disagree with the bytes present, truncation and
/// trailing bytes are all errors. The command's tag says which outcome
/// follows it.
fn decode_record(kind: u8, payload: &[u8]) -> Result<JournalRecord, String> {
    if kind != FRAME_BINARY {
        return Err(format!("frame kind {kind} is not a journal record"));
    }
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    if tag == TAG_HEADER {
        let header = decode_header(&mut r)?;
        r.finish()?;
        return Ok(header);
    }
    let now_s = r.f64()?;
    let (command, outcome) = match tag {
        TAG_FETCH => (
            Command::Fetch {
                agent: r.u64()?,
                attached: Cow::Owned(r.counted(1, |r| r.flag())?),
            },
            Outcome::Fetched {
                campaign: r.u16()?,
                reply: match r.flag()? {
                    true => WorkReply::Assigned(ReplicaAssignment {
                        replica: ReplicaId(r.u64()?),
                        workunit: r.u32()?,
                        ref_seconds: r.f64()?,
                        position_ref_seconds: r.f64()?,
                    }),
                    false => WorkReply::Backoff {
                        retry_after_ms: r.u64()?,
                        campaign_complete: r.flag()?,
                    },
                },
            },
        ),
        TAG_REPORT => {
            let (campaign, replica, workunit) = (r.u16()?, r.u64()?, r.u32()?);
            let byte = r.u8()?;
            let verdict = *VERDICTS
                .get(usize::from(byte))
                .ok_or_else(|| format!("unknown verdict byte {byte:#04x}"))?;
            let outcome = Outcome::Judged(ResultDisposition {
                verdict,
                completed_workunit: r.flag()?,
            });
            let output = match r.flag()? {
                true => r.output()?,
                false => DockingOutput {
                    rows: Vec::new(),
                    evaluations: 0,
                },
            };
            let report = Command::Report {
                campaign,
                replica,
                workunit,
                output: Cow::Owned(output),
            };
            (report, outcome)
        }
        TAG_SWEEP => (Command::Sweep, Outcome::Expired(r.u64()?)),
        TAG_GRANT => (
            Command::Grant {
                campaign: r.u16()?,
                to_shard: r.u16()?,
                max: r.u32()?,
            },
            Outcome::Granted {
                lease: r.u64()?,
                wus: r.counted(4, |r| r.u32())?,
            },
        ),
        TAG_ADOPT => (
            Command::Adopt {
                campaign: r.u16()?,
                lease: r.u64()?,
                wus: Cow::Owned(r.counted(4, |r| r.u32())?),
            },
            Outcome::Adopted(r.u64()?),
        ),
        TAG_PEER_COMPLETE => (
            Command::PeerComplete {
                campaign: r.u16()?,
                shard: r.u16()?,
            },
            Outcome::Noted,
        ),
        other => return Err(format!("unknown record tag {other:#04x}")),
    };
    r.finish()?;
    Ok(JournalRecord::Applied {
        now_s,
        command,
        outcome,
    })
}

/// Appends one complete frame to `w`: `encode` writes the payload after
/// reserved header space, then the header is patched in place.
fn frame_record(w: &mut Writer, encode: impl FnOnce(&mut Writer)) {
    let start = w.0.len();
    w.0.resize(start + HEADER_BYTES, 0);
    encode(w);
    protocol::seal_frame(FRAME_BINARY, &mut w.0[start..]);
}

/// The one replay loop, over a wal read from anywhere: its header is
/// checked against the server's own, `header`, and every recorded
/// command is handed to `apply` — the live call, `MultiGrid::apply` —
/// and the wal refused at the first one that does not decide what it
/// decided when it was recorded. A wal of another server is refused
/// naming what differs; one that holds no whole header starts afresh.
/// The log of the valid prefix: the bytes the caller keeps of its wal.
fn replay<R: Read>(
    mut records: RecordReader<R>,
    header: &JournalRecord,
    mut apply: impl FnMut(SimTime, &Command) -> Outcome,
) -> io::Result<Wal> {
    let Some(first) = records.next().transpose()? else {
        return Ok(Wal::fresh(header));
    };
    let what = records.what.clone();
    check_header(&first, header, &what)?;
    let replayed = telemetry::counter("journal.replayed");
    let mut wal = Wal::default();
    for rec in records.by_ref() {
        let JournalRecord::Applied {
            now_s,
            command,
            outcome,
        } = rec?
        else {
            return Err(bad(format!("{what}: a second Header frame in the wal")));
        };
        wal.records += 1;
        let decided = apply(SimTime::new(now_s), &command);
        if decided != outcome {
            return Err(bad(format!(
                "{what}: replay diverged at record {}: the wal says {outcome:?}, this build \
                 decides {decided:?}",
                wal.records
            )));
        }
        replayed.inc();
    }
    wal.committed = records.offset();
    Ok(wal)
}

/// Recovers a wal held in memory the way the file driver recovers
/// `wal.bin` ([`mod@file`]): `disk` is replayed through `apply`, cut back
/// to its last whole record, and given `header`'s frame when none of it
/// was whole.
pub(crate) fn recover_bytes(
    disk: &mut Vec<u8>,
    header: &JournalRecord,
    apply: impl FnMut(SimTime, &Command) -> Outcome,
) -> io::Result<Wal> {
    let mut wal = replay(RecordReader::over(disk), header, apply)?;
    disk.truncate(wal.committed as usize);
    wal.commit(|batch| {
        disk.extend_from_slice(batch);
        Ok(())
    })?;
    Ok(wal)
}

/// Walks the records of one wal in order — the reader both recovery
/// and `hcmd-journal dump` use, over a file ([`open_wal`]) or over bytes
/// ([`Self::over`]). Yields one decoded record per well-formed frame
/// and ends at the end of the wal or at a torn tail; a bad record or a
/// legacy file yields one `InvalidData` error and ends the walk too
/// (module docs, "Consistency model", tell them apart). It streams: the
/// one frame being read is all of the wal it holds.
pub struct RecordReader<R> {
    what: String,
    source: R,
    len: u64,
    off: u64,
    /// The frame being read, reused from one to the next.
    frame: Vec<u8>,
    done: bool,
}

impl<'a> RecordReader<&'a [u8]> {
    /// Scans the wal `bytes` hold.
    pub fn over(bytes: &'a [u8]) -> Self {
        Self::new("the wal".into(), bytes, bytes.len() as u64)
    }
}

impl<R: Read> RecordReader<R> {
    /// Scans the `len` bytes of `source`, named `what` in its errors.
    fn new(what: String, source: R, len: u64) -> Self {
        Self {
            what,
            source,
            len,
            off: 0,
            frame: Vec::new(),
            done: false,
        }
    }

    /// Byte offset just past the last record yielded.
    pub fn offset(&self) -> u64 {
        self.off
    }

    /// Size of the wal, torn tail included.
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Reads and decodes the frame at `off`, taking from the source what
    /// the deframer says it still needs — the header, then the payload
    /// it announces. `Ok(None)` at the end of the wal or a torn tail.
    fn read_frame(&mut self, off: u64) -> Result<Option<JournalRecord>, String> {
        self.frame.clear();
        loop {
            match protocol::deframe(&self.frame) {
                Err(DecodeError::Incomplete { needed }) => {
                    let have = self.frame.len();
                    self.frame.resize(have + needed, 0);
                    match self.source.read_exact(&mut self.frame[have..]) {
                        Ok(()) => {}
                        // The wal ends at a frame boundary, or inside a
                        // frame.
                        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
                        Err(e) => return Err(e.to_string()),
                    }
                }
                Ok((LEGACY_FRAME_KIND, ..)) if off == 0 => {
                    let legacy = "opens with a JSON header: journal format 3 or earlier";
                    return Err(other_format(legacy));
                }
                Ok((kind, payload, consumed)) => {
                    let rec = decode_record(kind, payload)?;
                    self.off += consumed as u64;
                    return Ok(Some(rec));
                }
                Err(DecodeError::Checksum { expected, .. })
                    if off == 0 && sealed_with_fnv(&self.frame, expected) =>
                {
                    let legacy =
                        "sealed by an older build: journal format 2 (FNV-1a checksums) or earlier";
                    return Err(other_format(legacy));
                }
                Err(DecodeError::Checksum { .. } | DecodeError::BadMagic(_)) => return Ok(None),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl<R: Read> Iterator for RecordReader<R> {
    type Item = io::Result<JournalRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let off = self.off;
        let step = self.read_frame(off);
        self.done = !matches!(step, Ok(Some(_)));
        let named = |e| bad(format!("{}: frame at {off}: {e}", self.what));
        step.map_err(named).transpose()
    }
}

/// Whether the frame at the front of `file` — already framed by
/// [`protocol::deframe`], which found its payload does not hash to the
/// header's `expected` — is sealed with the FNV-1a 64 of journal formats
/// 1 and 2 (module docs, "legacy file").
fn sealed_with_fnv(file: &[u8], expected: u64) -> bool {
    let len = u32::from_le_bytes(file[5..9].try_into().expect("4 length bytes")) as usize;
    protocol::fnv1a64(&file[HEADER_BYTES..HEADER_BYTES + len]) == expected
}

/// Checks the wal's first record, `found`, against the server's own
/// header, naming what differs.
fn check_header(found: &JournalRecord, ours: &JournalRecord, what: &str) -> io::Result<()> {
    let (
        JournalRecord::Header {
            roster: r,
            config: c,
            faults: f,
            shard: s,
            ..
        },
        JournalRecord::Header {
            roster,
            config,
            faults,
            shard,
            ..
        },
    ) = (found, ours)
    else {
        return Err(bad(format!(
            "{what}: wal does not start with a Header frame"
        )));
    };
    if let Some(i) = (0..r.len().max(roster.len())).find(|&i| r.get(i) != roster.get(i)) {
        return Err(bad(format!(
            "{what}: wal belongs to a different campaign roster: its campaign {i} is {:?}, this \
             server's is {:?}; refusing to replay",
            r.get(i),
            roster.get(i)
        )));
    }
    if c != config || f != faults {
        return Err(bad(format!(
            "{what}: wal belongs to a server of another scheduler config or fault/trust policy; \
             refusing to replay"
        )));
    }
    if s != shard {
        return Err(bad(format!(
            "{what}: wal belongs to shard {}/{}, this server is shard {}/{}; refusing to replay",
            s.shard_id, s.shards, shard.shard_id, shard.shards
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CampaignParams;
    use crate::registry::MultiGrid;
    use maxdo::{DockingRow, EulerZyz, Vec3};
    use proptest::prelude::*;
    use std::fs;
    use std::path::PathBuf;

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::Always);
        // The batched policy is gone, and says what replaced it.
        let batched = ["every", "8"].join("=");
        let err = FsyncPolicy::parse(&batched).unwrap_err();
        assert!(err.contains(&format!("'{batched}' was removed")), "{err}");
        assert!(err.contains("once per event-loop batch, before any reply leaves"));
        let err = FsyncPolicy::parse("sometimes").unwrap_err();
        assert_eq!(err, "bad fsync policy 'sometimes' (always|never)");
    }

    /// A record as the [`Wal`] frames it.
    fn frame(rec: &JournalRecord) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        frame_record(&mut w, |w| encode_record(rec, w));
        w.0
    }

    fn payload_of(rec: &JournalRecord) -> Vec<u8> {
        frame(rec).split_off(HEADER_BYTES)
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hcmd-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sweep(now_s: f64, expired: u64) -> JournalRecord {
        JournalRecord::Applied {
            now_s,
            command: Command::Sweep,
            outcome: Outcome::Expired(expired),
        }
    }

    /// One record of each kind from sampled primitives; floats come
    /// from raw bits, so NaNs, infinities and `-0.0` all occur.
    fn build_record(kind: usize, a: u64, b: u32, bits: u64, rows: &[(u32, u64)]) -> JournalRecord {
        let now_s = f64::from_bits(bits);
        let output = DockingOutput {
            rows: rows
                .iter()
                .map(|&(i, bits)| DockingRow {
                    isep: i,
                    irot: i.rotate_left(7),
                    position: Vec3::new(f64::from_bits(bits), f64::from_bits(!bits), 0.0),
                    orientation: EulerZyz {
                        alpha: f64::from_bits(bits.rotate_left(17)),
                        beta: -0.0,
                        gamma: f64::NAN,
                    },
                    elj: f64::from_bits(bits ^ a),
                    eelec: f64::from_bits(bits.wrapping_mul(31)),
                })
                .collect(),
            evaluations: a,
        };
        let wus: Vec<u32> = rows.iter().map(|&(i, _)| i).collect();
        let (campaign, shard) = (b as u16, (b >> 16) as u16);
        let (command, outcome) = match kind {
            0 => (
                Command::Fetch {
                    agent: a,
                    attached: Cow::Owned(wus.iter().map(|w| w % 3 == 0).collect()),
                },
                Outcome::Fetched {
                    campaign,
                    reply: match b % 2 {
                        0 => WorkReply::Assigned(ReplicaAssignment {
                            replica: ReplicaId(a ^ 1),
                            workunit: b,
                            ref_seconds: now_s,
                            position_ref_seconds: f64::from_bits(!bits),
                        }),
                        _ => WorkReply::Backoff {
                            retry_after_ms: a,
                            campaign_complete: b.is_multiple_of(3),
                        },
                    },
                },
            ),
            1 => {
                let verdict = VERDICTS[b as usize % VERDICTS.len()];
                let output = match keeps_payload(verdict) {
                    true => output,
                    false => DockingOutput {
                        rows: Vec::new(),
                        evaluations: 0,
                    },
                };
                let report = Command::Report {
                    campaign,
                    replica: a,
                    workunit: b,
                    output: Cow::Owned(output),
                };
                let d = ResultDisposition {
                    verdict,
                    completed_workunit: a.is_multiple_of(2),
                };
                (report, Outcome::Judged(d))
            }
            2 => (Command::Sweep, Outcome::Expired(a)),
            3 => (
                Command::Grant {
                    campaign,
                    to_shard: shard,
                    max: b,
                },
                Outcome::Granted { lease: a, wus },
            ),
            4 => (
                Command::Adopt {
                    campaign,
                    lease: a,
                    wus: Cow::Owned(wus),
                },
                Outcome::Adopted(a),
            ),
            5 => (Command::PeerComplete { campaign, shard }, Outcome::Noted),
            _ => {
                let def = |name: &str, share| CampaignDef {
                    name: name.into(),
                    params: CampaignParams {
                        proteins: b,
                        lib_seed: a,
                        h_seconds: now_s,
                        ..CampaignParams::tiny()
                    },
                    share,
                    priority: b,
                };
                return JournalRecord::Header {
                    roster: vec![def("alpha", now_s), def("beta-2", f64::from_bits(!bits))],
                    config: ServerConfig {
                        validation_switch_day: b.is_multiple_of(2).then_some(a as usize),
                        deadline_seconds: f64::from_bits(!bits),
                        feeder: (!a.is_multiple_of(3)).then_some(FeederConfig {
                            cache_size: b as usize,
                            refill_batch: rows.len(),
                        }),
                    },
                    faults: ServerFaults {
                        max_connections: a as usize,
                        trust: TrustConfig {
                            enabled: b.is_multiple_of(5),
                            spot_check_rate: now_s,
                            spot_seed: a ^ bits,
                            quarantine_after: b,
                            ..TrustConfig::on()
                        },
                    },
                    shard: ShardSpec {
                        shard_id: campaign,
                        shards: shard,
                    },
                    format: JOURNAL_FORMAT,
                };
            }
        };
        JournalRecord::Applied {
            now_s,
            command,
            outcome,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every record variant round-trips bit-exactly through the
        /// binary record codec (compared by re-encoding, so NaN fields
        /// count), and the decoder is as strict as the wire's: every
        /// truncation and any trailing byte is an error.
        #[test]
        fn records_round_trip_and_reject_damaged_payloads(
            kind in 0usize..7,
            a in 0u64..u64::MAX,
            b in 0u32..u32::MAX,
            bits in 0u64..u64::MAX,
            rows in collection::vec((0u32..u32::MAX, 0u64..u64::MAX), 0..4),
        ) {
            let rec = build_record(kind, a, b, bits, &rows);
            let bytes = frame(&rec);
            let (version, payload, consumed) = protocol::deframe(&bytes).expect("well-formed frame");
            prop_assert_eq!(consumed, bytes.len());
            let back = decode_record(version, payload).expect("decodes");
            prop_assert_eq!(payload_of(&back), payload.to_vec());
            prop_assert_eq!(format!("{back:?}"), format!("{rec:?}"));
            for cut in 0..payload.len() {
                prop_assert!(decode_record(version, &payload[..cut]).is_err(), "truncated at {}", cut);
            }
            let mut long = payload.to_vec();
            long.push(0);
            prop_assert!(decode_record(version, &long).is_err(), "trailing byte accepted");
        }
    }

    #[test]
    fn unknown_tags_verdicts_and_flags_are_rejected() {
        let rec = build_record(1, 2, 4, 1f64.to_bits(), &[]);
        let good = payload_of(&rec);
        assert_eq!(decode_record(FRAME_BINARY, &good), Ok(rec));
        // tag, verdict byte, has-payload flag
        for (at, byte) in [(0, 7), (23, VERDICTS.len() as u8), (25, 2)] {
            let mut bad = good.clone();
            bad[at] = byte;
            assert!(
                decode_record(FRAME_BINARY, &bad).is_err(),
                "byte {at} = {byte}"
            );
        }
    }

    /// One frame kind, and a header of one format: a frame stamped with
    /// the legacy JSON kind or with a wire frame's version byte is not a
    /// journal record whatever it holds, and a header naming another
    /// format is refused at its first field.
    #[test]
    fn each_record_kind_has_exactly_one_encoding() {
        let sweep = payload_of(&sweep(1.0, 2));
        assert!(decode_record(FRAME_BINARY, &sweep).is_ok());
        assert!(decode_record(LEGACY_FRAME_KIND, &sweep).is_err());
        assert!(decode_record(protocol::PROTOCOL_VERSION, &sweep).is_err());

        let mut header = payload_of(&build_record(6, 1, 2, 3, &[]));
        assert!(decode_record(FRAME_BINARY, &header).is_ok());
        header[1..5].copy_from_slice(&(JOURNAL_FORMAT + 1).to_le_bytes());
        let err = decode_record(FRAME_BINARY, &header).unwrap_err();
        let named = format!("journal format {}", JOURNAL_FORMAT + 1);
        assert!(err.contains(&named), "{err}");
    }

    #[test]
    fn torn_tail_stops_the_scan_at_the_last_good_frame() {
        let a = frame(&sweep(1.0, 2));
        let b = frame(&sweep(2.0, 1));
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b[..b.len() / 2]); // torn mid-frame
        let mut reader = RecordReader::over(&bytes);
        assert_eq!(reader.by_ref().count(), 1);
        assert_eq!(reader.offset(), a.len() as u64);
        assert_eq!(reader.file_len(), bytes.len() as u64);
    }

    /// A frame as journal formats 1 and 2 sealed it: the same header
    /// layout, FNV-1a 64 in the checksum field.
    fn fnv_sealed_frame(version: u8, payload: &[u8]) -> Vec<u8> {
        let mut frame = protocol::MAGIC.to_vec();
        frame.push(version);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&protocol::fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// What an older build left behind must never read as "an empty
    /// wal" — that is re-initialised, silently restarting the campaign.
    /// A format-2 file fails its very first checksum, which is also what
    /// a wal torn inside its header looks like; a format-3 wal whose
    /// compaction just ran is a lone JSON header with the whole campaign
    /// in `snapshot.bin` beside it; a format-4 wal decodes as far as its
    /// format field, and a multi-campaign server kept one per campaign
    /// in a subdirectory; a format-5 wal too decodes as far as its
    /// format field. Each is refused by name, by recovery and by
    /// the `hcmd-journal dump` reader alike, with nothing on disk
    /// touched or created.
    #[test]
    fn a_format_2_journal_is_refused_not_reinitialised() {
        let (config, faults) = (ServerConfig::default(), ServerFaults::default());
        // The header text formats 1–3 wrote (1 lacked the last field).
        let header = br#"{"Header":{"epoch":0,"params":{},"config":{},"faults":{},"format":3}}"#;
        let record = payload_of(&sweep(0.0, 1));
        let mut fnv_sealed = fnv_sealed_frame(LEGACY_FRAME_KIND, header);
        fnv_sealed.extend_from_slice(&fnv_sealed_frame(FRAME_BINARY, &record));
        let mut format_3 = protocol::frame_payload_versioned(LEGACY_FRAME_KIND, header).to_vec();
        format_3.extend_from_slice(&frame(&sweep(0.0, 1)));
        let format_4 = include_bytes!("../../../tests/data/wal_format4.bin").to_vec();
        let format_5 = include_bytes!("../../../tests/data/wal_format5.bin").to_vec();

        for (tag, file, old, named) in [
            (
                "fnv",
                WAL_FILE,
                &fnv_sealed,
                "journal format 2 (FNV-1a checksums)",
            ),
            ("json", WAL_FILE, &format_3, "journal format 3 or earlier"),
            (
                "snapshot",
                "snapshot.bin",
                &format_3,
                "journal format 3 or earlier",
            ),
            ("format4", WAL_FILE, &format_4, "journal format 4"),
            ("nested", "alpha/wal.bin", &format_4, "journal format 4"),
            ("format5", WAL_FILE, &format_5, "journal format 5"),
        ] {
            let dir = scratch_dir(&format!("legacy-{tag}"));
            let path = dir.join(file);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, old).unwrap();
            let roster = vec![CampaignDef::default_solo(CampaignParams::tiny())];
            let journal = JournalConfig::new(&dir);
            let recovery =
                MultiGrid::open(roster, config, faults, ShardSpec::solo(), Some(&journal))
                    .err()
                    .expect("a legacy journal must be refused");
            let dump = open_wal(&dir)
                .and_then(|records| records.collect::<io::Result<Vec<_>>>())
                .expect_err("a legacy journal must not dump");
            for err in [recovery, dump] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tag}: {err}");
                let msg = err.to_string();
                assert!(msg.contains(&path.display().to_string()), "{msg}");
                assert!(msg.contains(named), "{msg}");
            }
            assert_eq!(&fs::read(&path).unwrap(), old, "{file} left untouched");
            let others = fs::read_dir(&dir).unwrap().count();
            assert_eq!(others, 1, "nothing was created next to the refused {file}");
            fs::remove_dir_all(&dir).unwrap();
        }

        // Damage that is not a legacy seal is still what it always was:
        // a wal torn inside its first frame is an empty wal.
        let dir = scratch_dir("legacy-torn");
        let mut torn = frame(&build_record(6, 1, 2, 3, &[]));
        let last = torn.len() - 1;
        torn[last] ^= 0x01;
        fs::write(dir.join(WAL_FILE), &torn).unwrap();
        let mut reader = open_wal(&dir).unwrap();
        assert!(reader.next().is_none());
        assert_eq!(reader.offset(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
