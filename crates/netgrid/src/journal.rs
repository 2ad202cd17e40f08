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
//! path: one per request, encoded into a buffer the [`Journal`] reuses,
//! written with one `write_all`.
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
//! ever held as a whole.
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
//! [`Journal::append`] never syncs, and the event loop calls
//! [`Journal::commit`] (one `fdatasync` if anything is uncommitted)
//! before it writes a byte of any reply. A `kill -9` loses nothing; a
//! power cut loses only records no peer or volunteer was told of. The
//! records a restart replays count as uncommitted, since a `kill -9` can
//! leave them in the page cache only. Under [`FsyncPolicy::Never`] a
//! commit syncs nothing.
//!
//! Replay stops at the first torn frame and truncates the wal there, so
//! the recovered state is always a *prefix* of the crashed run — a
//! consistent earlier state. Three kinds of damage are told apart:
//!
//! * **torn tail** — the file ends inside a frame, a payload fails its
//!   header checksum, or the bytes where a frame should start are not
//!   the magic (a filesystem can leave zeros past the last completed
//!   write). This is what a crash between `write` and `fsync` leaves; the
//!   scan stops there and the rest is dropped. A wal torn inside its
//!   very first frame is an empty wal: nothing was journaled yet.
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
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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
/// registry was told, in one wal per server. Formats 1–3 never get as
/// far as a parsed header — [`RecordReader`] recognises their first
/// frame (module docs, "legacy file").
pub(crate) const JOURNAL_FORMAT: u32 = 5;

/// Whether a commit waits for the disk. Either way nothing is synced on
/// append: the event loop calls [`Journal::commit`] before any frame
/// leaves it (module docs, "Consistency model").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// A commit is one `fdatasync` when records were appended since the
    /// last one: a power cut loses nothing any peer or volunteer was
    /// told.
    #[default]
    Always,
    /// A commit syncs nothing; the OS flushes when it pleases. For
    /// benchmarks, tmpfs and fast tests: still torn-tail safe, and a
    /// `kill -9` still loses nothing, but a power cut can.
    Never,
}

impl FsyncPolicy {
    /// Parses `always` | `never`, as accepted by `hcmd-server --fsync`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(Self::Always),
            "never" => Ok(Self::Never),
            batched if batched.starts_with("every") => Err(format!(
                "fsync policy '{batched}' was removed: 'always' now syncs once per event-loop \
                 batch, before any reply leaves (always|never)"
            )),
            other => Err(format!("bad fsync policy '{other}' (always|never)")),
        }
    }
}

/// Journal location and commit policy.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding `wal.bin` (created if absent).
    pub dir: PathBuf,
    /// Whether a commit syncs.
    pub fsync: FsyncPolicy,
}

impl JournalConfig {
    /// The default commit policy for a journal rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
        }
    }
}

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
        /// The journal format of the file: always [`JOURNAL_FORMAT`] in
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

/// The journal's registry counters: only the counts no field keeps.
/// Records and bytes appended are `wal_records`/`wal_bytes`, which
/// `/metrics` renders from the journal itself.
struct Tele {
    fsyncs: &'static telemetry::Counter,
    replayed: &'static telemetry::Counter,
}

impl Tele {
    fn new() -> Self {
        Self {
            fsyncs: telemetry::counter("journal.fsyncs"),
            replayed: telemetry::counter("journal.replayed"),
        }
    }
}

/// An open write-ahead journal. Owned by the registry and appended to
/// from inside [`crate::registry::MultiGrid::apply`], so the wal order is
/// exactly the apply order.
pub struct Journal {
    wal: File,
    fsync: FsyncPolicy,
    /// Records appended since the last [`Self::commit`].
    uncommitted: u64,
    /// Command records in the wal: what a restart would replay.
    wal_records: u64,
    /// Bytes in the wal, header frame included.
    wal_bytes: u64,
    /// `wal_bytes` at the last [`Self::commit`] (at open, the whole
    /// recovered file): what a power cut is allowed to leave.
    committed_bytes: u64,
    /// The frame being appended, reused so steady-state appends never
    /// allocate.
    scratch: Writer,
    tele: Tele,
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
            w.u64(faults.backoff_base_ms);
            w.u64(faults.backoff_max_ms);
            w.u64(faults.backoff_jitter_ms);
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

/// Overwrites `w` with one complete frame: `encode` writes the payload
/// after reserved header space, then the header is patched in place.
fn frame_record(w: &mut Writer, encode: impl FnOnce(&mut Writer)) {
    w.0.clear();
    w.0.resize(HEADER_BYTES, 0);
    encode(w);
    protocol::seal_frame(FRAME_BINARY, &mut w.0);
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
            backoff_base_ms: r.u64()?,
            backoff_max_ms: r.u64()?,
            backoff_jitter_ms: r.u64()?,
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

impl Journal {
    /// Opens (or creates) the command log under `cfg.dir` for the server
    /// `header` names, after handing every command recorded there to
    /// `apply` — the live call, `MultiGrid::apply` — and refusing the
    /// wal at the first one that does not decide what it decided when
    /// it was recorded. A wal of another server is refused naming what
    /// differs; a torn tail is cut off; a wal that is missing, or torn
    /// inside its header frame, starts afresh.
    pub(crate) fn open(
        cfg: &JournalConfig,
        header: &JournalRecord,
        mut apply: impl FnMut(SimTime, &Command) -> Outcome,
    ) -> io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        let what = cfg.dir.display();
        let tele = Tele::new();
        let (mut wal_records, mut wal_bytes) = (0u64, 0u64);
        match open_wal(&cfg.dir) {
            Ok(mut records) => {
                if let Some(first) = records.next().transpose()? {
                    check_header(&first, header, &cfg.dir)?;
                    for rec in records.by_ref() {
                        let JournalRecord::Applied {
                            now_s,
                            command,
                            outcome,
                        } = rec?
                        else {
                            return Err(bad(format!("{what}: a second Header frame in the wal")));
                        };
                        wal_records += 1;
                        let decided = apply(SimTime::new(now_s), &command);
                        if decided != outcome {
                            return Err(bad(format!(
                                "{what}: replay diverged at record {wal_records}: the wal says \
                                 {outcome:?}, this build decides {decided:?}"
                            )));
                        }
                        tele.replayed.inc();
                    }
                    wal_bytes = records.offset();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        // Open the wal for appending, cut back to the last good frame
        // (drops any torn tail).
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false) // the valid prefix is set_len() below, not dropped here
            .open(cfg.dir.join(WAL_FILE))?;
        let mut scratch = Writer(Vec::new());
        wal.set_len(wal_bytes)?;
        wal.seek(SeekFrom::Start(wal_bytes))?;
        if wal_bytes == 0 {
            frame_record(&mut scratch, |w| encode_record(header, w));
            wal.write_all(&scratch.0)?;
            wal.sync_data()?;
            wal_bytes = scratch.0.len() as u64;
        }
        Ok(Self {
            wal,
            fsync: cfg.fsync,
            // A `kill -9` can leave the replayed records in the page cache
            // only: the restarted server's first frame waits for them.
            uncommitted: wal_records,
            wal_records,
            wal_bytes,
            committed_bytes: wal_bytes,
            scratch,
            tele,
        })
    }

    /// Appends one applied command. Nothing is synced here: the record
    /// is durable once [`Self::commit`] returns. The command is encoded
    /// where it lies: a report's payload is not copied on its way to
    /// disk.
    pub fn append(&mut self, now_s: f64, command: &Command, outcome: &Outcome) -> io::Result<()> {
        frame_record(&mut self.scratch, |w| {
            encode_applied(now_s, command, outcome, w)
        });
        self.wal.write_all(&self.scratch.0)?;
        self.wal_records += 1;
        self.wal_bytes += self.scratch.0.len() as u64;
        self.uncommitted += 1;
        Ok(())
    }

    /// Makes every record appended so far durable: one `fdatasync` when
    /// any is uncommitted, none otherwise or under
    /// [`FsyncPolicy::Never`]. The event loop calls this before it writes
    /// a byte of any frame, so one poll batch costs at most one sync.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.uncommitted == 0 {
            return Ok(());
        }
        if self.fsync == FsyncPolicy::Always {
            self.wal.sync_data()?;
            self.tele.fsyncs.inc();
        }
        self.uncommitted = 0;
        self.committed_bytes = self.wal_bytes;
        Ok(())
    }

    /// Records appended since the last [`Self::commit`]: what a power cut
    /// could still take.
    pub fn uncommitted(&self) -> u64 {
        self.uncommitted
    }

    /// Command records in the wal — what a restart would replay.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Size of the wal in bytes, header frame included.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Size of the wal at the last [`Self::commit`], under either fsync
    /// policy: the prefix a power cut must leave, since a frame may
    /// have told someone of any record in it.
    pub fn committed_bytes(&self) -> u64 {
        self.committed_bytes
    }
}

/// Walks the records of one wal in order — the reader both recovery
/// and `hcmd-journal dump` use. Yields one decoded record per
/// well-formed frame and ends at the end of the file or at a torn tail;
/// a bad record or a legacy file yields one `InvalidData` error and
/// ends the walk too (module docs, "Consistency model", tell them
/// apart). It streams: the one frame being read is all of the file it
/// holds.
pub struct RecordReader {
    what: String,
    file: BufReader<File>,
    len: u64,
    off: u64,
    /// The frame being read, reused from one to the next.
    frame: Vec<u8>,
    done: bool,
}

/// Opens the wal of journal directory `dir` for scanning, after
/// refusing a directory that holds a journal format 3 `snapshot.bin` or
/// a journal format 4 per-campaign wal (module docs, "legacy file").
/// `NotFound` when there is no wal.
pub fn open_wal(dir: &Path) -> io::Result<RecordReader> {
    let snapshot = dir.join("snapshot.bin");
    if snapshot.exists() {
        return Err(bad(format!(
            "{}: {}",
            snapshot.display(),
            other_format("left by an older build: journal format 3 or earlier")
        )));
    }
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    if let Some(nested) = entries
        .map(|e| e.path().join(WAL_FILE))
        .find(|p| p.exists())
    {
        return Err(bad(format!(
            "{}: {}",
            nested.display(),
            other_format("a wal per campaign: journal format 4")
        )));
    }
    RecordReader::open(&dir.join(WAL_FILE))
}

impl RecordReader {
    /// Opens `path` for scanning.
    pub fn open(path: &Path) -> io::Result<Self> {
        let what = path.display().to_string();
        let named = |e: io::Error| io::Error::new(e.kind(), format!("{what}: {e}"));
        let file = File::open(path).map_err(named)?;
        let len = file.metadata().map_err(named)?.len();
        Ok(Self {
            file: BufReader::new(file),
            len,
            what,
            off: 0,
            frame: Vec::new(),
            done: false,
        })
    }

    /// Byte offset just past the last record yielded.
    pub fn offset(&self) -> u64 {
        self.off
    }

    /// Size of the file, torn tail included.
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Reads and decodes the frame at `off`, taking from the file what
    /// the deframer says it still needs — the header, then the payload
    /// it announces. `Ok(None)` at the end of the file or a torn tail.
    fn read_frame(&mut self, off: u64) -> Result<Option<JournalRecord>, String> {
        self.frame.clear();
        loop {
            match protocol::deframe(&self.frame) {
                Err(DecodeError::Incomplete { needed }) => {
                    let have = self.frame.len();
                    self.frame.resize(have + needed, 0);
                    match self.file.read_exact(&mut self.frame[have..]) {
                        Ok(()) => {}
                        // The file ends at a frame boundary, or inside a
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

impl Iterator for RecordReader {
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
fn check_header(found: &JournalRecord, ours: &JournalRecord, dir: &Path) -> io::Result<()> {
    let what = dir.display();
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

    /// A record as the [`Journal`] frames it.
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
                        backoff_jitter_ms: bits,
                        trust: TrustConfig {
                            enabled: b.is_multiple_of(5),
                            spot_check_rate: now_s,
                            spot_seed: a ^ bits,
                            quarantine_after: b,
                            ..TrustConfig::on()
                        },
                        ..ServerFaults::default()
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
        let dir = scratch_dir("torn");
        let path = dir.join(WAL_FILE);
        let a = frame(&sweep(1.0, 2));
        let b = frame(&sweep(2.0, 1));
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b[..b.len() / 2]); // torn mid-frame
        fs::write(&path, &bytes).unwrap();
        let mut reader = RecordReader::open(&path).unwrap();
        assert_eq!(reader.by_ref().count(), 1);
        assert_eq!(reader.offset(), a.len() as u64);
        assert_eq!(reader.file_len(), bytes.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
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
    /// in a subdirectory. Each is refused by name, by recovery and by
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
