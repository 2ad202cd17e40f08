//! Write-ahead journal: crash-safe server state.
//!
//! The paper's campaign ran for 26 weeks; a server whose scheduling
//! state lives only in RAM cannot survive such a run. This module makes
//! [`GridState`] durable the way BOINC's database does, but with the
//! repo's own machinery: every scheduler transition — replica issue,
//! result report (with verdict), deadline expiry, lease — is appended
//! to a per-campaign write-ahead log as a length-prefixed, checksummed
//! frame (the exact wire framing from [`crate::protocol`], checksum
//! included: [`protocol::checksum64`]). The log *is* the state: nothing
//! else is ever written, and nothing in it is ever rewritten.
//!
//! # File layout
//!
//! A journal directory holds one file, `wal.bin`: a
//! [`JournalRecord::Header`] frame (campaign recipe, server config,
//! fault knobs, shard, format) followed by one frame per transition, in
//! the exact order the grid's one owner applied them. It only grows; the
//! one thing recovery ever cuts off is a torn tail.
//!
//! Every frame is the same kind (the frame-kind byte of its header —
//! the byte a wire frame keeps its protocol version in — is always 2)
//! and every record has exactly one payload encoding: a tag byte and
//! fixed-width little-endian fields written with the wire codec's own
//! primitives ([`crate::protocol::binary`]), decoded strictly. A
//! `Report`'s payload is the same 72-byte rows the agent sent.
//! Transitions are the hot path: one per request, encoded into a buffer
//! the [`Journal`] reuses, written with one `write_all`.
//!
//! `hcmd-journal dump DIR` prints every record as one JSON line,
//! through the same [`open_wal`] recovery uses.
//!
//! # Recovery
//!
//! [`open_journaled`] has one path: a fresh [`GridState::new`], then
//! every wal record replayed **through the live transition entry
//! points** ([`GridState::fetch`] / [`GridState::report`] /
//! [`GridState::sweep`] and the lease pair), asserting at each step
//! that the state makes the *same decision it made live* (same replica
//! issued, same verdict, same expiry count). A divergence means the
//! journal and the code disagree and recovery fails loudly instead of
//! silently forking the campaign. Records are deframed, decoded and
//! applied one at a time; the decoded wal is never held as a whole.
//!
//! The price is a wal that is O(requests), not O(state): a request that
//! left no state behind (a `NoWork` fetch is a 35-byte record) stays in
//! the log for the life of the campaign. On every traffic mix the
//! benchmark runs that is both smaller and faster to replay than a
//! serialised copy of the state would be to write (DESIGN.md §6,
//! "Durability").
//!
//! Replayed reports need their payloads only when the payload decided
//! something: accepted artifacts and quorum candidates are journaled
//! in full (replay recomputes their fingerprints through `report`),
//! while `BoundsRejected`, `Duplicate`, `SpotMismatch` and `SpotVoid`
//! reports — whose payloads the server discards on arrival — are
//! replayed with a synthesized empty payload (an empty result file
//! always fails the §5.2 line-count check, and an empty payload's
//! fingerprint never matches an accepted artifact, reproducing each
//! rejection exactly).
//!
//! # Consistency model
//!
//! A `kill -9` loses at most the un-fsynced suffix of the wal (none
//! under [`FsyncPolicy::Always`]). Replay stops at the first torn frame
//! and truncates the wal there, so the recovered state is always a
//! *prefix* of the crashed run — a consistent earlier state. Two kinds
//! of damage are told apart:
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
//!
//! Prefix loss is safe by construction: a lost `Fetch` replica
//! ages out of nothing (it was never outstanding in the recovered
//! state), a lost `Report` is re-requested because its replica is still
//! outstanding and will expire, and the §5 validation rules (quorum /
//! bounds) judge the re-computed results exactly as they would have the
//! originals. The merged artifact is therefore byte-identical to an
//! uninterrupted run's no matter where the crash landed — the property
//! `tests/journal_crash_points.rs` (every byte offset of a scripted
//! wal) and the CI restart-smoke job pin.

use crate::campaign::NetCampaign;
use crate::faults::ServerFaults;
use crate::protocol::binary::{Reader, Writer};
use crate::protocol::{self, CampaignParams, DecodeError, HEADER_BYTES};
use crate::shard::ShardSpec;
use crate::state::{GridState, Verdict, WorkReply};
use crate::trust::TrustConfig;
use gridsim::server::{FeederConfig, ReplicaId, ServerConfig};
use gridsim::SimTime;
use maxdo::DockingOutput;
use serde::Serialize;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
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
/// with a binary header and no `snapshot.bin`. Formats 1–3 never get as
/// far as a parsed header — [`RecordReader`] recognises their first
/// frame (module docs, "legacy file").
const JOURNAL_FORMAT: u32 = 4;

/// When appended frames are flushed to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: a crash loses nothing.
    Always,
    /// `fdatasync` every N appends: a crash loses at most the last N
    /// transitions (replay recovers a consistent earlier state).
    EveryN(u64),
    /// Never fsync explicitly; the OS flushes when it pleases. Fastest,
    /// still torn-tail safe, bounded only by the page cache.
    Never,
}

impl FsyncPolicy {
    /// Parses `always` | `never` | `every=N`, as accepted by
    /// `hcmd-server --fsync`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(Self::Always),
            "never" => Ok(Self::Never),
            other => match other.strip_prefix("every=").map(str::parse::<u64>) {
                Some(Ok(n)) if n > 0 => Ok(Self::EveryN(n)),
                _ => Err(format!("bad fsync policy '{other}' (always|never|every=N)")),
            },
        }
    }
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        // Batched durability: a crash costs at most 64 transitions of
        // replay-safe work, and appends stay off the fsync critical
        // path in the common case.
        FsyncPolicy::EveryN(64)
    }
}

/// Journal location and flush policy.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding `wal.bin` (created if absent).
    pub dir: PathBuf,
    /// Flush policy for wal appends.
    pub fsync: FsyncPolicy,
}

impl JournalConfig {
    /// The default flush policy for a journal rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
        }
    }
}

/// One journaled frame: the `Header` that opens the wal, then its
/// transition stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum JournalRecord {
    /// Identity of the journaled campaign. Recovery refuses to replay a
    /// journal whose recipe/config/faults differ from the server's.
    Header {
        /// The campaign recipe (both ends re-derive the catalog from it).
        params: CampaignParams,
        /// Scheduler configuration.
        config: ServerConfig,
        /// Server-side fault/limit knobs.
        faults: ServerFaults,
        /// Which shard of the campaign this journal belongs to. Shard
        /// 0's WAL refuses to replay into a server configured as shard
        /// 1 — workunit ownership differs, so replay would diverge or
        /// silently fork the campaign.
        shard: ShardSpec,
        /// The journal format of the file: always [`JOURNAL_FORMAT`] in
        /// a header that decoded (it is the first field, and any other
        /// value is refused before the rest is read).
        format: u32,
    },
    /// One `GridState::fetch` call and its decision.
    Fetch {
        /// Server-clock seconds of the call.
        now_s: f64,
        /// Requesting agent.
        agent: u64,
        /// `Some((replica, workunit))` if work was issued, `None` for a
        /// backoff (journaled too: backoff counters are state).
        assigned: Option<(u64, u32)>,
    },
    /// One `GridState::report` call and its verdict. `output` is kept
    /// exactly when the payload decided the verdict (candidate or
    /// accepted artifact); rejected/duplicate payloads are dropped on
    /// arrival live, so they are not persisted either.
    Report {
        /// Server-clock seconds of the call.
        now_s: f64,
        /// Reporting replica.
        replica: u64,
        /// Its workunit.
        workunit: u32,
        /// The live verdict (replay must reproduce it).
        verdict: Verdict,
        /// The payload, for verdicts replay needs it to reproduce.
        output: Option<DockingOutput>,
    },
    /// One `GridState::sweep` call that expired at least one replica
    /// (no-op sweeps are not journaled — they change nothing).
    Sweep {
        /// Server-clock seconds of the call.
        now_s: f64,
        /// Replicas expired.
        expired: u64,
    },
    /// One outbound lease: ownership of `wus` left for `to_shard`.
    /// Written *before* the grant is sent, so a crash after the send
    /// can never forget having granted (the unsafe direction — both
    /// shards would own the range).
    LeaseOut {
        /// Server-clock seconds of the grant.
        now_s: f64,
        /// Lease id ([`crate::shard::lease_id`]).
        lease: u64,
        /// The lessee shard.
        to_shard: u16,
        /// The workunits whose ownership moved.
        wus: Vec<u32>,
    },
    /// One inbound lease: ownership of `wus` adopted from the grantor
    /// encoded in the lease id. A crash before this record is written
    /// is safe — the next `ShardStatus` advertisement omits the lease
    /// and the grantor re-sends it.
    LeaseIn {
        /// Server-clock seconds of the adoption.
        now_s: f64,
        /// Lease id ([`crate::shard::lease_id`]).
        lease: u64,
        /// The workunits whose ownership arrived.
        wus: Vec<u32>,
    },
}

struct Tele {
    appends: &'static telemetry::Counter,
    bytes: &'static telemetry::Counter,
    fsyncs: &'static telemetry::Counter,
    replayed: &'static telemetry::Counter,
}

impl Tele {
    fn new() -> Self {
        Self {
            appends: telemetry::counter("journal.appends"),
            bytes: telemetry::counter("journal.bytes"),
            fsyncs: telemetry::counter("journal.fsyncs"),
            replayed: telemetry::counter("journal.replayed"),
        }
    }
}

/// An open write-ahead journal. Owned by [`GridState`] and appended to
/// from inside each transition, so the wal order is exactly the apply
/// order.
pub struct Journal {
    wal: File,
    fsync: FsyncPolicy,
    appends_since_sync: u64,
    /// Transition records in the wal: what a restart would replay.
    wal_records: u64,
    /// Bytes in the wal, header frame included.
    wal_bytes: u64,
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
const TAG_LEASE_OUT: u8 = 3;
const TAG_LEASE_IN: u8 = 4;
const TAG_HEADER: u8 = 5;

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

/// Encodes one record as a binary payload (no frame header).
fn encode_record(rec: &JournalRecord, w: &mut Writer) {
    match rec {
        JournalRecord::Header {
            params,
            config,
            faults,
            shard,
            format,
        } => {
            w.u8(TAG_HEADER);
            w.u32(*format);
            w.params(params);
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
        JournalRecord::Fetch {
            now_s,
            agent,
            assigned,
        } => {
            w.u8(TAG_FETCH);
            w.f64(*now_s);
            w.u64(*agent);
            w.flag(assigned.is_some());
            if let Some((replica, workunit)) = assigned {
                w.u64(*replica);
                w.u32(*workunit);
            }
        }
        JournalRecord::Report {
            now_s,
            replica,
            workunit,
            verdict,
            output,
        } => {
            w.u8(TAG_REPORT);
            w.f64(*now_s);
            w.u64(*replica);
            w.u32(*workunit);
            let byte = VERDICTS.iter().position(|v| v == verdict);
            w.u8(byte.expect("every verdict is in VERDICTS") as u8);
            w.flag(output.is_some());
            if let Some(output) = output {
                w.output(output);
            }
        }
        JournalRecord::Sweep { now_s, expired } => {
            w.u8(TAG_SWEEP);
            w.f64(*now_s);
            w.u64(*expired);
        }
        JournalRecord::LeaseOut {
            now_s,
            lease,
            to_shard,
            wus,
        } => {
            w.u8(TAG_LEASE_OUT);
            w.f64(*now_s);
            w.u64(*lease);
            w.u16(*to_shard);
            w.u32s(wus);
        }
        JournalRecord::LeaseIn { now_s, lease, wus } => {
            w.u8(TAG_LEASE_IN);
            w.f64(*now_s);
            w.u64(*lease);
            w.u32s(wus);
        }
    }
}

/// Overwrites `w` with the complete frame of one record: the payload is
/// encoded after reserved header space, then the header is patched in
/// place.
fn frame_record(rec: &JournalRecord, w: &mut Writer) {
    w.0.clear();
    w.0.resize(HEADER_BYTES, 0);
    encode_record(rec, w);
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
        params: r.params()?,
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
/// trailing bytes are all errors.
fn decode_record(kind: u8, payload: &[u8]) -> Result<JournalRecord, String> {
    if kind != FRAME_BINARY {
        return Err(format!("frame kind {kind} is not a journal record"));
    }
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_HEADER => decode_header(&mut r)?,
        TAG_FETCH => JournalRecord::Fetch {
            now_s: r.f64()?,
            agent: r.u64()?,
            assigned: match r.flag()? {
                true => Some((r.u64()?, r.u32()?)),
                false => None,
            },
        },
        TAG_REPORT => JournalRecord::Report {
            now_s: r.f64()?,
            replica: r.u64()?,
            workunit: r.u32()?,
            verdict: {
                let byte = r.u8()?;
                *VERDICTS
                    .get(usize::from(byte))
                    .ok_or_else(|| format!("unknown verdict byte {byte:#04x}"))?
            },
            output: match r.flag()? {
                true => Some(r.output()?),
                false => None,
            },
        },
        TAG_SWEEP => JournalRecord::Sweep {
            now_s: r.f64()?,
            expired: r.u64()?,
        },
        TAG_LEASE_OUT => JournalRecord::LeaseOut {
            now_s: r.f64()?,
            lease: r.u64()?,
            to_shard: r.u16()?,
            wus: r.counted(4, |r| r.u32())?,
        },
        TAG_LEASE_IN => JournalRecord::LeaseIn {
            now_s: r.f64()?,
            lease: r.u64()?,
            wus: r.counted(4, |r| r.u32())?,
        },
        other => return Err(format!("unknown record tag {other:#04x}")),
    };
    r.finish()?;
    Ok(rec)
}

impl Journal {
    /// Appends one transition frame, honouring the fsync policy.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<()> {
        debug_assert!(!matches!(rec, JournalRecord::Header { .. }));
        frame_record(rec, &mut self.scratch);
        self.wal.write_all(&self.scratch.0)?;
        self.tele.appends.inc();
        self.tele.bytes.add(self.scratch.0.len() as u64);
        self.wal_records += 1;
        self.wal_bytes += self.scratch.0.len() as u64;
        self.appends_since_sync += 1;
        let due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            self.wal.sync_data()?;
            self.tele.fsyncs.inc();
            self.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Flushes any appends the `EveryN` fsync policy left unsynced. The
    /// server's event loop calls this on its sweep timer, so a burst of
    /// traffic that stops mid-batch still reaches the platter within one
    /// timer tick instead of waiting for the Nth append that may never
    /// come. A no-op under `Always` (nothing pending) and respected as a
    /// no-op under `Never` (the operator opted out of fsync entirely).
    pub fn flush(&mut self) -> io::Result<()> {
        if self.appends_since_sync == 0 || matches!(self.fsync, FsyncPolicy::Never) {
            return Ok(());
        }
        self.wal.sync_data()?;
        self.tele.fsyncs.inc();
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Transition records in the wal — what a restart would replay.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Size of the wal in bytes, header frame included.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Appends since the last fsync: the phase of the `every=N` batch
    /// counter. [`open_journaled`] restores it from the replayed wal so
    /// restart does not silently reset the durability window.
    pub fn fsync_phase(&self) -> u64 {
        self.appends_since_sync
    }
}

/// Walks the records of one wal in order — the reader both recovery
/// and `hcmd-journal dump` use. Yields one decoded record per
/// well-formed frame and ends at the end of the file or at a torn tail;
/// a bad record or a legacy file yields one `InvalidData` error and
/// ends the walk too (module docs, "Consistency model", tell them
/// apart).
pub struct RecordReader {
    what: String,
    buf: Vec<u8>,
    off: usize,
    done: bool,
}

/// Opens the wal of journal directory `dir` for scanning, after
/// refusing a directory that holds a journal format 3 `snapshot.bin`
/// (module docs, "legacy file"). `NotFound` when there is no wal.
pub fn open_wal(dir: &Path) -> io::Result<RecordReader> {
    let snapshot = dir.join("snapshot.bin");
    if snapshot.exists() {
        return Err(bad(format!(
            "{}: {}",
            snapshot.display(),
            other_format("left by an older build: journal format 3 or earlier")
        )));
    }
    RecordReader::open(&dir.join(WAL_FILE))
}

impl RecordReader {
    /// Reads `path` for scanning.
    pub fn open(path: &Path) -> io::Result<Self> {
        let what = path.display().to_string();
        Ok(Self {
            buf: fs::read(path).map_err(|e| io::Error::new(e.kind(), format!("{what}: {e}")))?,
            what,
            off: 0,
            done: false,
        })
    }

    /// Byte offset just past the last record yielded.
    pub fn offset(&self) -> u64 {
        self.off as u64
    }

    /// Size of the file as read, torn tail included.
    pub fn file_len(&self) -> u64 {
        self.buf.len() as u64
    }
}

impl Iterator for RecordReader {
    type Item = io::Result<JournalRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let off = self.off;
        let step = match protocol::deframe(&self.buf[off..]) {
            Ok((LEGACY_FRAME_KIND, ..)) if off == 0 => Err(other_format(
                "opens with a JSON header: journal format 3 or earlier",
            )),
            Ok((kind, payload, consumed)) => {
                decode_record(kind, payload).inspect(|_| self.off += consumed)
            }
            Err(DecodeError::Checksum { expected, .. })
                if off == 0 && sealed_with_fnv(&self.buf, expected) =>
            {
                Err(other_format(
                    "sealed by an older build: journal format 2 (FNV-1a checksums) or earlier",
                ))
            }
            Err(
                DecodeError::Incomplete { .. }
                | DecodeError::Checksum { .. }
                | DecodeError::BadMagic(_),
            ) => {
                self.done = true; // end of file, or a torn tail
                return None;
            }
            Err(e) => Err(e.to_string()),
        };
        self.done = step.is_err();
        Some(step.map_err(|e| bad(format!("{}: frame at {off}: {e}", self.what))))
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

/// Checks the wal's first record against the server's own campaign
/// identity.
fn check_header(
    rec: JournalRecord,
    dir: &Path,
    params: CampaignParams,
    config: ServerConfig,
    faults: ServerFaults,
    shard: ShardSpec,
) -> io::Result<()> {
    let what = dir.display();
    match rec {
        JournalRecord::Header {
            params: p,
            config: c,
            faults: f,
            shard: s,
            ..
        } => {
            if p != params || c != config || f != faults {
                return Err(bad(format!(
                    "{what}: wal belongs to a different campaign/config; refusing to replay"
                )));
            }
            if s != shard {
                return Err(bad(format!(
                    "{what}: wal belongs to shard {}/{}, this server is shard {}/{}; \
                     refusing to replay",
                    s.shard_id, s.shards, shard.shard_id, shard.shards
                )));
            }
            Ok(())
        }
        _ => Err(bad(format!(
            "{what}: wal does not start with a Header frame"
        ))),
    }
}

/// Replays one wal transition through the live entry points, asserting
/// the state reproduces the recorded decision.
fn apply(state: &mut GridState, campaign: &NetCampaign, rec: JournalRecord) -> io::Result<()> {
    match rec {
        JournalRecord::Fetch {
            now_s,
            agent,
            assigned,
        } => {
            let reply = state.fetch(SimTime::new(now_s), agent);
            let got = match &reply {
                WorkReply::Assigned(a) => Some((a.replica.0, a.workunit)),
                WorkReply::Backoff { .. } => None,
            };
            if got != assigned {
                return Err(bad(format!(
                    "replay diverged: fetch(agent={agent}) issued {got:?}, journal says {assigned:?}"
                )));
            }
        }
        JournalRecord::Report {
            now_s,
            replica,
            workunit,
            verdict,
            output,
        } => {
            let payload = match (output, verdict) {
                (Some(out), _) => out,
                // The server discarded these payloads on arrival; an
                // empty result file fails the §5.2 line-count check, so
                // it reproduces the bounds rejection, and a duplicate is
                // dropped before its payload is ever inspected. A spot
                // mismatch is judged by fingerprint against the accepted
                // artifact — an empty payload never matches a real one,
                // reproducing the mismatch — and a voided spot check
                // never looks at its payload at all.
                (
                    None,
                    Verdict::BoundsRejected
                    | Verdict::Duplicate
                    | Verdict::SpotMismatch
                    | Verdict::SpotVoid,
                ) => DockingOutput {
                    rows: Vec::new(),
                    evaluations: 0,
                },
                (None, v) => {
                    return Err(bad(format!(
                        "journal Report with verdict {v:?} is missing its payload"
                    )))
                }
            };
            let d = state.report(
                SimTime::new(now_s),
                campaign,
                ReplicaId(replica),
                workunit,
                payload,
            );
            if d.verdict != verdict {
                return Err(bad(format!(
                    "replay diverged: report(replica={replica}, wu={workunit}) judged {:?}, \
                     journal says {verdict:?}",
                    d.verdict
                )));
            }
        }
        JournalRecord::Sweep { now_s, expired } => {
            let got = state.sweep(SimTime::new(now_s)) as u64;
            if got != expired {
                return Err(bad(format!(
                    "replay diverged: sweep expired {got}, journal says {expired}"
                )));
            }
        }
        JournalRecord::LeaseOut {
            now_s,
            lease,
            to_shard,
            wus,
        } => {
            // The live grant only journals workunits it actually moved,
            // so replay must move every one of them again.
            let moved = state.apply_lease_out(SimTime::new(now_s), lease, to_shard, &wus);
            if moved != wus.len() {
                return Err(bad(format!(
                    "replay diverged: lease {lease:#x} out moved {moved} of {} workunits",
                    wus.len()
                )));
            }
        }
        JournalRecord::LeaseIn { now_s, lease, wus } => {
            let moved = state.adopt_lease(SimTime::new(now_s), lease, &wus);
            if moved != wus.len() {
                return Err(bad(format!(
                    "replay diverged: lease {lease:#x} in moved {moved} of {} workunits",
                    wus.len()
                )));
            }
        }
        JournalRecord::Header { .. } => {
            return Err(bad("Header frame inside the wal transition stream"));
        }
    }
    Ok(())
}

/// Opens (or creates) the journal under `cfg.dir` and returns the
/// recovered [`GridState`] — every wal record replayed into a fresh
/// state, the journal attached and ready for new appends — plus the
/// server-clock second recovery reached, which the caller must use as
/// its clock offset so time stays monotone across restarts.
pub fn open_journaled(
    cfg: &JournalConfig,
    campaign: &NetCampaign,
    config: ServerConfig,
    faults: ServerFaults,
    shard: ShardSpec,
) -> io::Result<(GridState, f64)> {
    fs::create_dir_all(&cfg.dir)?;
    let params = campaign.params();
    let tele = Tele::new();
    let mut state = GridState::new(campaign, config, faults, shard);

    // 1. Replay the wal through the live entry points, one record at a
    //    time. A wal torn inside its header frame is as good as absent:
    //    nothing was journaled after it.
    let (mut wal_records, mut wal_bytes) = (0u64, 0u64);
    match open_wal(&cfg.dir) {
        Ok(mut records) => {
            if let Some(first) = records.next().transpose()? {
                check_header(first, &cfg.dir, params, config, faults, shard)?;
                for rec in records.by_ref() {
                    apply(&mut state, campaign, rec?)?;
                    tele.replayed.inc();
                    wal_records += 1;
                }
                wal_bytes = records.offset();
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }

    // 2. Open the wal for appending, cut back to the last good frame
    //    (drops any torn tail).
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
        let header = JournalRecord::Header {
            params,
            config,
            faults,
            shard,
            format: JOURNAL_FORMAT,
        };
        frame_record(&header, &mut scratch);
        wal.write_all(&scratch.0)?;
        wal.sync_data()?;
        wal_bytes = scratch.0.len() as u64;
    }
    let journal = Journal {
        wal,
        fsync: cfg.fsync,
        // The fsync phase survives the restart: the replayed records
        // count against the `every=N` batch exactly as they did live, so
        // the next fsync lands on the same append boundary and a crash
        // shortly after recovery never widens the durability window to
        // up to 2N-1 unsynced appends.
        appends_since_sync: match cfg.fsync {
            FsyncPolicy::EveryN(n) => wal_records % n,
            FsyncPolicy::Always | FsyncPolicy::Never => 0,
        },
        wal_records,
        wal_bytes,
        scratch,
        tele,
    };

    let resume_s = state.last_now();
    state.attach_journal(journal);
    Ok((state, resume_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxdo::{DockingRow, EulerZyz, Vec3};
    use proptest::prelude::*;

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every=8"), Ok(FsyncPolicy::EveryN(8)));
        assert!(FsyncPolicy::parse("every=0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    /// A record as the [`Journal`] frames it.
    fn frame(rec: &JournalRecord) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        frame_record(rec, &mut w);
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
        match kind {
            0 => JournalRecord::Fetch {
                now_s,
                agent: a,
                assigned: b.is_multiple_of(2).then_some((a ^ 1, b)),
            },
            1 => JournalRecord::Report {
                now_s,
                replica: a,
                workunit: b,
                verdict: VERDICTS[b as usize % VERDICTS.len()],
                output: (!a.is_multiple_of(3)).then_some(output),
            },
            2 => JournalRecord::Sweep { now_s, expired: a },
            3 => JournalRecord::LeaseOut {
                now_s,
                lease: a,
                to_shard: b as u16,
                wus,
            },
            4 => JournalRecord::LeaseIn {
                now_s,
                lease: a,
                wus,
            },
            _ => JournalRecord::Header {
                params: CampaignParams {
                    proteins: b,
                    lib_seed: a,
                    h_seconds: now_s,
                    ..CampaignParams::tiny()
                },
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
                    shard_id: b as u16,
                    shards: (b >> 16) as u16,
                },
                format: JOURNAL_FORMAT,
            },
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
            kind in 0usize..6,
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
        let rec = JournalRecord::Report {
            now_s: 1.0,
            replica: 2,
            workunit: 3,
            verdict: Verdict::Duplicate,
            output: None,
        };
        let good = payload_of(&rec);
        assert_eq!(decode_record(FRAME_BINARY, &good), Ok(rec));
        // tag, verdict byte, has-payload flag
        for (at, byte) in [(0, 6), (21, VERDICTS.len() as u8), (22, 2)] {
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
        let sweep = payload_of(&JournalRecord::Sweep {
            now_s: 1.0,
            expired: 2,
        });
        assert!(decode_record(FRAME_BINARY, &sweep).is_ok());
        assert!(decode_record(LEGACY_FRAME_KIND, &sweep).is_err());
        assert!(decode_record(protocol::PROTOCOL_VERSION, &sweep).is_err());

        let mut header = payload_of(&build_record(5, 1, 2, 3, &[]));
        assert!(decode_record(FRAME_BINARY, &header).is_ok());
        header[1..5].copy_from_slice(&(JOURNAL_FORMAT + 1).to_le_bytes());
        let err = decode_record(FRAME_BINARY, &header).unwrap_err();
        assert!(err.contains("journal format 5"), "{err}");
    }

    #[test]
    fn torn_tail_stops_the_scan_at_the_last_good_frame() {
        let dir = scratch_dir("torn");
        let path = dir.join(WAL_FILE);
        let a = frame(&JournalRecord::Sweep {
            now_s: 1.0,
            expired: 2,
        });
        let b = frame(&JournalRecord::Sweep {
            now_s: 2.0,
            expired: 1,
        });
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b[..b.len() / 2]); // torn mid-frame
        fs::write(&path, &bytes).unwrap();
        let mut reader = RecordReader::open(&path).unwrap();
        assert_eq!(reader.by_ref().count(), 1);
        assert_eq!(reader.offset(), a.len() as u64);
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
    /// in `snapshot.bin` beside it. Each is refused by name, by recovery
    /// and by the `hcmd-journal dump` reader alike, with nothing on disk
    /// touched or created.
    #[test]
    fn a_format_2_journal_is_refused_not_reinitialised() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let (config, faults) = (ServerConfig::default(), ServerFaults::default());
        // The header text formats 1–3 wrote (1 lacked the last field).
        let header = br#"{"Header":{"epoch":0,"params":{},"config":{},"faults":{},"format":3}}"#;
        let fetch = payload_of(&JournalRecord::Fetch {
            now_s: 0.0,
            agent: 1,
            assigned: Some((0, 0)),
        });
        let mut fnv_sealed = fnv_sealed_frame(LEGACY_FRAME_KIND, header);
        fnv_sealed.extend_from_slice(&fnv_sealed_frame(FRAME_BINARY, &fetch));
        let mut format_3 = protocol::frame_payload_versioned(LEGACY_FRAME_KIND, header).to_vec();
        format_3.extend_from_slice(&frame(&JournalRecord::Fetch {
            now_s: 0.0,
            agent: 1,
            assigned: Some((0, 0)),
        }));

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
        ] {
            let dir = scratch_dir(&format!("legacy-{tag}"));
            fs::write(dir.join(file), old).unwrap();
            let recovery = open_journaled(
                &JournalConfig::new(&dir),
                &campaign,
                config,
                faults,
                ShardSpec::solo(),
            )
            .err()
            .expect("a legacy journal must be refused");
            let dump = open_wal(&dir)
                .and_then(|records| records.collect::<io::Result<Vec<_>>>())
                .expect_err("a legacy journal must not dump");
            for err in [recovery, dump] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tag}: {err}");
                let msg = err.to_string();
                assert!(msg.contains(&dir.join(file).display().to_string()), "{msg}");
                assert!(msg.contains(named), "{msg}");
            }
            assert_eq!(
                &fs::read(dir.join(file)).unwrap(),
                old,
                "{file} left untouched"
            );
            let others = fs::read_dir(&dir).unwrap().count();
            assert_eq!(others, 1, "nothing was created next to the refused {file}");
            fs::remove_dir_all(&dir).unwrap();
        }

        // Damage that is not a legacy seal is still what it always was:
        // a wal torn inside its first frame is an empty wal.
        let dir = scratch_dir("legacy-torn");
        let mut torn = frame(&build_record(5, 1, 2, 3, &[]));
        let last = torn.len() - 1;
        torn[last] ^= 0x01;
        fs::write(dir.join(WAL_FILE), &torn).unwrap();
        let mut reader = open_wal(&dir).unwrap();
        assert!(reader.next().is_none());
        assert_eq!(reader.offset(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
