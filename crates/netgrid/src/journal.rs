//! Write-ahead journal + snapshots: crash-safe server state.
//!
//! The paper's campaign ran for 26 weeks; a server whose scheduling
//! state lives only in RAM cannot survive such a run. This module makes
//! [`GridState`] durable the way BOINC's database does, but with the
//! repo's own machinery: every scheduler transition — replica issue,
//! result report (with verdict), deadline expiry — is appended to a
//! per-campaign write-ahead log as a length-prefixed, checksummed frame
//! (the exact wire framing from [`crate::protocol`], checksum included:
//! [`protocol::checksum64`]), and a
//! periodic compacting snapshot bounds replay cost.
//!
//! # File layout
//!
//! A journal directory holds two files:
//!
//! * `wal.bin` — a header frame ([`JournalRecord::Header`]: campaign
//!   recipe, server config, fault knobs, epoch, format) followed by one
//!   frame per transition, in the exact order the state lock applied
//!   them.
//! * `snapshot.bin` — a header frame plus one [`JournalRecord::Snapshot`]
//!   frame holding a complete [`GridSnapshot`]. Written atomically
//!   (tmp + fsync + rename), so it is always either absent, the old
//!   snapshot, or the new one — never torn.
//!
//! Each record kind has exactly one payload encoding, named by the
//! frame-kind byte of its frame header (the byte a wire frame keeps its
//! protocol version in; the two kinds below are this module's own):
//!
//! * the five transition records (`Fetch`, `Report`, `Sweep`,
//!   `LeaseOut`, `LeaseIn`) are kind-2 frames: a tag byte and
//!   fixed-width little-endian fields written with the wire codec's own
//!   primitives ([`crate::protocol::binary`]) — a `Report`'s payload is
//!   the same 72-byte rows the agent sent. They are the hot path: one
//!   per request, encoded into a buffer the [`Journal`] reuses, written
//!   with one `write_all`;
//! * `Header` and `Snapshot` are kind-1 frames holding JSON (the
//!   derived serde form). They are written once per file and once per
//!   `snapshot_every` appends, and stay legible to `strings`.
//!
//! `hcmd-journal dump DIR` prints every record of both files as one JSON
//! line, through the same [`RecordReader`] recovery uses.
//!
//! # Recovery
//!
//! [`open_journaled`] restores the snapshot (if any) and then replays
//! the wal tail **through the live transition entry points**
//! ([`GridState::fetch`] / [`GridState::report`] / [`GridState::sweep`])
//! rather than through any parallel restore path, asserting at each step
//! that the state makes the *same decision it made live* (same replica
//! issued, same verdict, same expiry count). A divergence means the
//! journal and the code disagree and recovery fails loudly instead of
//! silently forking the campaign. Records are deframed, decoded and
//! applied one at a time; the decoded wal is never held as a whole.
//!
//! Replayed reports need their payloads only when the payload became
//! server state: accepted artifacts and quorum candidates are journaled
//! in full, while `BoundsRejected`, `Duplicate`, `SpotMismatch` and
//! `SpotVoid` reports — whose payloads the server discards on arrival —
//! are replayed with a synthesized empty payload (an empty result file
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
//!   very first frame is an empty wal: nothing was journaled yet (or
//!   the crash hit the post-snapshot reset and everything is in the
//!   snapshot).
//! * **bad record** — a frame whose checksum passes but whose payload
//!   does not decode strictly (unknown tag or verdict, trailing or
//!   missing bytes, a JSON-encoded transition) or whose frame kind is
//!   one the journal never writes, or a header that names an impossible
//!   length. No crash writes that; the file was written by different
//!   code or damaged in place, and recovery refuses with `InvalidData`
//!   rather than guess.
//! * **legacy file** — the one case where a failed checksum is *not* a
//!   torn tail: journal formats 1 and 2 sealed their frames with
//!   FNV-1a 64, so to this build a whole format-2 file looks torn inside
//!   its first frame — "an empty wal", which recovery would re-initialise,
//!   silently restarting the campaign. So when the *first* frame of a
//!   file fails its checksum, that one frame is re-checked with
//!   [`protocol::fnv1a64`]; if it passes, the file is a bad record of
//!   its own kind — refused with `InvalidData` naming the path and
//!   "journal format 2 (FNV-1a checksums)", not a byte touched. Only
//!   the first frame is probed: an FNV frame cannot follow a frame this
//!   build accepted.
//!
//! Prefix loss is safe by construction: a lost `Fetch` replica
//! ages out of nothing (it was never outstanding in the recovered
//! state), a lost `Report` is re-requested because its replica is still
//! outstanding and will expire, and the §5 validation rules (quorum /
//! bounds) judge the re-computed results exactly as they would have the
//! originals. The merged artifact is therefore byte-identical to an
//! uninterrupted run's no matter where the crash landed — the property
//! `tests/netgrid_restart.rs` (every byte offset of a scripted wal) and
//! the CI restart-smoke job pin.
//!
//! # Snapshot / epoch handshake
//!
//! Compaction writes the snapshot first, then resets the wal. A crash
//! between the two leaves a snapshot one epoch *ahead* of the wal
//! header; recovery detects this (`snapshot epoch == wal epoch + 1`),
//! discards the stale wal — every record in it is already folded into
//! the snapshot — and resets it to the snapshot's epoch.

use crate::campaign::NetCampaign;
use crate::faults::ServerFaults;
use crate::protocol::binary::{Reader, Writer};
use crate::protocol::{self, CampaignParams, DecodeError, HEADER_BYTES};
use crate::shard::ShardSpec;
use crate::state::{GridSnapshot, GridState, Verdict, WorkReply};
use gridsim::server::{ReplicaId, ServerConfig};
use gridsim::SimTime;
use maxdo::DockingOutput;
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Wal file name inside the journal directory.
pub const WAL_FILE: &str = "wal.bin";
/// Snapshot file name inside the journal directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Scratch name the snapshot is staged under before the atomic rename.
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Frame kind of the JSON-encoded records (`Header`, `Snapshot`). The
/// two kinds are a disk format pinned by [`JOURNAL_FORMAT`], not
/// protocol versions.
const FRAME_JSON: u8 = 1;
/// Frame kind of the binary-encoded transition records.
const FRAME_BINARY: u8 = 2;

/// The journal format this build writes, pinned in every `Header`.
/// Format 1 (headers written before the field existed) encoded
/// transitions as JSON; format 2 encodes them in binary; format 3 is
/// format 2 with every frame sealed by [`protocol::checksum64`] instead
/// of FNV-1a 64. Formats 1 and 2 never get as far as a parsed header —
/// their first frame fails the checksum and is recognised by
/// [`RecordReader`]'s legacy probe.
const JOURNAL_FORMAT: u32 = 3;

fn format_1() -> u32 {
    1
}

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

/// Journal location and policy knobs.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding `wal.bin` / `snapshot.bin` (created if absent).
    pub dir: PathBuf,
    /// Flush policy for wal appends.
    pub fsync: FsyncPolicy,
    /// Appends between compacting snapshots (0 = never snapshot).
    pub snapshot_every: u64,
}

impl JournalConfig {
    /// Default policies for a journal rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            snapshot_every: 4096,
        }
    }
}

/// One journaled frame. `Header` opens both files; `Snapshot` appears
/// only in `snapshot.bin`; the rest are the wal's transition stream.
// The `Snapshot` variant dwarfs the per-transition records, but the
// vendored serde has no `Box<T>` impls to shrink it with, and records
// only ever live long enough to be framed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// Identity of the journaled campaign. Recovery refuses to replay a
    /// journal whose recipe/config/faults differ from the server's.
    Header {
        /// Snapshot generation this file belongs to (see module docs).
        epoch: u64,
        /// The campaign recipe (both ends re-derive the catalog from it).
        params: CampaignParams,
        /// Scheduler configuration.
        config: ServerConfig,
        /// Server-side fault/limit knobs.
        faults: ServerFaults,
        /// Which shard of the campaign this journal belongs to. Old
        /// (pre-sharding) journals read as solo. Shard 0's WAL refuses
        /// to replay into a server configured as shard 1 — workunit
        /// ownership differs, so replay would diverge or silently fork
        /// the campaign.
        #[serde(default = "ShardSpec::solo")]
        shard: ShardSpec,
        /// The journal format of the file (see `JOURNAL_FORMAT`): 3 is
        /// what this build reads and writes; a header without the
        /// field reads as 1. A wal of another format is refused before
        /// any transition is read.
        #[serde(default = "format_1")]
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
    /// exactly when the payload became server state (candidate or
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
        /// The payload, for verdicts whose payload the server kept.
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
    /// A complete state snapshot (only in `snapshot.bin`). It dwarfs
    /// every per-transition record, but lives only long enough to be
    /// framed (the vendored serde has no `Box<T>` impls to shrink it).
    Snapshot {
        /// Server-clock seconds when the snapshot was cut.
        now_s: f64,
        /// The full wire-level state.
        grid: GridSnapshot,
    },
}

struct Tele {
    appends: &'static telemetry::Counter,
    bytes: &'static telemetry::Counter,
    fsyncs: &'static telemetry::Counter,
    snapshots: &'static telemetry::Counter,
    replayed: &'static telemetry::Counter,
}

impl Tele {
    fn new() -> Self {
        Self {
            appends: telemetry::counter("journal.appends"),
            bytes: telemetry::counter("journal.bytes"),
            fsyncs: telemetry::counter("journal.fsyncs"),
            snapshots: telemetry::counter("journal.snapshots"),
            replayed: telemetry::counter("journal.replayed"),
        }
    }
}

/// An open write-ahead journal. Owned by [`GridState`] (behind the same
/// lock that orders the transitions), so the wal order is exactly the
/// apply order.
pub struct Journal {
    dir: PathBuf,
    wal: File,
    epoch: u64,
    params: CampaignParams,
    config: ServerConfig,
    faults: ServerFaults,
    shard: ShardSpec,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    appends_since_sync: u64,
    appends_since_snapshot: u64,
    /// The frame being appended, reused so steady-state appends never
    /// allocate.
    scratch: Writer,
    tele: Tele,
}

/// Frames a `Header` or `Snapshot` record as JSON.
fn frame_json(rec: &JournalRecord) -> Vec<u8> {
    debug_assert!(matches!(
        rec,
        JournalRecord::Header { .. } | JournalRecord::Snapshot { .. }
    ));
    let json = serde_json::to_string(rec).expect("JournalRecord serializes");
    protocol::frame_payload_versioned(FRAME_JSON, json.as_bytes()).to_vec()
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

const TAG_FETCH: u8 = 0;
const TAG_REPORT: u8 = 1;
const TAG_SWEEP: u8 = 2;
const TAG_LEASE_OUT: u8 = 3;
const TAG_LEASE_IN: u8 = 4;

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

/// Encodes one transition record as a binary payload (no frame header).
fn encode_transition(rec: &JournalRecord, w: &mut Writer) {
    match rec {
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
        JournalRecord::Header { .. } | JournalRecord::Snapshot { .. } => {
            unreachable!("Header/Snapshot records are JSON frames, never appended")
        }
    }
}

/// Overwrites `w` with the complete frame of one transition record:
/// the payload is encoded after reserved header space, then the header
/// is patched in place.
fn frame_transition(rec: &JournalRecord, w: &mut Writer) {
    w.0.clear();
    w.0.resize(HEADER_BYTES, 0);
    encode_transition(rec, w);
    protocol::seal_frame(FRAME_BINARY, &mut w.0);
}

/// Decodes one binary transition payload, as strictly as the wire
/// decoder: unknown tags and verdicts, non-0/1 flags, counts that
/// disagree with the bytes present, truncation and trailing bytes are
/// all errors.
fn decode_transition(payload: &[u8]) -> Result<JournalRecord, String> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
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
        other => return Err(format!("unknown transition tag {other:#04x}")),
    };
    r.finish()?;
    Ok(rec)
}

/// Decodes one checksum-verified frame payload by its frame kind.
fn decode_record(kind: u8, payload: &[u8]) -> Result<JournalRecord, String> {
    match kind {
        FRAME_BINARY => decode_transition(payload),
        FRAME_JSON => {
            let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
            match serde_json::from_str(text).map_err(|e| format!("unparsable: {e:?}"))? {
                rec @ (JournalRecord::Header { .. } | JournalRecord::Snapshot { .. }) => Ok(rec),
                _ => Err("JSON-encoded transition record (a format-1 journal)".into()),
            }
        }
        other => Err(format!("frame kind {other} is not a journal record")),
    }
}

impl Journal {
    fn header(&self) -> JournalRecord {
        JournalRecord::Header {
            epoch: self.epoch,
            params: self.params,
            config: self.config,
            faults: self.faults,
            shard: self.shard,
            format: JOURNAL_FORMAT,
        }
    }

    /// Appends one transition frame, honouring the fsync policy.
    ///
    /// # Panics
    ///
    /// If `rec` is a `Header` or `Snapshot`: those are written by the
    /// journal itself, never appended.
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<()> {
        frame_transition(rec, &mut self.scratch);
        self.wal.write_all(&self.scratch.0)?;
        self.tele.appends.inc();
        self.tele.bytes.add(self.scratch.0.len() as u64);
        self.appends_since_sync += 1;
        self.appends_since_snapshot += 1;
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

    /// True when enough appends accumulated that the owner should cut a
    /// compacting snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.appends_since_snapshot >= self.snapshot_every
    }

    /// Current snapshot epoch (bumped by each compacting snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Wal frames appended since the last compacting snapshot — the
    /// "journal lag" an operator watches to confirm compaction keeps up.
    pub fn appends_since_snapshot(&self) -> u64 {
        self.appends_since_snapshot
    }

    /// Appends since the last fsync: the phase of the `every=N` batch
    /// counter. [`open_journaled`] restores it from the replayed wal
    /// tail so restart does not silently reset the durability window.
    pub fn fsync_phase(&self) -> u64 {
        self.appends_since_sync
    }

    /// Writes a compacting snapshot and resets the wal. Atomic against
    /// crashes at every point: see the epoch handshake in the module
    /// docs.
    pub fn write_snapshot(&mut self, now_s: f64, grid: GridSnapshot) -> io::Result<()> {
        self.epoch += 1;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&frame_json(&self.header()))?;
            f.write_all(&frame_json(&JournalRecord::Snapshot { now_s, grid }))?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        sync_dir(&self.dir)?;
        // From here the snapshot alone can recover the state; the old
        // wal epoch is dead weight and can be reset.
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.write_all(&frame_json(&self.header()))?;
        self.wal.sync_data()?;
        self.appends_since_snapshot = 0;
        self.appends_since_sync = 0;
        self.tele.snapshots.inc();
        self.tele.fsyncs.inc();
        Ok(())
    }
}

/// Fsyncs a directory so a just-renamed file survives a crash.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Walks the records of one journal file in order — the reader both
/// recovery and `hcmd-journal dump` use. Yields one decoded record per
/// well-formed frame and ends at the end of the file or at a torn tail;
/// a bad record yields one `InvalidData` error and ends the walk too
/// (module docs, "Consistency model", tell the two apart).
pub struct RecordReader {
    what: String,
    buf: Vec<u8>,
    off: usize,
    done: bool,
}

impl RecordReader {
    /// Reads `path` for scanning.
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(Self {
            what: path.display().to_string(),
            buf: fs::read(path)?,
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
            Ok((version, payload, consumed)) => {
                decode_record(version, payload).inspect(|_| self.off += consumed)
            }
            Err(DecodeError::Checksum { expected, .. })
                if off == 0 && sealed_with_fnv(&self.buf, expected) =>
            {
                Err(format!(
                    "sealed by an older build: journal format 2 (FNV-1a checksums) or \
                     earlier, this build reads and writes format {JOURNAL_FORMAT} only; finish \
                     or discard that campaign with the build that wrote it"
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

/// Checks a recovered header against the server's own campaign identity,
/// returning its epoch and journal format.
fn check_header(
    rec: Option<JournalRecord>,
    what: &str,
    params: CampaignParams,
    config: ServerConfig,
    faults: ServerFaults,
    shard: ShardSpec,
) -> io::Result<(u64, u32)> {
    match rec {
        Some(JournalRecord::Header {
            epoch,
            params: p,
            config: c,
            faults: f,
            shard: s,
            format,
        }) => {
            if p != params || c != config || f != faults {
                return Err(bad(format!(
                    "{what} belongs to a different campaign/config; refusing to replay"
                )));
            }
            if s != shard {
                return Err(bad(format!(
                    "{what} belongs to shard {}/{}, this server is shard {}/{}; \
                     refusing to replay",
                    s.shard_id, s.shards, shard.shard_id, shard.shards
                )));
            }
            Ok((epoch, format))
        }
        _ => Err(bad(format!("{what} does not start with a Header frame"))),
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
        JournalRecord::Header { .. } | JournalRecord::Snapshot { .. } => {
            return Err(bad(
                "Header/Snapshot frame inside the wal transition stream",
            ));
        }
    }
    Ok(())
}

/// Opens (or creates) the journal under `cfg.dir` and returns the
/// recovered [`GridState`] — snapshot restored, wal tail replayed, the
/// journal attached and ready for new appends — plus the server-clock
/// second recovery reached, which the caller must use as its clock
/// offset so time stays monotone across restarts.
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
    let snap_path = cfg.dir.join(SNAPSHOT_FILE);
    let wal_path = cfg.dir.join(WAL_FILE);
    // A crash can leave a staged snapshot behind; it is dead either way.
    let _ = fs::remove_file(cfg.dir.join(SNAPSHOT_TMP));

    // 1. Restore the snapshot, if one exists. Its header's format is not
    //    checked: a snapshot that deframes at all was sealed by this
    //    format's checksum (an older one is refused by the reader's
    //    legacy probe), its payload is a JSON frame in every format, and
    //    `restore` re-derives what depends on the writing build
    //    (fingerprints).
    let mut epoch = 0u64;
    let mut state = match snap_path.exists() {
        true => {
            let mut records = RecordReader::open(&snap_path)?;
            let header = records.next().transpose()?;
            (epoch, _) = check_header(header, "snapshot", params, config, faults, shard)?;
            match records.next().transpose()? {
                Some(JournalRecord::Snapshot { grid, .. }) => {
                    GridState::restore(campaign, config, faults, grid).map_err(bad)?
                }
                _ => return Err(bad("snapshot file has no Snapshot frame")),
            }
        }
        false => GridState::new_sharded(campaign, config, faults, shard),
    };

    // 2. Replay the wal tail through the live entry points, one record
    //    at a time. A wal torn inside its header frame is as good as
    //    absent: nothing was journaled after it.
    let mut wal_valid = 0u64;
    let mut tail_len = 0u64;
    if wal_path.exists() {
        let mut records = RecordReader::open(&wal_path)?;
        if let Some(header) = records.next().transpose()? {
            let (wal_epoch, format) =
                check_header(Some(header), "wal", params, config, faults, shard)?;
            if format != JOURNAL_FORMAT {
                return Err(bad(format!(
                    "{}: wal is journal format {format}, this build reads and writes format \
                     {JOURNAL_FORMAT} only; finish or discard that campaign with the build \
                     that wrote it",
                    cfg.dir.display()
                )));
            }
            if wal_epoch == epoch {
                for rec in records.by_ref() {
                    apply(&mut state, campaign, rec?)?;
                    tele.replayed.inc();
                    tail_len += 1;
                }
                wal_valid = records.offset();
            } else if wal_epoch + 1 != epoch {
                return Err(bad(format!(
                    "wal epoch {wal_epoch} does not match snapshot epoch {epoch}"
                )));
            }
            // Otherwise the crash fell between snapshot rename and wal
            // reset: every wal record is already folded into the
            // snapshot, and `wal_valid` stays 0 to discard them.
        }
    }

    // 3. Open the wal for appending, truncated to the last good frame
    //    (drops any torn tail / stale epoch).
    let wal = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false) // the valid prefix is set_len() below, not dropped here
        .open(&wal_path)?;
    let mut journal = Journal {
        dir: cfg.dir.clone(),
        wal,
        epoch,
        params,
        config,
        faults,
        shard,
        fsync: cfg.fsync,
        snapshot_every: cfg.snapshot_every,
        // The fsync phase survives the restart: the replayed tail counts
        // against the `every=N` batch exactly as it did live, so the
        // next fsync lands on the same append boundary and a crash
        // shortly after recovery never widens the durability window to
        // up to 2N-1 unsynced appends.
        appends_since_sync: match cfg.fsync {
            FsyncPolicy::EveryN(n) => tail_len % n,
            FsyncPolicy::Always | FsyncPolicy::Never => 0,
        },
        appends_since_snapshot: tail_len,
        scratch: Writer(Vec::new()),
        tele,
    };
    if wal_valid == 0 {
        journal.wal.set_len(0)?;
        journal.wal.seek(SeekFrom::Start(0))?;
        let hdr = frame_json(&journal.header());
        journal.wal.write_all(&hdr)?;
        journal.wal.sync_data()?;
    } else {
        journal.wal.set_len(wal_valid)?;
        journal.wal.seek(SeekFrom::Start(wal_valid))?;
    }

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

    /// A transition record as [`Journal::append`] frames it.
    fn frame(rec: &JournalRecord) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        frame_transition(rec, &mut w);
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

    /// One record of each transition kind from sampled primitives;
    /// floats come from raw bits, so NaNs, infinities and `-0.0` all
    /// occur.
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
            _ => JournalRecord::LeaseIn {
                now_s,
                lease: a,
                wus,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every transition variant round-trips bit-exactly through the
        /// binary record codec (compared by re-encoding, so NaN fields
        /// count), and the decoder is as strict as the wire's: every
        /// truncation and any trailing byte is an error.
        #[test]
        fn transitions_round_trip_and_reject_damaged_payloads(
            kind in 0usize..5,
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
                prop_assert!(decode_transition(&payload[..cut]).is_err(), "truncated at {}", cut);
            }
            let mut long = payload.to_vec();
            long.push(0);
            prop_assert!(decode_transition(&long).is_err(), "trailing byte accepted");
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
        assert_eq!(decode_transition(&good), Ok(rec));
        // tag, verdict byte, has-payload flag
        for (at, byte) in [(0, 5), (21, VERDICTS.len() as u8), (22, 2)] {
            let mut bad = good.clone();
            bad[at] = byte;
            assert!(decode_transition(&bad).is_err(), "byte {at} = {byte}");
        }
    }

    #[test]
    fn each_record_kind_has_exactly_one_encoding() {
        let sweep = JournalRecord::Sweep {
            now_s: 1.0,
            expired: 2,
        };
        // A transition in a JSON frame is a format-1 record, not a fallback.
        let json = serde_json::to_string(&sweep).unwrap();
        let err = decode_record(FRAME_JSON, json.as_bytes()).unwrap_err();
        assert!(err.contains("format-1"), "{err}");
        // A binary frame never holds a Header, and a wire frame's
        // version byte is not a journal frame kind at all.
        assert!(decode_record(FRAME_BINARY, json.as_bytes()).is_err());
        assert!(decode_record(protocol::PROTOCOL_VERSION, &payload_of(&sweep)).is_err());
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

    /// A header written before the `format` and `shard` fields existed
    /// reads as format 1, solo — and a wal under it is refused by
    /// name, before any of its JSON transitions is looked at.
    #[test]
    fn a_format_1_wal_is_refused_naming_the_directory_and_the_format() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let (config, faults) = (ServerConfig::default(), ServerFaults::default());
        let dir = scratch_dir("format1");
        let header = serde_json::to_string(&JournalRecord::Header {
            epoch: 0,
            params: campaign.params(),
            config,
            faults,
            shard: ShardSpec::solo(),
            format: JOURNAL_FORMAT,
        })
        .unwrap();
        let old_header = header
            .replace(&format!(",\"format\":{JOURNAL_FORMAT}"), "")
            .replace(",\"shard\":{\"shard_id\":0,\"shards\":1}", "");
        assert!(!old_header.contains("format") && !old_header.contains("shard\""));
        match decode_record(FRAME_JSON, old_header.as_bytes()).expect("old header parses") {
            JournalRecord::Header { format, shard, .. } => {
                assert_eq!((format, shard), (1, ShardSpec::solo()));
            }
            other => panic!("{other:?}"),
        }
        let fetch = serde_json::to_string(&JournalRecord::Fetch {
            now_s: 0.0,
            agent: 1,
            assigned: Some((0, 0)),
        })
        .unwrap();
        let frame = |json: &str| protocol::frame_payload_versioned(FRAME_JSON, json.as_bytes());
        let mut wal = frame(&old_header).to_vec();
        wal.extend_from_slice(&frame(&fetch));
        fs::write(dir.join(WAL_FILE), &wal).unwrap();

        let err = open_journaled(
            &JournalConfig::new(&dir),
            &campaign,
            config,
            faults,
            ShardSpec::solo(),
        )
        .err()
        .expect("a format-1 wal must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(&dir.display().to_string()), "{msg}");
        assert!(msg.contains("format 1"), "{msg}");
        assert_eq!(
            fs::read(dir.join(WAL_FILE)).unwrap(),
            wal,
            "refused wal left untouched"
        );
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

    /// To this build a format-2 file fails its very first checksum, which
    /// is also what a wal torn inside its header looks like — and a torn
    /// header is re-initialised. A format-2 directory must instead be
    /// refused by name, wal or snapshot, with nothing on disk touched.
    #[test]
    fn a_format_2_journal_is_refused_not_reinitialised() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let (config, faults) = (ServerConfig::default(), ServerFaults::default());
        let header = serde_json::to_string(&JournalRecord::Header {
            epoch: 0,
            params: campaign.params(),
            config,
            faults,
            shard: ShardSpec::solo(),
            format: 2,
        })
        .unwrap();
        let mut old = fnv_sealed_frame(FRAME_JSON, header.as_bytes());
        let fetch = payload_of(&JournalRecord::Fetch {
            now_s: 0.0,
            agent: 1,
            assigned: Some((0, 0)),
        });
        old.extend_from_slice(&fnv_sealed_frame(FRAME_BINARY, &fetch));

        for file in [WAL_FILE, SNAPSHOT_FILE] {
            let dir = scratch_dir(&format!("format2-{file}"));
            fs::write(dir.join(file), &old).unwrap();
            let err = open_journaled(
                &JournalConfig::new(&dir),
                &campaign,
                config,
                faults,
                ShardSpec::solo(),
            )
            .err()
            .expect("a format-2 journal must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains(&dir.display().to_string()), "{msg}");
            assert!(msg.contains("journal format 2 (FNV-1a checksums)"), "{msg}");
            assert_eq!(
                fs::read(dir.join(file)).unwrap(),
                old,
                "{file} left untouched"
            );
            let others = fs::read_dir(&dir).unwrap().count();
            assert_eq!(others, 1, "nothing was created next to the refused {file}");
            fs::remove_dir_all(&dir).unwrap();
        }

        // Damage that is not an FNV seal is still what it always was: a
        // wal torn inside its first frame is an empty wal.
        let dir = scratch_dir("format2-torn");
        let mut torn = frame_json(&JournalRecord::Header {
            epoch: 0,
            params: campaign.params(),
            config,
            faults,
            shard: ShardSpec::solo(),
            format: JOURNAL_FORMAT,
        });
        let last = torn.len() - 1;
        torn[last] ^= 0x01;
        fs::write(dir.join(WAL_FILE), &torn).unwrap();
        let mut reader = RecordReader::open(&dir.join(WAL_FILE)).unwrap();
        assert!(reader.next().is_none());
        assert_eq!(reader.offset(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
