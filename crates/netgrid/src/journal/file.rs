//! The wal's file driver: everything that touches `wal.bin`.
//!
//! The log itself is bytes (the core's `Wal`); this module is what puts them on
//! a disk, the way `server.rs` carries the bytes of the event loop. It
//! reads a wal back for recovery ([`open_wal`], one frame at a time),
//! cuts a torn tail back, writes the header of a fresh wal, and writes
//! each committed batch with one `write_all` — plus one `fdatasync`
//! under [`FsyncPolicy::Always`] ([`WalFile::persist`]). Nothing else
//! in the crate opens `wal.bin` for writing.

use super::{bad, other_format, replay, JournalRecord, RecordReader, Wal, WAL_FILE};
use crate::registry::{Command, Outcome};
use gridsim::SimTime;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};

/// Whether a commit waits for the disk. Either way nothing is synced on
/// append: the event loop commits before any frame leaves it (the
/// journal's module docs, "Consistency model").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// A commit is one `fdatasync` when records were appended since the
    /// last one: a power cut loses nothing any peer or volunteer was
    /// told.
    #[default]
    Always,
    /// A commit syncs nothing; the OS flushes when it pleases. For
    /// benchmarks, tmpfs and fast tests: still torn-tail safe, and a
    /// `kill -9` still loses nothing committed, but a power cut can.
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

/// An open `wal.bin`, appended to one committed batch at a time.
pub struct WalFile {
    file: File,
    fsync: FsyncPolicy,
    fsyncs: &'static telemetry::Counter,
}

impl WalFile {
    fn new(file: File, fsync: FsyncPolicy) -> Self {
        Self {
            file,
            fsync,
            fsyncs: telemetry::counter("journal.fsyncs"),
        }
    }

    /// Opens the wal that recovery ([`crate::MultiGrid::open`]) left under
    /// `cfg.dir`, for the batches that follow.
    pub fn append(cfg: &JournalConfig) -> io::Result<Self> {
        let file = OpenOptions::new()
            .append(true)
            .open(cfg.dir.join(WAL_FILE))?;
        Ok(Self::new(file, cfg.fsync))
    }

    /// Writes one committed batch with one `write_all` and, under
    /// [`FsyncPolicy::Always`], waits for the disk: one `fdatasync`.
    pub fn persist(&mut self, batch: &[u8]) -> io::Result<()> {
        self.file.write_all(batch)?;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data()?;
            self.fsyncs.inc();
        }
        Ok(())
    }
}

/// Recovers the wal under `cfg.dir` (created if absent): every record
/// replayed through `apply` ([`replay`]), a torn tail cut back to the
/// last whole record, and a fresh wal's header written. Under
/// [`FsyncPolicy::Always`] it returns with the wal on disk: a `kill -9`
/// can have left the replayed records in the page cache only.
pub(crate) fn recover(
    cfg: &JournalConfig,
    header: &JournalRecord,
    apply: impl FnMut(SimTime, &Command) -> Outcome,
) -> io::Result<Wal> {
    fs::create_dir_all(&cfg.dir)?;
    let mut wal = match open_wal(&cfg.dir) {
        Ok(records) => replay(records, header, apply)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Wal::fresh(header),
        Err(e) => return Err(e),
    };
    let file = OpenOptions::new()
        .append(true)
        .create(true)
        .open(cfg.dir.join(WAL_FILE))?;
    file.set_len(wal.committed)?;
    let mut file = WalFile::new(file, cfg.fsync);
    wal.commit(|batch| file.persist(batch))?;
    Ok(wal)
}

/// Opens the wal of journal directory `dir` for scanning, after
/// refusing a directory that holds a journal format 3 `snapshot.bin` or
/// a journal format 4 per-campaign wal (the journal's module docs,
/// "legacy file").
/// `NotFound` when there is no wal.
pub fn open_wal(dir: &Path) -> io::Result<RecordReader<BufReader<File>>> {
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

impl RecordReader<BufReader<File>> {
    /// Opens `path` for scanning.
    pub fn open(path: &Path) -> io::Result<Self> {
        let what = path.display().to_string();
        let named = |e: io::Error| io::Error::new(e.kind(), format!("{what}: {e}"));
        let file = File::open(path).map_err(named)?;
        let len = file.metadata().map_err(named)?.len();
        Ok(Self::new(what, BufReader::new(file), len))
    }
}
