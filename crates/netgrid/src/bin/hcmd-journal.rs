//! `hcmd-journal dump DIR` — print a journal directory as JSON lines.
//!
//! Walks `snapshot.bin` then `wal.bin` with the reader recovery itself
//! uses ([`netgrid::RecordReader`]) and prints one JSON object per
//! record on stdout, in file order. The wal's transition records are
//! binary on disk; this is where they are legible. A per-file summary
//! (records, valid bytes, torn tail if any) goes to stderr. Read-only:
//! unlike recovery it never truncates a torn tail.
//!
//! Exit status: 0 when both files scan cleanly (a torn tail is clean —
//! it is what a crash leaves), 1 on a bad record — which includes a
//! file sealed with an older journal format's checksum — or an I/O
//! error, 2 on usage.

use netgrid::journal::{SNAPSHOT_FILE, WAL_FILE};
use netgrid::RecordReader;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

fn dump_file(path: &Path, out: &mut impl Write) -> io::Result<()> {
    let mut records = RecordReader::open(path)?;
    let mut count = 0u64;
    for rec in records.by_ref() {
        let json = serde_json::to_string(&rec?).expect("JournalRecord serializes");
        writeln!(out, "{json}")?;
        count += 1;
    }
    let (valid, len) = (records.offset(), records.file_len());
    let tail = match len - valid {
        0 => String::new(),
        torn => format!(", then a torn tail of {torn} B"),
    };
    eprintln!("{}: {count} records in {valid} B{tail}", path.display());
    Ok(())
}

fn dump(dir: &Path) -> io::Result<()> {
    let mut out = io::stdout().lock();
    let mut found = false;
    for name in [SNAPSHOT_FILE, WAL_FILE] {
        let path = dir.join(name);
        if path.exists() {
            found = true;
            dump_file(&path, &mut out)?;
        }
    }
    match found {
        true => out.flush(),
        false => Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: no {SNAPSHOT_FILE} or {WAL_FILE}", dir.display()),
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["dump", dir] => match dump(Path::new(dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("hcmd-journal: {e}");
                ExitCode::from(1)
            }
        },
        _ => {
            eprintln!("usage: hcmd-journal dump DIR");
            ExitCode::from(2)
        }
    }
}
