//! `hcmd-journal dump DIR` — print a journal directory as JSON lines.
//!
//! Walks `DIR/wal.bin` with the reader recovery itself uses
//! ([`netgrid::journal::open_wal`]) and prints one JSON object per
//! record on stdout, in file order: the header (roster, config, faults,
//! format), then one `Applied` record per command the server applied —
//! its time, the command and the outcome it drew. The records are
//! binary on disk; this is where they are legible. A summary (records,
//! valid bytes, torn tail if any) goes to stderr. Read-only: unlike
//! recovery it never truncates a torn tail.
//!
//! Exit status: 0 when the wal scans cleanly (a torn tail is clean —
//! it is what a crash leaves), 1 on a bad record — which includes a
//! directory an older journal format left behind — or an I/O error
//! (no wal at all is one), 2 on usage.

use netgrid::journal::open_wal;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

/// Each record is printed straight into one buffer over stdout, so a
/// long wal costs a write per buffer-full, not one per line. The lines
/// before a bad record are flushed before its error is returned.
fn dump(dir: &Path) -> io::Result<()> {
    let mut out = BufWriter::new(io::stdout().lock());
    let mut records = open_wal(dir)?;
    let mut count = 0u64;
    let scanned = records.by_ref().try_for_each(|rec| {
        serde_json::to_writer(&mut out, &rec?).map_err(io::Error::other)?;
        count += 1;
        out.write_all(b"\n")
    });
    out.flush()?;
    scanned?;
    let (valid, len) = (records.offset(), records.file_len());
    let tail = match len - valid {
        0 => String::new(),
        torn => format!(", then a torn tail of {torn} B"),
    };
    eprintln!("{}: {count} records in {valid} B{tail}", dir.display());
    Ok(())
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
