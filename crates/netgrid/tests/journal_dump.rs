//! `hcmd-journal dump` as a process: over a copy of the golden wal it
//! prints exactly one `serde_json::to_string` line per record, in file
//! order, and nothing else on stdout.

use netgrid::journal::open_wal;
use std::process::Command;

#[test]
fn dump_prints_each_record_as_its_json_line() {
    let dir = std::env::temp_dir().join(format!("hcmd-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/wal_format8.bin"
    );
    std::fs::copy(golden, dir.join("wal.bin")).unwrap();

    let mut expected = String::new();
    for rec in open_wal(&dir).unwrap() {
        expected += &serde_json::to_string(&rec.unwrap()).unwrap();
        expected.push('\n');
    }
    assert!(expected.lines().count() > 1, "a header and records");

    let dump = Command::new(env!("CARGO_BIN_EXE_hcmd-journal"))
        .arg("dump")
        .arg(&dir)
        .output()
        .expect("run hcmd-journal");
    let stderr = String::from_utf8_lossy(&dump.stderr);
    assert!(dump.status.success(), "{stderr}");
    assert!(String::from_utf8(dump.stdout).unwrap() == expected);
    let summary = format!("{} records in", expected.lines().count());
    assert!(stderr.contains(&summary), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
