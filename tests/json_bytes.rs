//! The JSON bytes, pinned against the printer they were first written by.
//!
//! Every copy of the result artifact — `hcmd-server --out`, a partial
//! artifact, the byte form every harness compares — is `serde_json`
//! text, and everywhere else two such texts are compared only with each
//! other. Here the streaming printer is compared with a copy of the tree
//! printer it replaced: [`old_compact`] / [`old_pretty`] walk the
//! [`Value`] a type's `to_value` builds, exactly as `serde_json` printed
//! before `Serialize` emitted events. One golden string pins the form
//! without any reference printer, and a counting allocator pins that
//! printing builds no tree.

use maxdo::{DockingOutput, DockingRow, EulerZyz, Vec3};
use netgrid::{CampaignParams, NetCampaign, RecordReader};
use serde::{Serialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use telemetry::{MetricsSnapshot, RunManifest};

// ---------------------------------------------------------------------
// The reference: the tree printer, as it was.
// ---------------------------------------------------------------------

fn old_compact(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

fn old_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                let _ = write!(out, "{x:.1}");
            } else {
                let _ = write!(out, "{x}");
            }
        }
        Value::Str(s) => write_json_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_json_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, v, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Both forms of `x` equal the reference printer's, and `to_writer`
/// writes the compact form's bytes.
fn same_bytes<T: Serialize>(x: &T) {
    let tree = x.to_value();
    let compact = serde_json::to_string(x).unwrap();
    assert_eq!(compact, old_compact(&tree));
    assert_eq!(serde_json::to_string_pretty(x).unwrap(), old_pretty(&tree));
    let mut written = Vec::new();
    serde_json::to_writer(&mut written, x).unwrap();
    assert!(written == compact.as_bytes(), "to_writer == to_string");
}

// ---------------------------------------------------------------------
// Every shape the derive supports.
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct Named {
    count: u32,
    maybe: Option<f64>,
    none: Option<f64>,
    nested: Vec<Vec<i32>>,
    empty: Vec<u8>,
    by_name: BTreeMap<String, f64>,
    no_names: BTreeMap<u32, bool>,
    unit: Unit,
}

#[derive(Serialize)]
struct Newtype(f64);

#[derive(Serialize)]
struct Triple(i64, String, Newtype);

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
enum Shape<'a> {
    Bare,
    One(u64),
    Many(f32, bool, &'a str),
    Fields { named: Named, list: Vec<Shape<'a>> },
}

fn named() -> Named {
    Named {
        count: 3,
        maybe: Some(2.5),
        none: None,
        nested: vec![vec![1, -2], vec![], vec![3]],
        empty: vec![],
        by_name: [("b".to_string(), 1.0), ("a".to_string(), -0.25)].into(),
        no_names: BTreeMap::new(),
        unit: Unit,
    }
}

#[test]
fn every_derive_shape_prints_the_reference_bytes() {
    same_bytes(&named());
    same_bytes(&Newtype(4.0));
    same_bytes(&Triple(-7, "t".into(), Newtype(0.5)));
    same_bytes(&Unit);
    let shapes = vec![
        Shape::Bare,
        Shape::One(9),
        Shape::Many(0.1, false, "m"),
        Shape::Fields {
            named: named(),
            list: vec![Shape::Bare, Shape::One(1)],
        },
    ];
    same_bytes(&shapes);
    for s in &shapes {
        same_bytes(&s);
    }
    same_bytes(&(1u8, "two", [3.0f64; 2], (Unit,)));
    same_bytes(&Vec::<Vec<u8>>::new());
    same_bytes(&vec![Vec::<u8>::new(), vec![1]]);
    same_bytes(&BTreeMap::<String, Vec<u8>>::new());
    same_bytes(&Some(BTreeMap::from([(
        "k",
        vec![BTreeMap::<u8, u8>::new()],
    )])));
    // A tree a caller built prints as itself.
    same_bytes(&named().to_value());
    same_bytes(&Value::Seq(vec![Value::Map(vec![]), Value::Seq(vec![])]));
}

#[test]
fn numbers_print_the_reference_bytes() {
    let floats = [
        0.0,
        -0.0,
        1.0,
        -3.0,
        0.5,
        0.1 + 0.2,
        1e15 - 1.0,
        1e15,
        -1e15,
        1e16,
        123456789012345680.0,
        1e-7,
        -2.5e-300,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    same_bytes(&floats);
    for x in floats {
        same_bytes(&x);
        same_bytes(&(x as f32));
    }
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&1e15).unwrap(), "1000000000000000");
    same_bytes(&[u64::MAX, i64::MAX as u64 + 1, i64::MAX as u64, 0]);
    same_bytes(&[i64::MIN, -1, i64::MAX]);
    same_bytes(&(u8::MAX, i8::MIN, u32::MAX, i16::MIN));
    same_bytes(&(usize::MAX, isize::MIN));
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "18446744073709551615"
    );
}

#[test]
fn strings_escape_as_the_reference() {
    let s = "quote \" backslash \\ nl \n cr \r tab \t one \u{1} us \u{1f} del \u{7f} \
             é 漢 🦀 slash /";
    same_bytes(&s);
    same_bytes(&s.to_string());
    same_bytes(&BTreeMap::from([(s, s)]));
    same_bytes(&std::borrow::Cow::Borrowed(s));
    assert_eq!(
        serde_json::to_string(&"a\"\\\n\u{1}é").unwrap(),
        r#""a\"\\\n\u0001é""#
    );
}

// ---------------------------------------------------------------------
// The workspace's own types.
// ---------------------------------------------------------------------

fn tiny_baseline() -> Vec<DockingOutput> {
    NetCampaign::build(CampaignParams::tiny()).baseline_outputs()
}

#[test]
fn the_artifact_prints_the_reference_bytes() {
    let outputs = tiny_baseline();
    same_bytes(&outputs);
    // A partial artifact: every other slot empty.
    let partial: Vec<Option<DockingOutput>> = outputs
        .iter()
        .enumerate()
        .map(|(i, o)| (i % 2 == 0).then(|| o.clone()))
        .collect();
    same_bytes(&partial);
}

#[test]
fn journal_records_print_the_reference_bytes() {
    let wal = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/wal_format8.bin");
    let mut records = 0;
    for rec in RecordReader::open(&wal).unwrap() {
        same_bytes(&rec.unwrap());
        records += 1;
    }
    assert_eq!(records, 37, "the golden wal's header and 36 commands");
}

#[test]
fn a_run_manifest_prints_the_reference_bytes() {
    let mut m = RunManifest::new("json_bytes", 7, 1);
    m.wall_seconds = 1.5;
    same_bytes(&m);
    m.metrics = MetricsSnapshot {
        counters: vec![("a".into(), 1), ("b".into(), u64::MAX)],
        gauges: vec![("g".into(), -4)],
        histograms: vec![],
    };
    same_bytes(&m);
}

/// Pinned by hand, so the form holds even if both printers moved.
#[test]
fn two_rows_print_this_literal() {
    let row = |isep, elj| DockingRow {
        isep,
        irot: 2,
        position: Vec3::new(1.0, -0.5, 30.25),
        orientation: EulerZyz {
            alpha: 0.1,
            beta: 3.0,
            gamma: -0.0,
        },
        elj,
        eelec: -1e-7,
    };
    let out = DockingOutput {
        rows: vec![row(1, -12.75), row(2, f64::INFINITY)],
        evaluations: 1 << 40,
    };
    assert_eq!(
        serde_json::to_string(&out).unwrap(),
        GOLDEN_COMPACT,
        "\n{}",
        serde_json::to_string(&out).unwrap()
    );
    assert_eq!(
        serde_json::to_string_pretty(&out.rows[..1].to_vec()).unwrap(),
        GOLDEN_PRETTY,
        "\n{}",
        serde_json::to_string_pretty(&out.rows[..1].to_vec()).unwrap()
    );
}

const GOLDEN_COMPACT: &str = r#"{"rows":[{"isep":1,"irot":2,"position":{"x":1.0,"y":-0.5,"z":30.25},"orientation":{"alpha":0.1,"beta":3.0,"gamma":-0.0},"elj":-12.75,"eelec":-0.0000001},{"isep":2,"irot":2,"position":{"x":1.0,"y":-0.5,"z":30.25},"orientation":{"alpha":0.1,"beta":3.0,"gamma":-0.0},"elj":null,"eelec":-0.0000001}],"evaluations":1099511627776}"#;
const GOLDEN_PRETTY: &str = r#"[
  {
    "isep": 1,
    "irot": 2,
    "position": {
      "x": 1.0,
      "y": -0.5,
      "z": 30.25
    },
    "orientation": {
      "alpha": 0.1,
      "beta": 3.0,
      "gamma": -0.0
    },
    "elj": -12.75,
    "eelec": -0.0000001
  }
]"#;

// ---------------------------------------------------------------------
// Printing builds no tree: a count, which repeats exactly.
// ---------------------------------------------------------------------

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; the counter is a const-
// initialised thread-local `Cell` and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn printing_the_artifact_builds_no_tree() {
    let outputs = tiny_baseline();
    let rows: usize = outputs.iter().map(|o| o.rows.len()).sum();
    assert_eq!(rows, 336, "the tiny campaign's artifact");

    let before = allocs();
    let json = serde_json::to_string(&outputs).unwrap();
    let printed = allocs() - before;
    assert!(
        printed <= 32,
        "printing {rows} rows ({} bytes) took {printed} allocations: a tree is being built",
        json.len()
    );

    struct Sink(u64);
    impl io::Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0 += buf.len() as u64;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let mut sink = Sink(0);
    let before = allocs();
    serde_json::to_writer(&mut sink, &outputs).unwrap();
    let streamed = allocs() - before;
    assert_eq!(sink.0, json.len() as u64);
    assert!(streamed <= 32, "to_writer took {streamed} allocations");
}

#[test]
fn to_writer_returns_the_first_write_error() {
    struct Full;
    impl io::Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let err = serde_json::to_writer(Full, &tiny_baseline()).unwrap_err();
    assert!(err.to_string().contains("disk full"), "{err}");
}
