//! Command line of both binaries.
//!
//! ```text
//! gridbench --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! gridbench run   [--seed N] [--seconds S] [--out FILE]     every workload, two interleaved passes
//! gridbench trace [--seed N] [--seconds S]                  every workload, per-layer table
//! gridbench smoke                                           every workload once, verified
//! gridbench check A.json B.json                             compare two `run` result files
//! gridbench-trace --workload W --seed N --seconds S         the traced run of one workload
//! ```
//!
//! `gridbench` measures end to end (no counting allocator, no spans) and
//! is the only binary anyone starts; for `--trace 1` it measures the
//! end-to-end rows itself for half of `--seconds` and gives the other half
//! to `gridbench-trace`, the same library with both, for the layer rows.

use crate::measure::{measure, Measured, Plan};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{
    check, contract_end_to_end, contract_line, number, parse_result_line, result_value,
    ungated_end_to_end, MetricRow, ResultFile, WorkloadRows,
};
use crate::runner::Env;
use crate::stats::{median, LatencyPool, Summary};
use crate::sysx;
use crate::trace::run_traced;
use crate::workload::{by_name, Workload, WORKLOADS};
use serde::Value;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// `benchmarks/out`: under the working directory when that is a checkout
/// (how the driver and `cargo run` from the root start us), else beside
/// the crate as compiled.
fn out_dir() -> PathBuf {
    if Path::new("benchmarks/gridbench").is_dir() {
        PathBuf::from("benchmarks/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../out")
    }
}

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or(format!("expected --flag, got {key:?}"))?;
            let value = it.next().ok_or(format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Self(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        }
    }
}

/// `gridbench-trace`, next to the running `gridbench`.
fn trace_binary() -> io::Result<PathBuf> {
    Ok(std::env::current_exe()?.with_file_name("gridbench-trace"))
}

fn exit_code(result: Result<bool, String>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gridbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Entry point of `gridbench`.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_code(match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run(&f).map_err(|e| e.to_string())),
        Some("trace") => {
            Flags::parse(&args[1..]).and_then(|f| trace_all(&f).map_err(|e| e.to_string()))
        }
        Some("smoke") => smoke().map_err(|e| e.to_string()),
        Some("check") => match &args[1..] {
            [a, b] => check_files(a, b),
            _ => Err("usage: check A.json B.json".into()),
        },
        Some(flag) if flag.starts_with("--") => Flags::parse(&args).and_then(|f| one_workload(&f)),
        _ => Err("usage: gridbench (run | trace | smoke | check A B | --workload W --seed N --seconds S --trace 0|1)".into()),
    })
}

/// Entry point of `gridbench-trace`: the traced run of one workload, its
/// self-time table, its sum checks and a result line of the layer rows.
pub fn trace_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_code(Flags::parse(&args).and_then(|flags| {
        let workload = workload_flag(&flags)?;
        let plan = Plan::timed(flags.number("seed", 42)?, flags.number("seconds", 10.0)?);
        let out = out_dir();
        let env = Env::new(out.join("scratch")).map_err(|e| e.to_string())?;
        let t = run_traced(workload, plan, &env, &out).map_err(|e| e.to_string())?;
        let wall: u64 = t.self_ns.iter().map(|&(_, ns)| ns).sum();
        println!("self time by span ({}):", workload.name);
        for (name, ns) in &t.self_ns {
            println!(
                "  {name:<32} {:>10.3} ms {:>6.2} %",
                *ns as f64 * 1e-6,
                *ns as f64 * 100.0 / wall.max(1) as f64
            );
        }
        if !t.sum_checks.is_empty() {
            println!(
                "direct calls + transport vs round trip, p50 ({}):",
                workload.name
            );
            for line in &t.sum_checks {
                println!("{line}");
            }
        }
        let m = &t.measured;
        println!(
            "{}",
            contract_line(m.correct, m.attempted, m.failed, &t.layers)
        );
        Ok(m.correct && m.failed == 0)
    }))
}

fn workload_flag(flags: &Flags) -> Result<&'static Workload, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    by_name(name).ok_or(format!(
        "unknown workload {name:?} (one of {})",
        WORKLOADS.map(|w| w.name).join(", ")
    ))
}

/// The contract form: one workload, one result line last on stdout.
fn one_workload(flags: &Flags) -> Result<bool, String> {
    let workload = workload_flag(flags)?;
    let want_trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let seed: u64 = flags.number("seed", 42)?;
    let seconds: f64 = flags.number("seconds", 15.0)?;
    // Traced or not, the end-to-end rows come from this untraced run.
    let own_seconds = if want_trace { seconds / 2.0 } else { seconds };
    let env = Env::new(out_dir().join("scratch")).map_err(|e| e.to_string())?;
    let measured =
        measure(workload, Plan::timed(seed, own_seconds), &env).map_err(|e| e.to_string())?;
    if let Some(dir) = flags.get("detail") {
        write_detail(Path::new(dir), &measured).map_err(|e| e.to_string())?;
    }
    let (mut correct, mut attempted, mut failed) =
        (measured.correct, measured.attempted, measured.failed);
    let metrics = if want_trace {
        let out = Command::new(trace_binary().map_err(|e| e.to_string())?)
            .args(["--workload", workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &(seconds - own_seconds).to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start gridbench-trace: {e}"))?;
        let doc = parse_result_line(&out.stdout).ok_or("gridbench-trace printed no result line")?;
        // Its tables, without its result line.
        let text = String::from_utf8_lossy(&out.stdout);
        if let Some((tables, _)) = text.trim_end().rsplit_once('\n') {
            println!("{tables}");
        }
        correct &= out.status.success();
        attempted += doc.get("attempted").and_then(number).unwrap_or(0.0) as u64;
        failed += doc.get("failed").and_then(number).unwrap_or(0.0) as u64;
        let mut rows = ungated_end_to_end(&measured);
        rows.extend(
            PER_LAYER
                .iter()
                .map(|l| (l.name, l.unit, result_value(&doc, l.name).unwrap_or(0.0))),
        );
        rows
    } else {
        contract_end_to_end(&measured).map_err(|e| e.to_string())?
    };
    println!(
        "{}: seed {} · {} repetitions · {} · journal fs {}",
        measured.workload,
        measured.seed,
        measured.repetitions,
        if measured.pinned {
            "pinned"
        } else {
            "unpinned"
        },
        sysx::filesystem_of(&env.scratch).unwrap_or_else(|| "unknown".into()),
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    println!("{}", contract_line(correct, attempted, failed, &metrics));
    Ok(correct && failed == 0)
}

/// What a child of `run` leaves for its parent: every per-repetition
/// series plus the raw latency pools.
fn write_detail(dir: &Path, m: &Measured) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let series = Value::Map(
        m.series
            .iter()
            .map(|(name, v)| {
                (
                    name.to_string(),
                    Value::Seq(v.iter().map(|&x| Value::F64(x)).collect()),
                )
            })
            .collect(),
    );
    let doc = Value::Map(vec![
        ("series".into(), series),
        ("attempted".into(), Value::I64(m.attempted as i64)),
        ("failed".into(), Value::I64(m.failed as i64)),
        ("correct".into(), Value::Bool(m.correct)),
        ("pinned".into(), Value::Bool(m.pinned)),
    ]);
    std::fs::write(
        dir.join("detail.json"),
        serde_json::to_string(&doc).expect("a Value serializes"),
    )?;
    std::fs::write(dir.join("ask.bin"), m.ask.to_bytes())?;
    std::fs::write(dir.join("report.bin"), m.report.to_bytes())
}

/// One child's detail, read back.
struct Detail {
    series: Vec<(String, Vec<f64>)>,
    attempted: u64,
    failed: u64,
    correct: bool,
    pinned: bool,
    ask: LatencyPool,
    report: LatencyPool,
}

fn read_detail(dir: &Path) -> Result<Detail, String> {
    let text = std::fs::read_to_string(dir.join("detail.json")).map_err(|e| e.to_string())?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("{e:?}"))?;
    let int = |key: &str| match doc.get(key) {
        Some(Value::I64(v)) => Ok(*v as u64),
        other => Err(format!("detail {key}: {other:?}")),
    };
    let flag = |key: &str| matches!(doc.get(key), Some(Value::Bool(true)));
    let series = match doc.get("series") {
        Some(Value::Map(entries)) => entries
            .iter()
            .map(|(name, v)| {
                let values = match v {
                    Value::Seq(items) => items.iter().filter_map(number).collect(),
                    _ => Vec::new(),
                };
                (name.clone(), values)
            })
            .collect(),
        other => return Err(format!("detail series: {other:?}")),
    };
    let pool = |file: &str| {
        std::fs::read(dir.join(file))
            .map(|b| LatencyPool::from_bytes(&b))
            .map_err(|e| e.to_string())
    };
    Ok(Detail {
        series,
        attempted: int("attempted")?,
        failed: int("failed")?,
        correct: flag("correct"),
        pinned: flag("pinned"),
        ask: pool("ask.bin")?,
        report: pool("report.bin")?,
    })
}

/// `run`: every workload in two interleaved passes (A B C D A B C D),
/// each in a re-exec'd child so `peak_rss_mb` is per workload; pools
/// both passes and reports median, quartiles and n per metric.
fn run(flags: &Flags) -> io::Result<bool> {
    let seed: u64 = flags.number("seed", 42).map_err(io::Error::other)?;
    let seconds: f64 = flags.number("seconds", 30.0).map_err(io::Error::other)?;
    let out = out_dir();
    let path = flags
        .get("out")
        .map_or_else(|| out.join(format!("run-seed{seed}.json")), PathBuf::from);
    let exe = std::env::current_exe()?;
    let mut passes: Vec<Vec<Detail>> = Vec::new();
    for pass in 0..2 {
        let mut details = Vec::new();
        for w in &WORKLOADS {
            eprintln!("pass {} · {}", pass + 1, w.name);
            let dir = out.join(format!("detail-{}-{}", std::process::id(), w.name));
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &(seconds / 2.0).to_string()])
                .arg("--detail")
                .arg(&dir)
                .stdout(std::process::Stdio::null())
                .status()?;
            let detail = read_detail(&dir).map_err(io::Error::other);
            let _ = std::fs::remove_dir_all(&dir);
            if !status.success() {
                eprintln!("  {} failed verification (exit {status})", w.name);
            }
            details.push(detail?);
        }
        passes.push(details);
    }
    let workloads = WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, w)| pool_passes(w, &passes[0][i], &passes[1][i]))
        .collect();
    let result = ResultFile {
        seed,
        seconds,
        workloads,
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, result.to_json())?;
    println!("{}", result.table());
    println!("result file: {}", path.display());
    Ok(result.workloads.iter().all(|w| w.correct && w.failed == 0))
}

fn pool_passes(w: &Workload, a: &Detail, b: &Detail) -> WorkloadRows {
    // Every sample of series `name`, pass 1 then pass 2.
    let samples = |name: &str| -> Vec<f64> {
        [a, b]
            .iter()
            .flat_map(|d| d.series.iter().filter(|(n, _)| n == name))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    };
    let mut ask = a.ask.clone();
    ask.extend(&b.ask);
    let mut report = a.report.clone();
    report.extend(&b.report);

    let mut metrics = Vec::new();
    for e in &END_TO_END {
        let pooled = match e.name {
            "ask_p50_us" => Some((&ask, 50.0)),
            "ask_p99_us" => Some((&ask, 99.0)),
            "report_p50_us" => Some((&report, 50.0)),
            "report_p99_us" => Some((&report, 99.0)),
            _ => None,
        };
        let row = match pooled {
            Some((pool, p)) => pool.supported_percentile_us(p).map(|value| {
                // Pooled value; quartiles from the per-repetition values,
                // unknown where a single repetition has too few samples.
                let reps = Summary::of(&samples(&format!("rep.{}", e.name)));
                MetricRow {
                    name: e.name.into(),
                    unit: e.unit.into(),
                    value,
                    quartiles: reps.map(|s| (s.q1, s.q3)),
                    n: pool.len(),
                }
            }),
            None => {
                Summary::of(&samples(e.name)).map(|s| MetricRow::from_summary(e.name, e.unit, s))
            }
        };
        metrics.extend(row);
    }
    let pass_median = |d: &Detail| {
        d.series
            .iter()
            .find(|(n, _)| n == "wu_per_s")
            .map_or(0.0, |(_, v)| median(v))
    };
    let all = median(&samples("wu_per_s"));
    WorkloadRows {
        name: w.name.into(),
        metrics,
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        correct: a.correct && b.correct,
        pinned: a.pinned && b.pinned,
        drift_frac: if all > 0.0 {
            (pass_median(a) - pass_median(b)).abs() / all
        } else {
            0.0
        },
    }
}

/// `trace`: `--trace 1` of every workload (each in a child), as one
/// table: a row per per-layer metric, a column per workload.
fn trace_all(flags: &Flags) -> io::Result<bool> {
    let seed: u64 = flags.number("seed", 42).map_err(io::Error::other)?;
    let seconds: f64 = flags.number("seconds", 20.0).map_err(io::Error::other)?;
    let exe = std::env::current_exe()?;
    let mut columns: Vec<Value> = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        eprintln!("trace · {}", w.name);
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--trace", "1"])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        ok &= out.status.success();
        let text = String::from_utf8_lossy(&out.stdout);
        for line in text.lines().filter(|l| l.contains("FAILED")) {
            println!("{}: {}", w.name, line.trim());
        }
        let doc = parse_result_line(&out.stdout)
            .ok_or_else(|| io::Error::other(format!("{}: no result line", w.name)))?;
        columns.push(doc);
    }
    print!("{:<34} {:>6}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>17}", w.name);
    }
    println!();
    let names = END_TO_END
        .iter()
        .filter(|e| !e.gated)
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)));
    for (name, unit) in names {
        print!("{name:<34} {unit:>6}");
        for doc in &columns {
            match result_value(doc, name) {
                Some(v) => print!(" {v:>17.4}"),
                None => print!(" {:>17}", "?"),
            }
        }
        println!();
    }
    println!("spans: {}/trace-<workload>.jsonl", out_dir().display());
    Ok(ok)
}

/// `smoke`: every workload, one set-up, one repetition, still verified.
fn smoke() -> io::Result<bool> {
    let env = Env::new(out_dir().join("scratch"))?;
    let mut ok = true;
    for w in &WORKLOADS {
        let plan = Plan {
            setup_reps: 1,
            min_reps: 1,
            max_reps: 1,
            ..Plan::timed(42, 0.0)
        };
        let m = measure(w, plan, &env)?;
        let good = m.correct && m.failed == 0;
        ok &= good;
        println!(
            "{:<17} {}  artifacts {}  failed {}/{}  wu_per_s {:.1}",
            w.name,
            if good { "ok" } else { "FAILED" },
            if m.correct { "identical" } else { "DIFFER" },
            m.failed,
            m.attempted,
            m.series.median("wu_per_s").unwrap_or(0.0),
        );
    }
    Ok(ok)
}

fn check_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| ResultFile::from_json(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (table, any_worse) = check(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(!any_worse)
}
