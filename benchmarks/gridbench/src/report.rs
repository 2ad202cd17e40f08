//! Result formats: the one-line contract result of a single workload
//! run, the result file `run` writes, and `check`, which compares two
//! result files metric by metric against the bounds.

use crate::measure::Measured;
use crate::metrics::{end_to_end, Better, END_TO_END};
use crate::stats::Summary;
use serde::Value;
use std::io;

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub(crate) fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::I64(x) => Some(*x as f64),
        Value::U64(x) => Some(*x as f64),
        _ => None,
    }
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value serializes")
}

/// The contract's result line: `correct`, `attempted`, `failed` and one
/// `{value, unit}` per metric.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    to_line(&map(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::I64(attempted as i64)),
        ("failed", Value::I64(failed as i64)),
        (
            "metrics",
            Value::Map(
                metrics
                    .iter()
                    .map(|&(name, unit, value)| {
                        (
                            name.to_string(),
                            map(vec![
                                ("value", Value::F64(value)),
                                ("unit", Value::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// Parses the result line — the last line of a child's stdout.
pub fn parse_result_line(stdout: &[u8]) -> Option<Value> {
    let text = std::str::from_utf8(stdout).ok()?;
    serde_json::parse_value(text.lines().last()?).ok()
}

/// Metric `name`'s value in a parsed result line.
pub fn result_value(doc: &Value, name: &str) -> Option<f64> {
    number(doc.get("metrics")?.get(name)?.get("value")?)
}

/// The gated end-to-end metrics of one untraced run, as the contract
/// lists them for `--trace 0`.
pub fn contract_end_to_end(m: &Measured) -> io::Result<Vec<(&'static str, &'static str, f64)>> {
    END_TO_END
        .iter()
        .filter(|e| e.gated)
        .map(|e| {
            m.end_to_end(e.name)
                .map(|v| (e.name, e.unit, v))
                .ok_or_else(|| io::Error::other(format!("{} was not measured", e.name)))
        })
        .collect()
}

/// The other end-to-end metrics of the same kind of run, which head the
/// contract's per-layer list; 0 where one does not apply to the workload.
pub fn ungated_end_to_end(m: &Measured) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .filter(|e| !e.gated)
        .map(|e| (e.name, e.unit, m.end_to_end(e.name).unwrap_or(0.0)))
        .collect()
}

/// One metric of one workload in a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Quartiles over the repetitions; `None` where no single repetition
    /// supports the row's percentile, so its spread is unknown.
    pub quartiles: Option<(f64, f64)>,
    pub n: usize,
}

impl MetricRow {
    pub fn from_summary(name: &str, unit: &str, s: Summary) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            value: s.median,
            quartiles: Some((s.q1, s.q3)),
            n: s.n,
        }
    }

    pub fn iqr(&self) -> Option<f64> {
        self.quartiles.map(|(q1, q3)| q3 - q1)
    }

    /// Interquartile range as a share of the value, when known.
    pub fn spread(&self) -> Option<f64> {
        let iqr = self.iqr()?;
        Some(if self.value == 0.0 {
            0.0
        } else {
            iqr / self.value.abs()
        })
    }
}

fn or_unknown(v: Option<f64>) -> String {
    v.map_or_else(|| "?".into(), |v| format!("{v:.4}"))
}

/// One workload in a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRows {
    pub name: String,
    pub metrics: Vec<MetricRow>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub pinned: bool,
    /// |median(pass 1) − median(pass 2)| ÷ median of `wu_per_s`.
    pub drift_frac: f64,
}

impl WorkloadRows {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Drift between the passes exceeds `wu_per_s`'s own bound: the
    /// machine moved more than a regression would.
    pub fn noisy(&self) -> bool {
        end_to_end("wu_per_s").is_some_and(|e| self.drift_frac > e.bound)
    }
}

/// What `run` writes and `check` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub seed: u64,
    pub seconds: f64,
    pub workloads: Vec<WorkloadRows>,
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let metrics = w
                    .metrics
                    .iter()
                    .map(|m| {
                        map(vec![
                            ("name", Value::Str(m.name.clone())),
                            ("unit", Value::Str(m.unit.clone())),
                            ("value", Value::F64(m.value)),
                            ("q1", m.quartiles.map_or(Value::Null, |q| Value::F64(q.0))),
                            ("q3", m.quartiles.map_or(Value::Null, |q| Value::F64(q.1))),
                            ("n", Value::I64(m.n as i64)),
                        ])
                    })
                    .collect();
                map(vec![
                    ("name", Value::Str(w.name.clone())),
                    ("attempted", Value::I64(w.attempted as i64)),
                    ("failed", Value::I64(w.failed as i64)),
                    ("correct", Value::Bool(w.correct)),
                    ("pinned", Value::Bool(w.pinned)),
                    ("drift_frac", Value::F64(w.drift_frac)),
                    ("metrics", Value::Seq(metrics)),
                ])
            })
            .collect();
        serde_json::to_string_pretty(&map(vec![
            ("seed", Value::I64(self.seed as i64)),
            ("seconds", Value::F64(self.seconds)),
            ("workloads", Value::Seq(workloads)),
        ]))
        .expect("a Value serializes")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = serde_json::parse_value(text).map_err(|e| format!("{e:?}"))?;
        let field = |v: &Value, key: &str| v.get(key).cloned().ok_or(format!("missing {key:?}"));
        let num = |v: &Value, key: &str| {
            field(v, key).and_then(|x| number(&x).ok_or(format!("{key:?} is not a number")))
        };
        let text_of = |v: &Value, key: &str| match field(v, key)? {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{key:?} is not a string")),
        };
        let flag = |v: &Value, key: &str| match field(v, key)? {
            Value::Bool(b) => Ok(b),
            _ => Err(format!("{key:?} is not a bool")),
        };
        let seq = |v: &Value, key: &str| match field(v, key)? {
            Value::Seq(s) => Ok(s),
            _ => Err(format!("{key:?} is not a list")),
        };
        let workloads = seq(&doc, "workloads")?
            .iter()
            .map(|w| {
                let metrics = seq(w, "metrics")?
                    .iter()
                    .map(|m| {
                        Ok(MetricRow {
                            name: text_of(m, "name")?,
                            unit: text_of(m, "unit")?,
                            value: num(m, "value")?,
                            quartiles: match (num(m, "q1"), num(m, "q3")) {
                                (Ok(q1), Ok(q3)) => Some((q1, q3)),
                                _ => None,
                            },
                            n: num(m, "n")? as usize,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Ok(WorkloadRows {
                    name: text_of(w, "name")?,
                    metrics,
                    attempted: num(w, "attempted")? as u64,
                    failed: num(w, "failed")? as u64,
                    correct: flag(w, "correct")?,
                    pinned: flag(w, "pinned")?,
                    drift_frac: num(w, "drift_frac")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            seed: num(&doc, "seed")? as u64,
            seconds: num(&doc, "seconds")?,
            workloads,
        })
    }

    /// The table `run` prints: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            out.push_str(&format!(
                "\n{}  (failed_frac {} = {}/{}, artifacts {}, drift_frac {:.4}{}, {})\n",
                w.name,
                w.failed_frac(),
                w.failed,
                w.attempted,
                if w.correct { "identical" } else { "DIFFER" },
                w.drift_frac,
                if w.noisy() { " NOISY" } else { "" },
                if w.pinned { "pinned" } else { "unpinned" },
            ));
            out.push_str(&format!(
                "  {:<24} {:>14} {:>14} {:>14} {:>8}  unit\n",
                "metric", "value", "q1", "q3", "n"
            ));
            for e in &END_TO_END {
                match w.metrics.iter().find(|m| m.name == e.name) {
                    Some(m) => out.push_str(&format!(
                        "  {:<24} {:>14.4} {:>14} {:>14} {:>8}  {}\n",
                        m.name,
                        m.value,
                        or_unknown(m.quartiles.map(|q| q.0)),
                        or_unknown(m.quartiles.map(|q| q.1)),
                        m.n,
                        m.unit
                    )),
                    None => out.push_str(&format!("  {:<24} {:>14}\n", e.name, "—")),
                }
            }
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Worse,
    /// The spread of either side is wider than the bound, or unknown: the
    /// comparison cannot tell, and must not be read as "unchanged".
    Unresolved,
}

impl Status {
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `b` against baseline `a`.
pub fn judge(better: Better, bound: f64, a: &MetricRow, b: &MetricRow) -> Status {
    let worse_by = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    } / a.value.abs().max(f64::MIN_POSITIVE);
    match (a.spread(), b.spread()) {
        _ if worse_by > bound => Status::Worse,
        (Some(sa), Some(sb)) if sa.max(sb) <= bound => Status::Ok,
        _ => Status::Unresolved,
    }
}

/// Compares `b` against baseline `a`: one row per (workload, metric)
/// with both values, both IQRs and the status. Returns the table and
/// whether anything was `worse`.
pub fn check(a: &ResultFile, b: &ResultFile) -> (String, bool) {
    let mut out = format!(
        "{:<17} {:<22} {:>13} {:>9} {:>13} {:>9} {:>7}  status\n",
        "workload", "metric", "A", "A iqr", "B", "B iqr", "bound"
    );
    let mut any_worse = false;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for e in &END_TO_END {
            let (Some(ma), Some(mb)) = (
                wa.metrics.iter().find(|m| m.name == e.name),
                wb.metrics.iter().find(|m| m.name == e.name),
            ) else {
                continue;
            };
            let status = judge(e.better, e.bound, ma, mb);
            any_worse |= status == Status::Worse;
            out.push_str(&format!(
                "{:<17} {:<22} {:>13.4} {:>9} {:>13.4} {:>9} {:>7}  {}\n",
                wa.name,
                e.name,
                ma.value,
                or_unknown(ma.iqr()),
                mb.value,
                or_unknown(mb.iqr()),
                e.bound,
                status.as_str()
            ));
        }
        // failed_frac is absolute: it is 0 today and must stay 0.
        let status = if wb.failed_frac() > wa.failed_frac() || !wb.correct {
            Status::Worse
        } else {
            Status::Ok
        };
        any_worse |= status == Status::Worse;
        out.push_str(&format!(
            "{:<17} {:<22} {:>13.4} {:>9} {:>13.4} {:>9} {:>7}  {}\n",
            wa.name,
            "failed_frac",
            wa.failed_frac(),
            "",
            wb.failed_frac(),
            "",
            0,
            status.as_str()
        ));
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, value: f64, q1: f64, q3: f64) -> MetricRow {
        MetricRow {
            name: name.into(),
            unit: "x".into(),
            value,
            quartiles: Some((q1, q3)),
            n: 10,
        }
    }

    fn file(wu_per_s: MetricRow, replicas: f64, failed: u64) -> ResultFile {
        ResultFile {
            seed: 1,
            seconds: 2.0,
            workloads: vec![WorkloadRows {
                name: "wire_steady".into(),
                metrics: vec![
                    wu_per_s,
                    row("replicas_per_wu", replicas, replicas, replicas),
                ],
                attempted: 100,
                failed,
                correct: true,
                pinned: true,
                drift_frac: 0.01,
            }],
        }
    }

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let base = row("wu_per_s", 100.0, 99.0, 101.0);
        // Higher is better: −5 % is inside a 10 % bound, −15 % is not.
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &row("", 95.0, 94.0, 96.0)),
            Status::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &row("", 85.0, 84.0, 86.0)),
            Status::Worse
        );
        // A big gain is never "worse".
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &row("", 150.0, 149.0, 151.0)),
            Status::Ok
        );
        // Spread wider than the bound: cannot tell, never "ok".
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &row("", 98.0, 90.0, 106.0)),
            Status::Unresolved
        );
        // Spread unknown (a pooled percentile no repetition supports):
        // cannot tell either, but a regression beyond the bound still shows.
        let pooled = MetricRow {
            quartiles: None,
            ..row("", 98.0, 0.0, 0.0)
        };
        assert_eq!(
            judge(Better::Higher, 0.10, &base, &pooled),
            Status::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &pooled),
            Status::Unresolved
        );
        assert_eq!(
            judge(
                Better::Higher,
                0.10,
                &base,
                &MetricRow {
                    value: 80.0,
                    ..pooled.clone()
                }
            ),
            Status::Worse
        );
        // Exact counts: any increase of a lower-is-better count is worse.
        let two = row("", 2.0, 2.0, 2.0);
        assert_eq!(judge(Better::Lower, 0.0, &two, &two), Status::Ok);
        assert_eq!(
            judge(Better::Lower, 0.0, &two, &row("", 2.001, 2.001, 2.001)),
            Status::Worse
        );
    }

    #[test]
    fn check_flags_regressions_and_failures() {
        let a = file(row("wu_per_s", 100.0, 99.0, 101.0), 2.0, 0);
        let (table, worse) = check(&a, &a);
        assert!(!worse, "{table}");
        assert!(table.contains("failed_frac"));
        let slower = file(row("wu_per_s", 60.0, 59.0, 61.0), 2.0, 0);
        assert!(check(&a, &slower).1);
        let failing = file(row("wu_per_s", 100.0, 99.0, 101.0), 2.0, 1);
        assert!(check(&a, &failing).1);
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let mut a = file(row("wu_per_s", 8123.456789, 8000.5, 8200.25), 2.0, 0);
        a.workloads[0].metrics.push(MetricRow {
            quartiles: None,
            ..row("ask_p99_us", 40.25, 0.0, 0.0)
        });
        assert_eq!(ResultFile::from_json(&a.to_json()), Ok(a.clone()));
        assert!(a.table().contains("wu_per_s"));
        assert!(ResultFile::from_json("{}").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(true, 10, 0, &[("latency_ms", "ms", 1.2034)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":1.2034,"unit":"ms"}}}"#
        );
    }
}
