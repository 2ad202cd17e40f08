//! Lint for the Prometheus text exposition format, used by CI to vet
//! what `hcmd-server --ops-addr` serves at `/metrics`.
//!
//! ```text
//! promcheck [<file>]        # reads stdin when no file is given
//! ```
//!
//! Checks, per the text-format spec:
//!
//! * metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names match
//!   `[a-zA-Z_][a-zA-Z0-9_]*`;
//! * `# TYPE` precedes the first sample of its family, at most one
//!   `# TYPE`/`# HELP` per family, and samples of a family are not
//!   interleaved with other families;
//! * every sample value parses as a float (`NaN`/`+Inf`/`-Inf` legal);
//! * histogram `_bucket` series have monotonically non-decreasing
//!   counts over increasing `le`, end with `le="+Inf"`, and the `+Inf`
//!   bucket equals the family's `_count`;
//! * label values are properly quoted with only `\\`, `\"` and `\n`
//!   escapes.
//!
//! Exit 0 when clean, 1 with one line per violation on stderr.

use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::process::ExitCode;

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn valid_value(s: &str) -> bool {
    matches!(s, "NaN" | "+Inf" | "-Inf" | "Inf") || s.parse::<f64>().is_ok()
}

/// One parsed sample line: name, labels in order, value text.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: String,
}

/// Parses `name{k="v",...} value`, reporting malformations as `Err`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (head, value) = match line.find('}') {
        // With a label set, the value follows the closing brace.
        Some(close) => {
            let value = line[close + 1..].trim();
            (&line[..close + 1], value)
        }
        None => match line.split_once(' ') {
            Some((head, value)) => (head, value.trim()),
            None => return Err("sample has no value".into()),
        },
    };
    let (name, labels) = match head.split_once('{') {
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (name.trim(), parse_labels(body)?)
        }
        None => (head.trim(), Vec::new()),
    };
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    for (k, _) in &labels {
        if !valid_label_name(k) {
            return Err(format!("invalid label name {k:?}"));
        }
    }
    if value.is_empty() {
        return Err("sample has no value".into());
    }
    // A timestamp may trail the value; only the value itself is vetted.
    let value = value.split_whitespace().next().unwrap_or("");
    if !valid_value(value) {
        return Err(format!("unparseable sample value {value:?}"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value: value.to_string(),
    })
}

/// Parses the interior of a `{...}` label set, enforcing quoting and
/// the three legal escapes.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {rest:?}"))?;
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        let mut chars = rest.char_indices();
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("unquoted value for label {key:?}")),
        }
        let mut value = String::new();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    end = Some(i);
                    break;
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e @ ('\\' | '"'))) => value.push(e),
                    other => return Err(format!("bad escape {other:?} in label {key:?}")),
                },
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated value for label {key:?}"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(labels)
}

/// The family a sample belongs to: `_bucket`/`_sum`/`_count` suffixes
/// fold into their histogram's base name when that family is typed as a
/// histogram.
fn family_of<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

fn check(doc: &str) -> Vec<String> {
    let mut errors: Vec<String> = Vec::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashSet<String> = HashSet::new();
    // Families that have already emitted samples; used both for the
    // TYPE-before-sample rule and for the no-interleaving rule.
    let mut sampled: Vec<String> = Vec::new();
    // Histogram accounting: family -> ((le, count) buckets, _count).
    let mut buckets: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();

    for (idx, line) in doc.lines().enumerate() {
        let n = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !valid_metric_name(name) {
                        errors.push(format!("line {n}: invalid metric name {name:?} in # TYPE"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        errors.push(format!("line {n}: unknown metric type {kind:?}"));
                    }
                    if types.insert(name.to_string(), kind.to_string()).is_some() {
                        errors.push(format!("line {n}: duplicate # TYPE for {name}"));
                    }
                    if sampled.iter().any(|s| s == name) {
                        errors.push(format!("line {n}: # TYPE for {name} after its samples"));
                    }
                }
                (Some("TYPE"), _, _) => {
                    errors.push(format!("line {n}: malformed # TYPE line"));
                }
                (Some("HELP"), Some(name), _) if !helps.insert(name.to_string()) => {
                    errors.push(format!("line {n}: duplicate # HELP for {name}"));
                }
                _ => {} // free-form comment
            }
            continue;
        }
        let sample = match parse_sample(line) {
            Ok(s) => s,
            Err(e) => {
                errors.push(format!("line {n}: {e}"));
                continue;
            }
        };
        let family = family_of(&sample.name, &types).to_string();
        match sampled.last() {
            Some(last) if *last == family => {}
            _ if sampled.contains(&family) => {
                errors.push(format!(
                    "line {n}: samples of {family} interleaved with another family"
                ));
            }
            _ => sampled.push(family.clone()),
        }
        // family_of already folded histogram suffixes onto their typed
        // base name, so an untyped family here really has no # TYPE.
        if !types.contains_key(&family) {
            errors.push(format!(
                "line {n}: sample of {family} has no preceding # TYPE"
            ));
        }
        let value: f64 = match sample.value.as_str() {
            "+Inf" | "Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v.parse().unwrap_or(f64::NAN),
        };
        if types.get(&family).map(String::as_str) == Some("histogram") {
            if sample.name.ends_with("_bucket") {
                match sample.labels.iter().find(|(k, _)| k == "le") {
                    Some((_, le)) => {
                        let bound = match le.as_str() {
                            "+Inf" => f64::INFINITY,
                            v => v.parse().unwrap_or(f64::NAN),
                        };
                        if bound.is_nan() {
                            errors.push(format!("line {n}: unparseable le={le:?}"));
                        } else {
                            buckets
                                .entry(family.clone())
                                .or_default()
                                .push((bound, value));
                        }
                    }
                    None => errors.push(format!("line {n}: _bucket sample without an le label")),
                }
            } else if sample.name.ends_with("_count") {
                counts.insert(family.clone(), value);
            }
        }
    }

    for (family, series) in &buckets {
        let mut prev: Option<(f64, f64)> = None;
        for &(le, count) in series {
            if let Some((ple, pcount)) = prev {
                if le <= ple {
                    errors.push(format!(
                        "{family}: le bounds not increasing ({ple} -> {le})"
                    ));
                }
                if count < pcount {
                    errors.push(format!(
                        "{family}: bucket counts decrease ({pcount} at le={ple}, {count} at le={le})"
                    ));
                }
            }
            prev = Some((le, count));
        }
        match prev {
            Some((le, terminal)) if le.is_infinite() => {
                if let Some(&total) = counts.get(family) {
                    if terminal != total {
                        errors.push(format!(
                            "{family}: le=\"+Inf\" bucket {terminal} != _count {total}"
                        ));
                    }
                }
            }
            _ => errors.push(format!(
                "{family}: histogram missing terminal le=\"+Inf\" bucket"
            )),
        }
    }
    errors
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let doc = match args.next() {
        Some(path) if path != "-" => match std::fs::read_to_string(&path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("promcheck: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        _ => {
            let mut doc = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut doc) {
                eprintln!("promcheck: cannot read stdin: {e}");
                return ExitCode::from(2);
            }
            doc
        }
    };
    let errors = check(&doc);
    if errors.is_empty() {
        let families = doc.lines().filter(|l| l.starts_with("# TYPE ")).count();
        println!("promcheck: ok ({families} metric families)");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("promcheck: {e}");
        }
        eprintln!("promcheck: {} violation(s)", errors.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::check;

    #[test]
    fn a_clean_document_passes() {
        let doc = "\
# HELP net_reqs Requests.
# TYPE net_reqs counter
net_reqs 42
# TYPE lat histogram
lat_bucket{le=\"1\"} 3
lat_bucket{le=\"7\"} 5
lat_bucket{le=\"+Inf\"} 6
lat_sum 9.5
lat_count 6
# TYPE up gauge
up{host=\"a b\",quoted=\"say \\\"hi\\\"\"} 1
";
        assert_eq!(check(doc), Vec::<String>::new());
    }

    #[test]
    fn violations_are_caught() {
        let cases: &[(&str, &str)] = &[
            ("9bad_name 1\n", "invalid metric name"),
            ("# TYPE m counter\nm nonsense\n", "unparseable sample value"),
            ("m_no_type 1\n", "no preceding # TYPE"),
            (
                "# TYPE a counter\na 1\nb_no_type 2\na 2\n",
                "interleaved",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
                "bucket counts decrease",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\n",
                "missing terminal",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_count 5\n",
                "!= _count",
            ),
            ("# TYPE m counter\nm{l=unquoted} 1\n", "unquoted value"),
            ("# TYPE m counter\n# TYPE m counter\nm 1\n", "duplicate # TYPE"),
            ("# TYPE m counter\nm 1\n# TYPE m gauge\n", "after its samples"),
        ];
        for (doc, expect) in cases {
            let errors = check(doc);
            assert!(
                errors.iter().any(|e| e.contains(expect)),
                "expected {expect:?} for {doc:?}, got {errors:?}"
            );
        }
    }

    #[test]
    fn the_servers_own_exposition_style_passes() {
        // Mirrors what render_metrics emits: dotted telemetry names are
        // sanitized, hcmd_* families carry labels, histograms cumulate.
        let doc = "\
# HELP hcmd_wu_states Workunits by scheduler state.
# TYPE hcmd_wu_states gauge
hcmd_wu_states{state=\"total\"} 33
hcmd_wu_states{state=\"done\"} 33
# HELP hcmd_virtual_full_time_processors VFTP.
# TYPE hcmd_virtual_full_time_processors gauge
hcmd_virtual_full_time_processors 2.125
";
        assert_eq!(check(doc), Vec::<String>::new());
    }
}
