//! The metric tables: every name the benchmark reports, with unit,
//! direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `check` calls it `worse`.
    pub bound: f64,
    /// In `BENCHMARK.json`'s `end_to_end` list, i.e. gated by the driver.
    /// That list is one list for all gated workloads: every metric in it
    /// must exist on every one of them, never read 0, and keep its
    /// ten-seed spread inside its bound. The rest are end-to-end all the same —
    /// measured by the same untraced run, printed by `run`, compared by
    /// `check` — but reach the driver through the per-layer list,
    /// unbounded.
    pub gated: bool,
}

use Better::{Higher, Lower};

/// Bound of every wall-clock and CPU-time metric: the widest the
/// contract allows. On the shared two-vCPU sandbox the ten-seed spread of
/// `wu_per_s` is 2-4 % of the median on a quiet host and has reached
/// 15-25 % when a neighbour sat on the host's cache, so a tighter gate
/// would mostly fire on the machine. Counts are exact and gated at 0.
pub const TIMING_BOUND: f64 = 0.25;

/// The end-to-end metrics (`failed_frac` is not a row: it is
/// `failed ÷ attempted` of every result and must be exactly 0).
pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: TIMING_BOUND,
        gated: true,
    },
    EndToEnd {
        name: "wu_per_s",
        unit: "1/s",
        better: Higher,
        bound: TIMING_BOUND,
        gated: true,
    },
    // Not gated, these two because of `volunteer_kernel`, whose server
    // runs cache-cold between 13 ms dockings: ten seeds spread 26 % and
    // 11 % on a quiet host (3 % and 2 % on the scripted workloads) and up
    // to 38 % and 28 % on a busy one.
    EndToEnd {
        name: "server_cpu_us_per_wu",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
        gated: false,
    },
    EndToEnd {
        name: "ask_p50_us",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
        gated: false,
    },
    // The p99s spread 10-15 % on a quiet host, 10-50 % on a busy one (the
    // issue allows moving them to the per-layer list).
    EndToEnd {
        name: "ask_p99_us",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
        gated: false,
    },
    // From here to `journal_bytes_per_wu`: not defined on every workload
    // (`run_agent` reports neither its report round trips nor its bytes;
    // two workloads keep no journal).
    EndToEnd {
        name: "report_p50_us",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
        gated: false,
    },
    EndToEnd {
        name: "report_p99_us",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
        gated: false,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Lower,
        bound: TIMING_BOUND,
        gated: false,
    },
    EndToEnd {
        name: "wire_bytes_per_wu",
        unit: "B",
        better: Lower,
        bound: 0.0,
        gated: false,
    },
    EndToEnd {
        name: "journal_bytes_per_wu",
        unit: "B",
        better: Lower,
        bound: 0.001,
        gated: false,
    },
    EndToEnd {
        name: "replicas_per_wu",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        gated: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
        gated: true,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, by module. A metric reads 0 on a workload that
/// bypasses its layer. ns/µs values are medians per call.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("protocol.decode_ask_ns", "ns", Lower),
    layer("protocol.decode_report_ns", "ns", Lower),
    layer("protocol.encode_assignment_ns", "ns", Lower),
    layer("protocol.encode_ack_ns", "ns", Lower),
    layer("protocol.report_frame_bytes", "B", Lower),
    layer("protocol.allocs_per_report_decode", "count", Lower),
    layer("sched.fetch_ns", "ns", Lower),
    layer("sched.report_ns", "ns", Lower),
    layer("state.fetch_ns", "ns", Lower),
    layer("state.report_accept_ns", "ns", Lower),
    layer("state.report_reject_ns", "ns", Lower),
    layer("state.allocs_per_report", "count", Lower),
    layer("registry.fetch_ns", "ns", Lower),
    layer("registry.report_ns", "ns", Lower),
    layer("registry.share_error", "ratio", Lower),
    layer("trust.quorum_rejects_per_wu", "ratio", Lower),
    layer("trust.spot_checks_per_wu", "ratio", Lower),
    layer("trust.quarantine_denials", "count", Lower),
    layer("journal.append_ns", "ns", Lower),
    layer("journal.bytes_per_record", "B", Lower),
    layer("journal.records_per_wu", "ratio", Lower),
    layer("journal.replay_ns_per_record", "ns", Lower),
    layer("journal.fsync_us", "us", Lower),
    layer("server.ask_residual_ns", "ns", Lower),
    layer("server.report_residual_ns", "ns", Lower),
    layer("server.session_setup_us", "us", Lower),
    layer("server.cpu_us_per_req", "us", Lower),
    layer("server.allocs_per_req", "count", Lower),
    layer("server.alloc_bytes_per_req", "B", Lower),
    layer("server.ctx_switches_per_req", "ratio", Lower),
    layer("server.nowork_frac", "ratio", Lower),
    layer("ops.scrape_p50_us", "us", Lower),
    layer("campaign.build_ms", "ms", Lower),
    layer("maxdo.dock_ms_per_wu", "ms", Lower),
    layer("maxdo.evals_per_s", "1/s", Higher),
    layer("maxdo.checkpoint_roundtrip_us", "us", Lower),
    layer("maxdo.checkpoint_bytes", "B", Lower),
    layer("maxdo.wall_frac", "ratio", Higher),
    layer("agent.overhead_frac", "ratio", Lower),
    layer("agent.ask_p50_us", "us", Lower),
    layer("validation.check_file_us", "us", Lower),
    layer("shard.merge_us_per_wu", "us", Lower),
    layer("bench.drift_frac", "ratio", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.attribution_gap_frac", "ratio", Lower),
    layer("bench.ask_rtt_p50_ns", "ns", Lower),
    layer("bench.report_rtt_p50_ns", "ns", Lower),
    layer("bench.pinned", "count", Higher),
    layer("bench.repetitions", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn contract() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        serde_json::parse_value(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Seq(rows)) => rows,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn text<'a>(row: &'a Value, key: &str) -> &'a str {
        match row.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// `BENCHMARK.json` lists exactly the gated workloads and end-to-end
    /// metrics (with these units, directions and bounds) and, as per-layer
    /// rows, the ungated end-to-end metrics followed by the layer table.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = contract();
        let workloads: Vec<&str> = rows(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(workloads, ours);

        let listed = rows(&doc, "end_to_end");
        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
        assert_eq!(listed.len(), gated.len());
        for (row, m) in listed.iter().zip(gated) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(row, "better"), m.better.as_str(), "{}", m.name);
            let bound = match row.get("bound") {
                Some(Value::F64(b)) => *b,
                Some(Value::I64(b)) => *b as f64,
                other => panic!("{}: bound {other:?}", m.name),
            };
            assert_eq!(bound, m.bound, "{}", m.name);
        }

        let listed = rows(&doc, "per_layer");
        let ours: Vec<(&str, &str, &str)> = END_TO_END
            .iter()
            .filter(|m| !m.gated)
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .chain(
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit, m.better.as_str())),
            )
            .collect();
        assert_eq!(listed.len(), ours.len());
        for (row, (name, unit, better)) in listed.iter().zip(ours) {
            assert_eq!(text(row, "name"), name);
            assert_eq!(text(row, "unit"), unit, "{name}");
            assert_eq!(text(row, "better"), better, "{name}");
        }
    }
}
