//! The read-only HTTP observability endpoint.
//!
//! The paper's operators steered a 26-week campaign by watching live
//! per-protein progression and fleet health (Figs. 1/6/7); this module
//! is that surface for `hcmd-server`. It is deliberately tiny: a
//! hand-rolled HTTP/1.1 responder — request parsing, two routes and
//! their renderers — with zero dependencies; the sockets belong to the
//! server's event loop.
//!
//! * `GET /metrics` — Prometheus text exposition: every registry metric
//!   (via `telemetry::exposition`) plus the scheduler-state families,
//!   read from the [`MultiGrid`] the endpoint is served from.
//! * `GET /` — a self-contained HTML status page (inline CSS, no
//!   external assets, meta-refresh): per-receptor progression, virtual
//!   full-time processors, workunit state counts, reissue and
//!   quorum-reject rates, journal size, and the per-agent table.
//!
//! # Why scrapes cannot stall the grid
//!
//! A scrape is one more connection on the server's event loop
//! ([`crate::server`]), so it holds no thread and no lock — only its
//! own buffers, and those are bounded: the request head is capped
//! ([`MAX_REQUEST_HEAD`], request line 1 KiB) while it is read, a
//! connection that makes no progress for [`IDLE_CAP`] is closed on the
//! next sweep tick, and the response is written with nonblocking
//! writes at the scraper's pace. What a request costs the grid is one
//! render on the loop between two agent frames: it reads the registry
//! in place — counters, and one walk of each campaign's workunit states
//! — and copies nothing out first. A request that does not parse to a
//! known GET route is answered 4xx/405 before any scheduler state is
//! read. `benchmarks/gridbench` reports
//! that cost from the scraper's side as `ops.scrape_p50_us`.
//!
//! The endpoint keeps answering for [`LINGER`] after the campaign
//! completes, so a scraper polling mid-run gets to observe the final
//! state before the socket closes.

use crate::registry::MultiGrid;
use gridsim::{SimTime, WuStateCounts};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use telemetry::exposition::{MetricKind, TextRenderer};

/// Maximum request-line length; longer lines get `414 URI Too Long`.
const MAX_REQUEST_LINE: usize = 1024;

/// Maximum total request-head size; bigger heads get `431`.
pub(crate) const MAX_REQUEST_HEAD: usize = 8192;

/// How long the endpoint keeps serving after the campaign completes.
pub(crate) const LINGER: Duration = Duration::from_secs(1);

/// How long a scrape may go without progress — its whole head arriving,
/// then the scraper taking response bytes — before it is closed.
pub(crate) const IDLE_CAP: Duration = Duration::from_millis(500);

/// The response to the request bytes received so far, or `None` while
/// the head is neither whole, nor over its cap, nor cut short by `eof`.
/// Scheduler state is read only for a request that parsed to a known
/// GET route. `accepted` is when the connection was and `now` when the
/// response is made, for the `net.ops.scrape_us` histogram.
pub(crate) fn respond(
    buf: &[u8],
    eof: bool,
    accepted: SimTime,
    now: SimTime,
    grid: &MultiGrid,
) -> Option<Vec<u8>> {
    let whole = buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n");
    let response = if whole || eof {
        let head = std::str::from_utf8(buf).map_err(|_| 400u16);
        match head.and_then(parse_request_line) {
            Ok(("GET", "/metrics")) => Response::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                render_metrics(grid),
            ),
            Ok(("GET", "/" | "/index.html")) => {
                Response::ok("text/html; charset=utf-8", render_dashboard(grid))
            }
            Ok(("GET", _)) => Response::error(404, "not found\n"),
            Ok(_) => Response::error(405, "only GET is served here\n"),
            Err(status) => Response::error(status, "malformed request\n"),
        }
    } else if buf.len() > MAX_REQUEST_HEAD {
        Response::error(431, "request head too large\n")
    } else {
        return None;
    };
    telemetry::counter("net.ops.requests").inc();
    if response.status != 200 {
        telemetry::counter("net.ops.bad_requests").inc();
    }
    let bytes = response.into_bytes();
    telemetry::counter("net.ops.bytes_out").add(bytes.len() as u64);
    let waited_us = (now.seconds() - accepted.seconds()) * 1e6;
    telemetry::histogram("net.ops.scrape_us").record(waited_us as u64);
    Some(bytes)
}

/// Parses `METHOD SP PATH SP HTTP/x.y` out of the head's first line.
/// Returns the 4xx status for malformed or oversized request lines.
fn parse_request_line(head: &str) -> Result<(&str, &str), u16> {
    let line = head.lines().next().ok_or(400u16)?;
    if line.len() > MAX_REQUEST_LINE {
        return Err(414u16);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(400u16)?;
    let path = parts.next().ok_or(400u16)?;
    let version = parts.next().ok_or(400u16)?;
    if !version.starts_with("HTTP/") {
        return Err(400u16);
    }
    // Ignore any query string: `/metrics?foo` scrapes the same document.
    let path = path.split('?').next().unwrap_or(path);
    Ok((method, path))
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            content_type,
            body,
        }
    }

    fn error(status: u16, body: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            414 => "URI Too Long",
            431 => "Request Header Fields Too Large",
            _ => "Error",
        };
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// Renders the full `/metrics` document: the telemetry registry first
/// (empty when the `telemetry` feature is off), then the scheduler
/// families read from `grid`. The unlabelled families describe slot 0,
/// the default campaign; the `hcmd_campaign_*` ones have a row per
/// campaign, in slot order.
pub fn render_metrics(grid: &MultiGrid) -> String {
    let mut doc = telemetry::render_snapshot(&telemetry::snapshot());
    let mut r = TextRenderer::new();
    let slots = grid.slots();
    let state = &slots[0].state;
    let core = state.core();
    let (stats, net) = (core.stats, state.net_stats);
    let wu_counts = wu_state_counts(grid);
    let wu = wu_counts[0];

    let n = r.family(
        "hcmd_wu_states",
        MetricKind::Gauge,
        "Workunit state counts by lifecycle state",
    );
    r.sample(&n, &[("state", "total")], wu.total as f64);
    r.sample(&n, &[("state", "issued")], wu.issued as f64);
    r.sample(&n, &[("state", "in_flight")], wu.in_flight as f64);
    r.sample(&n, &[("state", "quorum_pending")], wu.quorum_pending as f64);
    r.sample(&n, &[("state", "done")], wu.done as f64);

    let n = r.family(
        "hcmd_receptor_workunits",
        MetricKind::Gauge,
        "Per-receptor workunit progression (paper Fig. 1)",
    );
    for p in core.receptor_progress() {
        let receptor = p.receptor.to_string();
        r.sample(
            &n,
            &[("receptor", receptor.as_str()), ("state", "done")],
            f64::from(p.completed),
        );
        r.sample(
            &n,
            &[("receptor", receptor.as_str()), ("state", "total")],
            f64::from(p.total),
        );
    }

    let n = r.family(
        "hcmd_replicas_issued",
        MetricKind::Counter,
        "Replicas issued by cause",
    );
    r.sample(&n, &[("cause", "initial")], stats.initial_issues as f64);
    r.sample(&n, &[("cause", "quorum")], stats.quorum_issues as f64);
    r.sample(&n, &[("cause", "timeout")], stats.timeout_reissues as f64);
    r.sample(&n, &[("cause", "error")], stats.error_reissues as f64);

    let n = r.family(
        "hcmd_results_received",
        MetricKind::Counter,
        "Results received over the campaign",
    );
    r.sample(&n, &[], core.results_received as f64);
    let n = r.family(
        "hcmd_results_useful",
        MetricKind::Counter,
        "Useful (non-redundant, valid) results",
    );
    r.sample(&n, &[], core.results_useful as f64);

    let n = r.family(
        "hcmd_results_rejected",
        MetricKind::Counter,
        "Results rejected by validation layer",
    );
    r.sample(&n, &[("layer", "quorum")], net.quorum_rejected as f64);
    r.sample(&n, &[("layer", "bounds")], net.bounds_rejected as f64);

    let n = r.family(
        "hcmd_redundancy_factor",
        MetricKind::Gauge,
        "Results received / useful results (paper section 6)",
    );
    r.sample(&n, &[], core.redundancy_factor());

    let n = r.family(
        "hcmd_virtual_full_time_processors",
        MetricKind::Gauge,
        "Validated reference CPU seconds / campaign seconds (paper section 3.1)",
    );
    r.sample(&n, &[], vftp(grid));

    let n = r.family(
        "hcmd_outstanding_replicas",
        MetricKind::Gauge,
        "Issued, unreported, unexpired replicas",
    );
    r.sample(&n, &[], state.outstanding_len() as f64);

    let n = r.family(
        "hcmd_reissue_queue_depth",
        MetricKind::Gauge,
        "Workunits queued for another replica",
    );
    r.sample(&n, &[], core.reissue_queue_depth() as f64);

    let n = r.family(
        "hcmd_quorum_candidate_workunits",
        MetricKind::Gauge,
        "Incomplete workunits holding quorum candidates",
    );
    r.sample(&n, &[], state.quorum_candidate_workunits() as f64);

    let n = r.family(
        "hcmd_deadline_expiries",
        MetricKind::Counter,
        "Replica deadlines expired by the sweeper",
    );
    r.sample(&n, &[], net.deadline_expiries as f64);

    let n = r.family(
        "hcmd_backoffs_sent",
        MetricKind::Counter,
        "Fetches answered with a backoff",
    );
    r.sample(&n, &[], net.backoffs_sent as f64);

    let n = r.family(
        "hcmd_agents_seen",
        MetricKind::Gauge,
        "Agents that have fetched or reported",
    );
    r.sample(&n, &[], state.agent_ledgers().len() as f64);

    let n = r.family(
        "hcmd_server_clock_seconds",
        MetricKind::Gauge,
        "Latest server-clock second any entry point has seen",
    );
    r.sample(&n, &[], grid.last_now());

    let n = r.family(
        "hcmd_campaign_complete",
        MetricKind::Gauge,
        "1 once every workunit validated",
    );
    r.sample(
        &n,
        &[],
        if state.is_campaign_complete() {
            1.0
        } else {
            0.0
        },
    );

    if let Some((records, bytes)) = grid.wal_size() {
        let n = r.family(
            "hcmd_journal_wal_records",
            MetricKind::Gauge,
            "Command records in the server's write-ahead journal (what a restart replays)",
        );
        r.sample(&n, &[], records as f64);
        let n = r.family(
            "hcmd_journal_wal_bytes",
            MetricKind::Gauge,
            "Size of the write-ahead journal in bytes",
        );
        r.sample(&n, &[], bytes as f64);
    }

    let spec = grid.spec();
    if spec.shards > 1 {
        let n = r.family(
            "hcmd_shard_info",
            MetricKind::Gauge,
            "Shard identity: always 1, labelled with shard id and topology size",
        );
        let shard_id = spec.shard_id.to_string();
        let shards = spec.shards.to_string();
        r.sample(
            &n,
            &[("shard", shard_id.as_str()), ("shards", shards.as_str())],
            1.0,
        );
        let n = r.family(
            "hcmd_shard_owned_workunits",
            MetricKind::Gauge,
            "Workunits this shard currently owns (initial partition plus leases)",
        );
        r.sample(&n, &[], core.owned_count() as f64);
        let n = r.family(
            "hcmd_shard_fresh_backlog",
            MetricKind::Gauge,
            "Owned workunits never yet issued to any agent",
        );
        r.sample(&n, &[], core.fresh_backlog() as f64);
        let n = r.family(
            "hcmd_shard_redirects",
            MetricKind::Counter,
            "Drained-shard fetches answered with a redirect to a loaded peer",
        );
        r.sample(&n, &[], net.shard_redirects as f64);
        let n = r.family(
            "hcmd_shard_leases",
            MetricKind::Counter,
            "Work-stealing leases by direction (out = granted, in = adopted)",
        );
        r.sample(&n, &[("direction", "out")], net.shard_leases_out as f64);
        r.sample(&n, &[("direction", "in")], net.shard_leases_in as f64);
        let n = r.family(
            "hcmd_shard_leased_workunits",
            MetricKind::Counter,
            "Workunits moved by work-stealing leases, by direction",
        );
        r.sample(&n, &[("direction", "out")], net.shard_wus_leased_out as f64);
        r.sample(&n, &[("direction", "in")], net.shard_wus_leased_in as f64);
    }

    let n = r.family(
        "hcmd_wasted_ref_seconds",
        MetricKind::Gauge,
        "Reference CPU seconds burned on results that were not useful",
    );
    r.sample(&n, &[], state.wasted_ref_seconds());

    let trust = state.trust_summary(grid.last_now());
    let n = r.family(
        "hcmd_trust_enabled",
        MetricKind::Gauge,
        "1 when trust-adaptive replication is on",
    );
    r.sample(&n, &[], if trust.is_some() { 1.0 } else { 0.0 });

    if let Some(t) = &trust {
        let n = r.family(
            "hcmd_trust_band_agents",
            MetricKind::Gauge,
            "Agents per trust band",
        );
        r.sample(&n, &[("band", "trusted")], t.trusted as f64);
        r.sample(&n, &[("band", "probation")], t.probation as f64);
        r.sample(&n, &[("band", "untrusted")], t.untrusted as f64);
        r.sample(&n, &[("band", "quarantined")], t.quarantined as f64);

        let n = r.family(
            "hcmd_trust_spot_checks",
            MetricKind::Counter,
            "Seeded spot-check recomputations by outcome",
        );
        r.sample(&n, &[("result", "passed")], t.spot_checks_passed as f64);
        r.sample(&n, &[("result", "failed")], t.spot_checks_failed as f64);

        let n = r.family(
            "hcmd_trust_denied_fetches",
            MetricKind::Counter,
            "Fetches refused because the agent is quarantined",
        );
        r.sample(&n, &[], net.trust_denied_fetches as f64);

        let n = r.family(
            "hcmd_trust_workunits_invalidated",
            MetricKind::Counter,
            "Validated workunits retracted after a failed spot check",
        );
        r.sample(&n, &[], net.workunits_invalidated as f64);

        let n = r.family(
            "hcmd_trust_agent_score",
            MetricKind::Gauge,
            "Per-agent accept ratio over the current scoring window",
        );
        for (agent, trust) in state.agent_trust_table() {
            let agent = agent.to_string();
            r.sample(&n, &[("agent", agent.as_str())], trust.score());
        }
    }

    let fair = grid.fair();
    let n = r.family(
        "hcmd_campaign_share",
        MetricKind::Gauge,
        "Configured fair-share weight per campaign",
    );
    for (i, s) in slots.iter().enumerate() {
        r.sample(&n, &[("campaign", s.def.name.as_str())], fair.share(i));
    }
    let n = r.family(
        "hcmd_campaign_delivered_ref_seconds",
        MetricKind::Counter,
        "Validated reference CPU seconds delivered per campaign",
    );
    for (i, s) in slots.iter().enumerate() {
        r.sample(&n, &[("campaign", s.def.name.as_str())], fair.delivered(i));
    }
    let n = r.family(
        "hcmd_campaign_deficit",
        MetricKind::Gauge,
        "Fair-share deficit (positive = campaign is owed work)",
    );
    for (i, s) in slots.iter().enumerate() {
        r.sample(&n, &[("campaign", s.def.name.as_str())], fair.deficit(i));
    }
    let n = r.family(
        "hcmd_campaign_borrows_total",
        MetricKind::Counter,
        "Issues a campaign borrowed while higher-deficit peers were drained",
    );
    for (i, s) in slots.iter().enumerate() {
        let borrows = fair.borrows(i) as f64;
        r.sample(&n, &[("campaign", s.def.name.as_str())], borrows);
    }
    let n = r.family(
        "hcmd_campaign_workunits",
        MetricKind::Gauge,
        "Per-campaign workunit progression",
    );
    for (s, wu) in slots.iter().zip(&wu_counts) {
        let campaign = ("campaign", s.def.name.as_str());
        r.sample(&n, &[campaign, ("state", "done")], wu.done as f64);
        r.sample(&n, &[campaign, ("state", "total")], wu.total as f64);
    }
    let n = r.family(
        "hcmd_campaign_fresh_backlog",
        MetricKind::Gauge,
        "Per-campaign workunits never yet issued to any agent",
    );
    for s in slots {
        let fresh = s.state.core().fresh_backlog() as f64;
        r.sample(&n, &[("campaign", s.def.name.as_str())], fresh);
    }
    let n = r.family(
        "hcmd_campaign_done",
        MetricKind::Gauge,
        "1 once every workunit of the campaign validated",
    );
    for s in slots {
        let done = if s.state.is_campaign_complete() {
            1.0
        } else {
            0.0
        };
        r.sample(&n, &[("campaign", s.def.name.as_str())], done);
    }
    let n = r.family(
        "hcmd_campaign_share_error",
        MetricKind::Gauge,
        "Max absolute deviation between delivered and configured shares",
    );
    r.sample(&n, &[], grid.share_error());
    let n = r.family(
        "hcmd_campaign_cross_quarantine_denials_total",
        MetricKind::Counter,
        "Fetches refused because the agent is quarantined in another campaign",
    );
    r.sample(&n, &[], grid.cross_quarantine_denials as f64);

    doc.push_str(&r.finish());
    doc
}

/// Every campaign's workunit state counts, in slot order: one walk of
/// each campaign's workunit states, however many lines show them.
fn wu_state_counts(grid: &MultiGrid) -> Vec<WuStateCounts> {
    let slots = grid.slots().iter();
    slots.map(|s| s.state.core().wu_state_counts()).collect()
}

/// §3.1 virtual full-time processors of the default campaign:
/// validated reference CPU seconds over elapsed campaign seconds.
fn vftp(grid: &MultiGrid) -> f64 {
    let now = grid.last_now();
    if now <= 0.0 {
        0.0
    } else {
        grid.slots()[0].state.core().completed_ref_seconds() / now
    }
}

/// Renders the self-contained HTML status page. Inline CSS only, no
/// external assets, no script beyond the meta-refresh — the page must
/// render from an air-gapped operator console.
pub fn render_dashboard(grid: &MultiGrid) -> String {
    let state = &grid.slots()[0].state;
    let core = state.core();
    let (stats, now) = (core.stats, grid.last_now());
    let wu_counts = wu_state_counts(grid);
    let wu = wu_counts[0];
    let pct = if wu.total == 0 {
        0.0
    } else {
        100.0 * wu.done as f64 / wu.total as f64
    };
    let reissues = stats.quorum_issues + stats.timeout_reissues + stats.error_reissues;
    let reissue_rate = if stats.total_issues() == 0 {
        0.0
    } else {
        100.0 * reissues as f64 / stats.total_issues() as f64
    };
    let qreject_rate = if core.results_received == 0 {
        0.0
    } else {
        100.0 * state.net_stats.quorum_rejected as f64 / core.results_received as f64
    };

    let mut receptor_rows = String::new();
    for p in core.receptor_progress() {
        let rpct = if p.total == 0 {
            0.0
        } else {
            100.0 * f64::from(p.completed) / f64::from(p.total)
        };
        receptor_rows.push_str(&format!(
            "<tr><td>{}</td><td class=\"num\">{}/{}</td>\
             <td class=\"barcell\"><div class=\"bar\"><span style=\"width:{rpct:.1}%\"></span></div></td>\
             <td class=\"num\">{rpct:.1}%</td></tr>\n",
            p.receptor, p.completed, p.total
        ));
    }

    let trust = state.trust_summary(now);
    let ledgers = state.agent_ledgers();
    let mut agent_rows = String::new();
    for &(agent, l) in &ledgers {
        // `None` for every agent exactly when the policy is off.
        let trust_cell = match state.agent_trust(agent) {
            Some(t) => {
                let band = t.band(now, &state.trust_config());
                format!("<td>{band:?} ({:.2})</td>", t.score())
            }
            None => String::new(),
        };
        agent_rows.push_str(&format!(
            "<tr><td>{agent}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{:.1}s</td>{}</tr>\n",
            l.assignments, l.reports, l.accepted, l.rejected, l.last_seen_s, trust_cell
        ));
    }
    let trust_th = if trust.is_some() {
        "<th>Trust</th>"
    } else {
        ""
    };

    let journal_tile = match grid.wal_size() {
        Some((records, bytes)) => format!(
            "<div class=\"tile\"><div class=\"label\">Journal records / bytes</div>\
             <div class=\"value\">{records} / {bytes}</div></div>"
        ),
        None => "<div class=\"tile\"><div class=\"label\">Journal</div>\
             <div class=\"value\">off</div></div>"
            .into(),
    };

    let spec = grid.spec();
    let shard_tile = match spec.shards {
        1 => String::new(),
        shards => format!(
            "<div class=\"tile\"><div class=\"label\">Shard (owned / fresh)</div>\
             <div class=\"value\">{} of {shards} ({} / {})</div></div>",
            spec.shard_id,
            core.owned_count(),
            core.fresh_backlog()
        ),
    };

    let trust_tile = match &trust {
        Some(t) => format!(
            "<div class=\"tile\"><div class=\"label\">Trust bands T/P/U/Q</div>\
             <div class=\"value\">{} / {} / {} / {}</div></div>\
             <div class=\"tile\"><div class=\"label\">Spot checks pass/fail</div>\
             <div class=\"value\">{} / {}</div></div>",
            t.trusted,
            t.probation,
            t.untrusted,
            t.quarantined,
            t.spot_checks_passed,
            t.spot_checks_failed
        ),
        None => "<div class=\"tile\"><div class=\"label\">Trust policy</div>\
             <div class=\"value\">off</div></div>"
            .into(),
    };

    let fair = grid.fair();
    let total_delivered = fair.total_delivered();
    let mut campaign_rows = String::new();
    for (i, (s, c)) in grid.slots().iter().zip(&wu_counts).enumerate() {
        let got = if total_delivered > 0.0 {
            100.0 * fair.delivered(i) / total_delivered
        } else {
            0.0
        };
        let cpct = if c.total == 0 {
            0.0
        } else {
            100.0 * c.done as f64 / c.total as f64
        };
        campaign_rows.push_str(&format!(
            "<tr><td>{}</td><td class=\"num\">{:.0}%</td><td class=\"num\">{got:.1}%</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}/{}</td>\
             <td class=\"barcell\"><div class=\"bar\"><span style=\"width:{cpct:.1}%\"></span></div></td>\
             <td class=\"num\">{}</td></tr>\n",
            s.def.name,
            100.0 * fair.share(i),
            s.def.priority,
            c.done,
            c.total,
            fair.borrows(i),
        ));
    }

    let status = if state.is_campaign_complete() {
        "complete"
    } else {
        "running"
    };

    format!(
        r#"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>hcmd campaign ops</title>
<style>
:root {{
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --track: #e1e0d9;
}}
@media (prefers-color-scheme: dark) {{
  :root {{
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --track: #2c2c2a;
  }}
}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 24px; background: var(--page); color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
h1 {{ font-size: 18px; margin: 0 0 4px; }}
h2 {{ font-size: 14px; margin: 24px 0 8px; color: var(--text-secondary); font-weight: 600; }}
.sub {{ color: var(--muted); margin-bottom: 16px; }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; }}
.tile {{
  background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
  padding: 12px 16px; min-width: 150px;
}}
.tile .label {{ color: var(--text-secondary); font-size: 12px; }}
.tile .value {{ font-size: 22px; margin-top: 2px; }}
table {{
  border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px; min-width: 420px;
}}
th, td {{ padding: 6px 12px; text-align: left; border-top: 1px solid var(--grid); }}
thead th {{ border-top: 0; color: var(--text-secondary); font-weight: 600; font-size: 12px; }}
td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
td.barcell {{ width: 220px; }}
.bar {{ background: var(--track); border-radius: 4px; height: 8px; overflow: hidden; }}
.bar span {{ display: block; height: 100%; background: var(--series-1); border-radius: 4px; }}
.progress {{ background: var(--track); border-radius: 4px; height: 12px; overflow: hidden; margin: 8px 0 16px; max-width: 720px; }}
.progress span {{ display: block; height: 100%; background: var(--series-1); border-radius: 4px; }}
</style>
</head>
<body>
<h1>hcmd campaign ops</h1>
<div class="sub">status: {status} &middot; server clock {now:.1}s &middot; auto-refresh 2s</div>
<div class="progress"><span style="width:{pct:.2}%"></span></div>
<div class="tiles">
  <div class="tile"><div class="label">Workunits done</div><div class="value">{done}/{total}</div></div>
  <div class="tile"><div class="label">Issued / in flight / quorum-pending</div><div class="value">{issued} / {in_flight} / {quorum_pending}</div></div>
  <div class="tile"><div class="label">Virtual full-time processors</div><div class="value">{vftp:.2}</div></div>
  <div class="tile"><div class="label">Redundancy factor</div><div class="value">{redundancy:.3}</div></div>
  <div class="tile"><div class="label">Reissue rate</div><div class="value">{reissue_rate:.1}%</div></div>
  <div class="tile"><div class="label">Quorum-reject rate</div><div class="value">{qreject_rate:.1}%</div></div>
  <div class="tile"><div class="label">Outstanding replicas</div><div class="value">{outstanding}</div></div>
  <div class="tile"><div class="label">Reissue queue</div><div class="value">{reissue_queue}</div></div>
  {journal_tile}
  {shard_tile}
  {trust_tile}
</div>
<h2>Campaigns (share error {share_error:.3})</h2>
<table>
<thead><tr><th>Campaign</th><th>Share</th><th>Delivered</th><th>Priority</th><th>Done</th><th></th><th>Borrows</th></tr></thead>
<tbody>
{campaign_rows}</tbody>
</table>
<h2>Per-receptor progression</h2>
<table>
<thead><tr><th>Receptor</th><th>Done</th><th></th><th>%</th></tr></thead>
<tbody>
{receptor_rows}</tbody>
</table>
<h2>Agents ({agent_count})</h2>
<table>
<thead><tr><th>Agent</th><th>Assignments</th><th>Reports</th><th>Accepted</th><th>Rejected</th><th>Last seen</th>{trust_th}</tr></thead>
<tbody>
{agent_rows}</tbody>
</table>
</body>
</html>
"#,
        done = wu.done,
        total = wu.total,
        issued = wu.issued,
        in_flight = wu.in_flight,
        quorum_pending = wu.quorum_pending,
        vftp = vftp(grid),
        redundancy = core.redundancy_factor(),
        outstanding = state.outstanding_len(),
        reissue_queue = core.reissue_queue_depth(),
        share_error = grid.share_error(),
        agent_count = ledgers.len(),
    )
}

/// Minimal blocking HTTP GET against the ops endpoint — shared by the
/// integration tests, the e2e bench scraper, and the CI smoke script.
/// Returns `(status, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: ops\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CampaignDef, Command, Outcome};
    use crate::shard::{lease_id, shard_of};
    use crate::{
        CampaignParams, FsyncPolicy, JournalConfig, ServerFaults, ShardSpec, TrustConfig, Verdict,
        WorkReply,
    };

    mod grids;

    /// The two-campaign, journaled, trust-on fixture grid, its wal in a
    /// directory of its own.
    fn contended(name: &str) -> MultiGrid {
        let dir = std::env::temp_dir().join(format!("hcmd-ops-{name}-{}", std::process::id()));
        let grid = grids::contended(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        grid
    }

    #[test]
    fn metrics_document_carries_the_scheduler_families() {
        let text = render_metrics(&contended("metrics"));
        assert!(text.contains("hcmd_wu_states{state=\"done\"} 7"));
        assert!(text.contains("hcmd_receptor_workunits{receptor=\"0\",state=\"done\"} 7"));
        assert!(text.contains("hcmd_redundancy_factor 2.857142857142857"));
        // 5014.52 validated ref-seconds over 9.2 clock seconds.
        assert!(text.contains("hcmd_virtual_full_time_processors 545.0565238620925"));
        assert!(text.contains("hcmd_quorum_candidate_workunits 1"));
        assert!(text.contains("hcmd_journal_wal_records 45"));
        assert!(text.contains("hcmd_journal_wal_bytes 34806"));
        assert!(text.contains("hcmd_campaign_complete 0"));
        assert!(text.contains("hcmd_wasted_ref_seconds 9532.992553710938"));
        assert!(text.contains("hcmd_trust_enabled 1"));
        assert!(text.contains("hcmd_trust_band_agents{band=\"trusted\"} 2"));
        assert!(text.contains("hcmd_trust_band_agents{band=\"quarantined\"} 1"));
        assert!(text.contains("hcmd_trust_spot_checks{result=\"passed\"} 1"));
        assert!(text.contains("hcmd_trust_spot_checks{result=\"failed\"} 0"));
        assert!(text.contains("hcmd_trust_agent_score{agent=\"30\"} 0"));
        assert!(text.contains("hcmd_campaign_share{campaign=\"alpha\"} 0.7"));
        assert!(text
            .contains("hcmd_campaign_delivered_ref_seconds{campaign=\"beta\"} 90.56607818603516"));
        assert!(text.contains("hcmd_campaign_borrows_total{campaign=\"alpha\"} 18"));
        assert!(text.contains("hcmd_campaign_workunits{campaign=\"alpha\",state=\"done\"} 7"));
        assert!(text.contains("hcmd_campaign_share_error 0.2822596374571369"));
        assert!(text.contains("hcmd_campaign_cross_quarantine_denials_total 1"));
        assert!(
            !text.contains("hcmd_shard_"),
            "an unsharded server has no shard tile"
        );
        let shard = render_metrics(&grids::shard());
        assert!(shard.contains("hcmd_shard_info{shard=\"1\",shards=\"2\"} 1"));
        assert!(shard.contains("hcmd_shard_owned_workunits 9"));
        assert!(shard.contains("hcmd_shard_fresh_backlog 8"));
        assert!(shard.contains("hcmd_shard_leases{direction=\"out\"} 1"));
        assert!(shard.contains("hcmd_shard_leases{direction=\"in\"} 1"));
        assert!(shard.contains("hcmd_shard_leased_workunits{direction=\"out\"} 2"));
        assert!(shard.contains("hcmd_shard_leased_workunits{direction=\"in\"} 3"));
        let solo = render_metrics(&grids::solo());
        assert!(solo.contains("hcmd_deadline_expiries 1"));
        assert!(solo.contains("hcmd_results_rejected{layer=\"bounds\"} 1"));
        assert!(solo.contains("hcmd_trust_enabled 0"));
        // Every family is announced before it is sampled.
        for family in ["hcmd_wu_states", "hcmd_results_received"] {
            let type_at = text.find(&format!("# TYPE {family} ")).unwrap();
            let sample_at = text.find(&format!("\n{family}")).unwrap();
            assert!(type_at < sample_at, "{family} sampled before its header");
        }
    }

    #[test]
    fn dashboard_is_self_contained_html() {
        let html = render_dashboard(&contended("dashboard"));
        assert!(html.starts_with("<!doctype html>"));
        for (needle, why) in [
            ("7/16", "workunit progress tile"),
            ("7/8", "receptor 0 progression"),
            ("545.06", "VFTP tile"),
            ("45 / 34806", "journal records / bytes tile"),
            ("<td>9</td>", "agent row"),
            ("2 / 10 / 0 / 1", "trust band tile"),
            ("1 / 0", "spot check tile"),
            ("Quarantined (1.00)", "agent trust column"),
            ("<td>alpha</td>", "campaign row"),
            ("Campaigns (share error 0.282)", "campaign table heading"),
            ("prefers-color-scheme: dark", "dark mode palette"),
        ] {
            assert!(html.contains(needle), "missing {why}: {needle}");
        }
        let shard = render_dashboard(&grids::shard());
        assert!(shard.contains("1 of 2 (9 / 8)"), "missing shard tile");
        let solo = render_dashboard(&grids::solo());
        assert!(solo.contains("Trust policy"), "missing trust-off tile");
        // Self-contained: no external fetches of any kind.
        for forbidden in ["http://", "https://", "src=", "href=", "@import", "url("] {
            assert!(
                !html.contains(forbidden),
                "dashboard references an external asset via {forbidden}"
            );
        }
    }

    /// The request head is answered when whole, cut short, or over its
    /// cap — never before — and only a known GET route is a 200.
    #[test]
    fn a_head_is_answered_once_whole_cut_short_or_too_large() {
        use crate::registry::CampaignDef;
        let (grid, _) = MultiGrid::open(
            vec![CampaignDef::default_solo(crate::CampaignParams::tiny())],
            Default::default(),
            Default::default(),
            crate::ShardSpec::solo(),
            None,
        )
        .unwrap();
        let status = |buf: &[u8], eof| {
            respond(buf, eof, SimTime::ZERO, SimTime::ZERO, &grid)
                .map(|bytes| String::from_utf8(bytes).unwrap()[9..12].to_owned())
        };
        assert_eq!(status(b"GET /metr", false), None);
        assert_eq!(status(b"GET /metrics HTTP/1.1\r\nHost: x\r\n", false), None);
        assert_eq!(status(b"GET /metr", true).as_deref(), Some("400"));
        assert_eq!(
            status(b"GET /metrics HTTP/1.1\r\n\r\n", false).as_deref(),
            Some("200")
        );
        assert_eq!(status(b"GET / HTTP/1.0\n\n", false).as_deref(), Some("200"));
        assert_eq!(
            status(b"GET /nope HTTP/1.1\r\n\r\n", false).as_deref(),
            Some("404")
        );
        assert_eq!(
            status(b"POST /metrics HTTP/1.1\r\n\r\n", false).as_deref(),
            Some("405")
        );
        assert_eq!(status(&[0xff, b'\n', b'\n'], false).as_deref(), Some("400"));
        let endless = vec![b'a'; MAX_REQUEST_HEAD + 1];
        assert_eq!(status(&endless, false).as_deref(), Some("431"));
    }

    #[test]
    fn request_lines_parse_and_reject_correctly() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\n"),
            Ok(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("GET /metrics?x=1 HTTP/1.1\r\n"),
            Ok(("GET", "/metrics"))
        );
        assert_eq!(parse_request_line("POST / HTTP/1.1\r\n"), Ok(("POST", "/")));
        assert_eq!(parse_request_line("GET /metrics\r\n"), Err(400));
        assert_eq!(parse_request_line(""), Err(400));
        assert_eq!(parse_request_line("GET / SMTP/1.0\r\n"), Err(400));
        let long = format!("GET /{} HTTP/1.1\r\n", "a".repeat(2 * MAX_REQUEST_LINE));
        assert_eq!(parse_request_line(&long), Err(414u16));
    }

    // ---- Scrapes of a live loop, taken between its turns. ----

    use crate::world::{Server, World};
    use crate::AgentConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A solo server with an ops listener, and three honest volunteers.
    fn scraped() -> World {
        let mut world = World::new(vec![Server {
            ops: true,
            ..Server::shard(0, 1)
        }]);
        for agent in 1..=3 {
            world.volunteer(AgentConfig::new("shard-0", agent));
        }
        world
    }

    /// The value of `series` (exact name and label text) in an
    /// exposition document.
    fn metric(body: &str, series: &str) -> Option<f64> {
        body.lines()
            .find(|l| l.starts_with(series) && l[series.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
    }

    /// Both routes scraped every tenth step of a running campaign. The
    /// endpoint answers for `LINGER` past the end, so the last pair sees
    /// the finished campaign, and agrees with the books the server ends
    /// on; and serving the scrapes leaves the artifact the baseline.
    #[test]
    fn live_scrapes_agree_with_the_final_books() {
        let mut world = scraped();
        let (mut last, mut scrapes) = (None, 0);
        world.finish(&mut ChaCha8Rng::seed_from_u64(5), |world, step| {
            if step % 10 == 0 {
                if let ((200, metrics), (200, html)) = (world.get(0, "/metrics"), world.get(0, "/"))
                {
                    scrapes += 1;
                    last = Some((metrics, html));
                }
            }
        });
        let (metrics, html) = last.expect("a scraped pair");
        assert!(scrapes >= 2, "{scrapes} scrapes");
        world.assert_the_end();

        let state = world.state(0);
        let wu = world.loops[0].core.slots()[0].campaign.len();
        let count = |n: usize| Some(n as f64);
        assert_eq!(metric(&metrics, "hcmd_campaign_complete"), Some(1.0));
        assert_eq!(
            metric(&metrics, "hcmd_wu_states{state=\"total\"}"),
            count(wu)
        );
        assert_eq!(
            metric(&metrics, "hcmd_wu_states{state=\"done\"}"),
            count(wu)
        );
        assert_eq!(
            metric(&metrics, "hcmd_wu_states{state=\"in_flight\"}"),
            Some(0.0)
        );
        let issued = state.server_stats().initial_issues as usize;
        assert_eq!(
            metric(&metrics, "hcmd_replicas_issued{cause=\"initial\"}"),
            count(issued)
        );
        let rejected = state.net_stats.quorum_rejected as usize;
        assert_eq!(
            metric(&metrics, "hcmd_results_rejected{layer=\"quorum\"}"),
            count(rejected)
        );
        let received = metric(&metrics, "hcmd_results_received").expect("results_received");
        assert!(received >= wu as f64, "at least one result per workunit");
        // Per-receptor series sum to the campaign totals.
        let receptor_done: f64 = metrics
            .lines()
            .filter(|l| l.starts_with("hcmd_receptor_workunits{") && l.contains("state=\"done\""))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum();
        assert_eq!(receptor_done, wu as f64);

        // The dashboard shows the same finished state, self-contained.
        assert!(html.contains("status: complete"), "dashboard not final");
        assert!(html.contains(&format!("{wu}/{wu}")));
        for forbidden in ["http://", "https://", "src=", "href="] {
            assert!(!html.contains(forbidden), "external asset via {forbidden}");
        }
    }

    /// Malformed requests come back 4xx and change nothing a scrape
    /// shows of the scheduler; the campaign then runs to the baseline.
    #[test]
    fn malformed_requests_get_4xx_and_leave_scheduler_state_alone() {
        let mut world = scraped();
        let (status, before) = world.get(0, "/metrics");
        assert_eq!(status, 200);
        assert_eq!(world.get(0, "/nope").0, 404);
        assert_eq!(world.get(0, &format!("/{}", "a".repeat(4096))).0, 414);
        let raw = world.scrape(0, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 405"), "got: {raw}");
        let (status, after) = world.get(0, "/metrics");
        assert_eq!(status, 200);
        // Only the net.ops.* registry counters (with telemetry compiled
        // in) may differ between the two scrapes.
        let scheduler_lines = |body: &str| -> Vec<String> {
            body.lines()
                .filter(|l| l.starts_with("hcmd_") || l.contains(" hcmd_"))
                .filter(|l| !l.contains("server_clock"))
                .map(String::from)
                .collect()
        };
        assert_eq!(
            scheduler_lines(&before),
            scheduler_lines(&after),
            "malformed requests mutated scheduler state"
        );
        assert_eq!(metric(&after, "hcmd_results_received"), Some(0.0));
        world.finish(&mut ChaCha8Rng::seed_from_u64(6), |_, _| {});
        world.assert_the_end();
    }
}
