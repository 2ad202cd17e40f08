//! Structured observability for the HCMD reproduction: live counters,
//! a JSONL event log, and per-run manifests.
//!
//! The paper's campaign was operated blind in places — §6 reconstructs
//! redundancy and speed-down factors from server-side accounting after
//! the fact. This crate gives the *simulated* campaign the observability
//! the real one lacked, in three layers:
//!
//! * [`registry`] — a lock-free metrics registry (atomic counters, gauges
//!   and fixed-bucket histograms). Handles are `&'static`; the hot path is
//!   one relaxed atomic RMW, cheap enough for the gridsim event loop and
//!   the rayon-parallel docking paths.
//! * [`events`] — a structured JSONL event log with dual timestamps
//!   (wall-clock milliseconds and, where meaningful, simulation seconds),
//!   covering the workunit lifecycle (packaged → issued → dispatched →
//!   result returned → validated / reissued with cause) and campaign
//!   phase spans.
//! * [`manifest`] — per-run manifests: seed, scale divisor, git revision,
//!   wall-clock, events processed, peak event-queue depth, results/sec —
//!   written next to the figure JSON each bench binary produces.
//!
//! # Zero cost when disabled
//!
//! Everything is gated on this crate's `enabled` cargo feature.
//! Instrumented crates (gridsim, maxdo, workunit, bench) depend on
//! `hcmd-telemetry` unconditionally and expose a `telemetry = `
//! `["hcmd-telemetry/enabled"]` passthrough feature; without it, metric
//! handles are zero-sized, [`ENABLED`] is `false`, and every call inlines
//! to nothing. The `telemetry_overhead` binary in `hcmd-bench` measures
//! the *enabled* cost on the event loop and fails over 2 %.

/// Whether instrumentation is compiled in (`enabled` cargo feature).
pub const ENABLED: bool = cfg!(feature = "enabled");

pub mod events;
pub mod exposition;
pub mod manifest;
pub mod registry;

pub use events::{
    emit, install_jsonl, install_jsonl_with_cap, shutdown, Event, IssueCause, Record,
    DEFAULT_MAX_BYTES,
};
pub use exposition::{render_snapshot, MetricKind, TextRenderer};
pub use manifest::{git_revision, RunManifest};
pub use registry::{
    counter, gauge, histogram, reset, snapshot, summary, Counter, Gauge, Histogram,
    HistogramSnapshot, MetricsSnapshot, Tally,
};
