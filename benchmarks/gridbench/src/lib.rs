//! `gridbench`: one repeatable end-to-end + per-layer benchmark for the
//! live grid. See `benchmarks/README.md` for the workloads, the metrics
//! and what each is expected to move.
//!
//! Module map:
//! * [`workload`] — the four workloads, their set-up and seeded identities;
//! * [`client`] — the closed-loop wire client (one request in flight);
//! * [`runner`] — one repetition: in-process server, client, verification,
//!   timed recovery;
//! * [`measure`] — one workload for `--seconds`: repetitions → samples;
//! * [`layers`] / [`trace`] — the traced run: socketless replay through
//!   the layers' public functions, off-path micro rows, the fold into
//!   per-layer values;
//! * [`spans`], [`alloc`], [`sysx`], [`stats`] — span recorder, counting
//!   allocator, raw Linux calls, order statistics;
//! * [`metrics`], [`report`], [`cli`] — the metric tables, result formats
//!   and `check`, the command line.

pub mod alloc;
pub mod cli;
pub mod client;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod sysx;
pub mod trace;
pub mod workload;
