//! The structured JSONL event log.
//!
//! Events cover the workunit lifecycle the paper's server-side accounting
//! tracked (packaged → issued → dispatched → result returned → validated /
//! reissued with cause) plus campaign phase spans and per-day summaries.
//! Each record carries a wall-clock timestamp (milliseconds since the log
//! was installed) and, where the event originates inside the simulator, a
//! simulation timestamp in seconds.
//!
//! Emission is opt-in twice over: the `enabled` cargo feature compiles the
//! machinery in, and [`install_jsonl`] must be called to open a sink.
//! Until both happen, [`emit`] is a no-op — when the feature is off it
//! const-folds away (the event-constructing closure is never called), and
//! when no sink is installed it is a single relaxed atomic load.
//!
//! Full-scale campaigns touch hundreds of thousands of workunits, far too
//! many to log one line each; instrumented call sites sample the
//! per-workunit lifecycle events (see `gridsim`'s `telemetry` docs) while
//! low-volume events (phases, day summaries) are always emitted.
//!
//! # Size cap / rotation
//!
//! Even sampled, a 26-week campaign writes an unbounded log. The sink
//! therefore enforces a size cap: once the current file would exceed it,
//! the file is rotated to `<path>.1` (replacing any previous rotation)
//! and a fresh file opened at `<path>`, so the log holds at most two
//! generations ≈ 2 × cap bytes. The default cap is 64 MiB; override it
//! with the `HCMD_EVENTS_MAX_BYTES` environment variable (a cap of `0`
//! disables rotation) or programmatically via
//! [`install_jsonl_with_cap`].

use serde::{Deserialize, Serialize};

/// Why a workunit instance was (re)issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IssueCause {
    /// First issue of the initial redundancy batch.
    Initial,
    /// Reissued because the quorum could not be met from live instances.
    Quorum,
    /// Reissued because an instance passed its deadline.
    Timeout,
    /// Reissued because an instance returned a compute error.
    Error,
}

/// One structured telemetry event.
///
/// Externally tagged in JSON: `{"PhaseStart":{"name":"packaging"}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A bench binary or example started a run.
    RunStart {
        /// Binary name (e.g. `fig6_campaign`).
        bin: String,
        /// RNG seed for the run.
        seed: u64,
        /// Campaign scale divisor (1 = full paper scale).
        scale_divisor: u64,
    },
    /// A campaign phase began.
    PhaseStart {
        /// Phase name (e.g. `packaging`, `simulation`, `analysis`).
        name: String,
    },
    /// A campaign phase finished.
    PhaseEnd {
        /// Phase name matching the corresponding [`Event::PhaseStart`].
        name: String,
        /// Wall-clock duration of the phase in seconds.
        wall_seconds: f64,
    },
    /// The packager produced a batch of workunits.
    WorkunitPackaged {
        /// Number of workunits in the batch.
        count: u64,
        /// Workunit duration parameter H in seconds.
        h_seconds: f64,
    },
    /// An instance of a (sampled) workunit was issued.
    WorkunitIssued {
        /// Workunit index within the campaign.
        workunit: u64,
        /// Why this instance was created.
        cause: IssueCause,
    },
    /// A (sampled) workunit instance was handed to a host.
    WorkunitDispatched {
        /// Workunit index within the campaign.
        workunit: u64,
        /// Host identifier.
        host: u64,
    },
    /// A host returned a result for a (sampled) workunit.
    ResultReturned {
        /// Workunit index within the campaign.
        workunit: u64,
        /// Host identifier.
        host: u64,
        /// Whether the host reported a compute error.
        error: bool,
    },
    /// A (sampled) workunit reached quorum and validated.
    WorkunitValidated {
        /// Workunit index within the campaign.
        workunit: u64,
    },
    /// A (sampled) workunit had an instance reissued.
    WorkunitReissued {
        /// Workunit index within the campaign.
        workunit: u64,
        /// Why the reissue happened.
        cause: IssueCause,
    },
    /// A volunteer agent's connection to the live task server opened:
    /// its first `Hello` (netgrid; wire-level runs only).
    ConnectionOpened {
        /// Agent identifier from the `Hello` frame.
        agent: u64,
    },
    /// A volunteer agent's connection closed. Emitted only for a
    /// connection that said `Hello`, once per [`Event::ConnectionOpened`].
    ConnectionClosed {
        /// Agent identifier from the `Hello` frame.
        agent: u64,
        /// Frames exchanged over the connection's lifetime.
        frames: u64,
        /// Why the connection ended (`bye`, `eof`, `io`, `protocol`).
        reason: String,
    },
    /// A connection was turned away at the server's connection limit
    /// before any frame was read. Deliberately distinct from
    /// [`Event::ConnectionClosed`]: a rejected connection never opened
    /// (no `Hello`, no agent id), so pairing `ConnectionOpened` /
    /// `ConnectionClosed` stays exact.
    ConnectionRejected {
        /// The backoff the server suggested in its `Busy` reply, ms.
        retry_after_ms: u64,
    },
    /// A (sampled) workunit result was rejected by quorum comparison:
    /// it disagreed with every stored candidate result byte-for-byte.
    QuorumRejected {
        /// Workunit index within the campaign.
        workunit: u64,
    },
    /// End-of-simulated-day rollup from the volunteer grid.
    DaySummary {
        /// Day index from campaign start.
        day: u64,
        /// Hosts attached at end of day.
        active_hosts: u64,
        /// Event-queue depth at end of day.
        queue_len: u64,
        /// Workunits validated so far.
        completed: u64,
    },
    /// The run finished.
    RunEnd {
        /// Total wall-clock for the run in seconds.
        wall_seconds: f64,
        /// Simulator events processed (0 for non-simulating runs).
        events_processed: u64,
    },
}

/// One JSONL line: an [`Event`] with its timestamps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Wall-clock milliseconds since the log was installed.
    pub wall_ms: u64,
    /// Simulation time in seconds, when the event originates inside the
    /// simulator; `None` for host-side events (phases, run markers).
    pub sim_s: Option<f64>,
    /// The event payload.
    pub event: Event,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Event, Record};
    use std::fs::File;
    use std::io::{BufWriter, Write};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Default size cap per log generation (64 MiB). See the module docs
    /// for the rotation scheme; `HCMD_EVENTS_MAX_BYTES` overrides it.
    pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

    struct Sink {
        writer: BufWriter<File>,
        path: std::path::PathBuf,
        written: u64,
        /// `None` disables rotation.
        max_bytes: Option<u64>,
    }

    impl Sink {
        /// Writes one line, rotating the file first when the line would
        /// push the current generation past the cap.
        fn write_line(&mut self, line: &str) {
            let needed = line.len() as u64 + 1;
            if let Some(cap) = self.max_bytes {
                if self.written > 0 && self.written + needed > cap {
                    let _ = self.writer.flush();
                    let rotated = {
                        let mut os = self.path.clone().into_os_string();
                        os.push(".1");
                        std::path::PathBuf::from(os)
                    };
                    if std::fs::rename(&self.path, &rotated).is_ok() {
                        if let Ok(f) = File::create(&self.path) {
                            self.writer = BufWriter::new(f);
                            self.written = 0;
                        }
                    }
                }
            }
            let _ = writeln!(self.writer, "{line}");
            self.written += needed;
        }
    }

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static SINK: Mutex<Option<Sink>> = Mutex::new(None);
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    fn wall_ms() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
    }

    fn cap_from_env() -> Option<u64> {
        match std::env::var("HCMD_EVENTS_MAX_BYTES") {
            Ok(v) => match v.trim().parse::<u64>() {
                Ok(0) => None,
                Ok(n) => Some(n),
                Err(_) => Some(DEFAULT_MAX_BYTES),
            },
            Err(_) => Some(DEFAULT_MAX_BYTES),
        }
    }

    /// Opens (truncating) a JSONL sink at `path`; subsequent [`emit`]
    /// calls append one line per event. Creates parent directories. The
    /// size cap comes from `HCMD_EVENTS_MAX_BYTES` (default 64 MiB, `0`
    /// disables rotation).
    pub fn install_jsonl(path: &Path) -> std::io::Result<()> {
        install_jsonl_with_cap(path, cap_from_env())
    }

    /// Like [`install_jsonl`] but with an explicit size cap per log
    /// generation; `None` disables rotation.
    pub fn install_jsonl_with_cap(path: &Path, max_bytes: Option<u64>) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = BufWriter::new(File::create(path)?);
        EPOCH.get_or_init(Instant::now);
        *SINK.lock().unwrap() = Some(Sink {
            writer: file,
            path: path.to_path_buf(),
            written: 0,
            max_bytes,
        });
        ACTIVE.store(true, Relaxed);
        Ok(())
    }

    /// Appends one event. `sim_s` is the simulation timestamp when the
    /// event originates inside the simulator. The closure only runs when
    /// a sink is installed, so constructing the event costs nothing in
    /// un-logged runs.
    #[inline]
    pub fn emit(sim_s: Option<f64>, event: impl FnOnce() -> Event) {
        if !ACTIVE.load(Relaxed) {
            return;
        }
        let record = Record {
            wall_ms: wall_ms(),
            sim_s,
            event: event(),
        };
        let Ok(line) = serde_json::to_string(&record) else {
            return;
        };
        let mut sink = SINK.lock().unwrap();
        if let Some(s) = sink.as_mut() {
            s.write_line(&line);
        }
    }

    /// Flushes and closes the sink. Safe to call more than once.
    pub fn shutdown() {
        ACTIVE.store(false, Relaxed);
        if let Some(mut s) = SINK.lock().unwrap().take() {
            let _ = s.writer.flush();
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::Event;
    use std::path::Path;

    /// Default size cap per log generation (matching the enabled build;
    /// unused here).
    pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

    /// No-op (telemetry disabled); reports success so callers need no
    /// feature-gating.
    #[inline(always)]
    pub fn install_jsonl(_path: &Path) -> std::io::Result<()> {
        Ok(())
    }

    /// No-op (telemetry disabled); reports success so callers need no
    /// feature-gating.
    #[inline(always)]
    pub fn install_jsonl_with_cap(_path: &Path, _max_bytes: Option<u64>) -> std::io::Result<()> {
        Ok(())
    }

    /// No-op (telemetry disabled); the closure is never invoked.
    #[inline(always)]
    pub fn emit(_sim_s: Option<f64>, _event: impl FnOnce() -> Event) {}

    /// No-op (telemetry disabled).
    #[inline(always)]
    pub fn shutdown() {}
}

pub use imp::{emit, install_jsonl, install_jsonl_with_cap, shutdown, DEFAULT_MAX_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[test]
    fn record_round_trips_through_value_tree() {
        let records = [
            Record {
                wall_ms: 12,
                sim_s: None,
                event: Event::RunStart {
                    bin: "fig6_campaign".into(),
                    seed: 2007,
                    scale_divisor: 10,
                },
            },
            Record {
                wall_ms: 340,
                sim_s: Some(86_400.5),
                event: Event::WorkunitReissued {
                    workunit: 41,
                    cause: IssueCause::Timeout,
                },
            },
            Record {
                wall_ms: 401,
                sim_s: None,
                event: Event::ConnectionOpened { agent: 7 },
            },
            Record {
                wall_ms: 977,
                sim_s: None,
                event: Event::ConnectionClosed {
                    agent: 7,
                    frames: 42,
                    reason: "bye".into(),
                },
            },
            Record {
                wall_ms: 499,
                sim_s: None,
                event: Event::ConnectionRejected { retry_after_ms: 80 },
            },
            Record {
                wall_ms: 612,
                sim_s: Some(33.5),
                event: Event::QuorumRejected { workunit: 18 },
            },
            Record {
                wall_ms: 900,
                sim_s: Some(172_800.0),
                event: Event::DaySummary {
                    day: 2,
                    active_hosts: 512,
                    queue_len: 1044,
                    completed: 777,
                },
            },
        ];
        for r in &records {
            let back = Record::from_value(&r.to_value()).unwrap();
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn record_round_trips_through_json_text() {
        let r = Record {
            wall_ms: 7,
            sim_s: Some(3.25),
            event: Event::ResultReturned {
                workunit: 9,
                host: 33,
                error: true,
            },
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    /// The JSONL sink is process-global; tests that install one must not
    /// overlap or their events interleave into each other's files.
    #[cfg(feature = "enabled")]
    static SINK_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[cfg(feature = "enabled")]
    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let _guard = SINK_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("hcmd-telemetry-test");
        let path = dir.join("events.jsonl");
        install_jsonl(&path).unwrap();
        emit(None, || Event::PhaseStart {
            name: "packaging".into(),
        });
        emit(Some(1.5), || Event::WorkunitValidated { workunit: 3 });
        shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: Record = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(
            first.event,
            Event::PhaseStart {
                name: "packaging".into()
            }
        );
        let second: Record = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.sim_s, Some(1.5));
        // After shutdown, emits are dropped silently.
        emit(None, || Event::RunEnd {
            wall_seconds: 0.0,
            events_processed: 0,
        });
        let text_after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text_after, text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn jsonl_sink_rotates_at_the_size_cap() {
        let _guard = SINK_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("hcmd-telemetry-rotate-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        // Each PhaseStart line is ~70 bytes; a 256-byte cap forces at
        // least one rotation within a dozen events.
        install_jsonl_with_cap(&path, Some(256)).unwrap();
        for i in 0..12 {
            emit(None, || Event::PhaseStart {
                name: format!("phase-{i:04}"),
            });
        }
        shutdown();
        let rotated = dir.join("events.jsonl.1");
        assert!(rotated.exists(), "rotation never happened");
        let live = std::fs::read_to_string(&path).unwrap();
        let old = std::fs::read_to_string(&rotated).unwrap();
        assert!(live.len() as u64 <= 256, "live generation exceeds cap");
        assert!(old.len() as u64 <= 256, "rotated generation exceeds cap");
        // Every line in both generations is intact JSON (rotation never
        // splits a record), and the newest record is in the live file.
        for line in live.lines().chain(old.lines()) {
            let _: Record = serde_json::from_str(line).unwrap();
        }
        let last: Record = serde_json::from_str(live.lines().last().unwrap()).unwrap();
        assert_eq!(
            last.event,
            Event::PhaseStart {
                name: "phase-0011".into()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
