//! Event-engine scaling bench: synthetic volunteer fleets at paper
//! scale (1k → 500k hosts, the paper's grid held ~836k devices),
//! driven through both event engines — the legacy `BinaryHeap`
//! ([`HeapQueue`]) and the hierarchical timing wheel ([`EventQueue`]) —
//! over a compressed campaign.
//!
//! The workload reproduces the engine-visible shape of a real campaign
//! rather than its science: staggered initial fetches, hours-scale
//! turnarounds, a 10-day deadline event per issued task (these pile up
//! in the wheel's coarse tier and are what make the queue deep), and a
//! short re-fetch delay after every report. Both engines must pop the
//! exact same sequence — an order checksum is asserted — so the numbers
//! compare identical work.
//!
//! Writes `BENCH_simscale.json` at the workspace root (override with
//! `--out`). CI runs `--quick`, the two small fleets only, for the
//! order-checksum assertion; its events/sec are recorded, not compared.

use bench_support::{thousands, RunSession};
use gridsim::{EventQueue, HeapQueue, Scheduler, SimTime};
use std::time::Instant;

/// One synthetic fleet event. Small and `Copy`, like the real
/// `SimEvent`, so bucket `Vec`s hold it inline.
#[derive(Clone, Copy)]
enum Ev {
    /// Host asks for work.
    Fetch(u32),
    /// Host returns a finished task.
    Report(u32),
    /// A task's 10-day deadline expired (usually after its report —
    /// pure queue ballast, exactly as in the real server).
    Timeout(u32),
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive digest of a pop sequence: identical iff the two
/// engines popped the same events at the same times in the same order.
fn mix(checksum: u64, at: SimTime, ev: Ev) -> u64 {
    let tag = match ev {
        Ev::Fetch(h) => 1u64 << 32 | h as u64,
        Ev::Report(h) => 2u64 << 32 | h as u64,
        Ev::Timeout(h) => 3u64 << 32 | h as u64,
    };
    (checksum.rotate_left(7) ^ at.seconds().to_bits() ^ tag).wrapping_mul(0x100_0000_01B3)
}

struct FleetOutcome {
    pops: u64,
    peak_depth: usize,
    checksum: u64,
    wall_seconds: f64,
}

/// Runs one fleet to completion on engine `S` and digests the order.
fn run_fleet<S: Scheduler<Ev>>(hosts: u32, tasks_per_host: u32, seed: u64) -> FleetOutcome {
    let mut q = S::default();
    let mut remaining = vec![tasks_per_host; hosts as usize];
    // Arrivals spread over the first day, as the membership model does.
    for h in 0..hosts {
        let offset = 86_400.0 * (h as f64 + 0.5) / hosts as f64;
        q.schedule(SimTime::new(offset), Ev::Fetch(h));
    }
    let mut checksum = 0u64;
    let started = Instant::now();
    while let Some((now, ev)) = q.pop() {
        checksum = mix(checksum, now, ev);
        match ev {
            Ev::Fetch(h) => {
                let rem = &mut remaining[h as usize];
                if *rem > 0 {
                    *rem -= 1;
                    // Turnaround in [2 h, 30 h), a per-(host, task)
                    // deterministic draw.
                    let mut s = seed ^ ((h as u64) << 32) ^ *rem as u64;
                    let r = splitmix64(&mut s);
                    let turnaround = 3600.0 * (2.0 + 28.0 * (r % 1_000_000) as f64 / 1e6);
                    q.schedule(now.after(turnaround), Ev::Report(h));
                    q.schedule(now.after(10.0 * 86_400.0), Ev::Timeout(h));
                }
            }
            Ev::Report(h) => {
                // Hosts poll again shortly; the spread keeps re-fetches
                // from synchronizing into one bucket.
                q.schedule(now.after(60.0 + (h % 601) as f64), Ev::Fetch(h));
            }
            Ev::Timeout(_) => {}
        }
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    assert!(remaining.iter().all(|&r| r == 0), "campaign did not drain");
    FleetOutcome {
        pops: q.pops(),
        peak_depth: q.peak_len(),
        checksum,
        wall_seconds,
    }
}

/// Best-of-`reps` timing of one engine on one fleet (the checksum and
/// the structural counters are identical across reps by construction).
fn measure<S: Scheduler<Ev>>(hosts: u32, tasks: u32, seed: u64, reps: u32) -> FleetOutcome {
    let mut best = run_fleet::<S>(hosts, tasks, seed);
    for _ in 1..reps {
        let next = run_fleet::<S>(hosts, tasks, seed);
        assert_eq!(next.checksum, best.checksum, "nondeterministic engine");
        if next.wall_seconds < best.wall_seconds {
            best = next;
        }
    }
    best
}

/// One engine's measurements in `BENCH_simscale.json`.
#[derive(serde::Serialize)]
struct EngineRow {
    wall_seconds: f64,
    events_per_sec: f64,
    peak_queue_depth: u64,
}

impl EngineRow {
    fn from(o: &FleetOutcome) -> Self {
        Self {
            wall_seconds: o.wall_seconds,
            events_per_sec: o.pops as f64 / o.wall_seconds.max(1e-9),
            peak_queue_depth: o.peak_depth as u64,
        }
    }
}

/// One fleet scenario in `BENCH_simscale.json`.
#[derive(serde::Serialize)]
struct ScenarioRow {
    hosts: u32,
    tasks_per_host: u32,
    events: u64,
    heap: EngineRow,
    wheel: EngineRow,
    wheel_speedup: f64,
    checksum_match: bool,
}

/// The `BENCH_simscale.json` document.
#[derive(serde::Serialize)]
struct ScaleReport {
    bench: String,
    seed: u64,
    quick: bool,
    reps_best_of_small: u32,
    tick_seconds: f64,
    scenarios: Vec<ScenarioRow>,
}

fn main() {
    let mut quick = false;
    let mut seed = 42u64;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed <n>")
            }
            "--out" => out = Some(args.next().expect("--out <path>")),
            other => {
                eprintln!("sim_scale: unknown argument {other}");
                eprintln!("usage: sim_scale [--quick] [--seed <n>] [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    let mut session = RunSession::start("sim_scale", seed, 1);
    // Larger fleets carry fewer tasks per host so the compressed
    // campaign stays minutes-scale while the *queue depth* still grows
    // with the fleet (every in-flight task parks a 10-day deadline).
    let scenarios: &[(u32, u32)] = if quick {
        &[(1_000, 8), (10_000, 4)]
    } else {
        &[(1_000, 64), (10_000, 16), (100_000, 8), (500_000, 4)]
    };
    let reps_small = if quick { 1 } else { 3 };

    println!(
        "{:>8} {:>6} {:>12} {:>14} {:>14} {:>10} {:>8}",
        "hosts", "tasks", "events", "heap ev/s", "wheel ev/s", "peak q", "speedup"
    );
    let mut rows = Vec::new();
    let (mut total_pops, mut peak_depth) = (0u64, 0u64);
    for &(hosts, tasks) in scenarios {
        let reps = if hosts <= 10_000 { reps_small } else { 1 };
        let label = format!("fleet_{hosts}");
        let (heap, wheel) = session.phase(&label, || {
            let heap = measure::<HeapQueue<Ev>>(hosts, tasks, seed, reps);
            let wheel = measure::<EventQueue<Ev>>(hosts, tasks, seed, reps);
            (heap, wheel)
        });
        assert_eq!(
            heap.checksum, wheel.checksum,
            "engines diverged at {hosts} hosts"
        );
        assert_eq!(heap.pops, wheel.pops);
        assert_eq!(heap.peak_depth, wheel.peak_depth);
        let speedup = heap.wall_seconds / wheel.wall_seconds.max(1e-9);
        println!(
            "{:>8} {:>6} {:>12} {:>14.0} {:>14.0} {:>10} {:>7.2}x",
            hosts,
            tasks,
            thousands(wheel.pops),
            heap.pops as f64 / heap.wall_seconds.max(1e-9),
            wheel.pops as f64 / wheel.wall_seconds.max(1e-9),
            thousands(wheel.peak_depth as u64),
            speedup
        );
        total_pops += wheel.pops;
        peak_depth = peak_depth.max(wheel.peak_depth as u64);
        rows.push(ScenarioRow {
            hosts,
            tasks_per_host: tasks,
            events: wheel.pops,
            heap: EngineRow::from(&heap),
            wheel: EngineRow::from(&wheel),
            wheel_speedup: speedup,
            checksum_match: true,
        });
    }

    let report = ScaleReport {
        bench: "sim_scale".to_string(),
        seed,
        quick,
        reps_best_of_small: reps_small,
        tick_seconds: gridsim::wheel::TICK_SECONDS,
        scenarios: rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simscale.json");
    let path = out.as_deref().unwrap_or(default_path);
    match std::fs::write(path, json + "\n") {
        Ok(()) => println!("sim_scale -> {path}"),
        Err(e) => {
            eprintln!("sim_scale: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    session.record_engine(total_pops, peak_depth, 0);
    session.finish();
}
