//! Measures what the *enabled* telemetry instrumentation costs the
//! gridsim event loop, and fails when it breaks DESIGN.md §8's 2 %
//! budget.
//!
//! The comparison is within one binary: the same schedule/pop cycle runs
//! bare, and then with the instrumentation the simulator performs — the
//! per-event sampled-emit check (the scheduler's own
//! [`SchedulerCore::sampled`] on a core built once with a stride of 512,
//! plus the no-sink fast path),
//! and the day-granularity flush of the engine's plain pop/depth fields
//! into the global counter and gauge (the engine batches exactly this
//! way: the hot loop itself touches no atomics). Run with the feature on
//! to measure the real cost:
//!
//! ```text
//! cargo run --release -p hcmd-bench --features telemetry --bin telemetry_overhead
//! ```
//!
//! The host's clock steps between levels that hold for seconds, and its
//! neighbours' memory traffic slows a pass for milliseconds, so the two
//! loops are timed in single-pass pairs, the side that runs first
//! alternating. Each block of a few adjacent pairs keeps each side's
//! fastest pass, and the overhead is the median of the blocks' ratios: a
//! clock step lands inside few blocks and moves the median little, and a
//! slowed pass is dropped by its block's minimum, where a mean over all
//! passes would carry both.
//!
//! Without `--features telemetry` the instrumented loop compiles to the
//! bare loop (zero-sized no-ops), so the overhead reads as noise around
//! 0 % — which is itself the zero-cost-when-disabled claim — and the
//! budget is not enforced.

use gridsim::event::{EventQueue, SimTime};
use gridsim::sched::{SchedulerCore, ServerConfig, WorkunitCatalogEntry};
use std::hint::black_box;
use std::time::Instant;

const EVENTS_PER_PASS: usize = 10_000;

/// Events per simulated day: the flush cadence the engine uses. The
/// campaign engine processes far more events per `DayTick` than this, so
/// the bench over-counts flush cost, not under.
const EVENTS_PER_DAY: u32 = 1_024;

/// Blocks of timed pairs, and bare/instrumented pairs per block.
const BLOCKS: usize = 200;
const PAIRS_PER_BLOCK: usize = 5;

/// The budget, in percent of the bare loop's time.
const BUDGET_PERCENT: f64 = 2.0;

/// The sampling stride: one workunit's lifecycle in this many is logged,
/// the emit rate the budget is set for.
const SAMPLE_STRIDE: u32 = 512;

/// One schedule/pop pass over the event queue; returns a checksum so the
/// optimizer cannot discard the work.
fn bare_pass() -> u64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut acc = 0u64;
    for i in 0..EVENTS_PER_PASS as u32 {
        q.schedule(SimTime::new(f64::from(i)), i);
    }
    while let Some((t, e)) = q.pop() {
        acc = acc
            .wrapping_add(t.seconds() as u64)
            .wrapping_add(u64::from(e));
    }
    acc
}

/// The same pass with the instrumentation the simulator adds; `core`
/// decides which events are sampled.
fn instrumented_pass(
    core: &SchedulerCore,
    events: &'static telemetry::Counter,
    depth: &'static telemetry::Gauge,
) -> u64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut acc = 0u64;
    let mut flushed = 0u64;
    for i in 0..EVENTS_PER_PASS as u32 {
        q.schedule(SimTime::new(f64::from(i)), i);
    }
    while let Some((t, e)) = q.pop() {
        // The sampled lifecycle emit: the scheduler's stride check plus
        // the no-sink fast path (one relaxed load) for the sampled events.
        if core.sampled(e) {
            telemetry::emit(Some(t.seconds()), || telemetry::Event::WorkunitValidated {
                workunit: u64::from(e),
            });
        }
        // The day-tick flush: publish the queue's plain pop/depth
        // counters to the global registry.
        if e % EVENTS_PER_DAY == 0 {
            let pops = q.pops();
            events.add(pops - flushed);
            flushed = pops;
            depth.record_max(q.peak_len() as i64);
        }
        acc = acc
            .wrapping_add(t.seconds() as u64)
            .wrapping_add(u64::from(e));
    }
    events.add(q.pops() - flushed);
    acc
}

/// Nanoseconds of one pass.
fn time_pass<F: FnMut() -> u64>(mut f: F) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as f64
}

/// The value at quantile `q` of an ascending slice (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let events = telemetry::counter("bench.event_loop.pops");
    let depth = telemetry::gauge("bench.event_loop.peak_depth");
    // The stride is read from the environment when the core is built, as
    // in the simulator; outside the timed passes.
    std::env::set_var("HCMD_TELEMETRY_SAMPLE", SAMPLE_STRIDE.to_string());
    let core = SchedulerCore::new(
        vec![WorkunitCatalogEntry {
            ref_seconds: 1.0,
            position_ref_seconds: 1.0,
            receptor: 0,
        }],
        ServerConfig::default(),
    );
    assert!(core.sampled(SAMPLE_STRIDE) && !core.sampled(SAMPLE_STRIDE / 2));

    // Warm both paths (heap allocations, branch predictors).
    for _ in 0..5 {
        black_box(bare_pass());
        black_box(instrumented_pass(&core, events, depth));
    }

    // Per block: the fastest bare and the fastest instrumented pass.
    let mut fastest = Vec::with_capacity(BLOCKS);
    for block in 0..BLOCKS {
        let (mut bare, mut instrumented) = (f64::MAX, f64::MAX);
        for pair in 0..PAIRS_PER_BLOCK {
            if (block + pair) % 2 == 0 {
                bare = bare.min(time_pass(bare_pass));
                instrumented =
                    instrumented.min(time_pass(|| instrumented_pass(&core, events, depth)));
            } else {
                instrumented =
                    instrumented.min(time_pass(|| instrumented_pass(&core, events, depth)));
                bare = bare.min(time_pass(bare_pass));
            }
        }
        fastest.push((bare, instrumented));
    }
    let mut ratios: Vec<f64> = fastest.iter().map(|(b, i)| i / b).collect();
    let mut bare: Vec<f64> = fastest.iter().map(|f| f.0).collect();
    let mut instrumented: Vec<f64> = fastest.iter().map(|f| f.1).collect();
    for v in [&mut ratios, &mut bare, &mut instrumented] {
        v.sort_by(f64::total_cmp);
    }
    let percent = |q| (quantile(&ratios, q) - 1.0) * 100.0;
    let (overhead, q1, q3) = (percent(0.5), percent(0.25), percent(0.75));
    let (bare_ns, instrumented_ns) = (quantile(&bare, 0.5), quantile(&instrumented, 0.5));
    println!(
        "telemetry {}: event loop {EVENTS_PER_PASS} events/pass, {BLOCKS} blocks of {PAIRS_PER_BLOCK} pairs",
        if telemetry::ENABLED {
            "ENABLED"
        } else {
            "disabled"
        },
    );
    println!("  bare loop          {bare_ns:>12.0} ns/pass (median block)");
    println!("  instrumented loop  {instrumented_ns:>12.0} ns/pass (median block)");
    println!("  overhead           {overhead:>11.2} %  (median of blocks; quartiles {q1:.2} / {q3:.2} %)");
    if telemetry::ENABLED && overhead >= BUDGET_PERCENT {
        eprintln!("error: overhead above the {BUDGET_PERCENT} % budget");
        std::process::exit(1);
    }
}
