//! The event engine's contract, pinned without a second engine.
//!
//! `gridsim::EventQueue`, a hierarchical timing wheel, is the simulator's
//! only engine. Its contract is the pop order: strictly increasing
//! `(at, seq)`, so events with equal timestamps pop in insertion order.
//! Two things hold it there:
//!
//! * an **oracle** — a `Vec` kept sorted by `(at, seq)`, small enough to
//!   be right by reading — that a fixed 400-op workload and a 256-case
//!   proptest replay beside the wheel, pop for pop;
//! * the **recorded traces** — the FNV-1a 64 digest and byte length of
//!   the serialized [`gridsim::CampaignTrace`] of five fixed campaigns
//!   (three analytic seeds, the session-level mode, the feeder cache),
//!   recorded while the `BinaryHeap` engine the wheel replaced still ran
//!   beside it and produced the same bytes. A change to the engine or to
//!   the simulator that claims "same traces" must reproduce them unedited;
//! * the **recorded pop orders** — six synthetic volunteer fleets, 1 000
//!   to 500 000 hosts, each digested pop by pop into a checksum recorded
//!   at seed 42 while a `BinaryHeap` engine still ran beside the wheel and
//!   popped the same order. The two small fleets run in every build, the
//!   four large ones only optimised (`cargo test --release --test
//!   event_engine_identity`).
//!
//! On a mismatch each trace test prints the `(length, digest)` it
//! computed.

use gridsim::{
    EventQueue, MembershipModel, ProjectPhases, SeasonalityModel, SharePhase, SimTime,
    VolunteerGridConfig, VolunteerGridSim,
};
use maxdo::{CostModel, LibraryConfig, ProteinLibrary};
use proptest::prelude::*;
use timemodel::CostMatrix;
use workunit::CampaignPackage;

/// The reference engine: pending events in a `Vec` sorted by `(at, seq)`
/// descending, so the next event is the last element.
struct Oracle<E> {
    pending: Vec<(f64, E)>,
    now: f64,
}

impl<E> Oracle<E> {
    /// Schedules `event` `delay` seconds from now (negative clamps to
    /// now). A later insertion has the larger `seq`, so it goes in front
    /// of every pending event with the same `at`.
    fn schedule_in(&mut self, delay: f64, event: E) {
        let at = self.now + delay.max(0.0);
        let slot = self.pending.partition_point(|&(t, _)| t > at);
        self.pending.insert(slot, (at, event));
    }

    fn pop(&mut self) -> Option<(f64, E)> {
        let (at, event) = self.pending.pop()?;
        self.now = at;
        Some((at, event))
    }
}

/// One pop sequence: the popped time's bits and the payload.
type Pops = Vec<(u64, u32)>;

/// Replays one schedule/pop interleaving on the wheel and on the oracle:
/// op `i` schedules payload `i` `delay` seconds from now, then pops once
/// if `pop` is set; whatever is left drains at the end.
fn replay(ops: &[(f64, bool)]) -> (Pops, Pops) {
    let mut wheel = EventQueue::new();
    let mut oracle = Oracle {
        pending: Vec::new(),
        now: 0.0,
    };
    let wheel_bits = |(t, e): (SimTime, u32)| (t.seconds().to_bits(), e);
    let oracle_bits = |(t, e): (f64, u32)| (t.to_bits(), e);
    let (mut from_wheel, mut from_oracle) = (Vec::new(), Vec::new());
    for (i, &(delay, pop)) in ops.iter().enumerate() {
        wheel.schedule_in(delay, i as u32);
        oracle.schedule_in(delay, i as u32);
        if pop {
            from_wheel.extend(wheel.pop().map(wheel_bits));
            from_oracle.extend(oracle.pop().map(oracle_bits));
        }
    }
    from_wheel.extend(std::iter::from_fn(|| wheel.pop()).map(wheel_bits));
    from_oracle.extend(std::iter::from_fn(|| oracle.pop()).map(oracle_bits));
    (from_wheel, from_oracle)
}

/// A fixed mixed workload — near ticks, same-timestamp storms, day-scale
/// jumps, 10-day deadlines and far-future spills — pops as the oracle.
#[test]
fn the_wheel_pops_a_mixed_workload_as_the_oracle() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let ops: Vec<(f64, bool)> = (0..400)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let delay = match x % 7 {
                0 => 0.0,
                1 => 1.0,
                2 => (x >> 32) as f64 % 300.0,
                3 => 86_400.0,
                4 => 10.0 * 86_400.0,
                5 => 250.0 * 86_400.0,
                _ => 400.0 * 86_400.0,
            };
            (delay, x.is_multiple_of(3))
        })
        .collect();
    let (wheel, oracle) = replay(&ops);
    assert_eq!(wheel.len(), 400);
    assert_eq!(wheel, oracle);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The timing wheel pops exactly what the oracle pops, in the same
    /// order, for any schedule/pop interleaving. Each op's delay class
    /// covers one tier of the wheel — same-timestamp ties (class 0),
    /// sub-tick offsets, near-wheel seconds, day-scale coarse windows,
    /// 20-day deadlines and far-future spills — and pops whenever
    /// `pop_gate == 0`, so drains interleave with inserts at every depth.
    #[test]
    fn timing_wheel_matches_the_sorted_reference(
        ops in proptest::collection::vec((0u8..6, 0u8..4), 1..250),
    ) {
        let ops: Vec<(f64, bool)> = ops
            .iter()
            .enumerate()
            .map(|(i, &(delay_class, pop_gate))| {
                let delay = match delay_class {
                    0 => 0.0,
                    1 => 0.25 + i as f64 * 1e-3,
                    2 => (i % 97) as f64,
                    3 => 86_400.0 + (i % 11) as f64 * 3600.0,
                    4 => 20.0 * 86_400.0,
                    _ => (400.0 + (i % 5) as f64 * 300.0) * 86_400.0,
                };
                (delay, pop_gate == 0)
            })
            .collect();
        let (wheel, oracle) = replay(&ops);
        prop_assert_eq!(wheel, oracle);
    }
}

/// `(byte length, FNV-1a 64)` of a small fixed-population campaign's
/// trace, serialized to JSON.
fn trace_digest(seed: u64, detailed: bool, feeder: bool) -> (usize, u64) {
    let lib = ProteinLibrary::generate(LibraryConfig::tiny(3), 7);
    let matrix = CostMatrix::from_cost_model(&lib, &CostModel::with_kappa(0.3));
    let pkg = CampaignPackage::new(&lib, &matrix, 4.0 * 3600.0);
    let mut config = VolunteerGridConfig::hcmd_phase1(1, seed);
    config.membership = MembershipModel {
        reference_vftp: 40.0,
        reference_day: 1,
        growth_exponent: 0.0,
        seasonality: SeasonalityModel::flat(),
        mean_accounted_fraction: 0.625,
    };
    config.phases = ProjectPhases::new(vec![SharePhase {
        start_day: 0,
        share_start: 1.0,
        share_end: 1.0,
        days: 365,
        name: "full",
    }]);
    config.membership_start_day = 0;
    config.snapshot_days = vec![1, 50];
    config.detailed_sessions = detailed;
    if feeder {
        config.server.feeder = Some(gridsim::FeederConfig::default());
    }
    let json =
        serde_json::to_string(&VolunteerGridSim::new(&pkg, config).run()).expect("serializes");
    let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    println!("seed {seed}: ({}, {fnv:#018x})", json.len());
    (json.len(), fnv)
}

#[test]
fn analytic_campaign_trace_is_engine_independent() {
    for (seed, recorded) in [
        (42, (2580, 0x29da_48f7_542a_c61e)),
        (7, (2539, 0xc030_b4d9_ace6_29c4)),
        (2007, (2544, 0x6ae8_2577_8951_0efe)),
    ] {
        assert_eq!(trace_digest(seed, false, false), recorded, "seed = {seed}");
    }
}

#[test]
fn detailed_sessions_trace_is_engine_independent() {
    assert_eq!(trace_digest(99, true, false), (2634, 0x939f_f35b_2634_02e9));
}

#[test]
fn feeder_campaign_trace_is_engine_independent() {
    assert_eq!(
        trace_digest(42, false, true),
        (13353, 0xab45_8dbe_30d5_c02e)
    );
}

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

/// Order-sensitive digest of a pop sequence: equal only if the same
/// events popped at the same times in the same order.
fn mix(checksum: u64, at: SimTime, ev: Ev) -> u64 {
    let tag = match ev {
        Ev::Fetch(h) => 1u64 << 32 | h as u64,
        Ev::Report(h) => 2u64 << 32 | h as u64,
        Ev::Timeout(h) => 3u64 << 32 | h as u64,
    };
    (checksum.rotate_left(7) ^ at.seconds().to_bits() ^ tag).wrapping_mul(0x100_0000_01B3)
}

/// Runs one fleet to completion and returns its pop-order checksum.
///
/// The fleet has the engine-visible shape of a real campaign: arrivals
/// spread over the first day, turnarounds in [2 h, 30 h), a 10-day
/// deadline event per issued task (these pile up in the wheel's coarse
/// tier and are what make the queue deep) and a short re-fetch delay
/// after every report.
fn fleet_checksum(hosts: u32, tasks_per_host: u32, seed: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut remaining = vec![tasks_per_host; hosts as usize];
    for h in 0..hosts {
        let offset = 86_400.0 * (h as f64 + 0.5) / hosts as f64;
        q.schedule(SimTime::new(offset), Ev::Fetch(h));
    }
    let mut checksum = 0u64;
    while let Some((now, ev)) = q.pop() {
        checksum = mix(checksum, now, ev);
        match ev {
            Ev::Fetch(h) => {
                let rem = &mut remaining[h as usize];
                if *rem > 0 {
                    *rem -= 1;
                    let mut s = seed ^ ((h as u64) << 32) ^ *rem as u64;
                    let r = splitmix64(&mut s);
                    let turnaround = 3600.0 * (2.0 + 28.0 * (r % 1_000_000) as f64 / 1e6);
                    q.schedule(now.after(turnaround), Ev::Report(h));
                    q.schedule(now.after(10.0 * 86_400.0), Ev::Timeout(h));
                }
            }
            Ev::Report(h) => {
                // The spread keeps re-fetches from synchronizing into
                // one bucket.
                q.schedule(now.after(60.0 + (h % 601) as f64), Ev::Fetch(h));
            }
            Ev::Timeout(_) => {}
        }
    }
    assert!(remaining.iter().all(|&r| r == 0), "campaign did not drain");
    checksum
}

/// Holds each `(hosts, tasks per host, checksum at seed 42)` fleet to
/// its recorded pop order.
fn assert_fleets_pop_as_recorded(fleets: &[(u32, u32, u64)]) {
    for &(hosts, tasks, recorded) in fleets {
        let checksum = fleet_checksum(hosts, tasks, 42);
        assert_eq!(
            checksum, recorded,
            "pop order at {hosts} hosts x {tasks} tasks is {checksum:#018x}, recorded {recorded:#018x}"
        );
    }
}

#[test]
fn small_fleets_pop_in_the_recorded_order() {
    assert_fleets_pop_as_recorded(&[
        (1_000, 8, 0xa006_9e41_32f0_d903),
        (10_000, 4, 0x3a30_4a23_be1f_bd0c),
    ]);
}

/// Larger fleets carry fewer tasks per host, while the queue depth still
/// grows with the fleet (every in-flight task parks a 10-day deadline):
/// about 2.2 M pending events at 500 000 hosts.
#[test]
#[cfg_attr(debug_assertions, ignore = "~5 s in debug; CI runs it optimised")]
fn large_fleets_pop_in_the_recorded_order() {
    assert_fleets_pop_as_recorded(&[
        (1_000, 64, 0xb7a6_565b_5660_2747),
        (10_000, 16, 0xb1dd_301f_57bd_be23),
        (100_000, 8, 0xd46f_3508_bea3_ba4b),
        (500_000, 4, 0x120b_2f1d_16dd_3d07),
    ]);
}
