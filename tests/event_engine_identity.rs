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
//!   the simulator that claims "same traces" must reproduce them unedited.
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
