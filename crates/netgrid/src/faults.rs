//! Deterministic fault injection for live-grid runs.
//!
//! The simulator models volunteer unreliability statistically (§5.1:
//! deadline misses, erroneous results, host churn). The wire-level grid
//! reproduces the same failure classes as *concrete misbehaviour*:
//!
//! * **Disconnect** — the agent drops the TCP connection mid-workunit
//!   and reconnects; the abandoned replica ages out past its deadline
//!   and the server reissues it (§5.1 timeout reissue).
//! * **Stall** — the agent computes but sits on the result past the
//!   deadline before reporting; the server has already reissued, and the
//!   eventual report lands in the `late_results` bucket.
//! * **Corrupt** — the agent flips a low mantissa bit of one energy
//!   value. The frame checksum is recomputed by the (faulty, not
//!   byte-mangling) agent, and the value stays within §5.2 bounds — only
//!   quorum comparison can catch it, which is exactly the failure mode
//!   that policy exists for.
//!
//! Draws come from a per-agent `ChaCha8` stream seeded by
//! `(run seed, agent id)`, so a campaign's fault schedule is
//! reproducible run to run.
//!
//! [`ServerFaults`] is the server's side: the trust policy. It sets no
//! backoff and no connection limit: the server states a fixed hint, how
//! long a volunteer rests on it is the volunteer's own policy
//! ([`crate::agent`]), and how many volunteers may be connected at once
//! is the process's open-files limit.

use maxdo::DockingOutput;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// What a faulty agent does with one assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Compute and report honestly.
    None,
    /// Drop the connection without reporting; reconnect and move on.
    Disconnect,
    /// Report correctly, but only after the deadline has passed.
    Stall,
    /// Report a payload with one bit-flipped energy value.
    Corrupt,
}

/// Per-assignment fault probabilities. Evaluated in order — disconnect,
/// then stall, then corrupt — with at most one action per assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// P(drop the connection instead of reporting).
    pub disconnect: f64,
    /// P(report after the deadline).
    pub stall: f64,
    /// P(report a corrupted payload).
    pub corrupt: f64,
}

impl FaultProfile {
    /// A perfectly reliable volunteer.
    pub fn none() -> Self {
        Self {
            disconnect: 0.0,
            stall: 0.0,
            corrupt: 0.0,
        }
    }

    /// The default misbehaving volunteer: each failure class common
    /// enough that a small campaign exercises all three.
    pub fn flaky() -> Self {
        Self {
            disconnect: 0.15,
            stall: 0.10,
            corrupt: 0.15,
        }
    }

    /// An honest-but-unreliable volunteer: drops connections and stalls
    /// like `flaky`, but never corrupts a payload. This is the fleet
    /// the trust policy is designed to reward — its results are always
    /// byte-correct, so single-replica issues to it are safe and the
    /// merged artifact stays baseline-identical.
    pub fn reliable() -> Self {
        Self {
            disconnect: 0.15,
            stall: 0.10,
            corrupt: 0.0,
        }
    }

    /// The cheat: corrupts every payload it touches, never drops or
    /// stalls. Under the fixed quorum it burns rejection slots all
    /// campaign; under `--trust on` it is quarantined after a short
    /// run of rejections (README "Starving the saboteur").
    pub fn saboteur() -> Self {
        Self {
            disconnect: 0.0,
            stall: 0.0,
            corrupt: 1.0,
        }
    }

    /// Parses a profile name (`none` | `flaky` | `reliable` |
    /// `saboteur`), as accepted by `hcmd-agent --fault-profile`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "none" => Ok(Self::none()),
            "flaky" => Ok(Self::flaky()),
            "reliable" => Ok(Self::reliable()),
            "saboteur" => Ok(Self::saboteur()),
            other => Err(format!(
                "unknown fault profile '{other}' (none|flaky|reliable|saboteur)"
            )),
        }
    }
}

/// The per-agent fault stream.
#[derive(Clone, PartialEq)]
pub struct FaultDice {
    rng: ChaCha8Rng,
    profile: FaultProfile,
    agent: u64,
    corruptions: u64,
}

impl FaultDice {
    /// One stream per `(run seed, agent)` — reproducible per agent, but
    /// uncorrelated between agents.
    pub fn new(seed: u64, agent: u64, profile: FaultProfile) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ agent.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            profile,
            agent,
            corruptions: 0,
        }
    }

    /// Draws the fault action for the next assignment.
    pub fn draw(&mut self) -> FaultAction {
        let p: f64 = self.rng.gen();
        let d = self.profile.disconnect;
        let s = d + self.profile.stall;
        let c = s + self.profile.corrupt;
        if p < d {
            FaultAction::Disconnect
        } else if p < s {
            FaultAction::Stall
        } else if p < c {
            FaultAction::Corrupt
        } else {
            FaultAction::None
        }
    }

    /// Corrupts a computed output in place: one row's electrostatic term
    /// gets low mantissa bits flipped. Small enough to stay inside the
    /// §5.2 value ranges, large enough to break byte-level quorum
    /// agreement. The flipped pattern is salted by a per-draw counter
    /// (and the agent id), so two corruptions of the same workunit are
    /// never byte-identical — a saboteur that corrupts both replicas of
    /// a pair cannot accidentally self-validate its garbage.
    pub fn corrupt(&mut self, output: &mut DockingOutput) {
        if output.rows.is_empty() {
            return;
        }
        let idx = self.rng.gen_range(0..output.rows.len());
        self.corruptions += 1;
        let salt = (self.agent.wrapping_mul(31).wrapping_add(self.corruptions) & 0xffff) << 8;
        let row = &mut output.rows[idx];
        row.eelec = f64::from_bits(row.eelec.to_bits() ^ (1 << 30) ^ salt);
    }
}

/// The server's policy toward faulty volunteers; by default, trust off.
///
/// Serializable because the journal header records it: a journaled
/// campaign must resume under the same policy it ran under. How long a
/// volunteer rests between asks is not among it: that is the
/// volunteer's own policy ([`crate::agent`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerFaults {
    /// Trust-adaptive replication policy. In the journal header
    /// identity: a journal written under one trust policy refuses to
    /// replay under another.
    pub trust: crate::trust::TrustConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxdo::{DockingRow, EulerZyz, Vec3};

    #[test]
    fn fault_stream_is_deterministic_per_agent() {
        let draws = |agent: u64| {
            let mut dice = FaultDice::new(99, agent, FaultProfile::flaky());
            (0..32).map(|_| dice.draw()).collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4), "agents share one schedule");
    }

    #[test]
    fn flaky_profile_hits_every_class() {
        let mut dice = FaultDice::new(1, 1, FaultProfile::flaky());
        let mut seen = [false; 4];
        for _ in 0..400 {
            match dice.draw() {
                FaultAction::None => seen[0] = true,
                FaultAction::Disconnect => seen[1] = true,
                FaultAction::Stall => seen[2] = true,
                FaultAction::Corrupt => seen[3] = true,
            }
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn none_profile_never_faults() {
        let mut dice = FaultDice::new(1, 1, FaultProfile::none());
        assert!((0..200).all(|_| dice.draw() == FaultAction::None));
    }

    #[test]
    fn corruption_changes_bytes_but_stays_in_bounds() {
        let mut out = DockingOutput {
            rows: vec![DockingRow {
                isep: 1,
                irot: 1,
                position: Vec3::new(5.0, 0.0, 0.0),
                orientation: EulerZyz::default(),
                elj: -2.0,
                eelec: 1.5,
            }],
            evaluations: 10,
        };
        let clean = out.clone();
        let mut dice = FaultDice::new(7, 7, FaultProfile::flaky());
        dice.corrupt(&mut out);
        assert_ne!(out, clean, "corruption must change the payload");
        let delta = (out.rows[0].eelec - clean.rows[0].eelec).abs();
        assert!(delta < 1.0, "bit flip too large to pass bounds: {delta}");
    }

    #[test]
    fn profile_parsing() {
        assert_eq!(FaultProfile::parse("flaky"), Ok(FaultProfile::flaky()));
        assert_eq!(FaultProfile::parse("none"), Ok(FaultProfile::none()));
        assert!(FaultProfile::parse("chaotic").is_err());
    }
}
