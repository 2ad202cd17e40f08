//! Per-agent trust tracking for adaptive replication.
//!
//! The paper's fixed-quorum policy (§5.2) pays two results for every
//! workunit no matter who computes them; Fig. 6b shows that redundancy
//! eating a large slice of the donated CPU. BOINC's adaptive
//! replication and the prime-hunter reliability heuristic both observe
//! that most volunteers are boringly honest: score each agent by its
//! accept/reject history and spend redundancy only where the history
//! says it pays.
//!
//! The policy here is a three-band ladder driven by the accept ratio
//! `accepted / (accepted + rejected)` over a minimum sample:
//!
//! * **Trusted** (ratio ≥ [`TrustConfig::trusted_threshold`], sample ≥
//!   [`TrustConfig::min_samples`]): single-replica issues, backed by
//!   deterministic seeded spot-checks — a configurable fraction of the
//!   agent's accepted singles is recomputed by an independent agent,
//!   and a byte-level mismatch craters the agent to zero and
//!   retroactively re-replicates everything of theirs that was never
//!   independently confirmed.
//! * **Probation** (everyone else, and every newcomer): the paper's
//!   standard quorum.
//! * **Untrusted** (ratio < [`TrustConfig::untrusted_threshold`] over
//!   the sample): still quorum, but a run of consecutive rejections
//!   trips **quarantine** — work requests get pure backoff until an
//!   exponentially growing re-admission timer expires, so a saboteur
//!   stops burning replicas at all. Each quarantine resets the scoring
//!   window: re-admitted agents re-earn a band from scratch, and repeat
//!   offenders wait twice as long each time.
//!
//! All of this state is deliberately plain old data (`Copy`, serde,
//! `PartialEq`) that changes only inside journaled commands, so
//! journal replay rebuilds it and trust survives `kill -9` exactly like
//! the scheduler state does (the tests that compare a recovered
//! `GridState` with the live one compare it too).

use crate::protocol::fnv1a64;
use serde::{Deserialize, Serialize};

/// Tuning knobs for the trust policy. Lives inside
/// [`crate::ServerFaults`], which puts it in the journal header
/// identity: a journal written under one trust policy refuses to replay
/// under another.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrustConfig {
    /// Master switch; `false` reproduces the fixed-quorum behaviour of
    /// every prior PR bit-for-bit.
    pub enabled: bool,
    /// Accept ratio at or above which a sampled agent is Trusted.
    pub trusted_threshold: f64,
    /// Accept ratio below which a sampled agent is Untrusted.
    pub untrusted_threshold: f64,
    /// Minimum accepted+rejected results before the ratio means
    /// anything; below this every agent is Probation.
    pub min_samples: u32,
    /// Fraction of a trusted agent's single-replica accepts that get
    /// re-issued to an independent agent for byte-level comparison.
    pub spot_check_rate: f64,
    /// Seed for the deterministic spot-check draw (hashed with the
    /// workunit id, so selection is a pure function of (seed, wu)).
    pub spot_seed: u64,
    /// Consecutive rejections that trip quarantine.
    pub quarantine_after: u32,
    /// First quarantine duration; doubles per offence.
    pub quarantine_base_s: f64,
    /// Quarantine duration cap.
    pub quarantine_max_s: f64,
}

impl TrustConfig {
    /// Trust disabled: the fixed-quorum policy of PRs 4–7.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on()
        }
    }

    /// Trust enabled with the prime-hunter-style defaults.
    pub fn on() -> Self {
        Self {
            enabled: true,
            trusted_threshold: 0.95,
            untrusted_threshold: 0.80,
            min_samples: 5,
            spot_check_rate: 0.25,
            spot_seed: 0x5d0c_beef,
            quarantine_after: 4,
            quarantine_base_s: 30.0,
            quarantine_max_s: 3600.0,
        }
    }
}

impl Default for TrustConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// The band an agent's history currently earns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrustBand {
    /// Single-replica issues + spot-checks.
    Trusted,
    /// Standard quorum (newcomers and middling histories).
    Probation,
    /// Standard quorum, one reject away from quarantine.
    Untrusted,
    /// No work at all until the re-admission timer expires.
    Quarantined,
}

/// One agent's journaled trust ledger. `accepted`/`rejected` count the
/// *current scoring window* — quarantine resets them so a re-admitted
/// agent starts from scratch — while the spot-check and quarantine
/// counters are lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AgentTrust {
    /// Validated results in the current scoring window.
    pub accepted: u64,
    /// Rejected results (quorum or bounds) in the current window.
    pub rejected: u64,
    /// Current run of back-to-back rejections.
    pub consecutive_rejects: u32,
    /// Server-clock instant the current quarantine lifts; 0 if never
    /// quarantined or already served.
    pub quarantined_until_s: f64,
    /// Lifetime quarantine count (drives the exponential timer).
    pub quarantine_count: u32,
    /// Lifetime spot-checks of this agent's singles that byte-matched.
    pub spot_passed: u64,
    /// Lifetime spot-checks that mismatched (each one craters trust).
    pub spot_failed: u64,
}

impl AgentTrust {
    /// Accept ratio over the current window; 1.0 for an empty window so
    /// a fresh agent is not instantly Untrusted (the `min_samples`
    /// guard keeps it at Probation anyway).
    pub fn score(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            1.0
        } else {
            self.accepted as f64 / total as f64
        }
    }

    /// The band this history earns at server-clock `now_s`.
    pub fn band(&self, now_s: f64, cfg: &TrustConfig) -> TrustBand {
        if now_s < self.quarantined_until_s {
            return TrustBand::Quarantined;
        }
        let total = self.accepted + self.rejected;
        if total < u64::from(cfg.min_samples) {
            return TrustBand::Probation;
        }
        let score = self.score();
        if score >= cfg.trusted_threshold {
            TrustBand::Trusted
        } else if score < cfg.untrusted_threshold {
            TrustBand::Untrusted
        } else {
            TrustBand::Probation
        }
    }

    /// Credits a validated result and clears the rejection run.
    pub fn record_accept(&mut self) {
        self.accepted += 1;
        self.consecutive_rejects = 0;
    }

    /// Debits a rejected result; returns `true` if the run of
    /// consecutive rejections just tripped quarantine (the caller
    /// then invokes [`Self::quarantine`]).
    pub fn record_reject(&mut self, cfg: &TrustConfig) -> bool {
        self.rejected += 1;
        self.consecutive_rejects += 1;
        self.consecutive_rejects >= cfg.quarantine_after
    }

    /// Starts (or extends) quarantine at `now_s`: exponential duration
    /// per lifetime offence, window counters reset so the agent
    /// re-earns a band from scratch on re-admission.
    pub fn quarantine(&mut self, now_s: f64, cfg: &TrustConfig) {
        let exp = self.quarantine_count.min(16);
        let dur = (cfg.quarantine_base_s * f64::from(1u32 << exp)).min(cfg.quarantine_max_s);
        self.quarantined_until_s = now_s + dur;
        self.quarantine_count += 1;
        self.accepted = 0;
        self.rejected = 0;
        self.consecutive_rejects = 0;
    }

    /// A spot-check of this agent's single-replica result mismatched:
    /// trust craters to zero and the agent goes straight to quarantine.
    pub fn crater(&mut self, now_s: f64, cfg: &TrustConfig) {
        self.spot_failed += 1;
        self.quarantine(now_s, cfg);
    }

    /// Seconds of quarantine left at `now_s` (0 when admitted).
    pub fn quarantine_remaining_s(&self, now_s: f64) -> f64 {
        (self.quarantined_until_s - now_s).max(0.0)
    }
}

/// Deterministic spot-check draw: a pure function of (seed, workunit),
/// so the journal replay, the parity harness, and the live server all
/// select the same workunits without a shared RNG stream. `rate` is
/// quantized to 1/10000ths.
pub fn spot_selected(seed: u64, workunit: u32, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let mut bytes = [0u8; 12];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..].copy_from_slice(&workunit.to_le_bytes());
    let threshold = (rate.min(1.0) * 10_000.0).round() as u64;
    fnv1a64(&bytes) % 10_000 < threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TrustConfig {
        TrustConfig::on()
    }

    #[test]
    fn fresh_agent_is_probation_not_untrusted() {
        let t = AgentTrust::default();
        assert_eq!(t.band(0.0, &cfg()), TrustBand::Probation);
        assert_eq!(t.score(), 1.0);
    }

    #[test]
    fn bands_follow_the_thresholds_over_the_minimum_sample() {
        let c = cfg();
        let mut t = AgentTrust::default();
        for _ in 0..4 {
            t.record_accept();
        }
        // 4 accepts: still under min_samples.
        assert_eq!(t.band(0.0, &c), TrustBand::Probation);
        t.record_accept();
        // 5/5 = 1.0 ≥ 0.95.
        assert_eq!(t.band(0.0, &c), TrustBand::Trusted);
        // 5 accepts + 2 rejects = 0.714 < 0.80.
        t.record_reject(&c);
        t.record_reject(&c);
        assert_eq!(t.band(0.0, &c), TrustBand::Untrusted);
        // 16/18 ≈ 0.889: between the thresholds → Probation.
        for _ in 0..11 {
            t.record_accept();
        }
        assert_eq!(t.band(0.0, &c), TrustBand::Probation);
    }

    #[test]
    fn consecutive_rejects_trip_quarantine_and_accepts_clear_the_run() {
        let c = cfg();
        let mut t = AgentTrust::default();
        for _ in 0..c.quarantine_after - 1 {
            assert!(!t.record_reject(&c));
        }
        t.record_accept(); // run cleared
        for _ in 0..c.quarantine_after - 1 {
            assert!(!t.record_reject(&c));
        }
        assert!(
            t.record_reject(&c),
            "quarantine_after-th straight reject trips"
        );
    }

    #[test]
    fn quarantine_is_exponential_capped_and_resets_the_window() {
        let c = cfg();
        let mut t = AgentTrust {
            accepted: 3,
            rejected: 9,
            ..AgentTrust::default()
        };
        t.quarantine(100.0, &c);
        assert_eq!(t.quarantined_until_s, 100.0 + c.quarantine_base_s);
        assert_eq!((t.accepted, t.rejected, t.consecutive_rejects), (0, 0, 0));
        assert_eq!(t.band(100.0, &c), TrustBand::Quarantined);
        assert_eq!(
            t.band(100.0 + c.quarantine_base_s, &c),
            TrustBand::Probation
        );

        // Second offence doubles; the cap holds for serial offenders.
        t.quarantine(200.0, &c);
        assert_eq!(t.quarantined_until_s, 200.0 + 2.0 * c.quarantine_base_s);
        for _ in 0..40 {
            t.quarantine(300.0, &c);
        }
        assert_eq!(t.quarantined_until_s, 300.0 + c.quarantine_max_s);
    }

    #[test]
    fn crater_counts_the_spot_failure_and_quarantines_immediately() {
        let c = cfg();
        let mut t = AgentTrust::default();
        for _ in 0..10 {
            t.record_accept();
        }
        assert_eq!(t.band(0.0, &c), TrustBand::Trusted);
        t.crater(50.0, &c);
        assert_eq!(t.spot_failed, 1);
        assert_eq!(t.band(50.0, &c), TrustBand::Quarantined);
        assert_eq!(t.accepted, 0, "trust cratered to zero, not merely dented");
    }

    #[test]
    fn spot_selection_is_deterministic_and_tracks_the_rate() {
        let hits: Vec<u32> = (0..10_000)
            .filter(|&wu| spot_selected(42, wu, 0.25))
            .collect();
        let again: Vec<u32> = (0..10_000)
            .filter(|&wu| spot_selected(42, wu, 0.25))
            .collect();
        assert_eq!(hits, again, "pure function of (seed, wu)");
        // FNV over 10k consecutive ids lands close to the nominal rate.
        assert!(
            (2_000..3_000).contains(&(hits.len() as u32)),
            "hit count {} way off a 25% rate",
            hits.len()
        );
        // A different seed draws a different subset.
        let other: Vec<u32> = (0..10_000)
            .filter(|&wu| spot_selected(43, wu, 0.25))
            .collect();
        assert_ne!(hits, other);
        // Rate 0 selects nothing; rate 1 selects everything.
        assert!(!spot_selected(42, 7, 0.0));
        assert!(spot_selected(42, 7, 1.0));
    }
}
