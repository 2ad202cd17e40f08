//! The deterministic compute-cost model of the MAXDo kernel.
//!
//! §4.1 establishes three properties of MAXDo's computing time:
//! reproducibility, linearity in `irot`, and linearity in `isep`. Thanks to
//! those, one measurement per protein couple — the 168² calibration run on
//! Grid'5000 — determines the whole workload. This module is the analytic
//! form of that measurement: it predicts the *reference-processor CPU
//! seconds* (Opteron 2 GHz, the paper's calibration hardware) for one
//! starting position of a couple.
//!
//! The cost is dominated by energy/gradient evaluations. The original
//! MAXDo visits all `B₁·B₂` bead pairs in each one, and the paper's
//! measured matrix — the thing this model is calibrated to — scales that
//! way, so the model is `ct(p1, p2) = κ · B₁ · B₂ · shape(p1, p2)`. (This
//! crate's own kernel does less work per evaluation: its neighbour-voxel
//! index, [`crate::energy::CellList`], hands each ligand bead only the
//! receptor beads near the cutoff sphere, `O(B₂ · local density)`.) `shape` captures the
//! couple-specific landscape difficulty (how many minimiser iterations the
//! pair needs) as a deterministic log-normal factor. κ is calibrated so the
//! 168² matrix reproduces Table 1's mean of 671 s (and, through the size
//! distribution, its σ, median, min and max).

use crate::library::ProteinLibrary;
use crate::model::Protein;
use serde::{Deserialize, Serialize};

/// Mean of the paper's compute-time matrix (Table 1), seconds.
pub const TABLE1_MEAN_SECONDS: f64 = 671.0;

/// σ of the log-normal couple-difficulty factor; adds the scatter the size
/// product alone cannot explain (see DESIGN.md calibration notes).
pub const SHAPE_SIGMA: f64 = 0.35;

/// Predicts reference-CPU seconds for the MAXDo kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Reference seconds per bead-pair per starting position.
    pub kappa: f64,
}

impl CostModel {
    /// A model with an explicit κ.
    pub fn with_kappa(kappa: f64) -> Self {
        assert!(kappa > 0.0 && kappa.is_finite(), "kappa must be positive");
        Self { kappa }
    }

    /// Calibrates κ so the mean of `ct` over all ordered couples of
    /// `library` equals `target_mean_seconds` — the reproduction of the
    /// Grid'5000 calibration campaign's normalisation.
    pub fn calibrated_to_mean(library: &ProteinLibrary, target_mean_seconds: f64) -> Self {
        assert!(target_mean_seconds > 0.0);
        let proteins = library.proteins();
        let mut acc = 0.0;
        for p1 in proteins {
            for p2 in proteins {
                acc += raw_cost(p1, p2);
            }
        }
        let mean_raw = acc / (proteins.len() * proteins.len()) as f64;
        Self {
            kappa: target_mean_seconds / mean_raw,
        }
    }

    /// The phase-I reference model: calibrated against the phase-I catalog
    /// to Table 1's mean.
    pub fn reference(library: &ProteinLibrary) -> Self {
        Self::calibrated_to_mean(library, TABLE1_MEAN_SECONDS)
    }

    /// Reference seconds for **one starting position** of couple
    /// `(p1, p2)` — all 21 orientation couples × 10 γ twists. This is the
    /// entry `Mct(p1, p2)` of the paper's computation-time matrix.
    pub fn cost_per_position(&self, p1: &Protein, p2: &Protein) -> f64 {
        self.kappa * raw_cost(p1, p2)
    }

    /// Reference seconds for one `(isep, irot)` docking cell — the paper's
    /// `ctiter` (formula (1) divides a position into its 21 couples).
    pub fn cost_per_cell(&self, p1: &Protein, p2: &Protein) -> f64 {
        self.cost_per_position(p1, p2) / crate::sampling::NROT_COUPLES as f64
    }

    /// Reference seconds for the whole docking map of a couple:
    /// `Nsep(p1) · Mct(p1, p2)`.
    pub fn cost_full_map(&self, library: &ProteinLibrary, p1: &Protein, p2: &Protein) -> f64 {
        library.nsep(p1.id) as f64 * self.cost_per_position(p1, p2)
    }
}

/// Unnormalised cost: bead-pair count times the couple's deterministic
/// difficulty factor.
fn raw_cost(p1: &Protein, p2: &Protein) -> f64 {
    p1.bead_count() as f64 * p2.bead_count() as f64 * shape_factor(p1, p2)
}

/// Deterministic log-normal couple-difficulty factor with median 1.
///
/// Hashes the ordered id pair into two uniforms and applies Box–Muller, so
/// the factor is reproducible, asymmetric in `(p1, p2)` (MAXDo is not
/// symmetric) and uncorrelated with protein size.
pub fn shape_factor(p1: &Protein, p2: &Protein) -> f64 {
    let h1 = splitmix(((p1.id.0 as u64) << 32) | p2.id.0 as u64 ^ 0x5EED_0001);
    let h2 = splitmix(h1 ^ 0x5EED_0002);
    let u1 = (h1 >> 11) as f64 / (1u64 << 53) as f64;
    let u2 = (h2 >> 11) as f64 / (1u64 << 53) as f64;
    // Clamp to ±2σ: the minimiser's iteration count varies a few-fold
    // between couples, not without bound; unclamped tails would inflate
    // the matrix max far beyond Table 1's 46 347 s.
    let z =
        ((-2.0 * u1.max(1e-12).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()).clamp(-2.0, 2.0);
    (SHAPE_SIGMA * z).exp()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryConfig;

    #[test]
    fn calibration_hits_the_target_mean() {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(6), 3);
        let m = CostModel::calibrated_to_mean(&lib, 100.0);
        let proteins = lib.proteins();
        let mut acc = 0.0;
        for p1 in proteins {
            for p2 in proteins {
                acc += m.cost_per_position(p1, p2);
            }
        }
        let mean = acc / 36.0;
        assert!((mean - 100.0).abs() < 1e-9, "mean = {mean}");
    }

    #[test]
    fn cost_scales_with_both_bead_counts() {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(6), 3);
        let m = CostModel::with_kappa(1.0);
        let mut sorted: Vec<_> = lib.proteins().iter().collect();
        sorted.sort_by_key(|p| p.bead_count());
        let (small, large) = (sorted[0], sorted[sorted.len() - 1]);
        // Averaged over partners to wash out the shape factor.
        let avg = |p: &Protein| {
            lib.proteins()
                .iter()
                .map(|q| m.cost_per_position(p, q))
                .sum::<f64>()
        };
        assert!(avg(large) > avg(small));
    }

    #[test]
    fn cost_is_asymmetric_like_maxdo() {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(3), 3);
        let m = CostModel::with_kappa(1.0);
        let (a, b) = (&lib.proteins()[0], &lib.proteins()[1]);
        assert_ne!(m.cost_per_position(a, b), m.cost_per_position(b, a));
    }

    #[test]
    fn cell_cost_is_position_cost_over_21() {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 3);
        let m = CostModel::with_kappa(0.5);
        let (a, b) = (&lib.proteins()[0], &lib.proteins()[1]);
        assert!((m.cost_per_cell(a, b) * 21.0 - m.cost_per_position(a, b)).abs() < 1e-12);
    }

    #[test]
    fn shape_factor_is_deterministic_and_centered() {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(8), 3);
        let ps = lib.proteins();
        let mut log_sum = 0.0;
        let mut n = 0;
        for p1 in ps {
            for p2 in ps {
                let f = shape_factor(p1, p2);
                assert_eq!(f, shape_factor(p1, p2));
                assert!(f > 0.0 && f.is_finite());
                log_sum += f.ln();
                n += 1;
            }
        }
        // Median ≈ 1 ⇒ mean of logs ≈ 0 (loose bound for 64 samples).
        assert!((log_sum / n as f64).abs() < 0.2);
    }

    #[test]
    fn full_map_cost_uses_nsep() {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 3);
        let m = CostModel::with_kappa(1.0);
        let (a, b) = (&lib.proteins()[0], &lib.proteins()[1]);
        let expect = lib.nsep(a.id) as f64 * m.cost_per_position(a, b);
        assert_eq!(m.cost_full_map(&lib, a, b), expect);
    }

    #[test]
    #[should_panic(expected = "kappa must be positive")]
    fn zero_kappa_rejected() {
        CostModel::with_kappa(0.0);
    }

    #[test]
    fn kernel_work_correlates_with_model() {
        // The real kernel's evaluation count times bead product should rank
        // couples the same way the cost model does (the model is an
        // analytic stand-in for running the kernel).
        use crate::docking::DockingEngine;
        use crate::energy::EnergyParams;
        use crate::minimize::MinimizeParams;
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(3), 97);
        let m = CostModel::with_kappa(1.0);
        let mp = MinimizeParams {
            max_iterations: 10,
            ..Default::default()
        };
        let mut measured = Vec::new();
        let mut predicted = Vec::new();
        for p1 in lib.proteins() {
            for p2 in lib.proteins() {
                if p1.id == p2.id {
                    continue;
                }
                let e = DockingEngine::new(p1, p2, 4, EnergyParams::default(), mp);
                let out = e.dock_position(1);
                measured.push(out.evaluations as f64 * (p1.bead_count() * p2.bead_count()) as f64);
                predicted.push(m.cost_per_position(p1, p2));
            }
        }
        // Rank correlation must be positive: bigger predicted → bigger real.
        let n = measured.len();
        let rank = |v: &[f64]| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap());
            let mut r = vec![0.0; v.len()];
            for (pos, &i) in idx.iter().enumerate() {
                r[i] = pos as f64;
            }
            r
        };
        let rm = rank(&measured);
        let rp = rank(&predicted);
        let mean = (n as f64 - 1.0) / 2.0;
        let cov: f64 = rm
            .iter()
            .zip(&rp)
            .map(|(a, b)| (a - mean) * (b - mean))
            .sum();
        let var: f64 = rm.iter().map(|a| (a - mean) * (a - mean)).sum();
        let spearman = cov / var;
        assert!(spearman > 0.5, "rank correlation too weak: {spearman}");
    }
}
