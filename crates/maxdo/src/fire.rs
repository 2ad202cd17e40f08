//! FIRE — Fast Inertial Relaxation Engine — as an alternative rigid-body
//! minimiser.
//!
//! The paper does not say which local minimiser MAXDo used; the default
//! engine here ([`crate::minimize`]) is adaptive steepest descent. This
//! module provides FIRE (Bitzek et al., PRL 2006), the standard inertial
//! relaxation scheme of molecular simulation, over the same six rigid
//! degrees of freedom — compared with it in this module's tests, which
//! check that the docking landscape, not the optimiser, determines the
//! results, and available to users who want faster relaxation.
//!
//! FIRE integrates damped Newtonian dynamics and adapts the timestep: it
//! accelerates while the velocity keeps pointing downhill (`P = F·v > 0`)
//! and freezes and restarts when it overshoots.

use crate::energy::{energy_and_gradient, CellList, EnergyParams};
use crate::geom::{Pose, Vec3};
use crate::minimize::MinimizeResult;
use crate::model::Protein;
use serde::{Deserialize, Serialize};

/// FIRE control parameters (the PRL 2006 defaults, scaled to Å/kcal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FireParams {
    /// Maximum integration steps.
    pub max_steps: usize,
    /// Convergence threshold on the combined gradient norm.
    pub gradient_tolerance: f64,
    /// Initial timestep.
    pub dt_initial: f64,
    /// Maximum timestep.
    pub dt_max: f64,
    /// Timestep growth factor after `n_min` downhill steps.
    pub f_inc: f64,
    /// Timestep shrink factor on overshoot.
    pub f_dec: f64,
    /// Initial / reset velocity-mixing parameter α.
    pub alpha_start: f64,
    /// α decay factor.
    pub f_alpha: f64,
    /// Downhill steps required before accelerating.
    pub n_min: usize,
}

impl Default for FireParams {
    fn default() -> Self {
        Self {
            max_steps: 400,
            gradient_tolerance: 1e-3,
            dt_initial: 0.02,
            dt_max: 0.12,
            f_inc: 1.1,
            f_dec: 0.5,
            alpha_start: 0.1,
            f_alpha: 0.99,
            n_min: 5,
        }
    }
}

/// Minimises the interaction energy with FIRE. Returns the same record as
/// the steepest-descent engine so callers can swap them freely.
pub fn minimize_fire(
    receptor: &Protein,
    cells: &CellList,
    ligand: &Protein,
    start: Pose,
    energy_params: &EnergyParams,
    params: &FireParams,
) -> MinimizeResult {
    let lever = ligand.bounding_radius().max(1.0);
    let mut pose = start;
    let mut g = energy_and_gradient(receptor, cells, ligand, &pose, energy_params);
    let mut evaluations = 1usize;
    let mut best_pose = pose;
    let mut best_energy = g.energy;

    // Translational and angular velocities (mass and inertia set to 1 and
    // lever² respectively, folding units into the timestep).
    let mut v_t = Vec3::ZERO;
    let mut v_w = Vec3::ZERO;
    let mut dt = params.dt_initial;
    let mut alpha = params.alpha_start;
    let mut downhill_steps = 0usize;
    let mut converged = false;
    let mut iterations = 0usize;

    for _ in 0..params.max_steps {
        let grad_norm = g.force.norm() + g.torque.norm() / lever;
        if grad_norm < params.gradient_tolerance {
            converged = true;
            break;
        }
        // Generalised force: torque scaled onto the same footing as force.
        let f_t = g.force;
        let f_w = g.torque / (lever * lever);

        let power = f_t.dot(v_t) + f_w.dot(v_w);
        if power > 0.0 {
            downhill_steps += 1;
            // Mix velocity toward the force direction.
            let v_norm = (v_t.norm_sq() + v_w.norm_sq()).sqrt();
            let f_norm = (f_t.norm_sq() + f_w.norm_sq()).sqrt().max(1e-300);
            let mix = alpha * v_norm / f_norm;
            v_t = v_t * (1.0 - alpha) + f_t * mix;
            v_w = v_w * (1.0 - alpha) + f_w * mix;
            if downhill_steps > params.n_min {
                dt = (dt * params.f_inc).min(params.dt_max);
                alpha *= params.f_alpha;
            }
        } else {
            // Overshoot: freeze and restart cautiously.
            v_t = Vec3::ZERO;
            v_w = Vec3::ZERO;
            dt *= params.f_dec;
            alpha = params.alpha_start;
            downhill_steps = 0;
            if dt < 1e-9 {
                converged = true;
                break;
            }
        }
        // Semi-implicit Euler.
        v_t += f_t * dt;
        v_w += f_w * dt;
        pose = pose.perturbed(v_t * dt, v_w * dt);
        g = energy_and_gradient(receptor, cells, ligand, &pose, energy_params);
        evaluations += 1;
        iterations += 1;
        if g.energy.total() < best_energy.total() {
            best_energy = g.energy;
            best_pose = pose;
        }
    }

    // FIRE's trajectory can end slightly uphill of its best point; report
    // the best visited state (a valid local optimum estimate, and never
    // worse than the start).
    MinimizeResult {
        pose: best_pose,
        energy: best_energy,
        iterations,
        evaluations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::EulerZyz;
    use crate::library::{LibraryConfig, ProteinLibrary};
    use crate::minimize::{minimize, MinimizeParams};

    fn fixture() -> (Protein, Protein) {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 37);
        (lib.proteins()[0].clone(), lib.proteins()[1].clone())
    }

    fn start_pose(receptor: &Protein, ligand: &Protein) -> Pose {
        Pose::from_euler(
            EulerZyz {
                alpha: 0.4,
                beta: 1.0,
                gamma: 0.2,
            },
            Vec3::new(
                receptor.surface_radius() + ligand.bounding_radius() * 0.2,
                1.0,
                -2.0,
            ),
        )
    }

    #[test]
    fn fire_decreases_energy() {
        let (receptor, ligand) = fixture();
        let ep = EnergyParams::default();
        let cells = CellList::build(&receptor, ep.cutoff);
        let start = start_pose(&receptor, &ligand);
        let e0 = crate::energy::interaction_energy(&receptor, &cells, &ligand, &start, &ep).total();
        let res = minimize_fire(
            &receptor,
            &cells,
            &ligand,
            start,
            &ep,
            &FireParams::default(),
        );
        assert!(res.energy.total() <= e0, "{} -> {}", e0, res.energy.total());
        assert!(res.pose.translation.is_finite());
    }

    #[test]
    fn fire_is_deterministic() {
        let (receptor, ligand) = fixture();
        let ep = EnergyParams::default();
        let cells = CellList::build(&receptor, ep.cutoff);
        let start = start_pose(&receptor, &ligand);
        let a = minimize_fire(
            &receptor,
            &cells,
            &ligand,
            start,
            &ep,
            &FireParams::default(),
        );
        let b = minimize_fire(
            &receptor,
            &cells,
            &ligand,
            start,
            &ep,
            &FireParams::default(),
        );
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn fire_and_steepest_descent_find_comparable_minima() {
        // The ablation claim: the landscape, not the optimiser, decides.
        // Both minimisers must land in the same energy ballpark from the
        // same starts.
        let (receptor, ligand) = fixture();
        let ep = EnergyParams::default();
        let cells = CellList::build(&receptor, ep.cutoff);
        let mut fire_total = 0.0;
        let mut sd_total = 0.0;
        for k in 0..5 {
            let start = Pose::from_euler(
                EulerZyz {
                    alpha: 0.3 * k as f64,
                    beta: 0.5,
                    gamma: 0.0,
                },
                Vec3::new(receptor.surface_radius() + 1.0, k as f64, 0.0),
            );
            let f = minimize_fire(
                &receptor,
                &cells,
                &ligand,
                start,
                &ep,
                &FireParams::default(),
            );
            let s = minimize(
                &receptor,
                &cells,
                &ligand,
                start,
                &ep,
                &MinimizeParams {
                    max_iterations: 400,
                    ..Default::default()
                },
            );
            fire_total += f.energy.total();
            sd_total += s.energy.total();
        }
        // Within 30 % of each other in total depth (both negative).
        assert!(
            fire_total < 0.0 && sd_total < 0.0,
            "{fire_total} {sd_total}"
        );
        let ratio = fire_total / sd_total;
        assert!(
            (0.6..1.67).contains(&ratio),
            "optimisers disagree: FIRE {fire_total} vs SD {sd_total}"
        );
    }

    #[test]
    fn far_start_converges_immediately() {
        let (receptor, ligand) = fixture();
        let ep = EnergyParams::default();
        let cells = CellList::build(&receptor, ep.cutoff);
        let start = Pose::from_euler(EulerZyz::default(), Vec3::new(900.0, 0.0, 0.0));
        let res = minimize_fire(
            &receptor,
            &cells,
            &ligand,
            start,
            &ep,
            &FireParams::default(),
        );
        assert!(res.converged);
        assert_eq!(res.energy.total(), 0.0);
    }

    #[test]
    fn result_is_never_worse_than_start() {
        let (receptor, ligand) = fixture();
        let ep = EnergyParams::default();
        let cells = CellList::build(&receptor, ep.cutoff);
        // A clashing start with a violent gradient.
        let start = Pose::from_euler(EulerZyz::default(), Vec3::new(2.0, 0.0, 0.0));
        let e0 = crate::energy::interaction_energy(&receptor, &cells, &ligand, &start, &ep).total();
        let res = minimize_fire(
            &receptor,
            &cells,
            &ligand,
            start,
            &ep,
            &FireParams::default(),
        );
        assert!(res.energy.total() <= e0);
    }
}
