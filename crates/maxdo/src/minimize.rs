//! Rigid-body energy minimisation.
//!
//! §2.1: "the minimization of the interaction energy is computed according
//! to 6 variables: the space coordinates x, y, z of the mass center of the
//! ligand and the orientation of the ligand α, β, γ." The proteins stay
//! rigid; only the ligand pose moves.
//!
//! The minimiser is steepest descent on the rigid manifold with adaptive
//! step control (grow on success, backtrack on failure) — robust on the
//! stiff, softened LJ landscape and deterministic, which the downstream
//! cost model relies on (§4.1 property 1: "The MAXDo program has a
//! reproducible computing time").

use crate::energy::{
    energy_and_gradient_tallied, CellList, CullTally, EnergyBreakdown, EnergyParams,
};
use crate::geom::{Pose, Vec3};
use crate::model::Protein;
use serde::{Deserialize, Serialize};

/// Stopping and step-control parameters of the minimiser.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinimizeParams {
    /// Maximum number of accepted iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the gradient norm (force in
    /// kcal·mol⁻¹·Å⁻¹ plus torque in kcal·mol⁻¹·rad⁻¹).
    pub gradient_tolerance: f64,
    /// Initial translation step in Å per unit force.
    pub initial_step: f64,
    /// Step growth factor after an accepted move.
    pub grow: f64,
    /// Step shrink factor after a rejected move.
    pub shrink: f64,
    /// Smallest step before declaring convergence.
    pub min_step: f64,
}

impl Default for MinimizeParams {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            gradient_tolerance: 1e-3,
            initial_step: 0.05,
            grow: 1.2,
            shrink: 0.5,
            min_step: 1e-7,
        }
    }
}

/// Outcome of one minimisation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinimizeResult {
    /// The locally optimal pose.
    pub pose: Pose,
    /// Energy at the final pose.
    pub energy: EnergyBreakdown,
    /// Accepted descent iterations performed.
    pub iterations: usize,
    /// Total energy/gradient evaluations (incl. rejected trial steps) —
    /// the unit of computational work the cost model counts.
    pub evaluations: usize,
    /// Whether the gradient tolerance was reached (as opposed to running
    /// out of iterations or step size).
    pub converged: bool,
}

/// Minimises the interaction energy of `ligand` starting from `start`,
/// holding `receptor` fixed.
pub fn minimize(
    receptor: &Protein,
    cells: &CellList,
    ligand: &Protein,
    start: Pose,
    energy_params: &EnergyParams,
    params: &MinimizeParams,
) -> MinimizeResult {
    minimize_tallied(
        receptor,
        cells,
        ligand,
        start,
        energy_params,
        params,
        &mut CullTally::default(),
    )
}

/// [`minimize`], adding what its evaluations asked of the index to
/// `cull`.
pub(crate) fn minimize_tallied(
    receptor: &Protein,
    cells: &CellList,
    ligand: &Protein,
    start: Pose,
    energy_params: &EnergyParams,
    params: &MinimizeParams,
    cull: &mut CullTally,
) -> MinimizeResult {
    let mut pose = start;
    let mut g = energy_and_gradient_tallied(receptor, cells, ligand, &pose, energy_params, cull);
    let mut evaluations = 1;
    let mut step = params.initial_step;
    let mut iterations = 0;
    let mut converged = false;

    // Rotations are scaled by the ligand's lever arm so a unit of torque
    // moves surface beads about as far as a unit of force moves the centre.
    let lever = ligand.bounding_radius().max(1.0);

    for _ in 0..params.max_iterations {
        let grad_norm = g.force.norm() + g.torque.norm() / lever;
        if grad_norm < params.gradient_tolerance {
            converged = true;
            break;
        }
        // Trial move along the negative gradient (force/torque already
        // point downhill: they are −∂E/∂q).
        let mut accepted = false;
        while step >= params.min_step {
            let dt = g.force * step;
            let dw = g.torque * (step / (lever * lever));
            let trial = pose.perturbed(dt, dw);
            let tg =
                energy_and_gradient_tallied(receptor, cells, ligand, &trial, energy_params, cull);
            evaluations += 1;
            if tg.energy.total() < g.energy.total() {
                pose = trial;
                g = tg;
                step *= params.grow;
                accepted = true;
                break;
            }
            step *= params.shrink;
        }
        if !accepted {
            // Step collapsed to zero: numerically at a local minimum.
            converged = true;
            break;
        }
        iterations += 1;
    }

    outcome_counters()[usize::from(converged)].inc();
    MinimizeResult {
        pose,
        energy: g.energy,
        iterations,
        evaluations,
        converged,
    }
}

/// `[exhausted, converged]` outcome counters, resolved once. One atomic
/// load per minimisation (hundreds of energy evaluations), so the cost is
/// invisible even in calibration sweeps.
fn outcome_counters() -> &'static [&'static telemetry::Counter; 2] {
    static COUNTERS: std::sync::OnceLock<[&'static telemetry::Counter; 2]> =
        std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        [
            telemetry::counter("maxdo.minimize.exhausted"),
            telemetry::counter("maxdo.minimize.converged"),
        ]
    })
}

/// Convenience wrapper: pull a ligand placed along `+x` at separation
/// `distance` straight toward the receptor and minimise. Used by examples
/// and tests.
pub fn minimize_from_distance(
    receptor: &Protein,
    ligand: &Protein,
    distance: f64,
    energy_params: &EnergyParams,
    params: &MinimizeParams,
) -> MinimizeResult {
    let cells = CellList::build(receptor, energy_params.cutoff);
    let start = Pose {
        rotation: crate::geom::Mat3::IDENTITY,
        translation: Vec3::new(distance, 0.0, 0.0),
    };
    minimize(receptor, &cells, ligand, start, energy_params, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::energy_and_gradient;
    use crate::geom::EulerZyz;
    use crate::library::{LibraryConfig, ProteinLibrary};

    fn small_pair() -> (Protein, Protein) {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 17);
        (lib.proteins()[0].clone(), lib.proteins()[1].clone())
    }

    #[test]
    fn minimization_decreases_energy() {
        let (receptor, ligand) = small_pair();
        let ep = EnergyParams::default();
        let cells = CellList::build(&receptor, ep.cutoff);
        let start = Pose::from_euler(
            EulerZyz::default(),
            Vec3::new(
                receptor.surface_radius() + ligand.bounding_radius() * 0.2,
                0.0,
                0.0,
            ),
        );
        let e0 = crate::energy::interaction_energy(&receptor, &cells, &ligand, &start, &ep).total();
        let res = minimize(
            &receptor,
            &cells,
            &ligand,
            start,
            &ep,
            &MinimizeParams::default(),
        );
        assert!(
            res.energy.total() <= e0,
            "minimiser increased energy: {} -> {}",
            e0,
            res.energy.total()
        );
        assert!(res.evaluations >= 1);
    }

    #[test]
    fn minimization_is_deterministic() {
        let (receptor, ligand) = small_pair();
        let ep = EnergyParams::default();
        let mp = MinimizeParams::default();
        let a = minimize_from_distance(&receptor, &ligand, 20.0, &ep, &mp);
        let b = minimize_from_distance(&receptor, &ligand, 20.0, &ep, &mp);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.pose, b.pose);
    }

    #[test]
    fn final_gradient_is_small_when_converged() {
        let (receptor, ligand) = small_pair();
        let ep = EnergyParams::default();
        let mp = MinimizeParams {
            max_iterations: 2000,
            ..Default::default()
        };
        let res = minimize_from_distance(
            &receptor,
            &ligand,
            receptor.surface_radius() + 1.0,
            &ep,
            &mp,
        );
        if res.converged {
            let cells = CellList::build(&receptor, ep.cutoff);
            let g = energy_and_gradient(&receptor, &cells, &ligand, &res.pose, &ep);
            let lever = ligand.bounding_radius().max(1.0);
            let norm = g.force.norm() + g.torque.norm() / lever;
            // Either the analytic tolerance was met or the step collapsed at
            // a numerical minimum; both imply a small gradient or a flat
            // landscape. Allow a loose bound.
            assert!(norm < 1.0, "gradient still large: {norm}");
        }
    }

    #[test]
    fn far_apart_pair_converges_immediately() {
        let (receptor, ligand) = small_pair();
        let ep = EnergyParams::default();
        // Far outside the cutoff: zero energy, zero gradient.
        let res = minimize_from_distance(&receptor, &ligand, 500.0, &ep, &Default::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.energy.total(), 0.0);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let (receptor, ligand) = small_pair();
        let ep = EnergyParams::default();
        let mp = MinimizeParams {
            max_iterations: 3,
            gradient_tolerance: 0.0,
            ..Default::default()
        };
        let res = minimize_from_distance(&receptor, &ligand, 15.0, &ep, &mp);
        assert!(res.iterations <= 3);
    }

    #[test]
    fn attractive_start_moves_ligand_toward_receptor() {
        let (receptor, ligand) = small_pair();
        let ep = EnergyParams::default();
        let d0 = receptor.surface_radius() + ligand.bounding_radius() * 0.3;
        let res = minimize_from_distance(&receptor, &ligand, d0, &ep, &Default::default());
        // With a negative final energy the ligand must have found contact;
        // either way it should not have flown off to infinity.
        assert!(res.pose.translation.norm() < d0 + 10.0);
        assert!(res.pose.translation.is_finite());
    }
}
