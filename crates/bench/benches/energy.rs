//! Micro-benchmarks of the energy kernel — the inner loop of the 80
//! CPU-centuries: what the receptor's neighbour-voxel index costs to
//! build, and what one evaluation through it costs on a benchmark-sized
//! and a paper-sized couple, each beside the brute-force all-pairs loop
//! the index exists to beat (DESIGN.md §7).

use criterion::{criterion_group, criterion_main, Criterion};
use maxdo::energy::{energy_and_gradient, interaction_energy, CellList};
use maxdo::{EnergyParams, EulerZyz, LibraryConfig, Pose, Protein, ProteinLibrary, Vec3};
use std::hint::black_box;

fn protein_of_size(residues: f64, seed: u64) -> Protein {
    let lib = ProteinLibrary::generate(
        LibraryConfig {
            count: 1,
            median_residues: residues,
            sigma_log_residues: 0.0,
            min_residues: 10,
            max_residues: 5000,
            include_giant: false,
            separation_spacing: 6.0,
        },
        seed,
    );
    lib.proteins()[0].clone()
}

fn contact_pose(receptor: &Protein, ligand: &Protein) -> Pose {
    Pose::from_euler(
        EulerZyz::default(),
        Vec3::new(
            receptor.bounding_radius() + ligand.bounding_radius() * 0.3,
            0.0,
            0.0,
        ),
    )
}

/// Brute-force all-pairs energy: the reference arithmetic (`powi(3)` of
/// quotients, five divisions a pair), timed for scale beside the indexed
/// kernel — it does not reproduce that kernel's bits.
fn brute_force(receptor: &Protein, ligand: &Protein, pose: &Pose, params: &EnergyParams) -> f64 {
    let cutoff_sq = params.cutoff * params.cutoff;
    let delta_sq = params.softening * params.softening;
    let rc_sq = cutoff_sq + delta_sq;
    let mut total = 0.0;
    for lb in ligand.beads() {
        let lp = pose.apply(lb.position);
        for rb in receptor.beads() {
            let r_sq = (lp - rb.position).norm_sq();
            if r_sq >= cutoff_sq {
                continue;
            }
            let eps = (lb.kind.epsilon() * rb.kind.epsilon()).sqrt();
            let rmin = lb.kind.radius() + rb.kind.radius();
            let rr_sq = r_sq + delta_sq;
            let s6 = (rmin * rmin / rr_sq).powi(3);
            let c6 = (rmin * rmin / rc_sq).powi(3);
            total += eps * ((s6 * s6 - 2.0 * s6) - (c6 * c6 - 2.0 * c6));
            total += maxdo::energy::COULOMB_KCAL * lb.kind.charge() * rb.kind.charge()
                / params.dielectric
                * (1.0 / rr_sq - 1.0 / rc_sq);
        }
    }
    total
}

fn bench_energy(c: &mut Criterion) {
    let params = EnergyParams::default();
    // Receptor residues: the gridbench libraries' proteins, and the
    // median of the phase-I set.
    const TINY: f64 = 24.0;
    const PAPER_SCALE: f64 = 170.0;

    // Paid once per receptor per campaign.
    let receptor = protein_of_size(PAPER_SCALE, 1);
    c.bench_function("index_build_paper_scale", |b| {
        b.iter(|| black_box(CellList::build(black_box(&receptor), params.cutoff)))
    });

    for (name, residues) in [("tiny", TINY), ("paper_scale", PAPER_SCALE)] {
        let receptor = protein_of_size(residues, 1);
        let ligand = protein_of_size(residues * 0.6, 2);
        let pose = contact_pose(&receptor, &ligand);
        let cells = CellList::build(&receptor, params.cutoff);
        let mut group = c.benchmark_group(&format!("evaluate_{name}"));
        group.bench_function("voxel_index", |b| {
            b.iter(|| {
                black_box(interaction_energy(
                    &receptor,
                    &cells,
                    &ligand,
                    black_box(&pose),
                    &params,
                ))
            })
        });
        // What the minimiser runs on every trial pose.
        group.bench_function("energy_and_gradient", |b| {
            b.iter(|| {
                black_box(energy_and_gradient(
                    &receptor,
                    &cells,
                    &ligand,
                    black_box(&pose),
                    &params,
                ))
            })
        });
        group.bench_function("brute_force", |b| {
            b.iter(|| black_box(brute_force(&receptor, &ligand, black_box(&pose), &params)))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_energy);
criterion_main!(benches);
