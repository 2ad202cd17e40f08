//! Benchmarks of the docking driver: one minimisation, one docking cell
//! (10 γ twists), one starting position (21 couples) and one docking map,
//! serial and over the rayon pool (the dedicated-grid execution style).
//! That the parallel map is bit-identical to the serial one at every
//! thread count is `tests/parallel_determinism.rs`'s job, not a bench's.

use criterion::{criterion_group, criterion_main, Criterion};
use maxdo::minimize::minimize_from_distance;
use maxdo::{DockingEngine, EnergyParams, LibraryConfig, MinimizeParams, ProteinLibrary};
use std::hint::black_box;

fn bench_docking(c: &mut Criterion) {
    let library = ProteinLibrary::generate(LibraryConfig::tiny(2), 77);
    let ep = EnergyParams::default();
    let mp = MinimizeParams {
        max_iterations: 30,
        ..Default::default()
    };
    let receptor = &library.proteins()[0];
    let ligand = &library.proteins()[1];
    let engine = DockingEngine::new(receptor, ligand, 24, ep, mp);

    let mut minimizer_group = c.benchmark_group("minimizer_ablation");
    minimizer_group.bench_function("steepest_descent", |b| {
        b.iter(|| {
            black_box(minimize_from_distance(
                receptor,
                ligand,
                black_box(receptor.surface_radius() + 2.0),
                &ep,
                &mp,
            ))
        })
    });
    minimizer_group.bench_function("fire", |b| {
        let cells = maxdo::CellList::build(receptor, ep.cutoff);
        let start = maxdo::Pose::from_euler(
            maxdo::EulerZyz::default(),
            maxdo::Vec3::new(receptor.surface_radius() + 2.0, 0.0, 0.0),
        );
        let fp = maxdo::FireParams::default();
        b.iter(|| {
            black_box(maxdo::minimize_fire(
                receptor,
                &cells,
                ligand,
                black_box(start),
                &ep,
                &fp,
            ))
        })
    });
    minimizer_group.finish();

    c.bench_function("dock_cell_10_gammas", |b| {
        b.iter(|| black_box(engine.dock_cell(black_box(1), black_box(1))))
    });

    let mut group = c.benchmark_group("dock_position_21_couples");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(engine.dock_position(black_box(2))))
    });
    group.finish();

    let mut map_group = c.benchmark_group("dock_map_24_positions");
    map_group.sample_size(10);
    map_group.bench_function("sequential", |b| {
        b.iter(|| black_box(engine.dock_range(1, 24)))
    });
    map_group.bench_function("rayon_parallel", |b| {
        b.iter(|| black_box(engine.dock_map_parallel()))
    });
    map_group.finish();
}

criterion_group!(benches, bench_docking);
criterion_main!(benches);
