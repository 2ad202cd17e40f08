//! MAXDo — *Molecular Association via Cross Docking simulations* —
//! reimplemented as the scientific substrate of the HCMD phase-I
//! reproduction.
//!
//! The original MAXDo program (Sacquin-Mora et al.) systematically docks
//! every ordered couple of a protein set: for receptor `p1` and ligand
//! `p2` it minimises a reduced-model interaction energy
//! `Etot = Elj + Eelec` from a regular array of starting positions
//! (`isep ∈ [1..Nsep(p1)]`) and orientations (`irot ∈ [1..21]`, each
//! covering 10 `γ` twists). See §2.1 of the paper.
//!
//! Module map:
//! * [`geom`] — vectors, rotations, Euler angles, rigid poses;
//! * [`model`] — the reduced (Zacharias-style) protein representation;
//! * [`library`] — the synthetic 168-protein phase-I catalog, calibrated
//!   to the paper's published distributions;
//! * [`energy`] — Lennard-Jones + screened electrostatic energy over a
//!   precomputed receptor neighbour grid, with analytic rigid-body
//!   gradients;
//! * [`minimize`] — deterministic rigid-body descent;
//! * [`sampling`] — starting-position and orientation grids;
//! * [`docking`] — the `Etot(isep, irot, p1, p2)` driver;
//! * [`checkpoint`] — between-position checkpointing (§4.3);
//! * [`cost`] — the reference-processor cost model (§4.1).
//!
//! # Quick start
//!
//! ```
//! use maxdo::library::{LibraryConfig, ProteinLibrary};
//! use maxdo::docking::DockingEngine;
//! use maxdo::energy::EnergyParams;
//! use maxdo::minimize::MinimizeParams;
//! use maxdo::model::ProteinId;
//!
//! let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 42);
//! let engine = DockingEngine::for_couple(
//!     &lib, ProteinId(0), ProteinId(1),
//!     EnergyParams::default(),
//!     MinimizeParams { max_iterations: 10, ..Default::default() },
//! );
//! let (row, _evals) = engine.dock_cell(1, 1);
//! assert!(row.etot().is_finite());
//! ```

pub mod checkpoint;
pub mod cost;
pub mod docking;
pub mod energy;
pub mod filter;
pub mod fire;
pub mod geom;
pub mod interface;
pub mod library;
pub mod minimize;
pub mod model;
pub mod pdb;
pub mod sampling;

pub use checkpoint::DockingCheckpoint;
pub use cost::CostModel;
pub use docking::{DockingEngine, DockingOutput, DockingRow};
pub use energy::{CellList, EnergyBreakdown, EnergyParams};
pub use filter::{filter_search, FilteredSearch};
pub use fire::{minimize_fire, FireParams};
pub use geom::{EulerZyz, Mat3, Pose, Vec3};
pub use interface::{contact_propensity, rank_partners, ContactPropensity, PartnerScore};
pub use library::{LibraryConfig, ProteinLibrary};
pub use minimize::{MinimizeParams, MinimizeResult};
pub use model::{Bead, BeadKind, Protein, ProteinId};
pub use sampling::{OrientationGrid, NGAMMA, NROT_COUPLES, TOTAL_ORIENTATIONS};
