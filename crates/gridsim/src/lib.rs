//! Discrete-event simulation of World Community Grid (and of a dedicated
//! grid) for the HCMD campaign.
//!
//! The paper ran phase I of Help Cure Muscular Dystrophy on World Community
//! Grid, a volunteer desktop grid operated with the Univa UD Grid MP and
//! BOINC middlewares. The physical grid — 836 000 registered devices owned
//! by 344 000 volunteers — is obviously not available, so this crate is a
//! faithful simulator of its *mechanisms*, the ones §3, §5 and §6 of the
//! paper identify as responsible for the observed behaviour:
//!
//! * volunteer hosts with heterogeneous speeds, stochastic availability,
//!   the UD agent's 60 % CPU throttle, lowest-priority contention with the
//!   owner's own work, and checkpoint-replay on interruption ([`host`]);
//! * membership growth with weekday/weekend and holiday seasonality
//!   ([`membership`]);
//! * a BOINC-style task server: workunit queue in launch order, replica
//!   issuing, deadlines and reissue, redundant computing with quorum
//!   validation, and the mid-campaign switch to bounds-check validation —
//!   implemented once as the transport-free [`sched::SchedulerCore`], with
//!   one issue path and no feeder cache, and shared with the live
//!   wire-level grid (`hcmd-netgrid`);
//! * the multi-project priority phases of the HCMD campaign — control,
//!   prioritization, full power ([`project`]);
//! * per-day CPU accounting, per-week result counting, per-receptor
//!   progression — everything Figures 6–8 plot ([`trace`]);
//! * a dedicated grid (Grid'5000-style) baseline for Table 2
//!   ([`dedicated`]);
//! * the discrete-event engine itself ([`event`]) — one hierarchical
//!   timing wheel ([`wheel`]) whose `(at, seq)` pop order is tested
//!   against a sorted-list oracle and recorded trace digests — and
//!   deterministic splittable RNG streams ([`rng`]).
//!
//! The top-level entry point is [`volunteer::VolunteerGridSim`]:
//!
//! ```
//! use gridsim::{VolunteerGridConfig, VolunteerGridSim};
//! use maxdo::{CostModel, LibraryConfig, ProteinLibrary};
//! use timemodel::CostMatrix;
//! use workunit::CampaignPackage;
//!
//! // A miniature campaign: 2 proteins on the simulated volunteer grid.
//! let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 7);
//! let matrix = CostMatrix::from_cost_model(&lib, &CostModel::with_kappa(0.2));
//! let pkg = CampaignPackage::new(&lib, &matrix, 4.0 * 3600.0);
//! let trace = VolunteerGridSim::new(&pkg, VolunteerGridConfig::hcmd_phase1(1, 42)).run();
//! assert!(trace.results_received >= trace.results_useful);
//! ```

pub mod credit;
pub mod dedicated;
pub mod event;
pub mod fluid;
pub mod host;
pub mod membership;
pub mod project;
pub mod rng;
pub mod sched;
pub mod sessions;
pub mod trace;
pub mod volunteer;
pub mod wheel;

pub use credit::CreditLedger;
pub use dedicated::{DedicatedGrid, HeterogeneousGrid};
pub use event::{EventQueue, SimTime};
pub use fluid::{FluidModel, FluidTrace};
pub use host::{AccountingMode, Host, HostId, HostParams, WorkunitExecution};
pub use membership::{MembershipModel, SeasonalityModel};
pub use project::{ProjectPhases, SharePhase};
pub use sched::{
    CampaignShare, FairShare, FeederConfig, ReceptorProgress, SchedulerCore, ServerConfig,
    ServerStats, ValidationPolicy, WuStateCounts,
};
pub use trace::CampaignTrace;
pub use volunteer::{VolunteerGridConfig, VolunteerGridSim};

/// The scheduler core's old path. Only the benchmark harness under
/// `benchmarks/` still imports through it; the benchmark change that
/// next edits that harness deletes this alias.
pub use sched as server;
