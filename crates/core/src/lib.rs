//! # ndp-core — energy/real-time/reliability-aware task deployment
//!
//! The primary contribution of the reproduced paper (*Energy Efficient,
//! Real-time and Reliable Task Deployment on NoC-based Multicores with
//! DVFS*, DATE 2022): jointly deciding
//!
//! 1. frequency assignment (`y_il`),
//! 2. task duplication (`h_i`),
//! 3. multi-path data routing (`c_{βγρ}`),
//! 4. task allocation (`x_ik`) and
//! 5. task scheduling (`u_ij`, `tˢ_i`)
//!
//! to minimize the maximum per-processor energy under real-time and
//! reliability constraints.
//!
//! The unified entry point is [`DeploymentSession`]: one-shot exact or
//! heuristic solving, plus *online re-deployment* — absorb
//! [`ScenarioEvent`]s (core fault, deadline change, aperiodic task
//! arrival) and re-solve incrementally on carried solver state instead of
//! from scratch. It is the one exact-solve entry point; callers that need
//! the MILP itself build it with [`MilpEncoding::build`].
//!
//! Every deployment, exact or heuristic, can be checked by the independent
//! constraint referee in [`validate`].
//!
//! ```
//! use ndp_core::{validate, DeploymentSession, ProblemInstance};
//! use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
//! use ndp_platform::Platform;
//! use ndp_taskset::{generate, GeneratorConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = generate(&GeneratorConfig::typical(8), 42)?;
//! let problem = ProblemInstance::from_original(
//!     &graph,
//!     Platform::homogeneous(16)?,
//!     WeightedNoc::new(Mesh2D::square(4)?, NocParams::typical(), 42)?,
//!     0.95, // R_th
//!     3.0,  // α
//! )?;
//! let deployment = DeploymentSession::new(problem.clone()).heuristic()?;
//! assert!(validate(&problem, &deployment).is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod baselines;
mod batch;
mod error;
mod formulation;
mod heuristic;
mod optimal;
mod problem;
mod report;
mod schedule;
mod session;
mod solution;
mod validate;

pub use analysis::{
    communication_computation_ratio, duplicated_count, energy_gap_index, feasibility_ratio,
    max_tasks_per_processor,
};
pub use baselines::{first_fit_fastest, random_mapping, round_robin};
pub use batch::{BatchOutcome, BatchSession, SolveCache};
pub use error::{DeployError, Error, Result};
pub use formulation::{DeployObjective, MilpEncoding, PathMode};
pub use heuristic::{phase1, phase2, phase3, Phase1, Phase2};
pub use optimal::{OptimalConfig, OptimalOutcome};
pub use problem::{scheduling_horizon, CommTimeModel, ProblemInstance};
pub use report::{energy_table, gantt};
pub use schedule::{list_schedule, priority_order, Schedule};
pub use session::{DeploymentSession, DeploymentSessionBuilder, EventDisposition, ScenarioEvent};
pub use solution::{Deployment, EnergyReport, PathChoice};
pub use validate::{is_valid, validate, Violation, VALIDATION_TOL};

pub mod prelude {
    //! One-stop import surface for the common workflow: generate a task set,
    //! build a problem instance, solve it (exactly or heuristically) and
    //! validate the result.
    //!
    //! ```
    //! use ndp_core::prelude::*;
    //! ```
    //!
    //! pulls in the problem/solution types, the [`DeploymentSession`] entry
    //! point (one-shot and online re-deployment), the solver configuration
    //! (including observability and cancellation) and the sibling-crate
    //! types needed to construct a [`ProblemInstance`].
    pub use crate::{
        validate, BatchOutcome, BatchSession, DeployObjective, Deployment, DeploymentSession,
        DeploymentSessionBuilder, EnergyReport, Error, EventDisposition, OptimalConfig,
        OptimalOutcome, PathMode, ProblemInstance, ScenarioEvent, SolveCache,
    };
    pub use ndp_milp::{
        CancelToken, Observer, ObserverHandle, Pricing, SolveStats, SolveStatus, SolverEvent,
        SolverOptions,
    };
    pub use ndp_noc::{Mesh2D, NocParams, PathKind, WeightedNoc};
    pub use ndp_platform::Platform;
    pub use ndp_platform::ProcessorId;
    pub use ndp_taskset::TaskId;
    pub use ndp_taskset::{generate, GeneratorConfig, GraphShape};
}
