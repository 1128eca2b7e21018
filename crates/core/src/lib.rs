//! Energy-efficient runtime resource management with adaptive mapping
//! segments — the core contribution of Khasanov & Castrillon, DATE 2020.
//!
//! The crate provides:
//!
//! * [`Scheduler`] — the algorithm abstraction shared with the baselines in
//!   `amrm-baselines`; every activation receives a [`SchedulingContext`]
//!   (clock, read-only telemetry snapshot, deterministic [`SearchBudget`]);
//! * [`SchedulerRegistry`] — a named, ordered set of scheduler factories;
//!   the extension point through which suites, sweeps and the repro binary
//!   enumerate algorithms without hard-coded indices;
//! * [`MmkpMdf`] — the paper's fast MMKP heuristic with
//!   Maximum-Difference-First job selection (Algorithm 1); it carries the
//!   job order as a [`JobOrderPolicy`], so the ablation's naive orders run
//!   the same loop;
//! * [`schedule_jobs`] — the EDF segment packer (Algorithm 2), exposed for
//!   reuse and testing;
//! * [`ExecutionEngine`] — indexed progress/energy accounting over an
//!   adaptive schedule, shared by the manager and the simulators;
//! * [`RuntimeManager`] — an online RM that admits requests (one at a
//!   time or in atomic batches), executes adaptive schedules, meters
//!   energy and re-activates the scheduler;
//! * [`AdmissionPolicy`] — the batched-admission *trait* consulted by the
//!   `amrm-sim` event kernel: fixed disciplines ([`Immediate`],
//!   [`BatchK`], [`WindowTau`]) plus telemetry-driven adaptive ones
//!   ([`AdaptiveBatch`], [`SlackAware`]);
//! * [`RoutingPolicy`] — the federation routing *trait* consulted by the
//!   `amrm-sim` dispatcher when N managers run side by side behind one
//!   arrival stream: [`RoundRobin`], [`JoinShortestQueue`],
//!   [`EnergyAware`], [`HashAffinity`].
//!
//! # Examples
//!
//! ```
//! use amrm_core::{MmkpMdf, RuntimeManager};
//! use amrm_workload::scenarios;
//!
//! // Scenario S2: a fixed mapper must reject σ2, the adaptive RM accepts.
//! let mut rm = RuntimeManager::new(scenarios::platform(), MmkpMdf::new());
//! assert!(rm.submit(scenarios::lambda1(), 9.0).is_accepted());
//! rm.advance_to(1.0);
//! assert!(rm.submit(scenarios::lambda2(), 4.0).is_accepted());
//! rm.run_to_completion();
//! assert_eq!(rm.stats().deadline_misses, 0);
//! ```

mod admission;
mod context;
mod engine;
pub mod fanout;
mod manager;
mod mdf;
pub mod routing;
mod schedule_jobs;
mod scheduler;

pub use crate::admission::{
    AdaptiveBatch, AdmissionDirective, AdmissionPolicy, BatchK, Immediate, SlackAware,
    TelemetrySnapshot, WindowTau,
};
pub use crate::context::{SchedulingContext, SearchBudget, TraceSink};
pub use crate::engine::{EngineJob, ExecutionEngine};
pub use crate::manager::{Admission, DecisionReason, ReactivationPolicy, RmStats, RuntimeManager};
pub use crate::mdf::{JobOrderPolicy, MmkpMdf};
pub use crate::routing::{
    EnergyAware, HashAffinity, JoinShortestQueue, RoundRobin, RouteRequest, RoutingPolicy,
    ShardView,
};
pub use crate::schedule_jobs::schedule_jobs;
pub use crate::scheduler::{Scheduler, SchedulerFactory, SchedulerRegistry};

#[doc(hidden)]
pub use crate::engine::LinearScanEngine;
