//! # taskdrop — autonomous proactive task dropping for robust HC systems
//!
//! Umbrella crate re-exporting the whole `taskdrop` workspace: a
//! production-quality Rust reproduction of
//! *"Autonomous Task Dropping Mechanism to Achieve Robustness in
//! Heterogeneous Computing Systems"* (Mokhtari, Denninnart, Amini Salehi,
//! 2020).
//!
//! See the individual crates for details:
//!
//! * [`pmf`] — discrete PMFs, convolution, the deadline-aware convolution of
//!   the paper's Equation (1).
//! * [`stats`] — seeded samplers (Gamma, Exponential, Normal), Poisson
//!   arrivals, histograms, summary statistics.
//! * [`model`] — tasks, machines, PET matrix, machine-queue completion-time
//!   chains, instantaneous robustness.
//! * [`sched`] — mapping heuristics: MinMin, MSD, PAM, FCFS, EDF, SJF.
//! * [`core`] — the paper's contribution: proactive dropping heuristic,
//!   optimal subset dropping, threshold baseline.
//! * [`workload`] — SPECint-like and video-transcoding scenario generators.
//! * [`sim`] — discrete-event simulator: the resumable
//!   [`SimCore`](taskdrop_sim::SimCore) stepping API with online task
//!   injection and streaming observers, metrics, cost model and a parallel
//!   multi-trial runner.
//! * [`serve`] — the online serving layer: admission-controlled injection
//!   with pluggable backpressure, multi-shard driving on a shared virtual
//!   clock, and serializable shard checkpoints with mid-flight
//!   kill/restore.
//! * [`obs`] — deterministic virtual-clock telemetry: the
//!   [`Telemetry`](taskdrop_obs::Telemetry) pipeline (metrics registry,
//!   task lifecycle spans, bounded flight recorder, JSONL / Prometheus
//!   exporters) attachable to any layer's observer stream.
//! * [`dag`] — dependency-aware execution on top of the open-world core:
//!   validated [`TaskGraph`](taskdrop_dag::TaskGraph)s, the
//!   [`DagCoordinator`](taskdrop_dag::DagCoordinator) releasing nodes as
//!   predecessors deliver, cascade forfeiture with conserved accounting,
//!   subtree chance pruning and serverless function-chain merging.
//! * [`experiment`] — the fluent
//!   [`ExperimentBuilder`](experiment::ExperimentBuilder) facade: one
//!   chainable, serialisable entry point for scenario + workload + policies
//!   + trial plan.
//! * [`service`] — the serving counterpart: a serialisable
//!   [`ServicePlan`](service::ServicePlan) naming a whole shard fleet, run
//!   to an idle [`ServiceReport`](service::ServiceReport) in one call.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod experiment;
pub mod service;

pub use taskdrop_core as core;
pub use taskdrop_dag as dag;
pub use taskdrop_model as model;
pub use taskdrop_obs as obs;
pub use taskdrop_pmf as pmf;
pub use taskdrop_sched as sched;
pub use taskdrop_serve as serve;
pub use taskdrop_sim as sim;
pub use taskdrop_stats as stats;
pub use taskdrop_workload as workload;

/// Helpers shared by the runnable examples (`examples/*.rs`).
///
/// Not part of the library's supported API (it reads process arguments and
/// panics on unknown flags) — it lives here only because Cargo examples
/// cannot easily share a module.
#[doc(hidden)]
pub mod demo {
    /// The workload scale factor the examples' `--quick` flag maps to.
    ///
    /// Small enough that every example finishes in seconds (the smoke test
    /// in `tests/examples_smoke.rs` runs them all), large enough that the
    /// printed numbers are still qualitatively meaningful.
    pub const QUICK_SCALE: f64 = 0.05;

    /// Parses the examples' command line: `--quick` returns [`QUICK_SCALE`],
    /// no arguments returns 1.0 (each example's documented demo scale).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on any other argument.
    #[must_use]
    pub fn scale_from_args() -> f64 {
        let mut scale = 1.0;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => scale = QUICK_SCALE,
                other => panic!("unknown argument {other}; expected --quick"),
            }
        }
        scale
    }

    /// A [`SimConfig`](taskdrop_sim::SimConfig) whose metric exclusion
    /// boundary shrinks with the workload scale: the paper's default
    /// (exclude the first and last 100 tasks) would exclude an entire
    /// `--quick`-scale workload and report 0 % robustness everywhere.
    #[must_use]
    pub fn scaled_config(scale: f64) -> taskdrop_sim::SimConfig {
        let base = taskdrop_sim::SimConfig::default();
        taskdrop_sim::SimConfig {
            exclude_boundary: (base.exclude_boundary as f64 * scale).round() as usize,
            ..base
        }
    }

    /// Caps a trial count when running below full scale: quick smoke runs
    /// keep at most 2 trials (so multi-trial aggregation is still
    /// exercised) and at least 1. At full scale the count is unchanged.
    #[must_use]
    pub fn quick_trials(trials: usize, scale: f64) -> usize {
        if scale < 1.0 {
            trials.clamp(1, 2)
        } else {
            trials
        }
    }
}

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use crate::experiment::{ExperimentBuilder, ExperimentSpec, ScenarioSpec};
    pub use crate::service::{FleetPlan, ServicePlan, ServiceReport, ShardPlan, ShardReport};
    pub use taskdrop_core::{
        ApproxDropper, DropDecision, DropPolicy, OptimalDropper, ProactiveDropper, ReactiveOnly,
        ThresholdDropper,
    };
    pub use taskdrop_dag::{
        DagCheckpoint, DagCoordinator, DagError, DagStats, DagTap, NodeRef, NodeState, PrunePolicy,
        TaskGraph,
    };
    pub use taskdrop_model::ctx::{CacheStats, PolicyCtx};
    pub use taskdrop_model::view::{
        Assignment, DropContext, MappingInput, QueueView, UnmappedView,
    };
    pub use taskdrop_model::ApproxSpec;
    pub use taskdrop_model::{MachineId, MachineTypeId, PetMatrix, Task, TaskId, TaskTypeId};
    pub use taskdrop_obs::{
        FlightRecorder, FlightSnapshot, MetricsRegistry, SpanTracker, TaskSpan, Telemetry,
    };
    pub use taskdrop_pmf::{chance_of_success, deadline_convolve, Compaction, Pmf, Tick};
    pub use taskdrop_sched::{Edf, Fcfs, HeuristicKind, MappingHeuristic, MinMin, Msd, Pam, Sjf};
    pub use taskdrop_serve::{
        AdmissionController, AdmissionStats, BackpressurePolicy, FleetDriver, FleetShard,
        ServeError, ShardCheckpoint, StealPolicy,
    };
    pub use taskdrop_sim::{
        AdmissionDropKind, Checkpoint, DropKind, DropperKind, EventLog, ForfeitKind,
        MetricsObserver, RunSpec, SimConfig, SimCore, SimError, SimEvent, SimObserver, SimReport,
        SimState, Simulation, StepOutcome, TaskFate, TrialResult, TrialRunner,
    };
    pub use taskdrop_workload::{
        BlueprintNode, BurstySource, DiurnalSource, GraphBlueprint, OfferedTask,
        OversubscriptionLevel, Scenario, TraceSource, TrafficSource, Workload, SPECINT_WINDOW,
        TRANSCODE_WINDOW,
    };
}
