//! Discrete-event simulator for an oversubscribed heterogeneous computing
//! system with pluggable mapping heuristics and dropping policies.
//!
//! This is the test-bed of the reproduced paper (Figure 1): arriving tasks
//! enter a **batch queue**; at every *mapping event* (a task arrival or
//! completion) the engine
//!
//! 1. reactively drops expired tasks (machine queues and batch queue),
//! 2. invokes the configured [`DropPolicy`](taskdrop_core::DropPolicy) on
//!    every machine queue (the paper's Task Dropper),
//! 3. invokes the configured
//!    [`MappingHeuristic`](taskdrop_sched::MappingHeuristic) to fill free
//!    machine-queue slots from the batch queue (the Mapper), and
//! 4. starts tasks on idle machines, drawing *actual* execution times from
//!    the scenario's truth model — not from the learned PET — so the
//!    scheduler faces genuine execution-time uncertainty.
//!
//! Machine queues are bounded (default 6 slots including the running task),
//! FCFS, non-preemptive, and mapped tasks are never remapped, matching the
//! paper's system model. Metrics follow Section V-A: robustness is the
//! percentage of *counted* tasks (first and last 100 excluded) completing
//! strictly before their deadlines; the cost model accrues busy-time dollars
//! per machine (Figure 9).
//!
//! # The layering
//!
//! * [`SimCore`] is the crate's only engine entry point: an
//!   explicit-lifecycle state machine with [`step`](SimCore::step) /
//!   [`run_until`](SimCore::run_until) /
//!   [`run_to_completion`](SimCore::run_to_completion) (batch driving to a
//!   [`TrialResult`]) /
//!   [`inject`](SimCore::inject) (online, open-world task arrival) /
//!   [`state`](SimCore::state) (read-only mid-trial inspection) /
//!   [`snapshot`](SimCore::snapshot) + [`restore`](SimCore::restore)
//!   (serializable [`Checkpoint`]s from which resuming is byte-identical to
//!   an uninterrupted run), plus streaming [`SimObserver`]s that receive a
//!   [`SimEvent`] for every map/start/complete/drop/degrade/kill/failure/
//!   repair decision.
//! * [`TrialRunner`] repeats trials with independent workload seeds in
//!   parallel (crossbeam scoped threads) and aggregates mean ± 95 % CI — the
//!   paper's 30-trial methodology. Everything is deterministic under the
//!   master seed, regardless of thread count.
//!
//! Misuse (zero queue sizes, empty reports, injecting into the past, a
//! checkpoint that cannot drain, …) surfaces as a typed [`SimError`].

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod checkpoint;
mod config;
mod core;
mod error;
mod event;
mod metrics;
mod observer;
mod report;
mod runner;

pub use checkpoint::{
    Checkpoint, EventEntry, MachineCheckpoint, QueuedCheckpoint, RunningCheckpoint,
    CHECKPOINT_VERSION,
};
pub use config::{DropperKind, FailureSpec, SimConfig};
pub use core::{MachineState, RunningState, SimCore, SimState, StepOutcome};
pub use error::SimError;
pub use event::Event;
pub use metrics::{MetricsObserver, TaskFate, TrialResult};
pub use observer::{
    AdmissionDropKind, DropKind, EventRelay, ForfeitKind, MigrationKind, ObserverHub, SimEvent,
    SimObserver,
};
pub use report::SimReport;
pub use runner::{RunSpec, TrialRunner};
// Re-exported so drivers reading `StepOutcome` work counters (or building
// their own `PolicyCtx`) need not depend on `taskdrop_model` directly.
pub use taskdrop_model::ctx::{CacheStats, PolicyCtx};
