//! Domain model for an oversubscribed heterogeneous computing (HC) system.
//!
//! This crate holds the shared vocabulary of the `taskdrop` workspace:
//!
//! * identifiers and records for tasks, task types, machines and machine
//!   types ([`Task`], [`TaskType`], [`Machine`], [`MachineType`]);
//! * the **PET matrix** ([`PetMatrix`]) — Probabilistic Execution Time — one
//!   execution-time PMF per (task type, machine type) pair, exactly as in
//!   Salehi et al. and the reproduced paper;
//! * the machine-queue **completion-time chain** ([`queue`]) that applies the
//!   paper's Equation (1) along a queue, computes each task's chance of
//!   success (Eq 2), the queue's instantaneous robustness (Eq 3), and the
//!   same quantities under provisional drops (Eqs 4–7); its free functions
//!   are the references for the hot-path `ChainEvaluator`, which lives in
//!   `taskdrop_pmf` and is re-exported from [`queue`];
//! * the read-only **views** ([`view`]) the simulator hands to mapping
//!   heuristics and dropping policies, keeping `taskdrop-sched` and
//!   `taskdrop-core` decoupled from the simulator;
//! * the persistent **evaluation context** ([`ctx`]) — the scratch
//!   evaluators and keyed PET×tail convolution cache ([`PolicyCtx`])
//!   threaded through every policy and mapper call.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod approx;
pub mod ctx;
mod ids;
mod machine;
mod pet;
pub mod queue;
mod task;
pub mod view;

pub use approx::ApproxSpec;
pub use ctx::{CacheStats, PolicyCtx, TailCache};
pub use ids::{MachineId, MachineTypeId, TaskId, TaskTypeId};
pub use machine::{Machine, MachineType};
pub use pet::PetMatrix;
pub use task::{Task, TaskType};
