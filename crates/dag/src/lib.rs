//! Dependency-aware execution over the open-world simulator core.
//!
//! The paper's system model is a stream of *independent* tasks; its
//! serverless companion work points at workloads where tasks form
//! **chains and DAGs** — a function's output feeds the next, a failed
//! link dooms everything downstream. This crate adds that layer without
//! touching engine semantics: the core still sees independent tasks
//! injected one at a time; all graph structure lives up here.
//!
//! * [`TaskGraph`] — a validated dependency graph over engine task types
//!   (deterministic dense node ids, acyclicity certified at
//!   construction), built from the neutral
//!   [`GraphBlueprint`](taskdrop_workload::GraphBlueprint)s the workload
//!   crate generates.
//! * [`DagCoordinator`] — holds not-yet-ready nodes outside the core,
//!   releases each through [`SimCore::inject`](taskdrop_sim::SimCore::inject)
//!   when its last predecessor completes, and **cascade-forfeits** all
//!   descendants the moment a node is dropped, killed, or lost
//!   ([`SimEvent::CascadeForfeited`](taskdrop_sim::SimEvent::CascadeForfeited)
//!   per node, conserved accounting in [`DagStats`]). Release-time
//!   options: [`PrunePolicy::PruneSubtree`] sheds chains whose
//!   critical-path chance (Eq 2 lifted to subtrees, [`subtree_chances`])
//!   is already below threshold; function-chain **merging** batches
//!   identical concurrent releases into one execution fanning out to all
//!   riders; chain-aware admission routes releases through
//!   [`AdmissionController::admit_now`](taskdrop_serve::AdmissionController::admit_now).
//! * [`DagTap`] — the observer handle feeding engine resolutions back to
//!   the coordinator.
//! * [`DagCheckpoint`] — coordinator + core state, serializable;
//!   kill-and-restore resumes byte-identically to an uninterrupted run.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod chance;
mod coordinator;
mod error;
mod graph;
mod stats;
mod tap;

pub use chance::{exhaustive_subtree_chance, released_subtree_chances, subtree_chances};
pub use coordinator::{DagCheckpoint, DagCoordinator, NodeRef, NodeState, PrunePolicy};
pub use error::DagError;
pub use graph::{NodeSpec, TaskGraph};
pub use stats::DagStats;
pub use tap::DagTap;
