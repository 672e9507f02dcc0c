//! Batch-mode mapping heuristics for heterogeneous computing systems.
//!
//! The paper's dropping mechanism is deliberately independent of the mapping
//! heuristic; its evaluation plugs the dropper into six widely-used mappers,
//! all implemented here behind the [`MappingHeuristic`] trait:
//!
//! **Heterogeneous two-phase heuristics** (Section V-B of the paper):
//!
//! * [`MinMin`] (MM) — phase 1 pairs each task with the machine offering the
//!   minimum expected completion time; phase 2 assigns, per machine with a
//!   free slot, the pair with the minimum completion time.
//! * [`Msd`] (MinCompletion–Soonest-Deadline) — phase 1 as MinMin; phase 2
//!   picks the pair with the soonest deadline (ties by minimum completion).
//! * [`Pam`] (Pruning-Aware Mapping, deferring disabled per the paper) —
//!   phase 1 pairs each task with the machine giving the highest chance of
//!   success; phase 2 assigns the pair with the lowest expected completion
//!   time (ties by shortest expected execution).
//!
//! **Homogeneous ordering heuristics** (Section V-E): [`Fcfs`], [`Edf`],
//! [`Sjf`] — order the batch queue by arrival / deadline / expected
//! execution time and assign each task to the machine with the earliest
//! expected availability. They run fine on heterogeneous systems too; the
//! paper uses them on the homogeneous scenario.
//!
//! All heuristics are deterministic: ties ultimately break on task id and
//! machine id.
//!
//! A heuristic reads the engine's batch queue as it is, a `&[Task]` in
//! arrival order ([`MappingInput::unmapped`]), and extends queue tails with
//! the one chain evaluator in the caller's [`PolicyCtx`].

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod ordered;
mod registry;
mod two_phase;

pub use ordered::{Edf, Fcfs, OrderedHeuristic, Sjf};
pub use registry::HeuristicKind;
pub use two_phase::{MaxMin, MinMin, Msd, Pam, Sufferage};

use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{Assignment, MappingInput};

/// A batch-mode mapping heuristic: given machines with free queue slots and
/// the unmapped batch queue, produce task-to-machine assignments.
///
/// Implementations must be deterministic (the whole simulator is replayable
/// from a seed) and must never assign more tasks to a machine than it has
/// free slots, nor assign the same task twice. The engine validates both.
///
/// Heuristics are stateless values (`&self`); all mutable working state —
/// chain-evaluator scratch and the persistent PET×tail convolution cache —
/// lives in the caller-owned [`PolicyCtx`] threaded through every call.
/// Assignments must not depend on what a previous call left in the context.
pub trait MappingHeuristic: Send + Sync {
    /// Stable identifier used in reports and configs (e.g. `"MM"`).
    fn name(&self) -> &'static str;

    /// Computes assignments for this mapping event, using `scratch` for
    /// all chain evaluation and convolution caching.
    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment>;

    /// One-shot convenience: [`MappingHeuristic::map`] against a fresh
    /// [`PolicyCtx`] — the reference path persistent-context results are
    /// compared against in tests. Production drivers reuse one context.
    fn map_fresh(&self, input: MappingInput<'_>) -> Vec<Assignment> {
        self.map(input, &mut PolicyCtx::new())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use taskdrop_model::view::MachineView;
    use taskdrop_model::{MachineId, MachineTypeId, PetMatrix, Task, TaskId, TaskTypeId};
    use taskdrop_pmf::{Pmf, Tick};

    /// PET with 2 task types x 2 machine types, deterministic times:
    /// type 0: 10 on m0, 40 on m1; type 1: 40 on m0, 10 on m1
    /// (inconsistent heterogeneity: each type prefers a different machine).
    pub fn inconsistent_pet() -> PetMatrix {
        PetMatrix::new(2, 2, vec![Pmf::point(10), Pmf::point(40), Pmf::point(40), Pmf::point(10)])
    }

    pub fn machine(id: u16, mtype: u16, free: usize, ready_at: Tick) -> MachineView {
        MachineView {
            machine: MachineId(id),
            machine_type: MachineTypeId(mtype),
            free_slots: free,
            tail: Pmf::point(ready_at),
        }
    }

    pub fn task(id: u64, ttype: u16, arrival: Tick, deadline: Tick) -> Task {
        Task { id: TaskId(id), type_id: TaskTypeId(ttype), arrival, deadline }
    }
}
