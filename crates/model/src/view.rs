//! Read-only views the simulator hands to pluggable policies.
//!
//! Mapping heuristics (`taskdrop-sched`) and dropping policies
//! (`taskdrop-core`) never see the simulator's internal state; at every
//! mapping event the engine assembles these snapshot views. A dropping
//! policy gets one [`QueueView`] per machine queue: the inputs of that
//! queue's Eq-1 chain and nothing else. This keeps the policy crates
//! independent of the engine and makes policies trivially testable with
//! hand-built chains.

use crate::queue::ChainTask;
use crate::{MachineId, MachineTypeId, PetMatrix, Task};
use taskdrop_pmf::{Compaction, Pmf, Tick};

/// One machine queue at a mapping event, as the inputs of its Eq-1 chain.
#[derive(Debug, Clone)]
pub struct QueueView<'a> {
    /// Completion PMF of whatever runs ahead of the first pending task: the
    /// running task's completion PMF conditioned on "not finished by now",
    /// or a point mass at *now* when nothing runs.
    pub base: Pmf,
    /// The pending tasks in queue order (position 0 runs next): each
    /// deadline with its execution PMF on this machine. A task already
    /// degraded to its approximate variant carries that variant's PMF.
    pub tasks: Vec<ChainTask<'a>>,
    /// Per pending position, the approximate-variant execution PMF while
    /// the task can still be degraded (`None` once it is); empty when
    /// approximate computing is off (see [`crate::approx`]).
    pub degradable: Vec<Option<&'a Pmf>>,
}

/// Context shared by all queues at one dropping invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropContext {
    /// Compaction policy for chain computations.
    pub compaction: Compaction,
    /// Oversubscription pressure signal: ratio of unmapped batch-queue tasks
    /// to total machine-queue capacity (>= 0). Used by the adaptive
    /// threshold baseline; the paper's autonomous mechanism ignores it.
    pub pressure: f64,
    /// Approximate-computing parameters, when that extension is enabled.
    pub approx: Option<crate::ApproxSpec>,
}

impl DropContext {
    /// Context without pressure or approximate computing (the common case in
    /// tests and single-queue analyses).
    #[must_use]
    pub fn plain(compaction: Compaction) -> Self {
        DropContext { compaction, pressure: 0.0, approx: None }
    }
}

/// Snapshot of one machine for the mapping phase.
#[derive(Debug, Clone)]
pub struct MachineView {
    /// The machine.
    pub machine: MachineId,
    /// Its machine type.
    pub machine_type: MachineTypeId,
    /// Free queue slots the mapper may fill.
    pub free_slots: usize,
    /// Completion PMF of the queue tail (when the machine would start a
    /// newly appended task): running/pending chain end, or point at *now*.
    pub tail: Pmf,
}

/// Input to a mapping heuristic: machines with free slots and the batch
/// queue, plus the PET matrix.
#[derive(Debug)]
pub struct MappingInput<'a> {
    /// Current simulation time.
    pub now: Tick,
    /// The PET matrix.
    pub pet: &'a PetMatrix,
    /// Machine snapshots (all machines; some may have zero free slots).
    pub machines: Vec<MachineView>,
    /// The engine's batch queue: unmapped tasks in arrival order.
    pub unmapped: &'a [Task],
    /// Compaction policy for any PMF chaining the heuristic performs.
    pub compaction: Compaction,
}

/// One task-to-machine assignment produced by a mapping heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index into [`MappingInput::unmapped`].
    pub task_idx: usize,
    /// Destination machine.
    pub machine: MachineId,
}
