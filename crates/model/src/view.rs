//! Read-only views the simulator hands to pluggable policies.
//!
//! Mapping heuristics (`taskdrop-sched`) and dropping policies
//! (`taskdrop-core`) never see the simulator's internal state; at every
//! mapping event the engine assembles these snapshot views. This keeps the
//! policy crates independent of the engine and makes policies trivially
//! testable with hand-built snapshots.

use crate::queue::ChainTask;
use crate::{MachineId, MachineTypeId, PetMatrix, Task, TaskId, TaskTypeId};
use taskdrop_pmf::{Compaction, Pmf, Tick};

/// A pending (queued, not yet running) task in a machine queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingView {
    /// Task identifier.
    pub id: TaskId,
    /// Task type (selects the PET matrix row).
    pub type_id: TaskTypeId,
    /// Hard deadline.
    pub deadline: Tick,
    /// Whether the task has been degraded to its approximate variant (see
    /// [`crate::approx`]); degraded tasks chain with the degraded PET.
    pub degraded: bool,
}

impl PendingView {
    /// A full-fidelity (non-degraded) pending task.
    #[must_use]
    pub fn full(id: TaskId, type_id: TaskTypeId, deadline: Tick) -> Self {
        PendingView { id, type_id, deadline, degraded: false }
    }
}

/// The task currently executing on a machine, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningView {
    /// Task identifier.
    pub id: TaskId,
    /// Task type.
    pub type_id: TaskTypeId,
    /// Hard deadline.
    pub deadline: Tick,
    /// Completion-time PMF, already conditioned on "not finished by now".
    pub completion: Pmf,
}

impl RunningView {
    /// Chance of success of the running task (Eq 2 applied to its
    /// conditioned completion PMF).
    #[must_use]
    pub fn chance(&self) -> f64 {
        self.completion.mass_before(self.deadline)
    }
}

/// Snapshot of one machine queue at a mapping event.
#[derive(Debug, Clone)]
pub struct QueueView<'a> {
    /// The machine this queue belongs to.
    pub machine: MachineId,
    /// Its machine type (selects the PET matrix column).
    pub machine_type: MachineTypeId,
    /// Current simulation time.
    pub now: Tick,
    /// The running task, or `None` if the machine is idle.
    pub running: Option<RunningView>,
    /// Pending tasks in queue order (position 0 runs next).
    pub pending: Vec<PendingView>,
    /// The PET matrix (shared, immutable).
    pub pet: &'a PetMatrix,
    /// Degraded-variant PET (execution times scaled by the approximate
    /// computing factor); `None` when approximate computing is disabled.
    /// Tasks flagged `degraded` chain with this matrix.
    pub approx_pet: Option<&'a PetMatrix>,
}

impl<'a> QueueView<'a> {
    /// Completion PMF of whatever precedes the first pending task: the
    /// running task's conditioned completion, or a point mass at *now* for
    /// an idle machine.
    #[must_use]
    pub fn base(&self) -> Pmf {
        match &self.running {
            Some(r) => r.completion.clone(),
            None => Pmf::point(self.now),
        }
    }

    /// The pending tasks as chain inputs (deadline + PET execution PMF).
    /// Degraded tasks pull from the degraded PET when one is present (and
    /// fall back to the full PET otherwise).
    #[must_use]
    pub fn chain_tasks(&self) -> Vec<ChainTask<'a>> {
        self.pending
            .iter()
            .map(|p| {
                let pet = if p.degraded { self.approx_pet.unwrap_or(self.pet) } else { self.pet };
                ChainTask { deadline: p.deadline, exec: pet.pmf(p.type_id, self.machine_type) }
            })
            .collect()
    }

    /// Total number of occupied slots (running + pending).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        usize::from(self.running.is_some()) + self.pending.len()
    }
}

/// Context shared by all queues at one dropping invocation.
#[derive(Debug, Clone, Copy)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use taskdrop_pmf::Pmf;

    fn tiny_pet() -> PetMatrix {
        PetMatrix::new(1, 1, vec![Pmf::point(10)])
    }

    #[test]
    fn idle_base_is_point_at_now() {
        let pet = tiny_pet();
        let q = QueueView {
            machine: MachineId(0),
            machine_type: MachineTypeId(0),
            now: 42,
            running: None,
            pending: vec![],
            pet: &pet,
            approx_pet: None,
        };
        assert_eq!(q.base(), Pmf::point(42));
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn running_base_is_conditioned_completion() {
        let pet = tiny_pet();
        let completion = Pmf::from_impulses(vec![(50, 0.5), (60, 0.5)]).unwrap();
        let q = QueueView {
            machine: MachineId(0),
            machine_type: MachineTypeId(0),
            now: 45,
            running: Some(RunningView {
                id: TaskId(1),
                type_id: TaskTypeId(0),
                deadline: 55,
                completion: completion.clone(),
            }),
            pending: vec![PendingView::full(TaskId(2), TaskTypeId(0), 80)],
            pet: &pet,
            approx_pet: None,
        };
        assert_eq!(q.base(), completion);
        assert_eq!(q.occupancy(), 2);
        assert!((q.running.as_ref().unwrap().chance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chain_tasks_pull_pet_cells() {
        let pet = tiny_pet();
        let q = QueueView {
            machine: MachineId(0),
            machine_type: MachineTypeId(0),
            now: 0,
            running: None,
            pending: vec![PendingView::full(TaskId(7), TaskTypeId(0), 99)],
            pet: &pet,
            approx_pet: None,
        };
        let tasks = q.chain_tasks();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].deadline, 99);
        assert_eq!(tasks[0].exec.support_min(), Some(10));
    }
}
