//! Read-only views the simulator hands to pluggable policies.
//!
//! Mapping heuristics (`taskdrop-sched`) and dropping policies
//! (`taskdrop-core`) never see the simulator's internal state; at every
//! mapping event the engine assembles these snapshot views. A dropping
//! policy gets one [`QueueView`] per machine queue: the inputs of that
//! queue's Eq-1 chain and nothing else. This keeps the policy crates
//! independent of the engine and makes policies trivially testable with
//! hand-built chains.

use crate::queue::{ChainEvaluator, ChainLink, ChainTask};
use crate::{MachineId, MachineTypeId, PetMatrix, Task};
use std::cell::OnceCell;
use taskdrop_pmf::{Compaction, Pmf, Tick};

/// One machine queue at a mapping event, as the inputs of its Eq-1 chain.
///
/// The inputs are read-only, because the view also keeps the chain built
/// from them: [`QueueView::keep_all`] evaluates the whole queue at most
/// once, on first read, and every later read (by the policy, or by the
/// engine reusing its last link as the queue's tail) shares it.
#[derive(Debug, Clone)]
pub struct QueueView<'a> {
    base: Pmf,
    tasks: Vec<ChainTask<'a>>,
    degradable: Vec<Option<&'a Pmf>>,
    compaction: Compaction,
    /// The keep-all chain, once read.
    keep_all: OnceCell<Vec<ChainLink>>,
}

impl<'a> QueueView<'a> {
    /// A view of the chain from `base` through `tasks` under `compaction`,
    /// with `degradable` as [`QueueView::degradable`] describes it. The
    /// engine passes the compaction of the [`DropContext`] the view is
    /// handed to a policy with.
    #[must_use]
    pub fn new(
        base: Pmf,
        tasks: Vec<ChainTask<'a>>,
        degradable: Vec<Option<&'a Pmf>>,
        compaction: Compaction,
    ) -> Self {
        QueueView { base, tasks, degradable, compaction, keep_all: OnceCell::new() }
    }

    /// Completion PMF of whatever runs ahead of the first pending task: the
    /// running task's completion PMF conditioned on "not finished by now",
    /// or a point mass at *now* when nothing runs.
    #[must_use]
    pub fn base(&self) -> &Pmf {
        &self.base
    }

    /// The pending tasks in queue order (position 0 runs next): each
    /// deadline with its execution PMF on this machine. A task already
    /// degraded to its approximate variant carries that variant's PMF.
    #[must_use]
    pub fn tasks(&self) -> &[ChainTask<'a>] {
        &self.tasks
    }

    /// Per pending position, the approximate-variant execution PMF while
    /// the task can still be degraded (`None` once it is); empty when
    /// approximate computing is off (see [`crate::approx`]).
    #[must_use]
    pub fn degradable(&self) -> &[Option<&'a Pmf>] {
        &self.degradable
    }

    /// The compaction [`QueueView::keep_all`] chains under.
    #[must_use]
    pub fn compaction(&self) -> Compaction {
        self.compaction
    }

    /// The Eq-1 chain of the whole queue with nothing dropped: one
    /// [`ChainLink`] per pending task, bit-equal to
    /// `eval.chain(self.base(), self.tasks(), self.compaction())`. The
    /// first call evaluates it with `eval`; later calls return it and
    /// evaluate nothing.
    pub fn keep_all(&self, eval: &mut ChainEvaluator) -> &[ChainLink] {
        self.keep_all.get_or_init(|| eval.chain(&self.base, &self.tasks, self.compaction))
    }

    /// Takes the view apart: its base, and the keep-all chain if a reader
    /// built it.
    #[must_use]
    pub fn into_parts(self) -> (Pmf, Option<Vec<ChainLink>>) {
        (self.base, self.keep_all.into_inner())
    }
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
