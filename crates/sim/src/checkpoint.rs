//! Serializable mid-trial checkpoints: [`SimCore::snapshot`] /
//! [`SimCore::restore`].
//!
//! A [`Checkpoint`] captures the *complete* mutable state of one trial —
//! admitted tasks, machine queues, in-flight executions (with their realised
//! finish ticks), the outstanding event heap including its FIFO tie-break
//! counter, per-task fates, and the accounting counters. Everything else a
//! core needs is deterministic context that is **not** serialized and must
//! be re-supplied on restore: the [`Scenario`](taskdrop_workload::Scenario)
//! (named by `scenario_name`/`scenario_seed` and validated), the mapping
//! heuristic, and the dropping policy (both stateless by the
//! [`DropPolicy`](taskdrop_core::DropPolicy) /
//! [`MappingHeuristic`](taskdrop_sched::MappingHeuristic) contracts).
//!
//! There is deliberately **no RNG state** here. Every stochastic draw in the
//! engine is keyed, not streamed: actual execution times come from
//! `derive_seed(exec_seed, task × machine)` and failure timelines from
//! `derive_seed(exec_seed, machine)`, each with a fresh RNG per draw. The
//! `exec_seed` field therefore *is* the whole RNG stream position, and a
//! restored core replays the exact same luck an uninterrupted run would see
//! (asserted by `tests/checkpoint_determinism.rs`: resuming from any
//! checkpoint is byte-identical to never having stopped).
//!
//! The format is versioned ([`CHECKPOINT_VERSION`]); [`SimCore::restore`]
//! rejects a version it does not understand and validates the structural
//! invariants the engine relies on (dense task ids, queue occupancy bounds,
//! sequence-counter consistency) so a hand-edited or stale checkpoint fails
//! loudly instead of corrupting a trial.
//!
//! [`SimCore::snapshot`]: crate::SimCore::snapshot
//! [`SimCore::restore`]: crate::SimCore::restore

use crate::config::SimConfig;
use crate::event::Event;
use crate::metrics::TaskFate;
use serde::{Deserialize, Serialize};
use taskdrop_model::Task;
use taskdrop_pmf::Tick;

/// Current checkpoint format version; bump on incompatible layout changes.
///
/// v2: [`SimEvent`](crate::SimEvent) gained the `TaskMigrated` variant
/// (cross-shard work stealing) and the serving layer's `AdmissionStats`
/// gained `stolen_in`/`stolen_out` counters — both reachable from shard
/// checkpoints, so flight-recorder snapshots from v1 no longer match.
pub const CHECKPOINT_VERSION: u32 = 2;

/// One outstanding engine event with its schedule time and FIFO sequence
/// number (ties at equal times pop in sequence order). The engine's event
/// heap stores these entries; the derived order, field by field, is its
/// pop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventEntry {
    /// Tick the event fires at.
    pub time: Tick,
    /// Monotone sequence number assigned when the event was pushed.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

/// An execution in flight: the engine's own entry for a machine's running
/// task, stored in a checkpoint as it is.
///
/// Unlike the policy-facing [`RunningState`](crate::RunningState), this
/// carries the engine's realised `finish` tick — a checkpoint stores truth,
/// not estimates, because the matching `Completion` event in
/// [`Checkpoint::events`] refers to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunningCheckpoint {
    /// The executing task.
    pub task: Task,
    /// Tick at which it started.
    pub start: Tick,
    /// Realised completion tick (truth-model draw).
    pub finish: Tick,
    /// Whether it runs the approximate (degraded) variant.
    pub degraded: bool,
}

/// A task waiting in a machine queue: the engine's own queue entry,
/// stored in a checkpoint as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedCheckpoint {
    /// The waiting task.
    pub task: Task,
    /// Whether the dropping policy degraded it to its approximate variant.
    pub degraded: bool,
}

/// Complete mutable state of one machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MachineCheckpoint {
    /// Whether the machine is down (failure injection).
    pub down: bool,
    /// Busy ticks accrued so far.
    pub busy_ticks: u64,
    /// Execution epoch counter (stales outstanding completion/kill events).
    pub epoch: u64,
    /// The current execution, if any.
    pub running: Option<RunningCheckpoint>,
    /// Queued tasks in FCFS order.
    pub pending: Vec<QueuedCheckpoint>,
}

/// Serializable snapshot of a whole [`SimCore`](crate::SimCore) mid-trial.
///
/// Produced by [`SimCore::snapshot`](crate::SimCore::snapshot), consumed by
/// [`SimCore::restore`](crate::SimCore::restore). Round-trips through
/// `serde_json` losslessly (all times are integer ticks; config floats use
/// exact shortest-roundtrip formatting).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Name of the scenario the core was built on (restore validates it).
    pub scenario_name: String,
    /// Seed of that scenario (restore validates it).
    pub scenario_seed: u64,
    /// Engine configuration.
    pub config: SimConfig,
    /// Master seed of every execution-time and failure-timeline draw — the
    /// complete "RNG stream position" (draws are keyed per task × machine,
    /// never streamed).
    pub exec_seed: u64,
    /// Simulation time at the snapshot.
    pub now: Tick,
    /// Mapping events processed so far.
    pub mapping_events: u64,
    /// Every admitted task (initial workload + injections), dense by id.
    pub tasks: Vec<Task>,
    /// Fate of each task, indexed like [`Checkpoint::tasks`]; `None` while
    /// in flight.
    pub fates: Vec<Option<TaskFate>>,
    /// Unmapped tasks waiting in the batch queue.
    pub batch: Vec<Task>,
    /// Per-machine state, in scenario machine order.
    pub machines: Vec<MachineCheckpoint>,
    /// Outstanding events in canonical pop order.
    pub events: Vec<EventEntry>,
    /// Live event sequence counter (post-restore pushes continue from it).
    pub event_seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskdrop_model::{MachineId, TaskId, TaskTypeId};

    fn tiny() -> Checkpoint {
        let task = Task::new(TaskId(0), TaskTypeId(1), 3, 90);
        Checkpoint {
            version: CHECKPOINT_VERSION,
            scenario_name: "specint".into(),
            scenario_seed: 7,
            config: SimConfig::default(),
            exec_seed: 11,
            now: 40,
            mapping_events: 3,
            tasks: vec![task],
            fates: vec![None],
            batch: vec![],
            machines: vec![MachineCheckpoint {
                down: false,
                busy_ticks: 12,
                epoch: 2,
                running: Some(RunningCheckpoint { task, start: 30, finish: 55, degraded: false }),
                pending: vec![],
            }],
            events: vec![EventEntry {
                time: 55,
                seq: 4,
                event: Event::Completion(MachineId(0), 2),
            }],
            event_seq: 4,
        }
    }

    #[test]
    fn serde_roundtrip_is_lossless() {
        let cp = tiny();
        let json = serde_json::to_string(&cp).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(cp, back);
        // Canonical: re-serializing the restored value is byte-identical.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }
}
