//! Streaming observation of a running trial.
//!
//! A [`SimObserver`] attached to a [`SimCore`](crate::SimCore) receives one
//! [`SimEvent`] for every state change the engine makes — mapping, starts,
//! completions, drops, degradations, deadline kills, machine failures and
//! repairs — as it happens, instead of waiting for the end-of-trial
//! [`TrialResult`]. Observers are strictly read-only: they cannot influence
//! the trial, so an instrumented run is byte-identical to a bare one.
//!
//! The engine's own result is these events folded: the core feeds every
//! event it emits to its [`MetricsObserver`] before any observer sees it, so
//! an attached [`MetricsObserver`] reproduces the engine's [`TrialResult`]
//! exactly (plus any forfeits forwarded to the hub), which pins down the
//! stream's completeness (every task receives exactly one terminal event,
//! busy time is fully attributed).
//!
//! [`MetricsObserver`]: crate::MetricsObserver
//! [`TrialResult`]: crate::TrialResult

use crate::metrics::TaskFate;
use serde::{Deserialize, Serialize};
use taskdrop_model::{MachineId, Task, TaskId, TaskTypeId};
use taskdrop_pmf::Tick;

/// Why a task was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropKind {
    /// The engine's reactive rule: the deadline had already passed while the
    /// task waited (batch queue, machine queue, or at the head of the queue
    /// when the machine became free).
    Reactive,
    /// The configured dropping policy sacrificed the task to raise the
    /// queue's instantaneous robustness.
    Proactive,
}

/// Which backpressure rule turned an offered task away at admission (the
/// serving layer in front of [`SimCore`](crate::SimCore); see
/// [`SimEvent::AdmissionDropped`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionDropKind {
    /// The bounded ingress queue was full and the policy rejects new work.
    RejectedFull,
    /// The oldest queued entry was evicted to make room for a newer one.
    ShedOldest,
    /// The probabilistic pre-drop refused the task: its estimated chance of
    /// success (completion-PMF mass before the deadline, the paper's Eq 2)
    /// fell below the configured threshold.
    PreDropped,
    /// The task's deadline passed while it waited in the ingress queue,
    /// before it could be injected.
    Expired,
    /// The offer could not be injected at all (e.g. it named a task type
    /// the scenario lacks — a misconfigured traffic source).
    Invalid,
}

/// Why a dependency-aware layer forfeited a graph node before it ever
/// reached the core (see [`SimEvent::CascadeForfeited`]). Forfeiture is the
/// graph counterpart of a drop: the node itself was still viable, but the
/// work it depends on (or the subtree it anchors) is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForfeitKind {
    /// A predecessor was dropped, killed, or lost, so this node's inputs
    /// will never exist.
    Cascade,
    /// The node's whole subtree was shed by a graph-aware pruning policy
    /// (its estimated chance of success fell below the threshold).
    Pruned,
    /// A chain-aware admission controller turned the node away at release
    /// time; with its output missing, the subtree is forfeited with it.
    AdmissionShed,
}

/// Which side of a cross-shard migration an event describes (see
/// [`SimEvent::TaskMigrated`]). Every migration emits exactly one
/// [`Donated`](MigrationKind::Donated) event on the source shard and one
/// [`Received`](MigrationKind::Received) event on the destination shard, so
/// fleet-wide the two counts always balance — the no-duplication /
/// no-loss ledger of the work-stealing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationKind {
    /// The task left this shard's ingress queue for another shard.
    Donated,
    /// The task joined this shard's ingress queue from another shard.
    Received,
}

/// One engine state change, streamed to observers as it happens.
///
/// Every task admitted to the core receives **exactly one terminal event**:
/// [`SimEvent::Completed`], [`SimEvent::Killed`], [`SimEvent::Dropped`], or
/// [`SimEvent::MachineFailed`] with `lost = Some(id)`. All other events are
/// lifecycle notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SimEvent {
    /// A task entered the batch queue (its arrival tick is `task.arrival`).
    Arrived {
        /// The arriving task.
        task: Task,
    },
    /// The mapping heuristic assigned a task to a machine queue.
    Mapped {
        /// The mapped task.
        task: TaskId,
        /// Destination machine.
        machine: MachineId,
        /// Mapping time.
        now: Tick,
    },
    /// A task began executing.
    Started {
        /// The started task.
        task: TaskId,
        /// Executing machine.
        machine: MachineId,
        /// Start time.
        now: Tick,
        /// Whether it runs the approximate (degraded) variant.
        degraded: bool,
    },
    /// The dropping policy degraded a queued task to its approximate variant.
    Degraded {
        /// The degraded task.
        task: TaskId,
        /// Machine whose queue holds the task.
        machine: MachineId,
        /// Decision time.
        now: Tick,
    },
    /// A task ran to completion. **Terminal.**
    Completed {
        /// The completed task.
        task: TaskId,
        /// Executing machine.
        machine: MachineId,
        /// Completion time.
        now: Tick,
        /// Whether it finished strictly before its deadline.
        on_time: bool,
        /// Whether it ran the approximate (degraded) variant.
        degraded: bool,
    },
    /// A running task was killed at its deadline (live-video semantics;
    /// counted as a reactive drop). **Terminal.**
    Killed {
        /// The killed task.
        task: TaskId,
        /// Machine it was running on.
        machine: MachineId,
        /// Kill time (the task's deadline).
        now: Tick,
    },
    /// A waiting task was dropped. **Terminal.**
    Dropped {
        /// The dropped task.
        task: TaskId,
        /// Drop time.
        now: Tick,
        /// Reactive expiry or a proactive policy decision.
        kind: DropKind,
    },
    /// A machine failed; any running task is lost. **Terminal** for `lost`.
    MachineFailed {
        /// The failed machine.
        machine: MachineId,
        /// Failure time.
        now: Tick,
        /// The task lost mid-execution, if the machine was busy.
        lost: Option<TaskId>,
    },
    /// A machine came back from repair.
    MachineRepaired {
        /// The repaired machine.
        machine: MachineId,
        /// Repair time.
        now: Tick,
    },
    /// A mapping event (reactive drops → policy → mapper → starts) finished.
    /// Emitted once per [`SimCore::step`](crate::SimCore::step); marks a
    /// consistent point for dashboards and metrics.
    MappingRound {
        /// Time of the mapping event.
        now: Tick,
    },
    /// A serving-layer admission controller turned an offered task away
    /// *before* it was admitted to the core (emitted by `taskdrop_serve`
    /// through [`SimCore::notify_observers`](crate::SimCore::notify_observers),
    /// never by the core itself). The task was never assigned a [`TaskId`],
    /// so this is **not** a terminal event and does not enter the fate
    /// accounting — it is the admission layer's own loss ledger.
    AdmissionDropped {
        /// Requested task type.
        type_id: TaskTypeId,
        /// Nominal arrival tick of the offered task.
        arrival: Tick,
        /// Requested deadline.
        deadline: Tick,
        /// Decision time (the serving layer's virtual clock).
        now: Tick,
        /// Which backpressure rule fired.
        kind: AdmissionDropKind,
    },
    /// A dependency-aware graph layer (`taskdrop_dag`) forfeited a held
    /// graph node: its predecessors can no longer produce the inputs it
    /// needs, its subtree was pruned, or admission shed it at release time.
    /// Emitted from outside the core through
    /// [`SimCore::notify_observers`](crate::SimCore::notify_observers),
    /// never by the core itself. The node was never injected, so it has no
    /// [`TaskId`] and this is **not** a terminal event for the core's own
    /// fate accounting — it is the graph layer's loss ledger, mirrored into
    /// [`MetricsObserver`](crate::MetricsObserver) totals as
    /// [`TaskFate::Forfeited`].
    CascadeForfeited {
        /// Graph instance the node belongs to (the coordinator's dense
        /// graph index).
        graph: u64,
        /// Node index within its graph.
        node: u32,
        /// The resolved core task whose fate triggered the cascade, if the
        /// trigger was a predecessor's drop/kill/loss (`None` for pruning
        /// and admission shedding, which fire before any task exists).
        cause: Option<TaskId>,
        /// Decision time.
        now: Tick,
        /// Why the node was forfeited.
        kind: ForfeitKind,
    },
    /// A serving-layer fleet moved a still-queued ingress offer from one
    /// shard to another at an epoch barrier (deterministic work stealing).
    /// Emitted from outside the core through
    /// [`SimCore::notify_observers`](crate::SimCore::notify_observers),
    /// never by the core itself, once per side: the donor shard sees
    /// [`MigrationKind::Donated`], the receiver [`MigrationKind::Received`].
    /// The offer had not been admitted yet, so it has no [`TaskId`] and this
    /// is **not** a terminal event — it is the migration ledger of the
    /// work-stealing layer.
    TaskMigrated {
        /// Requested task type of the migrated offer.
        type_id: TaskTypeId,
        /// Nominal arrival tick of the offer.
        arrival: Tick,
        /// Requested deadline.
        deadline: Tick,
        /// Decision time (the fleet's epoch-barrier clock).
        now: Tick,
        /// Which side of the transfer this shard is.
        kind: MigrationKind,
        /// Fleet index of the shard on the other side of the transfer.
        peer: u32,
    },
}

impl SimEvent {
    /// If this event is terminal for a task, the task and its
    /// [`TaskFate`] — the same mapping the engine's own accounting uses.
    #[must_use]
    pub fn resolved(&self) -> Option<(TaskId, TaskFate)> {
        match *self {
            SimEvent::Completed { task, on_time, degraded, .. } => {
                let fate = match (on_time, degraded) {
                    (true, false) => TaskFate::OnTime,
                    (true, true) => TaskFate::OnTimeApprox,
                    (false, _) => TaskFate::Late,
                };
                Some((task, fate))
            }
            SimEvent::Killed { task, .. } => Some((task, TaskFate::DroppedReactive)),
            SimEvent::Dropped { task, kind, .. } => {
                let fate = match kind {
                    DropKind::Reactive => TaskFate::DroppedReactive,
                    DropKind::Proactive => TaskFate::DroppedProactive,
                };
                Some((task, fate))
            }
            SimEvent::MachineFailed { lost: Some(task), .. } => {
                Some((task, TaskFate::LostToFailure))
            }
            _ => None,
        }
    }
}

/// A read-only subscriber to the engine's event stream.
///
/// Observers run synchronously inside [`SimCore::step`](crate::SimCore::step)
/// in attachment order; keep `on_event` cheap for hot trials.
pub trait SimObserver {
    /// Called for every [`SimEvent`], in simulation order.
    fn on_event(&mut self, ev: &SimEvent);
}

/// Any `FnMut(&SimEvent)` closure is an observer.
impl<F: FnMut(&SimEvent)> SimObserver for F {
    fn on_event(&mut self, ev: &SimEvent) {
        self(ev)
    }
}

/// The event delivery backend of a [`SimCore`](crate::SimCore).
///
/// The core is generic over how events leave it. The default hub — a
/// `Vec<Box<dyn SimObserver>>` — delivers synchronously to dynamically
/// attached observers and is the right choice everywhere single-threaded.
/// [`EventRelay`] instead buffers events in a plain `Vec<SimEvent>`; it
/// holds no trait objects, so a core built on it is `Send` and can run an
/// epoch on a worker thread, with the buffered events drained at the
/// single-threaded epoch barrier in deterministic shard order.
///
/// A hub is passive storage/fan-out only: it must not influence the trial
/// (the same read-only contract as [`SimObserver`]). `Default` is the
/// empty hub, used by checkpoint restore and core assembly.
pub trait ObserverHub: Default {
    /// Delivers one event, in simulation order.
    fn deliver(&mut self, ev: &SimEvent);
}

/// The default hub: synchronous fan-out to attached boxed observers.
impl<'a> ObserverHub for Vec<Box<dyn SimObserver + 'a>> {
    fn deliver(&mut self, ev: &SimEvent) {
        for obs in self.iter_mut() {
            obs.on_event(ev);
        }
    }
}

/// A `Send` observer hub that buffers events instead of delivering them.
///
/// This is the hub the parallel fleet runs on: a
/// [`SimCore<EventRelay>`](crate::SimCore) owns no `dyn SimObserver`
/// boxes, so whole shards move onto crossbeam scoped threads; after the
/// epoch's parallel phase, the driver drains each shard's relay **in
/// shard-index order** on the barrier thread and feeds the events to
/// telemetry there. Because every consumer folds over event *data* only,
/// barrier-time replay is byte-identical to inline delivery at any worker
/// count.
#[derive(Debug, Default)]
pub struct EventRelay {
    events: Vec<SimEvent>,
}

impl EventRelay {
    /// An empty relay.
    #[must_use]
    pub fn new() -> Self {
        EventRelay::default()
    }

    /// Buffered events not yet drained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Takes every buffered event, leaving the relay empty (the buffer's
    /// allocation is handed off with the events).
    #[must_use]
    pub fn take(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }
}

impl ObserverHub for EventRelay {
    fn deliver(&mut self, ev: &SimEvent) {
        self.events.push(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskdrop_model::TaskTypeId;

    fn task(id: u64) -> Task {
        Task::new(TaskId(id), TaskTypeId(0), 5, 50)
    }

    #[test]
    fn resolved_maps_terminal_events_to_fates() {
        let m = MachineId(0);
        let cases = [
            (
                SimEvent::Completed {
                    task: TaskId(1),
                    machine: m,
                    now: 9,
                    on_time: true,
                    degraded: false,
                },
                Some((TaskId(1), TaskFate::OnTime)),
            ),
            (
                SimEvent::Completed {
                    task: TaskId(1),
                    machine: m,
                    now: 9,
                    on_time: true,
                    degraded: true,
                },
                Some((TaskId(1), TaskFate::OnTimeApprox)),
            ),
            (
                SimEvent::Completed {
                    task: TaskId(1),
                    machine: m,
                    now: 9,
                    on_time: false,
                    degraded: false,
                },
                Some((TaskId(1), TaskFate::Late)),
            ),
            (
                SimEvent::Killed { task: TaskId(2), machine: m, now: 9 },
                Some((TaskId(2), TaskFate::DroppedReactive)),
            ),
            (
                SimEvent::Dropped { task: TaskId(3), now: 9, kind: DropKind::Proactive },
                Some((TaskId(3), TaskFate::DroppedProactive)),
            ),
            (
                SimEvent::MachineFailed { machine: m, now: 9, lost: Some(TaskId(4)) },
                Some((TaskId(4), TaskFate::LostToFailure)),
            ),
            (SimEvent::MachineFailed { machine: m, now: 9, lost: None }, None),
            (SimEvent::Arrived { task: task(0) }, None),
            (SimEvent::MappingRound { now: 9 }, None),
        ];
        for (ev, want) in cases {
            assert_eq!(ev.resolved(), want, "{ev:?}");
        }
    }

    #[test]
    fn migration_events_are_not_terminal() {
        let ev = SimEvent::TaskMigrated {
            type_id: TaskTypeId(2),
            arrival: 10,
            deadline: 90,
            now: 40,
            kind: MigrationKind::Donated,
            peer: 1,
        };
        assert_eq!(ev.resolved(), None, "migrated offers have no TaskId yet");
    }

    #[test]
    fn event_relay_buffers_and_hands_off() {
        let mut relay = EventRelay::new();
        assert!(relay.is_empty());
        relay.deliver(&SimEvent::Arrived { task: task(0) });
        relay.deliver(&SimEvent::MappingRound { now: 5 });
        assert_eq!(relay.len(), 2);
        let events = relay.take();
        assert!(relay.is_empty());
        assert!(matches!(events[1], SimEvent::MappingRound { now: 5 }));
    }

    #[test]
    fn vec_hub_fans_out_to_boxed_observers() {
        use std::cell::Cell;
        let count = Cell::new(0usize);
        {
            let mut hub: Vec<Box<dyn SimObserver + '_>> =
                vec![Box::new(|_: &SimEvent| count.set(count.get() + 1))];
            hub.deliver(&SimEvent::MappingRound { now: 3 });
            hub.deliver(&SimEvent::MappingRound { now: 4 });
        }
        assert_eq!(count.get(), 2);
        // The relay hub, unlike the vec hub, is Send (the fleet's claim).
        fn assert_send<T: Send>() {}
        assert_send::<EventRelay>();
    }

    #[test]
    fn closures_are_observers() {
        let mut count = 0usize;
        {
            let mut obs = |_: &SimEvent| count += 1;
            obs.on_event(&SimEvent::MappingRound { now: 1 });
            obs.on_event(&SimEvent::MappingRound { now: 2 });
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn metrics_observer_reports_not_drained_mid_flight() {
        use crate::config::SimConfig;
        use crate::error::SimError;
        use crate::metrics::MetricsObserver;
        use taskdrop_workload::Scenario;
        let scenario = Scenario::transcode(1);
        let mut obs = MetricsObserver::new(&scenario, &SimConfig::default());
        obs.on_event(&SimEvent::Arrived { task: task(0) });
        assert_eq!(obs.result(), Err(SimError::NotDrained { resolved: 0, total: 1 }));
        obs.on_event(&SimEvent::Dropped { task: TaskId(0), now: 60, kind: DropKind::Reactive });
        obs.on_event(&SimEvent::MappingRound { now: 60 });
        let r = obs.result().expect("drained");
        assert_eq!(r.total_tasks, 1);
        assert_eq!(r.mapping_events, 1);
        assert_eq!(r.makespan, 60);
    }
}
