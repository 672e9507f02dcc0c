//! The dependency-aware execution coordinator.
//!
//! A [`DagCoordinator`] layers graph semantics on top of an open-world
//! [`SimCore`] without touching the engine: nodes whose predecessors have
//! not yet delivered are **held** outside the core; each time a node's
//! last predecessor completes, the node is *released* — optionally priced
//! by [`PrunePolicy::PruneSubtree`] and chain-aware admission, optionally
//! merged with an identical concurrent release — and injected through
//! [`SimCore::inject`] with its deadline anchored at the release instant.
//! Terminal engine events flow back through a [`DagTap`]; a failed node
//! (dropped, killed, or lost) **cascade-forfeits** every descendant on
//! the spot, each forfeit surfaced to the core's observers as
//! [`SimEvent::CascadeForfeited`] so stream-reconstructed accounting
//! (`MetricsObserver`) stays conserved.
//!
//! The whole coordinator is plain serializable data — graphs, node
//! states, in-flight fan-outs, merge index, admission controller,
//! counters — so [`DagCoordinator::snapshot`] plus the core's own
//! checkpoint captures a mid-flight graph workload wholesale, and
//! resuming from [`DagCheckpoint::restore`] is byte-identical to never
//! having stopped (the tap is derived state: attach a fresh one).

use crate::chance::released_subtree_chances;
use crate::error::DagError;
use crate::graph::TaskGraph;
use crate::stats::DagStats;
use crate::tap::DagTap;
use serde::{Deserialize, Serialize};
use taskdrop_core::DropPolicy;
use taskdrop_model::{TaskId, TaskTypeId};
use taskdrop_obs::{DagRecord, Telemetry};
use taskdrop_pmf::Tick;
use taskdrop_sched::MappingHeuristic;
use taskdrop_serve::AdmissionController;
use taskdrop_sim::{Checkpoint, ForfeitKind, SimCore, SimError, SimEvent, TaskFate};
use taskdrop_workload::{OfferedTask, Scenario};

/// Whether whole subtrees are shed at release time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum PrunePolicy {
    /// Release every ready node unconditionally.
    #[default]
    Off,
    /// At release, estimate the node's critical-path subtree chance
    /// ([`subtree_chances`](crate::subtree_chances)) against the queues as
    /// they stand and forfeit the node *and its whole subtree* below
    /// `threshold` — the paper's probabilistic pruning lifted from tasks
    /// to chains: work whose weakest downstream link is already doomed
    /// never wastes a queue slot.
    PruneSubtree {
        /// Minimum acceptable subtree chance in `[0, 1]`.
        threshold: f64,
    },
}

/// A node address: which graph, which node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeRef {
    /// Index of the graph in its coordinator (from
    /// [`DagCoordinator::add_graph`]).
    pub graph: u32,
    /// Node index within the graph.
    pub node: u32,
}

/// Where one graph node currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// Waiting for predecessors; the core has never seen this node.
    Held,
    /// Released and injected (or merged into) an engine task whose fate
    /// is still open.
    Injected(TaskId),
    /// Terminal. [`TaskFate::Forfeited`] means the node was never
    /// injected: a predecessor failed, its subtree was pruned, or
    /// admission shed it.
    Resolved(TaskFate),
}

/// One registered graph plus its mutable execution state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GraphRun {
    graph: TaskGraph,
    state: Vec<NodeState>,
    /// Per node: predecessors that have not yet delivered output.
    unmet: Vec<u32>,
}

/// The key two releases must share to ride one execution: same release
/// tick, same task type, same absolute deadline — an identical request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct MergeKey {
    arrival: Tick,
    type_id: TaskTypeId,
    deadline: Tick,
}

/// Coordinates any number of [`TaskGraph`]s over one open-world core.
/// See the module docs for the execution model.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DagCoordinator {
    prune: PrunePolicy,
    merging: bool,
    admission: Option<AdmissionController>,
    graphs: Vec<GraphRun>,
    /// Open engine tasks → the node(s) riding them (more than one under
    /// merging). Kept sorted by task id: ids are handed out
    /// monotonically, so pushes append in order.
    in_flight: Vec<(TaskId, Vec<NodeRef>)>,
    /// Identical-request index for function-chain merging; stale keys
    /// (release tick already passed) are swept at each release.
    merge_index: Vec<(MergeKey, TaskId)>,
    stats: DagStats,
}

impl DagCoordinator {
    /// A coordinator with pruning off, merging off, no admission control.
    #[must_use]
    pub fn new() -> Self {
        DagCoordinator::default()
    }

    /// Enables subtree pruning at `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not a probability in `[0, 1]`.
    #[must_use]
    pub fn with_pruning(mut self, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold), "prune threshold must be a probability");
        self.prune = PrunePolicy::PruneSubtree { threshold };
        self
    }

    /// Enables function-chain merging: releases that are identical
    /// requests (same tick, type, deadline) share one engine execution,
    /// its fate fanning out to every rider.
    #[must_use]
    pub fn with_merging(mut self) -> Self {
        self.merging = true;
        self
    }

    /// Routes every release through `controller`
    /// ([`AdmissionController::admit_now`]); a turned-away node forfeits
    /// its subtree as [`ForfeitKind::AdmissionShed`].
    #[must_use]
    pub fn with_admission(mut self, controller: AdmissionController) -> Self {
        self.admission = Some(controller);
        self
    }

    /// The accounting so far.
    #[must_use]
    pub fn stats(&self) -> DagStats {
        self.stats
    }

    /// Mirrors the coordinator's cumulative release/merge/forfeit rates
    /// into `telemetry` (counters under `scope`, plus one `dag` JSONL
    /// record stamped `now`). Read-only — call it at any cadence, e.g.
    /// after each [`DagCoordinator::advance`]; counters are monotone so
    /// re-recording the same state is a no-op.
    pub fn record_telemetry(&self, telemetry: &Telemetry, scope: &str, now: Tick) {
        telemetry.record_dag(&DagRecord {
            record: "dag".to_string(),
            scope: scope.to_string(),
            t: now,
            released: self.stats.injected,
            merged: self.stats.merged,
            forfeited_cascade: self.stats.forfeited_cascade,
            forfeited_pruned: self.stats.forfeited_pruned,
            forfeited_shed: self.stats.forfeited_shed,
        });
    }

    /// The admission controller, if one is configured.
    #[must_use]
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// Graphs registered so far.
    #[must_use]
    pub fn graph_count(&self) -> usize {
        self.graphs.len()
    }

    /// The state of one node, or `None` for an unknown address.
    #[must_use]
    pub fn node_state(&self, node: NodeRef) -> Option<NodeState> {
        self.graphs.get(node.graph as usize)?.state.get(node.node as usize).copied()
    }

    /// Nodes still waiting on predecessors.
    #[must_use]
    pub fn held(&self) -> u64 {
        self.graphs
            .iter()
            .map(|run| run.state.iter().filter(|s| matches!(s, NodeState::Held)).count() as u64)
            .sum()
    }

    /// Nodes riding open engine tasks.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.in_flight.iter().map(|(_, refs)| refs.len() as u64).sum()
    }

    /// Whether every registered node has reached a terminal state.
    #[must_use]
    pub fn all_resolved(&self) -> bool {
        self.stats.resolved() == self.stats.nodes
    }

    /// Recounts the conservation identity from the state tables and
    /// checks it against the running [`DagStats`]: every node exactly one
    /// of held / in-flight / resolved, every terminal bucket matching,
    /// and the in-flight table consistent with the per-node states.
    /// Cheap enough for test assertions after every step.
    #[must_use]
    pub fn audit(&self) -> bool {
        let mut held = 0u64;
        let mut injected = 0u64;
        let mut recount = DagStats::default();
        let mut forfeited = 0u64;
        for run in &self.graphs {
            for s in &run.state {
                match *s {
                    NodeState::Held => held += 1,
                    NodeState::Injected(_) => injected += 1,
                    NodeState::Resolved(fate) => match fate {
                        TaskFate::OnTime => recount.on_time += 1,
                        TaskFate::OnTimeApprox => recount.on_time_approx += 1,
                        TaskFate::Late => recount.late += 1,
                        TaskFate::DroppedReactive | TaskFate::DroppedProactive => {
                            recount.dropped += 1;
                        }
                        TaskFate::LostToFailure => recount.lost += 1,
                        TaskFate::Forfeited => forfeited += 1,
                    },
                }
            }
        }
        let nodes: u64 = self.graphs.iter().map(|run| run.graph.len() as u64).sum();
        nodes == self.stats.nodes
            && self.graphs.len() as u64 == self.stats.graphs
            && held == self.held()
            && injected == self.in_flight()
            && held + injected + recount.resolved() + forfeited == nodes
            && recount.on_time == self.stats.on_time
            && recount.on_time_approx == self.stats.on_time_approx
            && recount.late == self.stats.late
            && recount.dropped == self.stats.dropped
            && recount.lost == self.stats.lost
            && forfeited == self.stats.forfeited()
    }

    /// Checks a coordinator that was not built through its own methods,
    /// such as one parsed from a checkpoint, for the invariants they keep:
    /// a prune threshold in `[0, 1]`; every graph as
    /// [`TaskGraph::from_blueprint`] leaves it; node states and unmet
    /// counts sized to their graph, with each held node's count equal to
    /// its predecessors that have not delivered; every in-flight entry, in
    /// ascending task order, naming distinct in-range nodes injected as
    /// that task; every merge-index entry still in flight carrying nodes
    /// of its key's type and slack; and [`DagCoordinator::audit`].
    ///
    /// # Errors
    ///
    /// The broken condition, in words.
    pub fn validate(&self) -> Result<(), &'static str> {
        if let PrunePolicy::PruneSubtree { threshold } = self.prune {
            if !(0.0..=1.0).contains(&threshold) {
                return Err("prune threshold must be a probability in [0, 1]");
            }
        }
        for run in &self.graphs {
            run.graph.validate()?;
            if run.state.len() != run.graph.len() || run.unmet.len() != run.graph.len() {
                return Err("node states and unmet counts must be sized to their graph");
            }
            let delivered = |p: &&u32| match run.state.get(**p as usize) {
                Some(NodeState::Resolved(fate)) => produced_output(*fate),
                _ => false,
            };
            // In range: the graph validated and `state` has one entry per node.
            let waiting =
                |node: u32| run.graph.preds(node).iter().filter(|p| !delivered(p)).count();
            if (0u32..).zip(&run.state).zip(&run.unmet).any(|((node, state), &unmet)| {
                *state == NodeState::Held && waiting(node) != unmet as usize
            }) {
                return Err("a held node's unmet count must equal its undelivered predecessors");
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for (task, refs) in &self.in_flight {
            for &r in refs {
                if self.node_state(r) != Some(NodeState::Injected(*task)) || !seen.insert(r) {
                    return Err("an in-flight entry must name distinct nodes injected as its task");
                }
            }
        }
        if self.in_flight.iter().zip(self.in_flight.iter().skip(1)).any(|(a, b)| a.0 >= b.0) {
            return Err("in-flight entries must be in ascending task order");
        }
        for (key, task) in &self.merge_index {
            // Riders were checked in range above.
            let keyed = |r: &NodeRef| {
                self.graphs.get(r.graph as usize).is_some_and(|run| {
                    let spec = run.graph.node(r.node);
                    spec.type_id == key.type_id
                        && key.arrival.saturating_add(spec.slack) == key.deadline
                })
            };
            let riders = self.in_flight.iter().find(|(t, _)| t == task).map(|(_, refs)| refs);
            if riders.is_some_and(|refs| !refs.iter().all(keyed)) {
                return Err("a merge-index entry must key the nodes riding its task");
            }
        }
        if !self.audit() {
            return Err("node states must agree with the running counters");
        }
        Ok(())
    }

    /// Registers a graph and releases its roots at
    /// `max(graph.arrival(), core.now())` (roots may be injected with a
    /// future arrival; the engine holds them until their tick). Returns
    /// the graph's index, the `graph` half of every [`NodeRef`] into it.
    ///
    /// # Errors
    ///
    /// [`DagError::Sim`] with [`SimError::UnknownTaskType`] if any node
    /// names a task type the scenario lacks: the whole graph is refused
    /// and the coordinator is left unchanged. Otherwise [`DagError::Sim`]
    /// if the engine refuses to price or inject a release; the coordinator
    /// is left consistent — the failing node and its subtree are *not*
    /// forfeited, the error is surfaced for the caller to decide.
    pub fn add_graph(&mut self, core: &mut SimCore<'_>, graph: TaskGraph) -> Result<u32, DagError> {
        let task_types = core.scenario().task_type_count();
        if let Some(type_id) = graph.unknown_type(task_types) {
            return Err(DagError::Sim(SimError::UnknownTaskType {
                type_id: type_id.0,
                task_types,
            }));
        }
        let gid = self.graphs.len() as u32;
        let n = graph.len();
        let release = graph.arrival().max(core.now());
        let roots: Vec<NodeRef> =
            graph.roots().into_iter().map(|node| NodeRef { graph: gid, node }).collect();
        let unmet = (0..n as u32).map(|i| graph.preds(i).len() as u32).collect();
        self.graphs.push(GraphRun { graph, state: vec![NodeState::Held; n], unmet });
        self.stats.graphs += 1;
        self.stats.nodes += n as u64;
        self.release_batch(core, &roots, release)?;
        Ok(gid)
    }

    /// Drives the core through every event at or before `until`,
    /// processing resolutions and releasing newly-ready nodes as they
    /// appear. On return the tap is drained and every node whose
    /// predecessors delivered by `until` has been released (or
    /// forfeited), so this is the safe point to [`snapshot`].
    ///
    /// [`snapshot`]: DagCoordinator::snapshot
    ///
    /// # Errors
    ///
    /// [`DagError::Sim`] if a release fails to price or inject; see
    /// [`DagCoordinator::add_graph`].
    pub fn advance(
        &mut self,
        core: &mut SimCore<'_>,
        tap: &DagTap,
        until: Tick,
    ) -> Result<(), DagError> {
        loop {
            self.settle(core, tap)?;
            // A drained core refuses to consume events (machine-failure
            // timeline entries can outlive the last task), so stepping it
            // would spin forever. settle() runs first: releasing a ready
            // node un-drains the core before this check.
            if core.is_drained() {
                break;
            }
            match core.next_event_time() {
                Some(t) if t <= until => {
                    core.step();
                }
                _ => break,
            }
        }
        self.settle(core, tap)
    }

    /// [`DagCoordinator::advance`] with no horizon: runs until the core
    /// has no more events to process (all graph work resolved and the
    /// engine drained of graph tasks).
    ///
    /// # Errors
    ///
    /// [`DagError::Sim`] if a release fails to price or inject.
    pub fn run_to_drain(&mut self, core: &mut SimCore<'_>, tap: &DagTap) -> Result<(), DagError> {
        self.advance(core, tap, Tick::MAX)
    }

    /// Serializes the coordinator together with the core's checkpoint.
    /// Call after [`DagCoordinator::advance`] returns (tap drained);
    /// restoring then resumes byte-identically.
    #[must_use]
    pub fn snapshot(&self, core: &SimCore<'_>) -> DagCheckpoint {
        DagCheckpoint { core: core.snapshot(), coordinator: self.clone() }
    }

    /// Drains the tap and processes every resolution (cascades included),
    /// then releases all nodes that became ready, at the current tick.
    fn settle(&mut self, core: &mut SimCore<'_>, tap: &DagTap) -> Result<(), DagError> {
        let mut ready = Vec::new();
        for (task, fate) in tap.drain() {
            self.on_resolved(core, task, fate, &mut ready);
        }
        self.release_batch(core, &ready, core.now())
    }

    /// Applies one engine resolution to every node riding the task:
    /// records the fate, and either unblocks successors (the task ran to
    /// completion, so its output exists — late output included) or
    /// cascade-forfeits all descendants (dropped / killed / lost: the
    /// output will never exist). Non-graph tasks are ignored.
    fn on_resolved(
        &mut self,
        core: &mut SimCore<'_>,
        task: TaskId,
        fate: TaskFate,
        ready: &mut Vec<NodeRef>,
    ) {
        let Some(pos) = self.in_flight.iter().position(|(t, _)| *t == task) else {
            return;
        };
        let (_, refs) = self.in_flight.remove(pos);
        for r in refs {
            let run = &mut self.graphs[r.graph as usize];
            debug_assert!(
                matches!(run.state[r.node as usize], NodeState::Injected(t) if t == task),
                "in-flight table out of sync with node state at {r:?}"
            );
            run.state[r.node as usize] = NodeState::Resolved(fate);
            match fate {
                TaskFate::OnTime => self.stats.on_time += 1,
                TaskFate::OnTimeApprox => self.stats.on_time_approx += 1,
                TaskFate::Late => self.stats.late += 1,
                TaskFate::DroppedReactive | TaskFate::DroppedProactive => self.stats.dropped += 1,
                TaskFate::LostToFailure => self.stats.lost += 1,
                // lint:allow(panic-macro): Forfeited is assigned by this coordinator, never by engine resolution; reaching here means the fate plumbing broke and must stop loudly
                TaskFate::Forfeited => unreachable!("the engine never assigns Forfeited"),
            }
            if produced_output(fate) {
                let run = &mut self.graphs[r.graph as usize];
                let GraphRun { graph, state, unmet } = run;
                for &s in graph.succs(r.node) {
                    if matches!(state[s as usize], NodeState::Held) {
                        unmet[s as usize] -= 1;
                        if unmet[s as usize] == 0 {
                            ready.push(NodeRef { graph: r.graph, node: s });
                        }
                    }
                }
            } else {
                self.forfeit_descendants(core, r, ForfeitKind::Cascade, Some(task));
            }
        }
    }

    /// Forfeits every still-held proper descendant of `node` (a node that
    /// is already injected or resolved is skipped — descendants can only
    /// be held while an ancestor is unresolved, but a diamond may have
    /// been forfeited through its other parent already).
    fn forfeit_descendants(
        &mut self,
        core: &mut SimCore<'_>,
        node: NodeRef,
        kind: ForfeitKind,
        cause: Option<TaskId>,
    ) {
        let descendants = self.graphs[node.graph as usize].graph.descendants(node.node);
        for d in descendants {
            self.forfeit_one(core, NodeRef { graph: node.graph, node: d }, kind, cause);
        }
    }

    /// Forfeits `node` itself and its whole subtree (pruning, admission
    /// shedding — decisions taken while the node is still held).
    fn forfeit_subtree(
        &mut self,
        core: &mut SimCore<'_>,
        node: NodeRef,
        kind: ForfeitKind,
        cause: Option<TaskId>,
    ) {
        self.forfeit_one(core, node, kind, cause);
        self.forfeit_descendants(core, node, kind, cause);
    }

    fn forfeit_one(
        &mut self,
        core: &mut SimCore<'_>,
        node: NodeRef,
        kind: ForfeitKind,
        cause: Option<TaskId>,
    ) {
        let run = &mut self.graphs[node.graph as usize];
        if !matches!(run.state[node.node as usize], NodeState::Held) {
            return;
        }
        run.state[node.node as usize] = NodeState::Resolved(TaskFate::Forfeited);
        match kind {
            ForfeitKind::Cascade => self.stats.forfeited_cascade += 1,
            ForfeitKind::Pruned => self.stats.forfeited_pruned += 1,
            ForfeitKind::AdmissionShed => self.stats.forfeited_shed += 1,
        }
        core.notify_observers(&SimEvent::CascadeForfeited {
            graph: node.graph as u64,
            node: node.node,
            cause,
            now: core.now(),
            kind,
        });
    }

    /// Releases a batch of ready nodes at tick `release`: prune, merge,
    /// admit, inject — in that order, in batch order.
    fn release_batch(
        &mut self,
        core: &mut SimCore<'_>,
        batch: &[NodeRef],
        release: Tick,
    ) -> Result<(), DagError> {
        if batch.is_empty() {
            return Ok(());
        }
        // Pruning prices every released node's subtree against the queues
        // as they stand at the release instant (the paper's batch
        // discipline: tails are a function of the instant, not of the
        // offer), the whole batch in one walk over the machines.
        let survivors: Vec<NodeRef> = match self.prune {
            PrunePolicy::Off => batch.to_vec(),
            PrunePolicy::PruneSubtree { threshold } => {
                let released: Vec<(&TaskGraph, u32)> =
                    batch.iter().map(|r| (&self.graphs[r.graph as usize].graph, r.node)).collect();
                let chances = released_subtree_chances(&released, core)?;
                let mut survivors = Vec::with_capacity(batch.len());
                let mut pruned = Vec::new();
                for (&r, chance) in batch.iter().zip(chances) {
                    if chance < threshold {
                        pruned.push(r);
                    } else {
                        survivors.push(r);
                    }
                }
                for r in pruned {
                    self.forfeit_subtree(core, r, ForfeitKind::Pruned, None);
                }
                survivors
            }
        };
        // Merge keys whose release tick has passed can never match again.
        self.merge_index.retain(|(key, _)| key.arrival >= release);
        for r in survivors {
            let spec = self.graphs[r.graph as usize].graph.node(r.node);
            let deadline = release.saturating_add(spec.slack);
            let key = MergeKey { arrival: release, type_id: spec.type_id, deadline };
            if self.merging {
                // An identical request already in flight? Ride it. (The
                // in-flight check matters: a same-tick twin could already
                // have been proactively dropped at its mapping round.)
                let rider = self
                    .merge_index
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|&(_, task)| task)
                    .and_then(|task| {
                        self.in_flight.iter_mut().find(|(t, _)| *t == task).map(|e| (task, e))
                    });
                if let Some((task, (_, refs))) = rider {
                    refs.push(r);
                    self.graphs[r.graph as usize].state[r.node as usize] =
                        NodeState::Injected(task);
                    self.stats.merged += 1;
                    continue;
                }
            }
            let offer = OfferedTask { type_id: spec.type_id, arrival: release, deadline };
            let injected = match &mut self.admission {
                Some(ctl) => ctl.admit_now(offer, core)?,
                None => Some(core.inject(spec.type_id, release, deadline)?),
            };
            match injected {
                Some(task) => {
                    self.graphs[r.graph as usize].state[r.node as usize] =
                        NodeState::Injected(task);
                    self.in_flight.push((task, vec![r]));
                    if self.merging {
                        self.merge_index.push((key, task));
                    }
                    self.stats.injected += 1;
                }
                None => self.forfeit_subtree(core, r, ForfeitKind::AdmissionShed, None),
            }
        }
        Ok(())
    }
}

/// Whether a node that met `fate` delivered its output to its successors:
/// it ran to completion, late output included.
fn produced_output(fate: TaskFate) -> bool {
    matches!(fate, TaskFate::OnTime | TaskFate::OnTimeApprox | TaskFate::Late)
}

/// A coordinator checkpoint: the core's [`Checkpoint`] plus the
/// coordinator's complete state. Everything needed to resume except the
/// deterministic context a core checkpoint only *names* (scenario and
/// policies) and the derived [`DagTap`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagCheckpoint {
    /// The engine's state.
    pub core: Checkpoint,
    /// The graph layer's state.
    pub coordinator: DagCoordinator,
}

impl DagCheckpoint {
    /// Rebuilds the core and coordinator; attach a fresh [`DagTap`]
    /// before stepping. Resuming is byte-identical to an uninterrupted
    /// run (asserted by this crate's property tests).
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointMismatch`] with field `"admission"` if the
    /// coordinator's admission controller fails
    /// [`AdmissionController::validate`], with field `"coordinator"` if
    /// the coordinator fails [`DagCoordinator::validate`] or a graph
    /// names a task type `scenario` lacks, or any
    /// [`SimError`] from [`SimCore::restore`] (version or structural
    /// mismatch).
    pub fn restore<'a>(
        &self,
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
    ) -> Result<(SimCore<'a>, DagCoordinator), DagError> {
        if let Some(problem) = self.coordinator.admission().and_then(|a| a.validate().err()) {
            return Err(DagError::Sim(SimError::CheckpointMismatch {
                field: "admission",
                expected: "admission state its constructor accepts".to_string(),
                found: format!("one that breaks \"{problem}\""),
            }));
        }
        if let Err(problem) = self.coordinator.validate() {
            return Err(DagError::Sim(SimError::CheckpointMismatch {
                field: "coordinator",
                expected: "coordinator state its own methods keep".to_string(),
                found: format!("one that breaks \"{problem}\""),
            }));
        }
        let task_types = scenario.task_type_count();
        let graphs = &self.coordinator.graphs;
        if let Some(type_id) = graphs.iter().find_map(|run| run.graph.unknown_type(task_types)) {
            return Err(DagError::Sim(SimError::CheckpointMismatch {
                field: "coordinator",
                expected: format!("graphs over the scenario's {task_types} task types"),
                found: format!("a node of task type {}", type_id.0),
            }));
        }
        let core = SimCore::restore(scenario, mapper, dropper, &self.core)?;
        Ok((core, self.coordinator.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;
    use taskdrop_core::ReactiveOnly;
    use taskdrop_sched::Pam;
    use taskdrop_sim::{MetricsObserver, SimConfig};
    use taskdrop_workload::{BlueprintNode, GraphBlueprint};

    fn open_core(scenario: &Scenario) -> SimCore<'_> {
        let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
        SimCore::open(scenario, &Pam, &ReactiveOnly, config, 7).unwrap()
    }

    fn graph(arrival: Tick, slacks: &[Tick], edges: &[(u32, u32)]) -> TaskGraph {
        TaskGraph::from_blueprint(&GraphBlueprint {
            arrival,
            nodes: slacks
                .iter()
                .map(|&slack| BlueprintNode { type_id: TaskTypeId(0), slack })
                .collect(),
            edges: edges.to_vec(),
        })
        .unwrap()
    }

    #[test]
    fn chain_runs_in_dependency_order_and_resolves_every_node() {
        let s = Scenario::specint(11);
        let mut core = open_core(&s);
        let tap = DagTap::new();
        tap.attach(&mut core);
        let mut coord = DagCoordinator::new();
        coord.add_graph(&mut core, graph(0, &[2_000; 4], &[(0, 1), (1, 2), (2, 3)])).unwrap();
        assert_eq!(coord.held(), 3, "only the root is released up front");
        coord.run_to_drain(&mut core, &tap).unwrap();
        assert!(coord.all_resolved());
        assert!(coord.audit());
        let st = coord.stats();
        assert_eq!(st.injected, 4, "chain nodes are injected one by one");
        assert_eq!(st.on_time, 4, "an idle cluster with roomy slack completes everything");
        // Dependency order: each node was injected only after its
        // predecessor's completion tick.
        for node in 1..4u32 {
            let NodeState::Resolved(fate) = coord.node_state(NodeRef { graph: 0, node }).unwrap()
            else {
                panic!("unresolved node {node}");
            };
            assert_eq!(fate, TaskFate::OnTime);
        }
    }

    #[test]
    fn hopeless_node_cascades_to_all_descendants_conserved() {
        let s = Scenario::specint(11);
        // Declared before the core: the observer closure borrows it for
        // the core's lifetime.
        let events = std::cell::RefCell::new(Vec::new());
        let mut core = open_core(&s);
        let tap = DagTap::new();
        tap.attach(&mut core);
        let mut coord = DagCoordinator::new();
        // Diamond whose left arm can never finish in time: 1 tick of
        // slack kills node 1 reactively, which must forfeit the sink —
        // but node 2's completion must NOT re-release it.
        core.attach(|ev: &SimEvent| {
            if let SimEvent::CascadeForfeited { node, kind, .. } = *ev {
                events.borrow_mut().push((node, kind));
            }
        });
        coord
            .add_graph(
                &mut core,
                graph(0, &[2_000, 1, 2_000, 2_000], &[(0, 1), (0, 2), (1, 3), (2, 3)]),
            )
            .unwrap();
        coord.run_to_drain(&mut core, &tap).unwrap();
        assert!(coord.all_resolved());
        assert!(coord.audit());
        let st = coord.stats();
        assert_eq!(st.dropped, 1, "the doomed arm is reactively dropped");
        assert_eq!(st.forfeited_cascade, 1, "the sink is forfeited exactly once");
        assert_eq!(st.injected, 3, "the sink was never injected");
        assert_eq!(
            coord.node_state(NodeRef { graph: 0, node: 3 }),
            Some(NodeState::Resolved(TaskFate::Forfeited))
        );
        assert_eq!(events.borrow().as_slice(), &[(3, ForfeitKind::Cascade)]);
    }

    #[test]
    fn merging_shares_one_execution_across_identical_roots() {
        let s = Scenario::specint(11);
        let mut core = open_core(&s);
        let tap = DagTap::new();
        tap.attach(&mut core);
        let mut coord = DagCoordinator::new().with_merging();
        // Two identical chains arriving at the same tick: roots merge,
        // and because the merged root completes at one tick, the second
        // links merge too — 2 injections for 4 nodes.
        for _ in 0..2 {
            coord.add_graph(&mut core, graph(50, &[2_000; 2], &[(0, 1)])).unwrap();
        }
        coord.run_to_drain(&mut core, &tap).unwrap();
        assert!(coord.all_resolved() && coord.audit());
        let st = coord.stats();
        assert_eq!(st.nodes, 4);
        assert_eq!(st.injected, 2, "one execution per chain layer");
        assert_eq!(st.merged, 2, "the twin chain rides both layers");
        assert_eq!(st.on_time, 4, "every node still gets its own fate");
    }

    #[test]
    fn pruning_forfeits_doomed_subtrees_at_release() {
        let s = Scenario::specint(11);
        let mut core = open_core(&s);
        let tap = DagTap::new();
        tap.attach(&mut core);
        // Chain with a hopeless sink (1 tick of slack): the subtree
        // chance of the *root* is already ~0, so the whole chain is shed
        // before a single injection.
        let mut coord = DagCoordinator::new().with_pruning(0.5);
        coord.add_graph(&mut core, graph(0, &[2_000, 2_000, 1], &[(0, 1), (1, 2)])).unwrap();
        coord.run_to_drain(&mut core, &tap).unwrap();
        assert!(coord.all_resolved() && coord.audit());
        let st = coord.stats();
        assert_eq!(st.injected, 0);
        assert_eq!(st.forfeited_pruned, 3, "root and both descendants shed together");
    }

    /// A graph over the task types `types` (one node each) with `edges`.
    fn typed_graph(types: &[u16], edges: &[(u32, u32)]) -> TaskGraph {
        TaskGraph::from_blueprint(&GraphBlueprint {
            arrival: 0,
            nodes: types
                .iter()
                .map(|&t| BlueprintNode { type_id: TaskTypeId(t), slack: 2_000 })
                .collect(),
            edges: edges.to_vec(),
        })
        .unwrap()
    }

    /// Adds `graph`, which names task type 12, to a fresh core under each
    /// pruning setting: it is refused whole with the typed error, nothing
    /// is registered or injected, and the coordinator still drains a valid
    /// graph afterwards.
    fn assert_refused_whole(refused: &TaskGraph) {
        let s = Scenario::specint(11);
        for coord in [DagCoordinator::new(), DagCoordinator::new().with_pruning(0.5)] {
            let mut coord = coord;
            let before = coord.clone();
            let mut core = open_core(&s);
            let tap = DagTap::new();
            tap.attach(&mut core);
            assert_eq!(
                coord.add_graph(&mut core, refused.clone()),
                Err(DagError::Sim(SimError::UnknownTaskType { type_id: 12, task_types: 12 }))
            );
            assert_eq!(coord, before, "a refused graph leaves the coordinator unchanged");
            assert_eq!((coord.graph_count(), coord.held()), (0, 0));
            assert!(coord.all_resolved() && coord.audit());
            assert_eq!(core.total_tasks(), 0, "nothing of the refused graph was injected");
            coord.add_graph(&mut core, graph(0, &[2_000; 2], &[(0, 1)])).unwrap();
            coord.run_to_drain(&mut core, &tap).unwrap();
            assert!(coord.all_resolved() && coord.audit());
        }
    }

    /// A node whose task type the scenario lacks is refused with the same
    /// typed error whether pruning is on or off.
    #[test]
    fn an_unknown_task_type_is_a_typed_error_with_or_without_pruning() {
        assert_refused_whole(&typed_graph(&[12], &[]));
    }

    /// A valid root does not carry an unknown-type successor in: the graph
    /// is refused before the root is released, so no successor is left
    /// held behind a root that ran.
    #[test]
    fn an_unknown_successor_type_refuses_the_whole_graph() {
        assert_refused_whole(&typed_graph(&[0, 12], &[(0, 1)]));
    }

    #[test]
    fn admission_shedding_forfeits_the_subtree_and_feeds_metrics() {
        use taskdrop_serve::BackpressurePolicy;
        use taskdrop_sim::SimObserver;
        let s = Scenario::specint(11);
        let metrics = std::cell::RefCell::new(MetricsObserver::new(
            &s,
            &SimConfig { exclude_boundary: 0, ..SimConfig::default() },
        ));
        let mut core = open_core(&s);
        let tap = DagTap::new();
        tap.attach(&mut core);
        core.attach(|ev: &SimEvent| metrics.borrow_mut().on_event(ev));
        // The chain-aware gate refuses the hopeless root, forfeiting the
        // chain; the healthy chain passes.
        let ctl = AdmissionController::new(4, BackpressurePolicy::PreDrop { threshold: 0.25 });
        let mut coord = DagCoordinator::new().with_admission(ctl);
        coord.add_graph(&mut core, graph(0, &[1, 2_000], &[(0, 1)])).unwrap();
        coord.add_graph(&mut core, graph(0, &[2_000, 2_000], &[(0, 1)])).unwrap();
        coord.run_to_drain(&mut core, &tap).unwrap();
        assert!(coord.all_resolved() && coord.audit());
        let st = coord.stats();
        assert_eq!(st.forfeited_shed, 2, "hopeless root and its successor shed");
        assert_eq!(st.on_time, 2, "the healthy chain completes");
        assert_eq!(coord.admission().unwrap().stats().pre_dropped, 1);
        // The observer chain saw both forfeits and stays conserved.
        let result = metrics.borrow().result().unwrap();
        assert_eq!(result.forfeited, 2);
        assert!(result.is_conserved());
        assert_eq!(result.total_tasks, 2 + 2, "2 injected + 2 forfeited ride the totals");
    }

    /// A chain whose deadlines fall past `Tick::MAX` is released with its
    /// deadlines saturated there, and drains with every node resolved,
    /// under plain release, merging, pruning and pre-drop admission.
    #[test]
    fn deadlines_past_the_last_tick_saturate_and_the_chain_drains() {
        use taskdrop_serve::BackpressurePolicy;
        let s = Scenario::specint(11);
        let pre_drop = AdmissionController::new(4, BackpressurePolicy::PreDrop { threshold: 0.25 });
        let coordinators = [
            DagCoordinator::new(),
            DagCoordinator::new().with_merging(),
            DagCoordinator::new().with_pruning(0.25),
            DagCoordinator::new().with_admission(pre_drop),
        ];
        for mut coord in coordinators {
            let mut core = open_core(&s);
            let tap = DagTap::new();
            tap.attach(&mut core);
            coord.add_graph(&mut core, graph(Tick::MAX - 50, &[100, 100], &[(0, 1)])).unwrap();
            coord.run_to_drain(&mut core, &tap).unwrap();
            assert!(coord.all_resolved() && coord.audit(), "{coord:?}");
            assert_eq!(coord.stats().nodes, 2);
        }
    }

    #[test]
    fn checkpoint_restores_to_equal_coordinator() {
        let s = Scenario::specint(11);
        let mut core = open_core(&s);
        let tap = DagTap::new();
        tap.attach(&mut core);
        let mut coord = DagCoordinator::new().with_merging();
        coord
            .add_graph(&mut core, graph(0, &[2_000; 4], &[(0, 1), (0, 2), (1, 3), (2, 3)]))
            .unwrap();
        coord.advance(&mut core, &tap, 40).unwrap();
        let cp = coord.snapshot(&core);
        let json = serde_json::to_string(&cp).unwrap();
        let back: DagCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(cp, back, "checkpoint roundtrips through serde");
        let (mut core2, mut coord2) = back.restore(&s, &Pam, &ReactiveOnly).unwrap();
        let tap2 = DagTap::new();
        tap2.attach(&mut core2);
        coord.run_to_drain(&mut core, &tap).unwrap();
        coord2.run_to_drain(&mut core2, &tap2).unwrap();
        assert_eq!(coord, coord2, "resumed run converges to the identical end state");
        assert_eq!(core.now(), core2.now());
    }

    #[test]
    fn record_telemetry_mirrors_stats_into_counters() {
        let s = Scenario::specint(11);
        let mut core = open_core(&s);
        let tap = DagTap::new();
        tap.attach(&mut core);
        let telemetry = Telemetry::new();
        telemetry.attach_counters(&mut core, "dag");
        let mut coord = DagCoordinator::new();
        // Diamond with a doomed left arm: exercises releases AND forfeits.
        coord
            .add_graph(
                &mut core,
                graph(0, &[2_000, 1, 2_000, 2_000], &[(0, 1), (0, 2), (1, 3), (2, 3)]),
            )
            .unwrap();
        coord.run_to_drain(&mut core, &tap).unwrap();
        coord.record_telemetry(&telemetry, "dag", core.now());
        let st = coord.stats();
        assert_eq!(telemetry.counter("dag_released_total", &[("scope", "dag")]), st.injected);
        assert_eq!(telemetry.counter("dag_merged_total", &[("scope", "dag")]), st.merged);
        // The forfeit counter is fed by the event stream itself, not the
        // record call — the two ledgers must agree.
        assert_eq!(
            telemetry.counter("dag_forfeited_total", &[("scope", "dag"), ("kind", "cascade")]),
            st.forfeited_cascade,
        );
        assert!(telemetry.jsonl().contains("\"record\":\"dag\""));
        // Monotone: re-recording identical cumulative state is a no-op.
        coord.record_telemetry(&telemetry, "dag", core.now());
        assert_eq!(telemetry.counter("dag_released_total", &[("scope", "dag")]), st.injected);
    }
}
