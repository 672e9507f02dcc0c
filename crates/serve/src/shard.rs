//! One serving shard: a traffic source feeding an admission controller
//! feeding a [`SimCore`], with wholesale checkpoint/restore.

use crate::admission::AdmissionController;
use serde::{Deserialize, Serialize};
use taskdrop_core::DropPolicy;
use taskdrop_obs::{FlightRecorder, FlightSnapshot, ShardEpoch, Telemetry};
use taskdrop_pmf::Tick;
use taskdrop_sched::MappingHeuristic;
use taskdrop_sim::{
    Checkpoint, EventRelay, MigrationKind, SimConfig, SimCore, SimError, SimEvent, StepOutcome,
    TrialResult,
};
use taskdrop_workload::{OfferedTask, Scenario, TrafficSource};

/// Everything needed to rebuild a shard mid-flight: the core's
/// [`Checkpoint`] plus the serving-side state the core knows nothing about
/// — the traffic source's cursor, the admission controller (queued
/// offers and counters) and the flight recorder. Serde-serializable as a
/// whole, so a shard can be persisted, shipped, and revived elsewhere
/// against the same scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// Fleet clock at which the checkpoint was taken.
    pub taken_at: Tick,
    /// The engine state.
    pub core: Checkpoint,
    /// The traffic source, frozen at its stream position.
    pub source: TrafficSource,
    /// The admission controller (policy, queued offers, accounting).
    pub admission: AdmissionController,
    /// The flight recorder's contents at checkpoint time, if the shard
    /// has one (absent in checkpoints from older builds — `default`
    /// keeps them loading).
    #[serde(default)]
    pub flight: Option<FlightSnapshot>,
}

/// One tenant/cluster inside a [`FleetDriver`](crate::FleetDriver): an
/// open-world [`SimCore`] plus its ingress pipeline and an optional
/// flight recorder.
///
/// The core's observer hub is an [`EventRelay`], which buffers engine
/// events instead of delivering them to boxed callbacks, and everything
/// else the shard owns is plain serializable state. That makes the whole
/// shard `Send` (asserted by the fleet's tests), so a worker thread can
/// own it for the parallel phase, and it makes
/// [`FleetShard::take_checkpoint`] / [`FleetShard::restore_from`] total.
/// The driver drains the relay at the single-threaded epoch barrier,
/// into the flight recorder and telemetry.
///
/// The shard borrows its scenario and policies (the same borrows a bare
/// `SimCore` takes).
pub struct FleetShard<'a> {
    name: String,
    scenario: &'a Scenario,
    mapper: &'a dyn MappingHeuristic,
    dropper: &'a dyn DropPolicy,
    core: SimCore<'a, EventRelay>,
    source: TrafficSource,
    admission: AdmissionController,
    last_checkpoint: Option<ShardCheckpoint>,
    /// Bounded ring of recent engine events, fed at the barrier and
    /// checkpointed and revived with the shard
    /// ([`FleetShard::enable_flight_recorder`]).
    flight: Option<FlightRecorder>,
    /// The pre-kill flight-recorder contents, kept across the most
    /// recent [`FleetShard::restore_from`] as the crash post-mortem.
    post_mortem: Option<FlightSnapshot>,
}

impl<'a> FleetShard<'a> {
    /// Assembles a fleet shard around a fresh open-world core.
    ///
    /// # Errors
    ///
    /// Any configuration error from [`SimCore::open_in`].
    #[allow(clippy::too_many_arguments)] // one borrow per collaborating piece
    pub fn new(
        name: impl Into<String>,
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
        source: TrafficSource,
        admission: AdmissionController,
    ) -> Result<Self, SimError> {
        let core = SimCore::<EventRelay>::open_in(scenario, mapper, dropper, config, exec_seed)?;
        Ok(FleetShard {
            name: name.into(),
            scenario,
            mapper,
            dropper,
            core,
            source,
            admission,
            last_checkpoint: None,
            flight: None,
            post_mortem: None,
        })
    }

    /// The shard's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying core (read-only).
    #[must_use]
    pub fn core(&self) -> &SimCore<'a, EventRelay> {
        &self.core
    }

    /// The admission controller (read-only).
    #[must_use]
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The traffic source (read-only).
    #[must_use]
    pub fn source(&self) -> &TrafficSource {
        &self.source
    }

    /// The most recent checkpoint, if one was taken.
    #[must_use]
    pub fn last_checkpoint(&self) -> Option<&ShardCheckpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Whether the shard has nothing left to do: the source is exhausted,
    /// the ingress queue is empty, and every admitted task has a fate.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.source.is_exhausted() && self.admission.queued() == 0 && self.core.is_drained()
    }

    /// The shard's final [`TrialResult`] once drained.
    ///
    /// # Errors
    ///
    /// [`SimError::NotDrained`] while tasks are still in flight.
    pub fn result(&self) -> Result<TrialResult, SimError> {
        self.core.result()
    }

    /// Gives the shard a bounded [`FlightRecorder`] of its most recent
    /// `capacity` engine events. The recorder is shard state: the fleet
    /// barrier feeds it, its contents ride in every [`ShardCheckpoint`],
    /// and [`FleetShard::restore_from`] revives it to the checkpointed
    /// contents (keeping the pre-kill buffer aside as
    /// [`FleetShard::post_mortem`]) so a deterministic replay reproduces
    /// the undisturbed buffer exactly.
    ///
    /// # Panics
    ///
    /// Panics if the shard already has a recorder, or `capacity` is zero.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        assert!(self.flight.is_none(), "shard {} already has a flight recorder", self.name);
        self.flight = Some(FlightRecorder::new(capacity));
    }

    /// The shard's flight recorder, if it has one.
    #[must_use]
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// The flight-recorder contents captured from the timeline the most
    /// recent [`FleetShard::restore_from`] destroyed — the crash
    /// post-mortem.
    #[must_use]
    pub fn post_mortem(&self) -> Option<&FlightSnapshot> {
        self.post_mortem.as_ref()
    }

    /// Advances the shard's pipeline to `until` (the per-worker body of
    /// the parallel phase). Admission decisions for the whole epoch are
    /// made against the queue state at its start — the granularity a real
    /// front-end batches at: the core does not move while the batch is
    /// offered, so under a pre-drop policy the offers it prices read the
    /// machine queue tails, and every convolution already made for their
    /// task type, from the core's cache. Two ingress orders:
    ///
    /// * **Immediate** (`deferred == false`, stealing off) — offer the
    ///   epoch's arrivals, inject every due offer, run the core: arrivals
    ///   are offered *and* injected within the same epoch.
    /// * **Deferred** (`deferred == true`, stealing on) — inject the
    ///   backlog queued at the previous barrier (including offers
    ///   migrated in) first, then offer this epoch's arrivals but leave
    ///   them *queued*, so they are still present — and migratable — when
    ///   the barrier snapshots the fleet. Dispatch is batched at epoch
    ///   granularity; an offer waits at most one epoch (and is dropped as
    ///   `Expired` at injection if its deadline lapsed meanwhile).
    ///
    /// # Errors
    ///
    /// Any error from [`AdmissionController::drain_due`].
    pub(crate) fn advance_to(
        &mut self,
        until: Tick,
        deferred: bool,
    ) -> Result<StepOutcome, SimError> {
        if deferred {
            self.admission.drain_due(&mut self.core, until)?;
        }
        while self.source.peek().is_some_and(|next| next.arrival <= until) {
            let Some(task) = self.source.pop() else { break };
            self.admission.offer(task, &mut self.core);
        }
        if !deferred {
            self.admission.drain_due(&mut self.core, until)?;
        }
        Ok(self.core.run_until(until))
    }

    /// Releases the newest `count` queued offers to migrate to shard
    /// `peer`, emitting one `Donated` event per offer at barrier time
    /// `now`.
    pub(crate) fn donate(&mut self, count: usize, peer: usize, now: Tick) -> Vec<OfferedTask> {
        let offers = self.admission.release_for_steal(count);
        self.emit_migrations(&offers, MigrationKind::Donated, peer, now);
        offers
    }

    /// Merges migrated offers into the ingress queue, emitting one
    /// `Received` event per offer at barrier time `now`.
    pub(crate) fn receive(&mut self, offers: &[OfferedTask], peer: usize, now: Tick) {
        self.admission.accept_stolen(offers);
        self.emit_migrations(offers, MigrationKind::Received, peer, now);
    }

    fn emit_migrations(
        &mut self,
        offers: &[OfferedTask],
        kind: MigrationKind,
        peer: usize,
        now: Tick,
    ) {
        let peer = u32::try_from(peer).unwrap_or(u32::MAX);
        for offer in offers {
            self.core.notify_observers(&SimEvent::TaskMigrated {
                type_id: offer.type_id,
                arrival: offer.arrival,
                deadline: offer.deadline,
                now,
                kind,
                peer,
            });
        }
    }

    /// Empties the core's event relay, in production order, into the
    /// flight recorder and — when wired — `telemetry` under this shard's
    /// name as scope. Called only from the single-threaded barrier, so
    /// observation order is canonical at any worker count.
    pub(crate) fn drain_events(&mut self, telemetry: Option<&Telemetry>) {
        let events = self.core.hub_mut().take();
        if let Some(recorder) = &mut self.flight {
            for ev in &events {
                recorder.record(ev);
            }
        }
        if let Some(telemetry) = telemetry {
            for ev in &events {
                telemetry.scope_event(&self.name, ev);
            }
        }
    }

    /// Cumulative serving numbers for telemetry epoch records.
    pub(crate) fn epoch_snapshot(&self) -> ShardEpoch {
        let stats = self.admission.stats();
        ShardEpoch {
            shard: self.name.clone(),
            backlog: self.admission.queued() as u64,
            offered: stats.offered,
            admitted: stats.admitted,
            turned_away: stats.turned_away(),
            total_tasks: self.core.total_tasks() as u64,
            resolved_tasks: self.core.resolved_tasks() as u64,
            stolen_in: stats.stolen_in,
            stolen_out: stats.stolen_out,
        }
    }

    /// Snapshots the complete shard state (core, source, admission,
    /// flight recorder) and remembers it as the restore point.
    pub fn take_checkpoint(&mut self, taken_at: Tick) -> &ShardCheckpoint {
        let cp = ShardCheckpoint {
            taken_at,
            core: self.core.snapshot(),
            source: self.source.clone(),
            admission: self.admission.clone(),
            flight: self.flight.as_ref().map(FlightRecorder::snapshot),
        };
        self.last_checkpoint.insert(cp)
    }

    /// Discards the live state and rebuilds the shard from `checkpoint`
    /// (scenario and policies are the shard's own borrows — the
    /// checkpoint must match them). The pending event-relay buffer is
    /// discarded with the state it described. A flight recorder is reset
    /// to the checkpointed contents, its pre-kill buffer surviving as
    /// [`FleetShard::post_mortem`]; a checkpoint that carries one
    /// recreates it on a shard without one, so revival elsewhere is
    /// faithful. `checkpoint` becomes the shard's restore point: the
    /// previous one belonged to the timeline just discarded.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointMismatch`] with field `"source"` if the
    /// checkpointed traffic source breaks a condition of its constructor
    /// ([`TrafficSource::validate`]), with field `"admission"` if the
    /// checkpointed admission controller fails
    /// [`AdmissionController::validate`], or any validation error from
    /// [`SimCore::restore_in`]; on error the live state and restore point
    /// are unchanged.
    pub fn restore_from(&mut self, checkpoint: &ShardCheckpoint) -> Result<(), SimError> {
        let refuse = |field, problem| SimError::CheckpointMismatch {
            field,
            expected: format!("{field} state its constructor accepts"),
            found: format!("one that breaks \"{problem}\""),
        };
        checkpoint.source.validate().map_err(|problem| refuse("source", problem))?;
        checkpoint.admission.validate().map_err(|problem| refuse("admission", problem))?;
        self.core =
            SimCore::restore_in(self.scenario, self.mapper, self.dropper, &checkpoint.core)?;
        self.source = checkpoint.source.clone();
        self.admission = checkpoint.admission.clone();
        self.last_checkpoint = Some(checkpoint.clone());
        if let Some(recorder) = &self.flight {
            self.post_mortem = Some(recorder.snapshot());
        }
        if let Some(snapshot) = &checkpoint.flight {
            self.flight
                .get_or_insert_with(|| FlightRecorder::new(snapshot.capacity.max(1)))
                .restore(snapshot);
        } else if let Some(recorder) = &mut self.flight {
            recorder.clear();
        }
        Ok(())
    }
}

impl std::fmt::Debug for FleetShard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetShard")
            .field("name", &self.name)
            .field("scenario", &self.scenario.name)
            .field("now", &self.core.now())
            .field("total_tasks", &self.core.total_tasks())
            .field("resolved_tasks", &self.core.resolved_tasks())
            .field("ingress_queued", &self.admission.queued())
            .finish_non_exhaustive()
    }
}
