//! The resumable simulation core: an explicit-lifecycle state machine.
//!
//! [`SimCore`] owns one trial's complete state — machines, queues, the event
//! heap, and the accounting fold of its own events — and advances it one
//! *mapping event* at a time via [`SimCore::step`]. It is the engine's only
//! entry point; a batch trial and a production-style driver use the same
//! lifecycle:
//!
//! * [`SimCore::step`] — process the next event timestamp (all simultaneous
//!   events, then one mapping event), returning a [`StepOutcome`];
//! * [`SimCore::run_until`] — step while events at or before a tick remain;
//! * [`SimCore::run_to_completion`] — step until drained and return the
//!   [`TrialResult`], or [`SimError::NotDrained`] if the events run out
//!   first;
//! * [`SimCore::inject`] — admit a task *after* construction (open-world
//!   arrivals: the paper frames dropping as an online decision made at each
//!   mapping event, so tasks need not be known up front);
//! * [`SimCore::state`] — a read-only snapshot of queues and machines
//!   mid-trial;
//! * [`SimObserver`]s attached with [`SimCore::attach`] — a streaming view
//!   of every map/start/complete/drop/degrade/kill/failure/repair decision.
//!
//! Manual stepping, time-sliced [`SimCore::run_until`] and
//! [`SimCore::run_to_completion`] give byte-identical results for the same
//! inputs, and observers are strictly read-only (both enforced by
//! `tests/core_equivalence.rs`). A *zero-task* core drains immediately at
//! t = 0 without processing any failure-timeline event.

use crate::checkpoint::{
    Checkpoint, MachineCheckpoint, QueuedCheckpoint, RunningCheckpoint, CHECKPOINT_VERSION,
};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::event::{Event, EventQueue};
use crate::metrics::{MetricsObserver, TaskFate, TrialResult};
use crate::observer::{DropKind, ObserverHub, SimEvent, SimObserver};
use std::borrow::Cow;
use std::collections::VecDeque;
use taskdrop_core::DropPolicy;
use taskdrop_model::ctx::{CacheStats, PolicyCtx};
use taskdrop_model::queue::{ChainEvaluator, ChainTask};
use taskdrop_model::view::{DropContext, MachineView, MappingInput, QueueView};
use taskdrop_model::{Machine, MachineId, PetMatrix, Task, TaskId, TaskTypeId};
use taskdrop_pmf::{convolved_mass_before, running_masses, Pmf, Tick, ROUNDING_MARGIN};
use taskdrop_sched::MappingHeuristic;
use taskdrop_stats::{derive_seed, new_rng};
use taskdrop_workload::{Scenario, Workload};

/// Mutable per-machine state. The running and queued entries are the
/// checkpoint's own types, so snapshot and restore copy them as they are.
struct MachineSt {
    machine: Machine,
    running: Option<RunningCheckpoint>,
    pending: VecDeque<QueuedCheckpoint>,
    /// Incremented each time a task starts; stamps Completion/DeadlineKill
    /// events so stale ones (for an already-ended execution) are ignored.
    epoch: u64,
    /// Failure injection: the machine is down (cannot start tasks).
    down: bool,
    /// Memo: the base the queue's tail was chained from, and that tail.
    tail: Option<(Pmf, Pmf)>,
    /// Memo: the base and drop context of the last drop decision that kept
    /// the whole queue.
    kept_whole: Option<(Pmf, DropContext)>,
}

impl MachineSt {
    fn occupancy(&self) -> usize {
        usize::from(self.running.is_some()) + self.pending.len()
    }

    /// Clears the memo. Called on every change that can alter the queue's
    /// tail or its keep-all verdict other than through the base: map-in,
    /// proactive and reactive drop, degrade, start, failure and repair.
    /// What is left to key on is the base (the running task and the clock)
    /// and the drop context; the compaction is the core's for good. The
    /// memo is **derived state**, never serialized: a restored core starts
    /// with empty memos and converges to the same bytes.
    fn clear_memo(&mut self) {
        self.tail = None;
        self.kept_whole = None;
    }
}

/// What one [`SimCore::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One event timestamp was processed; more events are pending.
    Advanced {
        /// Simulation time after the step.
        now: Tick,
        /// Cumulative PET×tail cache work counters ([`SimCore::cache_stats`]).
        work: CacheStats,
    },
    /// No events are scheduled but admitted tasks remain unresolved: an
    /// [open](SimCore::open) core between injections, or a restored
    /// checkpoint that strands a task. The closed-world invariant (every
    /// unresolved task has a pending event) makes it impossible after
    /// [`SimCore::new`].
    Idle {
        /// Current simulation time (unchanged).
        now: Tick,
    },
    /// Every admitted task has a fate; [`SimCore::result`] is available.
    /// Further steps are no-ops until new work is [injected](SimCore::inject).
    Drained {
        /// Simulation time of the final mapping event.
        now: Tick,
        /// Cumulative PET×tail cache work counters ([`SimCore::cache_stats`]).
        work: CacheStats,
    },
}

impl StepOutcome {
    /// Whether the core has resolved every admitted task.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        matches!(self, StepOutcome::Drained { .. })
    }

    /// The simulation time this outcome reports.
    #[must_use]
    pub fn now(&self) -> Tick {
        match *self {
            StepOutcome::Advanced { now, .. }
            | StepOutcome::Idle { now }
            | StepOutcome::Drained { now, .. } => now,
        }
    }

    /// The cumulative cache work counters this outcome carries, if the
    /// step did any work (`Idle` does none).
    #[must_use]
    pub fn work(&self) -> Option<CacheStats> {
        match *self {
            StepOutcome::Advanced { work, .. } | StepOutcome::Drained { work, .. } => Some(work),
            StepOutcome::Idle { .. } => None,
        }
    }
}

/// Read-only snapshot of a running execution.
///
/// Deliberately omits the engine's realised finish tick: a driver inspecting
/// state mid-trial faces the same execution-time uncertainty the policies
/// do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningState {
    /// The executing task.
    pub task: Task,
    /// Tick at which it started.
    pub start: Tick,
    /// Whether it runs the approximate (degraded) variant.
    pub degraded: bool,
}

/// Read-only snapshot of one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    /// The machine.
    pub machine: Machine,
    /// Whether the machine is down (failure injection).
    pub down: bool,
    /// Busy ticks accrued so far.
    pub busy_ticks: u64,
    /// The current execution, if any.
    pub running: Option<RunningState>,
    /// Queued tasks in FCFS order, as a checkpoint stores them.
    pub pending: Vec<QueuedCheckpoint>,
}

/// Read-only snapshot of the whole core, from [`SimCore::state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState {
    /// Current simulation time.
    pub now: Tick,
    /// Tasks admitted so far (initial workload + injected).
    pub total_tasks: usize,
    /// Tasks whose fate is decided.
    pub resolved_tasks: usize,
    /// Mapping events processed so far.
    pub mapping_events: u64,
    /// Unmapped tasks waiting in the batch queue.
    pub batch: Vec<Task>,
    /// Per-machine queue snapshots.
    pub machines: Vec<MachineState>,
}

/// One resumable trial: scenario + policies + mutable trial state.
///
/// ```
/// use taskdrop_sim::{SimConfig, SimCore, StepOutcome};
/// use taskdrop_workload::{OversubscriptionLevel, Scenario, Workload};
/// use taskdrop_sched::Pam;
/// use taskdrop_core::ProactiveDropper;
///
/// let scenario = Scenario::specint(7);
/// let level = OversubscriptionLevel::new("demo", 300, 4_000);
/// let workload = Workload::generate(&scenario, &level, 3.0, 1);
/// let dropper = ProactiveDropper::paper_default();
/// let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
/// let mut core = SimCore::new(&scenario, &workload, &Pam, &dropper, config, 1).unwrap();
/// // Drive the trial event by event.
/// while let StepOutcome::Advanced { .. } = core.step() {}
/// let result = core.result().unwrap();
/// assert!(result.is_conserved());
/// ```
pub struct SimCore<'a, H: ObserverHub = Vec<Box<dyn SimObserver + 'a>>> {
    scenario: &'a Scenario,
    mapper: &'a dyn MappingHeuristic,
    dropper: &'a dyn DropPolicy,
    config: SimConfig,
    exec_seed: u64,
    /// Degraded-variant PET, shared by the policy views and the chain
    /// computations (built once; cells are time-scaled copies).
    approx_pet: Option<PetMatrix>,
    /// Every admitted task, indexed by `TaskId` (dense ids).
    tasks: Vec<Task>,
    machines: Vec<MachineSt>,
    batch: Vec<Task>,
    events: EventQueue,
    /// The accounting fold of every event the core emits itself. Its fate
    /// table grows as tasks are admitted, so the core reports drain as soon
    /// as all work is accounted for, even with failure events still queued.
    fold: MetricsObserver,
    now: Tick,
    /// Event delivery backend ([`ObserverHub`]): boxed observers by
    /// default, an [`EventRelay`](crate::EventRelay) buffer for `Send`
    /// cores on fleet worker threads.
    observers: H,
    /// The persistent evaluation context (DESIGN.md §13): policy/mapper
    /// scratch plus the Eq 2 price table. Constructed once per core,
    /// reused across steps and serving epochs; derived state that is
    /// rebuilt — never serialized — on checkpoint restore.
    ctx: PolicyCtx,
    /// Tail and verdict lookups of the machines' memos (the conv counters
    /// are the price table's and stay zero here).
    memo_stats: CacheStats,
}

// Manual impl: the mapper/dropper are `&dyn` references whose traits don't
// (and shouldn't) require `Debug`; summarise the trial state instead.
impl<H: ObserverHub> std::fmt::Debug for SimCore<'_, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCore")
            .field("now", &self.now)
            .field("exec_seed", &self.exec_seed)
            .field("tasks", &self.tasks.len())
            .field("batch", &self.batch.len())
            .field("machines", &self.machines.len())
            .field("mapping_events", &self.fold.mapping_events())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> SimCore<'a> {
    /// Assembles a trial from a pre-generated workload. `exec_seed` drives
    /// the *actual* execution-time draws; each (task, machine) pair gets an
    /// independent deterministic stream, so different policies facing the
    /// same workload see the same realised execution times.
    ///
    /// # Errors
    ///
    /// Any error of [`SimConfig::validate`] for an invalid `config`;
    /// [`SimError::MisnumberedWorkload`] if the workload's task ids are not
    /// the dense sequence `0..len`.
    pub fn new(
        scenario: &'a Scenario,
        workload: &Workload,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
    ) -> Result<Self, SimError> {
        for (index, task) in workload.tasks.iter().enumerate() {
            if task.id.index() != index {
                return Err(SimError::MisnumberedWorkload { index, id: task.id.0 });
            }
        }
        Self::assemble(scenario, workload.tasks.clone(), mapper, dropper, config, exec_seed)
    }

    /// Assembles an *open-world* core with no initial workload: every task
    /// arrives later through [`SimCore::inject`]. Failure timelines (if
    /// configured) are pre-generated out to the same fixed margin a
    /// zero-horizon workload would get.
    ///
    /// # Errors
    ///
    /// Same configuration errors as [`SimCore::new`].
    pub fn open(
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
    ) -> Result<Self, SimError> {
        Self::assemble(scenario, Vec::new(), mapper, dropper, config, exec_seed)
    }

    /// Attaches a streaming observer; it receives every subsequent
    /// [`SimEvent`] in simulation order. Observers are read-only and cannot
    /// change the trial's outcome.
    ///
    /// Only the default hub holds boxed observers; a core on an
    /// [`EventRelay`](crate::EventRelay) hub buffers events instead and
    /// its consumers drain them via [`SimCore::hub_mut`].
    pub fn attach(&mut self, observer: impl SimObserver + 'a) {
        self.observers.push(Box::new(observer));
    }

    /// Rebuilds a core from a [`Checkpoint`], picking the trial up exactly
    /// where [`SimCore::snapshot`] left it. The caller re-supplies the
    /// deterministic context a checkpoint only *names*: the scenario
    /// (validated against the recorded name and seed) and the two stateless
    /// policies. Passing a different mapper or dropper than the original
    /// run's is permitted — the state is policy-agnostic — but then the
    /// continuation is a what-if fork, not a byte-identical resume.
    ///
    /// This is [`SimCore::restore_in`] pinned to the default observer hub;
    /// observers are not part of a checkpoint, so attach them afresh.
    ///
    /// # Errors
    ///
    /// See [`SimCore::restore_in`].
    pub fn restore(
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        checkpoint: &Checkpoint,
    ) -> Result<Self, SimError> {
        Self::restore_in(scenario, mapper, dropper, checkpoint)
    }
}

impl<'a, H: ObserverHub> SimCore<'a, H> {
    /// [`SimCore::open`] for an explicitly chosen [`ObserverHub`] — the
    /// constructor the parallel fleet uses to build `Send` cores on
    /// [`EventRelay`](crate::EventRelay) hubs
    /// (`SimCore::<EventRelay>::open_in(..)`).
    ///
    /// # Errors
    ///
    /// Same configuration errors as [`SimCore::new`].
    pub fn open_in(
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
    ) -> Result<Self, SimError> {
        Self::assemble(scenario, Vec::new(), mapper, dropper, config, exec_seed)
    }

    /// The event delivery backend (to drain an
    /// [`EventRelay`](crate::EventRelay) at a fleet epoch barrier).
    pub fn hub_mut(&mut self) -> &mut H {
        &mut self.observers
    }

    fn assemble(
        scenario: &'a Scenario,
        tasks: Vec<Task>,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let machines: Vec<MachineSt> = scenario
            .machines
            .iter()
            .map(|&machine| MachineSt {
                machine,
                running: None,
                pending: VecDeque::new(),
                epoch: 0,
                down: false,
                tail: None,
                kept_whole: None,
            })
            .collect();
        let mut events = EventQueue::new();
        for (i, t) in tasks.iter().enumerate() {
            events.push(t.arrival, Event::Arrival(i));
        }
        let approx_pet =
            config.approx.map(|spec| taskdrop_model::approx::degraded_pet(&scenario.pet, spec));
        let mut fold = MetricsObserver::new(scenario, &config);
        if let Some(last) = tasks.last() {
            fold.admit(last.id);
        }
        let mut core = SimCore {
            scenario,
            mapper,
            dropper,
            config,
            exec_seed,
            approx_pet,
            tasks,
            machines,
            batch: Vec::new(),
            events,
            fold,
            now: 0,
            observers: H::default(),
            ctx: PolicyCtx::new(),
            memo_stats: CacheStats::default(),
        };
        core.schedule_failures();
        Ok(core)
    }

    /// Pre-generates each machine's failure/repair timeline (exponential
    /// up/down durations) out to a horizon comfortably past the last initial
    /// arrival — deadlines are short relative to the window, so the system
    /// drains long before the horizon. Timelines derive from the exec seed,
    /// so a given trial sees the same outages under every policy.
    fn schedule_failures(&mut self) {
        let Some(spec) = self.config.failures else { return };
        let last_arrival = self.tasks.last().map_or(0, |t| t.arrival);
        let horizon = last_arrival.saturating_mul(2) + 120_000;
        let up = taskdrop_stats::ExponentialSampler::new(1.0 / spec.mtbf as f64);
        let repair = taskdrop_stats::ExponentialSampler::new(1.0 / spec.mttr as f64);
        for machine in &self.scenario.machines {
            let mut rng = new_rng(derive_seed(self.exec_seed, 0xFA11_0000 + machine.id.0 as u64));
            let mut t = 0.0f64;
            loop {
                let fail_at = t + up.sample(&mut rng).max(1.0);
                if fail_at >= horizon as f64 {
                    break;
                }
                let up_at = fail_at + repair.sample(&mut rng).max(1.0);
                self.events.push(fail_at.round() as Tick, Event::MachineFailure(machine.id));
                self.events.push(up_at.round() as Tick, Event::MachineRepair(machine.id));
                t = up_at;
            }
        }
    }

    /// Admits a new task mid-trial (open-world arrival). The core assigns
    /// the next dense [`TaskId`] and schedules the arrival; the task behaves
    /// exactly as if it had been part of the initial workload.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTaskType`] for a type the scenario lacks,
    /// [`SimError::InjectedInPast`] if `arrival` precedes the current
    /// simulation time, [`SimError::InvalidDeadline`] if
    /// `deadline <= arrival`.
    pub fn inject(
        &mut self,
        type_id: TaskTypeId,
        arrival: Tick,
        deadline: Tick,
    ) -> Result<TaskId, SimError> {
        known_type(self.scenario, type_id)?;
        if arrival < self.now {
            return Err(SimError::InjectedInPast { now: self.now, arrival });
        }
        if deadline <= arrival {
            return Err(SimError::InvalidDeadline { arrival, deadline });
        }
        let id = TaskId(self.tasks.len() as u64);
        let task = Task { id, type_id, arrival, deadline };
        self.tasks.push(task);
        self.fold.admit(id);
        self.events.push(arrival, Event::Arrival(id.index()));
        Ok(id)
    }

    /// Processes the next event timestamp: every event sharing it, then one
    /// mapping event for the batch (a mapping event is "triggered by
    /// completing or arrival of a task"). Returns where that leaves the
    /// trial. Once [`StepOutcome::Drained`], further calls are no-ops until
    /// new work is [injected](SimCore::inject); remaining failure-timeline
    /// events have nothing left to disturb and stay unprocessed.
    pub fn step(&mut self) -> StepOutcome {
        if self.fold.is_drained() {
            return StepOutcome::Drained { now: self.now, work: self.cache_stats() };
        }
        let Some((t, ev)) = self.events.pop() else {
            return StepOutcome::Idle { now: self.now };
        };
        self.now = t;
        self.handle(ev);
        while self.events.peek_time() == Some(self.now) {
            let (_, ev) = self.events.pop().expect("peeked");
            self.handle(ev);
        }
        self.mapping_event();
        emit(&mut self.fold, &mut self.observers, SimEvent::MappingRound { now: self.now });
        if self.fold.is_drained() {
            StepOutcome::Drained { now: self.now, work: self.cache_stats() }
        } else {
            StepOutcome::Advanced { now: self.now, work: self.cache_stats() }
        }
    }

    /// Steps while events at or before `tick` remain (and the core is not
    /// drained). The clock only moves when events are processed, so after
    /// this returns [`SimCore::now`] is the time of the last event at or
    /// before `tick`, not `tick` itself.
    pub fn run_until(&mut self, tick: Tick) -> StepOutcome {
        while !self.fold.is_drained() && self.events.peek_time().is_some_and(|t| t <= tick) {
            self.step();
        }
        if self.fold.is_drained() {
            StepOutcome::Drained { now: self.now, work: self.cache_stats() }
        } else if self.events.peek_time().is_none() {
            StepOutcome::Idle { now: self.now }
        } else {
            StepOutcome::Advanced { now: self.now, work: self.cache_stats() }
        }
    }

    /// Runs the trial until every admitted task has a fate and returns its
    /// result: [`SimCore::run_until`] with no horizon, then
    /// [`SimCore::result`].
    ///
    /// # Errors
    ///
    /// [`SimError::NotDrained`] if the events run out while tasks remain
    /// unresolved: an [open](SimCore::open) core waiting for injections,
    /// or a restored [`Checkpoint`] that strands a task without an event.
    pub fn run_to_completion(&mut self) -> Result<TrialResult, SimError> {
        self.run_until(Tick::MAX);
        let result = self.result()?;
        debug_assert!(self.batch.is_empty(), "batch tasks leaked past drain");
        debug_assert!(self.machines.iter().all(|m| m.running.is_none() && m.pending.is_empty()));
        Ok(result)
    }

    /// The trial's final metrics.
    ///
    /// # Errors
    ///
    /// [`SimError::NotDrained`] while any admitted task is unresolved.
    pub fn result(&self) -> Result<TrialResult, SimError> {
        self.fold.result()
    }

    /// Current simulation time (the last processed event timestamp).
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Timestamp of the next scheduled event, if any.
    #[must_use]
    pub fn next_event_time(&self) -> Option<Tick> {
        self.events.peek_time()
    }

    /// Tasks admitted so far (initial workload + injections).
    #[must_use]
    pub fn total_tasks(&self) -> usize {
        self.fold.total_tasks()
    }

    /// Tasks whose fate is already decided.
    #[must_use]
    pub fn resolved_tasks(&self) -> usize {
        self.fold.resolved_tasks()
    }

    /// Whether every admitted task has a fate.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.fold.is_drained()
    }

    /// The fate of a task, or `None` while it is still in flight (or the id
    /// is unknown).
    #[must_use]
    pub fn fate(&self, task: TaskId) -> Option<TaskFate> {
        self.fold.fate(task)
    }

    /// The engine configuration this core runs under.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The scenario this core runs on (machines, PET matrix, truth model).
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// The policy-facing completion-time estimate of `machine`'s queue tail
    /// — where a task appended *right now* would wait before starting. Built
    /// from the learned PET the same way the mapping phase builds its tails
    /// (the engine's realised finish times are not leaked), and the tail
    /// [`SimCore::best_chance`] prices against. Repeated calls against an
    /// unmoved queue are served from the machine's memo (see
    /// [`SimCore::cache_stats`]) instead of re-chaining. Note the mapping
    /// phase never consults a *down* machine's tail (it exposes no free
    /// slots). `None` for an unknown machine id.
    pub fn queue_tail_estimate(&mut self, machine: MachineId) -> Option<Pmf> {
        let SimCore { scenario, config, approx_pet, machines, now, ctx, memo_stats, .. } = self;
        let m = machines.get_mut(machine.index())?;
        let tail = queue_tail(
            &scenario.pet,
            approx_pet.as_ref(),
            *now,
            m,
            *config,
            &mut ctx.eval,
            memo_stats,
        );
        Some(tail.into_owned())
    }

    /// The paper's Eq 2 for a task of `type_id` appended *right now*: the
    /// best chance, over the machines that are up, that it completes
    /// before `deadline`. The one-query case of [`SimCore::best_chances`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTaskType`] for a type the scenario lacks.
    pub fn best_chance(&mut self, type_id: TaskTypeId, deadline: Tick) -> Result<f64, SimError> {
        Ok(self.best_chances(&[(type_id, deadline)])?.pop().unwrap_or_default())
    }

    /// The paper's Eq 2 for each `(type, deadline)` query, all priced at
    /// this instant: per query, the best chance over the machines that are
    /// up that a task of that type appended *right now* completes before
    /// the deadline, in query order. Each machine's queue tail (as
    /// [`SimCore::queue_tail_estimate`] gives it) is priced against the
    /// task's learned execution PMF by the same [`TailCache::chance`] the
    /// PAM mapper uses, so admission, pruning and mapping share one table
    /// of `tail ⊛ exec` running sums. Down machines are skipped — the
    /// mapper gives them no work — so a chance is 0 when every machine is
    /// down.
    ///
    /// One walk over the machines serves every query. Idle machines come
    /// first, as [`SimCore::idle_chances`] prices them, so they raise each
    /// query's best early. Each busy machine's tail is then looked up
    /// once, and a query's price on it is skipped when its ceiling from the
    /// tail's running masses shows it cannot exceed the query's best so far
    /// (DESIGN.md §13). The max of the prices is the same in any order, and
    /// a skipped price is at most the max, so every chance is bit-identical
    /// to pricing every machine.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTaskType`] if a query names a type the scenario
    /// lacks; then nothing is priced.
    ///
    /// [`TailCache::chance`]: taskdrop_model::TailCache::chance
    pub fn best_chances(&mut self, queries: &[(TaskTypeId, Tick)]) -> Result<Vec<f64>, SimError> {
        let mut best = self.idle_chances(queries)?;
        if queries.is_empty() {
            return Ok(best);
        }
        let SimCore { scenario, config, approx_pet, machines, now, ctx, memo_stats, .. } = self;
        let types = scenario.task_type_count();
        let pet = &scenario.pet;
        let mut sums = Vec::new();
        for m in machines.iter_mut().filter(|m| !m.down && m.occupancy() > 0) {
            let (machine, machine_type) = (m.machine.id.index(), m.machine.type_id);
            let tail =
                queue_tail(pet, approx_pet.as_ref(), *now, m, *config, &mut ctx.eval, memo_stats);
            let mut summed = false;
            for (best, &(type_id, deadline)) in best.iter_mut().zip(queries) {
                let exec = pet.pmf(type_id, machine_type);
                if *best > 0.0 {
                    if !summed {
                        running_masses(&tail, &mut sums);
                        summed = true;
                    }
                    if cannot_raise(&tail, &sums, exec, deadline, *best) {
                        continue;
                    }
                }
                let chance =
                    ctx.tails.chance(machine, type_id.index(), types, &tail, exec, deadline);
                *best = best.max(chance);
            }
        }
        Ok(best)
    }

    /// The idle walk of [`SimCore::best_chances`]: per query, the best
    /// chance over the up machines with nothing running or queued, and 0
    /// when none is idle. An idle machine's tail is the unit point at now,
    /// which [`TailCache::chance`] prices straight from the PET, so this
    /// reads no queue tail and moves no [`SimCore::cache_stats`] counter.
    /// Each entry is one term of the max `best_chances` takes, so it is at
    /// most the `best_chances` entry, and equal to it when no up machine is
    /// busy: a floor that DAG pruning decides from before it prices busy
    /// queues (DESIGN.md §15).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTaskType`] if a query names a type the scenario
    /// lacks; then nothing is priced.
    ///
    /// [`TailCache::chance`]: taskdrop_model::TailCache::chance
    pub fn idle_chances(&mut self, queries: &[(TaskTypeId, Tick)]) -> Result<Vec<f64>, SimError> {
        for &(type_id, _) in queries {
            known_type(self.scenario, type_id)?;
        }
        let mut best = vec![0.0f64; queries.len()];
        let SimCore { scenario, machines, now, ctx, .. } = self;
        let types = scenario.task_type_count();
        let idle_tail = Pmf::point(*now);
        for m in machines.iter().filter(|m| !m.down && m.occupancy() == 0) {
            let machine = m.machine.id.index();
            for (best, &(type_id, deadline)) in best.iter_mut().zip(queries) {
                let exec = scenario.pet.pmf(type_id, m.machine.type_id);
                let chance =
                    ctx.tails.chance(machine, type_id.index(), types, &idle_tail, exec, deadline);
                *best = best.max(chance);
            }
        }
        Ok(best)
    }

    /// Cumulative hit/miss counters of the machines' memos and the Eq 2
    /// price table — deterministic for a given trial, surfaced per step
    /// through [`StepOutcome`] and pinned exactly by `BENCH_counters.json`
    /// and `tests/telemetry_determinism.rs`.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let prices = self.ctx.tails.stats();
        CacheStats {
            conv_hits: prices.conv_hits,
            conv_misses: prices.conv_misses,
            ..self.memo_stats
        }
    }

    /// Whether `machine` is currently down (failure injection): a down
    /// machine cannot start tasks and the mapper gives it no new work.
    /// `None` for an unknown machine id.
    #[must_use]
    pub fn machine_is_down(&self, machine: MachineId) -> Option<bool> {
        self.machines.get(machine.index()).map(|m| m.down)
    }

    /// Forwards an externally produced lifecycle event to this core's
    /// observers, so one observer chain sees the complete task lifecycle
    /// from ingress to fate. The event reaches the hub only, never the
    /// core's own accounting fold, so [`SimCore::result`] never counts a
    /// forfeit. The only admissible events are
    /// [`SimEvent::AdmissionDropped`] and [`SimEvent::CascadeForfeited`] —
    /// the lifecycle stages that happen *outside* the core (the serving
    /// layer's refusals and the graph layer's forfeits); every other
    /// variant describes an engine decision, and a forged one (terminal or
    /// not) would corrupt stream-reconstructed accounting such as
    /// [`MetricsObserver`].
    ///
    /// # Panics
    ///
    /// Panics if `ev` is any variant other than
    /// [`SimEvent::AdmissionDropped`], [`SimEvent::CascadeForfeited`], or
    /// [`SimEvent::TaskMigrated`].
    pub fn notify_observers(&mut self, ev: &SimEvent) {
        assert!(
            matches!(
                ev,
                SimEvent::AdmissionDropped { .. }
                    | SimEvent::CascadeForfeited { .. }
                    | SimEvent::TaskMigrated { .. }
            ),
            "only AdmissionDropped/CascadeForfeited/TaskMigrated may be forwarded from outside the engine: {ev:?}"
        );
        self.observers.deliver(ev);
    }

    /// A read-only snapshot of the batch queue and every machine queue.
    /// Running entries omit the engine's realised finish times, so a driver
    /// cannot leak the truth model into a policy.
    #[must_use]
    pub fn state(&self) -> SimState {
        SimState {
            now: self.now,
            total_tasks: self.total_tasks(),
            resolved_tasks: self.resolved_tasks(),
            mapping_events: self.fold.mapping_events(),
            batch: self.batch.clone(),
            machines: self
                .machines
                .iter()
                .zip(self.fold.busy_ticks())
                .map(|(m, &busy_ticks)| MachineState {
                    machine: m.machine,
                    down: m.down,
                    busy_ticks,
                    running: m.running.as_ref().map(|r| RunningState {
                        task: r.task,
                        start: r.start,
                        degraded: r.degraded,
                    }),
                    pending: m.pending.iter().copied().collect(),
                })
                .collect(),
        }
    }

    /// Serializes the complete mutable trial state into a [`Checkpoint`].
    ///
    /// Side-effect free: the core is untouched and can keep stepping.
    /// Together with [`SimCore::restore`], resuming from the snapshot is
    /// byte-identical to an uninterrupted run (see the
    /// [`checkpoint`](crate::checkpoint) module docs for why no RNG state
    /// needs capturing). Observers are *not* part of a checkpoint — attach
    /// them afresh after restoring.
    #[must_use]
    pub fn snapshot(&self) -> Checkpoint {
        let (events, event_seq) = self.events.snapshot();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            scenario_name: self.scenario.name.clone(),
            scenario_seed: self.scenario.seed,
            config: self.config,
            exec_seed: self.exec_seed,
            now: self.now,
            mapping_events: self.fold.mapping_events(),
            tasks: self.tasks.clone(),
            fates: self.fold.fates().to_vec(),
            batch: self.batch.clone(),
            machines: self
                .machines
                .iter()
                .zip(self.fold.busy_ticks())
                .map(|(m, &busy_ticks)| MachineCheckpoint {
                    down: m.down,
                    busy_ticks,
                    epoch: m.epoch,
                    running: m.running,
                    pending: m.pending.iter().copied().collect(),
                })
                .collect(),
            events,
            event_seq,
        }
    }

    /// Rebuilds a core from a [`Checkpoint`] on any [`ObserverHub`] —
    /// [`SimCore::restore`] pins this to the default hub; the parallel
    /// fleet restores straight onto [`EventRelay`](crate::EventRelay)
    /// hubs. The restored hub starts empty ([`Default`]): observers and
    /// buffered events are never part of a checkpoint.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointVersion`] for an unknown format version;
    /// [`SimError::CheckpointMismatch`] if the checkpoint fails structural
    /// validation — scenario identity, dense task ids, fate-table sizing,
    /// queue occupancy, busy-time and epoch bounds, task-table membership
    /// of every queued entry,
    /// degraded entries only under approximate computing,
    /// event-heap consistency (sequence counter, payload bounds, no event
    /// before the clock, in-flight executions matched by current-epoch
    /// completion events), and single-placement of every unresolved task;
    /// plus any config validation error.
    pub fn restore_in(
        scenario: &'a Scenario,
        mapper: &'a dyn MappingHeuristic,
        dropper: &'a dyn DropPolicy,
        checkpoint: &Checkpoint,
    ) -> Result<Self, SimError> {
        validate_checkpoint(scenario, checkpoint)?;

        let machines: Vec<MachineSt> = scenario
            .machines
            .iter()
            .zip(&checkpoint.machines)
            .map(|(&machine, mc)| MachineSt {
                machine,
                running: mc.running,
                pending: mc.pending.iter().copied().collect(),
                epoch: mc.epoch,
                down: mc.down,
                tail: None,
                kept_whole: None,
            })
            .collect();
        let events = EventQueue::from_snapshot(&checkpoint.events, checkpoint.event_seq);
        let approx_pet = checkpoint
            .config
            .approx
            .map(|spec| taskdrop_model::approx::degraded_pet(&scenario.pet, spec));
        Ok(SimCore {
            scenario,
            mapper,
            dropper,
            config: checkpoint.config,
            exec_seed: checkpoint.exec_seed,
            approx_pet,
            tasks: checkpoint.tasks.clone(),
            machines,
            batch: checkpoint.batch.clone(),
            events,
            fold: MetricsObserver::restore(scenario, checkpoint),
            now: checkpoint.now,
            observers: H::default(),
            // Caches and scratch are derived state: a restored core starts
            // cold and re-derives identical bytes (tests/tail_cache.rs).
            ctx: PolicyCtx::new(),
            memo_stats: CacheStats::default(),
        })
    }

    fn handle(&mut self, ev: Event) {
        let now = self.now;
        let SimCore { tasks, machines, batch, events, fold, observers, .. } = self;
        match ev {
            Event::Arrival(i) => {
                let task = tasks[i];
                batch.push(task);
                emit(fold, observers, SimEvent::Arrived { task });
            }
            Event::Completion(mid, epoch) => {
                let m = &mut machines[mid.index()];
                if m.epoch != epoch {
                    return; // stale: that execution was killed earlier
                }
                let r = m.running.take().expect("epoch-matched completion");
                debug_assert_eq!(r.finish, now);
                m.epoch += 1; // invalidate any outstanding kill event
                emit(
                    fold,
                    observers,
                    SimEvent::Completed {
                        task: r.task.id,
                        machine: mid,
                        now,
                        on_time: r.finish < r.task.deadline,
                        degraded: r.degraded,
                    },
                );
                start_next(
                    self.scenario,
                    self.config,
                    self.exec_seed,
                    now,
                    m,
                    events,
                    fold,
                    observers,
                );
            }
            Event::DeadlineKill(mid, epoch) => {
                let m = &mut machines[mid.index()];
                if m.epoch != epoch {
                    return; // stale: the execution already ended
                }
                let r = m.running.take().expect("epoch-matched kill");
                debug_assert_eq!(r.task.deadline, now);
                debug_assert!(r.finish >= now, "kill scheduled after completion");
                m.epoch += 1; // invalidate the outstanding completion event
                emit(fold, observers, SimEvent::Killed { task: r.task.id, machine: mid, now });
                start_next(
                    self.scenario,
                    self.config,
                    self.exec_seed,
                    now,
                    m,
                    events,
                    fold,
                    observers,
                );
            }
            Event::MachineFailure(mid) => {
                let m = &mut machines[mid.index()];
                m.down = true;
                m.clear_memo();
                let lost = m.running.take().map(|r| {
                    m.epoch += 1; // invalidate completion/kill events
                    r.task.id
                });
                emit(fold, observers, SimEvent::MachineFailed { machine: mid, now, lost });
            }
            Event::MachineRepair(mid) => {
                let m = &mut machines[mid.index()];
                m.down = false;
                m.clear_memo();
                emit(fold, observers, SimEvent::MachineRepaired { machine: mid, now });
                start_next(
                    self.scenario,
                    self.config,
                    self.exec_seed,
                    now,
                    m,
                    events,
                    fold,
                    observers,
                );
            }
        }
    }

    /// One mapping event: reactive drops, the dropping policy, the mapping
    /// heuristic, then starting idle machines (paper Figure 4 + Mapper).
    fn mapping_event(&mut self) {
        let now = self.now;
        let SimCore {
            scenario,
            mapper,
            dropper,
            config,
            exec_seed,
            approx_pet,
            machines,
            batch,
            events,
            fold,
            observers,
            ctx,
            memo_stats,
            ..
        } = self;
        let config = *config;
        let exec_seed = *exec_seed;
        let scenario: &Scenario = scenario;
        let approx_pet = approx_pet.as_ref();
        let pet = &scenario.pet;

        // (1) Reactive drops: machine queues and batch queue.
        for m in machines.iter_mut() {
            let before = m.pending.len();
            m.pending.retain(|qt| {
                let keep = !qt.task.expired(now);
                if !keep {
                    emit(
                        fold,
                        observers,
                        SimEvent::Dropped { task: qt.task.id, now, kind: DropKind::Reactive },
                    );
                }
                keep
            });
            if m.pending.len() != before {
                m.clear_memo();
            }
        }
        batch.retain(|task| {
            let keep = !task.expired(now);
            if !keep {
                emit(
                    fold,
                    observers,
                    SimEvent::Dropped { task: task.id, now, kind: DropKind::Reactive },
                );
            }
            keep
        });

        // (2) Proactive dropping policy, queue by queue. A queue the policy
        // last kept whole is not judged again while it is unchanged (its
        // memo is not cleared) and so are its base and the drop context the
        // policy reads: the answer is a function of exactly those
        // (DESIGN.md §13, keep-all verdict).
        let capacity = scenario.capacity(config.queue_size);
        let drop_ctx =
            DropContext { pressure: batch.len() as f64 / capacity as f64, approx: config.approx };
        let verdict_ctx = if dropper.reads_pressure() {
            drop_ctx
        } else {
            DropContext { pressure: 0.0, ..drop_ctx }
        };
        for m in machines.iter_mut() {
            if m.pending.is_empty() {
                continue;
            }
            let base = queue_base(pet, approx_pet, now, m, config);
            if m.kept_whole.as_ref().is_some_and(|(b, c)| *c == verdict_ctx && *b == base) {
                memo_stats.verdict_hits += 1;
                debug_assert!(
                    dropper
                        .select_drops_fresh(
                            &queue_view(pet, approx_pet, m, base, config),
                            &drop_ctx
                        )
                        .is_empty(),
                    "memoised keep-all verdict is stale for {}",
                    m.machine.id
                );
                continue;
            }
            memo_stats.verdict_misses += 1;
            let view = queue_view(pet, approx_pet, m, base, config);
            let decision = dropper.select_drops(&view, &drop_ctx, ctx);
            if decision.is_empty() {
                // The queue stays as the policy saw it, so the last link of
                // a keep-all chain it read is the queue's tail from the same
                // base: the mapping phase's `queue_tail` then hits.
                let (base, chain) = view.into_parts();
                if let Some(last) = chain.and_then(|mut links| links.pop()) {
                    debug_assert_eq!(
                        last.completion,
                        ChainEvaluator::new().tail(
                            &base,
                            &chain_tasks(pet, approx_pet, m),
                            config.compaction
                        ),
                        "the keep-all chain's last link is not {}'s tail",
                        m.machine.id
                    );
                    m.tail = Some((base.clone(), last.completion));
                }
                m.kept_whole = Some((base, verdict_ctx));
                continue;
            }
            // Drops and degrades both change what a tail chain sees.
            m.clear_memo();
            let mut last: Option<usize> = None;
            for &idx in &decision.drops {
                assert!(idx < m.pending.len(), "dropper returned out-of-range index");
                assert!(last.is_none_or(|p| p < idx), "dropper indices must increase");
                last = Some(idx);
            }
            // Degrades: validated, disjoint from drops, not already degraded.
            let mut last_deg: Option<usize> = None;
            for &idx in &decision.degrades {
                assert!(idx < m.pending.len(), "degrade index out of range");
                assert!(last_deg.is_none_or(|p| p < idx), "degrade indices must increase");
                assert!(!decision.drops.contains(&idx), "cannot drop and degrade one task");
                assert!(
                    config.approx.is_some(),
                    "policy degraded a task but approximate computing is disabled"
                );
                assert!(!m.pending[idx].degraded, "task degraded twice");
                m.pending[idx].degraded = true;
                emit(
                    fold,
                    observers,
                    SimEvent::Degraded { task: m.pending[idx].task.id, machine: m.machine.id, now },
                );
                last_deg = Some(idx);
            }
            for &idx in decision.drops.iter().rev() {
                let qt = m.pending.remove(idx).expect("validated index");
                emit(
                    fold,
                    observers,
                    SimEvent::Dropped { task: qt.task.id, now, kind: DropKind::Proactive },
                );
            }
        }

        // (3) Mapping heuristic fills free slots from the batch queue.
        if !batch.is_empty() {
            let machine_views: Vec<MachineView> = machines
                .iter_mut()
                .map(|m| {
                    // A down machine exposes no free slots: the mapper must
                    // not feed a queue that cannot drain.
                    let free_slots = if m.down {
                        0
                    } else {
                        config.queue_size - m.occupancy().min(config.queue_size)
                    };
                    // Tails are only consulted for machines the mapper can
                    // fill; skipping full queues avoids most of the chain
                    // work in heavy oversubscription. Unchanged queues are
                    // served straight from their memos.
                    let tail = if free_slots == 0 {
                        Pmf::point(now)
                    } else {
                        queue_tail(pet, approx_pet, now, m, config, &mut ctx.eval, memo_stats)
                            .into_owned()
                    };
                    MachineView {
                        machine: m.machine.id,
                        machine_type: m.machine.type_id,
                        free_slots,
                        tail,
                    }
                })
                .collect();
            let input = MappingInput {
                now,
                pet,
                machines: machine_views,
                unmapped: batch,
                compaction: config.compaction,
            };
            let assignments = mapper.map(input, ctx);

            let mut taken = vec![false; batch.len()];
            for a in &assignments {
                assert!(a.task_idx < batch.len(), "mapper returned out-of-range task index");
                assert!(!taken[a.task_idx], "mapper assigned a task twice");
                taken[a.task_idx] = true;
                let m = &mut machines[a.machine.index()];
                assert!(
                    m.occupancy() < config.queue_size,
                    "mapper overfilled queue of {}",
                    a.machine
                );
                m.pending.push_back(QueuedCheckpoint { task: batch[a.task_idx], degraded: false });
                m.clear_memo();
                emit(
                    fold,
                    observers,
                    SimEvent::Mapped { task: batch[a.task_idx].id, machine: a.machine, now },
                );
            }
            let mut keep_iter = taken.iter();
            batch.retain(|_| !keep_iter.next().expect("mask sized to batch"));
        }

        // (4) Idle machines start their newly queued work immediately.
        for m in machines.iter_mut() {
            if m.running.is_none() && !m.pending.is_empty() {
                start_next(scenario, config, exec_seed, now, m, events, fold, observers);
            }
        }
    }
}

/// Structural validation of a [`Checkpoint`] against the scenario it is
/// being restored onto — the "fail loudly instead of corrupting a trial"
/// half of the checkpoint contract. Checks, in order:
///
/// * format version and config validity;
/// * scenario identity (name + seed) and machine count;
/// * dense task ids, in-range task types, fate-table sizing;
/// * every queued/batched/running task is recorded in the task table
///   *verbatim* (fate accounting and stale-event handling index by id);
/// * machine-queue occupancy within the configured capacity;
/// * no degraded running or queued entry unless approximate computing is
///   configured (the engine degrades only then);
/// * per machine, busy ticks at most its running task's start (the clock
///   when idle) and an epoch at most twice the task count: a machine's
///   executions never overlap, and each start and each end bumps its
///   epoch once, so a larger value is forged and would overflow a later
///   step;
/// * event-heap consistency: sequence counter covers every entry, event
///   payloads reference real tasks/machines, and no event is scheduled
///   before the checkpoint clock (the engine never leaves one behind, and
///   replaying it would rewind time);
/// * placement: each unresolved task sits in exactly one of batch /
///   pending / running / an unprocessed `Arrival` event; resolved tasks
///   sit in none (a double-placed task would be resolved twice, a
///   dangling one would strand the drain loop);
/// * in-flight executions line up with the heap: a running task has
///   exactly one current-epoch `Completion` at its recorded finish (and
///   at most one `DeadlineKill`, at its deadline) and started at or
///   before the clock; no `Completion`/`DeadlineKill` carries an epoch
///   the machine has not reached yet.
///
/// # Errors
///
/// [`SimError::CheckpointVersion`], [`SimError::CheckpointMismatch`]
/// (whose `field` names the failed invariant),
/// [`SimError::MisnumberedWorkload`], [`SimError::UnknownTaskType`], or a
/// config validation error.
#[allow(clippy::too_many_lines)] // a flat checklist; splitting would obscure it
fn validate_checkpoint(scenario: &Scenario, checkpoint: &Checkpoint) -> Result<(), SimError> {
    let mismatch = |field: &'static str, expected: String, found: String| {
        Err(SimError::CheckpointMismatch { field, expected, found })
    };
    if checkpoint.version != CHECKPOINT_VERSION {
        return Err(SimError::CheckpointVersion {
            found: checkpoint.version,
            supported: CHECKPOINT_VERSION,
        });
    }
    checkpoint.config.validate()?;
    if checkpoint.scenario_name != scenario.name || checkpoint.scenario_seed != scenario.seed {
        return mismatch(
            "scenario",
            format!("{} (seed {})", scenario.name, scenario.seed),
            format!("{} (seed {})", checkpoint.scenario_name, checkpoint.scenario_seed),
        );
    }
    if checkpoint.machines.len() != scenario.machine_count() {
        return mismatch(
            "machines",
            scenario.machine_count().to_string(),
            checkpoint.machines.len().to_string(),
        );
    }
    if checkpoint.fates.len() != checkpoint.tasks.len() {
        return mismatch(
            "fates",
            format!("{} entries", checkpoint.tasks.len()),
            format!("{} entries", checkpoint.fates.len()),
        );
    }
    for (index, task) in checkpoint.tasks.iter().enumerate() {
        if task.id.index() != index {
            return Err(SimError::MisnumberedWorkload { index, id: task.id.0 });
        }
        known_type(scenario, task.type_id)?;
    }
    let known_task = |task: &Task| {
        checkpoint.tasks.get(task.id.index()).is_some_and(|recorded| recorded == task)
    };
    let unknown = |field: &'static str, task: &Task| {
        mismatch(
            field,
            "a task recorded in the checkpoint's task table".to_string(),
            format!("{task:?}"),
        )
    };
    for task in &checkpoint.batch {
        if !known_task(task) {
            return unknown("batch", task);
        }
    }
    for (idx, mc) in checkpoint.machines.iter().enumerate() {
        let occupancy = usize::from(mc.running.is_some()) + mc.pending.len();
        if occupancy > checkpoint.config.queue_size {
            return mismatch(
                "queue occupancy",
                format!("<= {} on m{idx}", checkpoint.config.queue_size),
                occupancy.to_string(),
            );
        }
        if let Some(r) = &mc.running {
            if !known_task(&r.task) {
                return unknown("running", &r.task);
            }
            if r.start > checkpoint.now {
                return mismatch(
                    "running",
                    format!("execution started at or before the clock ({})", checkpoint.now),
                    format!("start {}", r.start),
                );
            }
        }
        for qc in &mc.pending {
            if !known_task(&qc.task) {
                return unknown("pending", &qc.task);
            }
        }
        let degraded =
            mc.running.is_some_and(|r| r.degraded) || mc.pending.iter().any(|q| q.degraded);
        if degraded && checkpoint.config.approx.is_none() {
            return mismatch(
                "degraded",
                "no degraded entry while config.approx is unset".to_string(),
                format!("a degraded entry on m{idx}"),
            );
        }
        let busy_limit = mc.running.map_or(checkpoint.now, |r| r.start);
        if mc.busy_ticks > busy_limit {
            return mismatch(
                "busy_ticks",
                format!("<= {busy_limit} on m{idx}"),
                mc.busy_ticks.to_string(),
            );
        }
        let epoch_limit = (checkpoint.tasks.len() as u64).saturating_mul(2);
        if mc.epoch > epoch_limit {
            return mismatch(
                "epoch",
                format!("<= {epoch_limit} (twice the task count) on m{idx}"),
                mc.epoch.to_string(),
            );
        }
    }
    if let Some(max_seq) = checkpoint.events.iter().map(|e| e.seq).max() {
        if max_seq > checkpoint.event_seq {
            return mismatch(
                "event_seq",
                format!(">= {max_seq}"),
                checkpoint.event_seq.to_string(),
            );
        }
    }
    // Per-machine tallies of events carrying the machine's *current* epoch;
    // anything stale (older epoch) is legitimately ignored by the engine,
    // anything from a not-yet-reached epoch would fire falsely later.
    let mut completions = vec![0usize; checkpoint.machines.len()];
    let mut kills = vec![0usize; checkpoint.machines.len()];
    for entry in &checkpoint.events {
        if entry.time < checkpoint.now {
            return mismatch(
                "events",
                format!("scheduled at or after the checkpoint clock ({})", checkpoint.now),
                format!("{:?} at {}", entry.event, entry.time),
            );
        }
        let bad_event = || {
            mismatch(
                "events",
                "a payload consistent with the checkpoint state".to_string(),
                format!("{:?}", entry.event),
            )
        };
        match entry.event {
            Event::Arrival(i) => {
                if i >= checkpoint.tasks.len() {
                    return bad_event();
                }
            }
            Event::Completion(m, ep) | Event::DeadlineKill(m, ep) => {
                let Some(mc) = checkpoint.machines.get(m.index()) else {
                    return bad_event();
                };
                if ep > mc.epoch {
                    return bad_event();
                }
                if ep == mc.epoch {
                    let Some(r) = &mc.running else { return bad_event() };
                    let is_completion = matches!(entry.event, Event::Completion(..));
                    let expected_time = if is_completion { r.finish } else { r.task.deadline };
                    if entry.time != expected_time {
                        return bad_event();
                    }
                    if is_completion {
                        completions[m.index()] += 1;
                    } else {
                        kills[m.index()] += 1;
                    }
                }
            }
            Event::MachineFailure(m) | Event::MachineRepair(m) => {
                if m.index() >= scenario.machine_count() {
                    return bad_event();
                }
            }
        }
    }
    for (idx, mc) in checkpoint.machines.iter().enumerate() {
        let expected = usize::from(mc.running.is_some());
        if completions[idx] != expected || kills[idx] > expected {
            return mismatch(
                "running",
                format!(
                    "m{idx} with {expected} current-epoch completion event(s) (and at most that many kills)"
                ),
                format!("{} completion(s), {} kill(s)", completions[idx], kills[idx]),
            );
        }
    }
    // Placement consistency: an unresolved task sits in exactly one place
    // (batch, a pending slot, running, or an unprocessed Arrival event); a
    // resolved one sits in none.
    let mut placements = vec![0u32; checkpoint.tasks.len()];
    for task in &checkpoint.batch {
        placements[task.id.index()] += 1;
    }
    for mc in &checkpoint.machines {
        if let Some(r) = &mc.running {
            placements[r.task.id.index()] += 1;
        }
        for qc in &mc.pending {
            placements[qc.task.id.index()] += 1;
        }
    }
    for entry in &checkpoint.events {
        if let Event::Arrival(i) = entry.event {
            placements[i] += 1; // index validated above
        }
    }
    for (index, &count) in placements.iter().enumerate() {
        let expected = u32::from(checkpoint.fates[index].is_none());
        if count != expected {
            return mismatch(
                "placement",
                format!(
                    "task{index} ({}) in {expected} queue/event slot(s)",
                    if expected == 1 { "unresolved" } else { "resolved" },
                ),
                format!("{count} slot(s)"),
            );
        }
    }
    Ok(())
}

/// Folds one event the engine emits into its accounting, then delivers it
/// through the core's hub (boxed observers or a buffering relay — the
/// engine does not care which). The engine's result is its own stream
/// folded, so it cannot drift from what observers see.
fn emit<H: ObserverHub>(fold: &mut MetricsObserver, observers: &mut H, ev: SimEvent) {
    fold.on_event(&ev);
    observers.deliver(&ev);
}

/// Actual execution time of `task` on `machine`, drawn from the truth
/// model. Deterministic per (exec_seed, task, machine) regardless of
/// event order or policy, so policy comparisons share the same luck.
fn actual_exec(scenario: &Scenario, exec_seed: u64, task: &Task, machine: Machine) -> Tick {
    let stream = task.id.0 * scenario.machine_count() as u64 + machine.id.0 as u64;
    let mut rng = new_rng(derive_seed(exec_seed, stream));
    scenario.truth.sample(task.type_id, machine.type_id, &mut rng)
}

/// Starts the next runnable pending task on an idle machine, reactively
/// dropping heads that can no longer begin before their deadlines.
#[allow(clippy::too_many_arguments)] // split borrows of one SimCore
fn start_next<H: ObserverHub>(
    scenario: &Scenario,
    config: SimConfig,
    exec_seed: u64,
    now: Tick,
    m: &mut MachineSt,
    events: &mut EventQueue,
    fold: &mut MetricsObserver,
    observers: &mut H,
) {
    debug_assert!(m.running.is_none());
    if m.down {
        return; // queue frozen until repair
    }
    while let Some(QueuedCheckpoint { task, degraded }) = m.pending.pop_front() {
        m.clear_memo();
        if task.expired(now) {
            emit(
                fold,
                observers,
                SimEvent::Dropped { task: task.id, now, kind: DropKind::Reactive },
            );
            continue;
        }
        let full_exec = actual_exec(scenario, exec_seed, &task, m.machine);
        let exec = if degraded {
            let factor = config.approx.map_or(1.0, |a| a.time_factor);
            ((full_exec as f64 * factor).round() as Tick).max(1)
        } else {
            full_exec
        };
        let finish = now.saturating_add(exec);
        m.epoch += 1;
        if config.kill_running_at_deadline && finish >= task.deadline {
            // The execution will overshoot (or exactly meet) the
            // deadline; the engine kills it right at the deadline
            // (live-video semantics). Pushed *before* the completion so
            // that on a `finish == deadline` tie the kill wins and the
            // completion goes stale. Scheduling the kill only when it
            // will fire keeps the heap small; the engine's foreknowledge
            // of `finish` is not leaked to any policy.
            events.push(task.deadline, Event::DeadlineKill(m.machine.id, m.epoch));
        }
        events.push(finish, Event::Completion(m.machine.id, m.epoch));
        emit(
            fold,
            observers,
            SimEvent::Started { task: task.id, machine: m.machine.id, now, degraded },
        );
        m.running = Some(RunningCheckpoint { task, start: now, finish, degraded });
        return;
    }
}

/// Completion PMF of whatever runs ahead of `m`'s first pending task: the
/// base of its Eq-1 chain. For a running task, the learned execution PMF
/// (the degraded PET's cell for a degraded runner, as in [`chain_tasks`])
/// shifted to its start tick and conditioned on "not finished by now"; falls
/// back to a point mass one tick ahead when the learned support is already
/// exhausted (the actual draw exceeded everything the PET saw). Under
/// kill-at-deadline semantics the machine frees no later than the running
/// task's deadline, so the estimate is clamped there. A point mass at `now`
/// when nothing runs.
fn queue_base(
    pet: &PetMatrix,
    approx_pet: Option<&PetMatrix>,
    now: Tick,
    m: &MachineSt,
    config: SimConfig,
) -> Pmf {
    let Some(r) = m.running.as_ref() else {
        return Pmf::point(now);
    };
    let source = if r.degraded { approx_pet.unwrap_or(pet) } else { pet };
    let shifted = source.pmf(r.task.type_id, m.machine.type_id).shift(r.start);
    let next = now.saturating_add(1);
    let mut completion = shifted.condition_at_least(next).unwrap_or_else(|| Pmf::point(next));
    if self_kill_applies(config, r, now) {
        completion = completion.clamp_max(r.task.deadline.max(next));
    }
    completion
}

/// `m`'s pending entries as Eq-1 chain inputs, in queue order. Degraded
/// entries chain with the degraded PET.
fn chain_tasks<'p>(
    pet: &'p PetMatrix,
    approx_pet: Option<&'p PetMatrix>,
    m: &MachineSt,
) -> Vec<ChainTask<'p>> {
    m.pending
        .iter()
        .map(|qt| {
            let source = if qt.degraded { approx_pet.unwrap_or(pet) } else { pet };
            ChainTask {
                deadline: qt.task.deadline,
                exec: source.pmf(qt.task.type_id, m.machine.type_id),
            }
        })
        .collect()
}

/// The dropping policy's input for `m`'s queue: its Eq-1 chain from `base`
/// under the run's compaction, plus each pending entry's approximate-variant
/// PMF while it can still be degraded (empty when approximate computing is
/// off).
fn queue_view<'p>(
    pet: &'p PetMatrix,
    approx_pet: Option<&'p PetMatrix>,
    m: &MachineSt,
    base: Pmf,
    config: SimConfig,
) -> QueueView<'p> {
    QueueView::new(
        base,
        chain_tasks(pet, approx_pet, m),
        approx_pet.map_or_else(Vec::new, |apet| {
            m.pending
                .iter()
                .map(|qt| (!qt.degraded).then(|| apet.pmf(qt.task.type_id, m.machine.type_id)))
                .collect()
        }),
        config.compaction,
    )
}

/// The clamp only applies while the kill can still fire (deadline ahead).
fn self_kill_applies(config: SimConfig, r: &RunningCheckpoint, now: Tick) -> bool {
    config.kill_running_at_deadline && r.task.deadline > now
}

/// [`SimError::UnknownTaskType`] unless `scenario` has a task type `type_id`.
fn known_type(scenario: &Scenario, type_id: TaskTypeId) -> Result<(), SimError> {
    let task_types = scenario.task_type_count();
    if type_id.index() < task_types {
        Ok(())
    } else {
        Err(SimError::UnknownTaskType { type_id: type_id.0, task_types })
    }
}

/// Whether the price of `exec` appended behind `tail`, before `deadline`,
/// provably cannot exceed `best`, so [`SimCore::best_chances`] may skip it.
///
/// The price is at most the ceiling summed from `tail_sums` (the tail's
/// [`running_masses`]) scaled by `1 + ROUNDING_MARGIN`, plus
/// `f64::EPSILON` (see [`convolved_mass_before`]). A ceiling that, with
/// that margin and one more `f64::EPSILON`, is at most `best` bounds a
/// price that cannot raise the max. Debug builds recompute each skipped
/// price without the cache and check it.
fn cannot_raise(tail: &Pmf, tail_sums: &[f64], exec: &Pmf, deadline: Tick, best: f64) -> bool {
    let ceiling = convolved_mass_before(tail, tail_sums, exec, deadline);
    let skip = ceiling * (1.0 + ROUNDING_MARGIN) + 2.0 * f64::EPSILON <= best;
    debug_assert!(
        !skip || tail.convolve(exec).mass_before(deadline) <= best,
        "the pricing bound skipped a price that raises the best chance {best}"
    );
    skip
}

/// Completion PMF of the queue tail: where a newly appended task would wait,
/// chained from the same [`queue_base`] and [`chain_tasks`] inputs a
/// dropping policy reads. An empty queue's tail is its base, and counts no
/// lookup. Otherwise the tail comes from `m`'s memo when the memo was
/// chained from the same base: the memo is cleared whenever anything else
/// the chain reads changes, so a hit is bit-identical to re-chaining, which
/// debug builds check. A miss re-chains with `eval` and memoises the tail.
/// Either way one tail counter in `memo_stats` moves.
fn queue_tail<'m>(
    pet: &PetMatrix,
    approx_pet: Option<&PetMatrix>,
    now: Tick,
    m: &'m mut MachineSt,
    config: SimConfig,
    eval: &mut ChainEvaluator,
    memo_stats: &mut CacheStats,
) -> Cow<'m, Pmf> {
    let base = queue_base(pet, approx_pet, now, m, config);
    if m.pending.is_empty() {
        return Cow::Owned(base);
    }
    let tail = match m.tail.take() {
        Some((memo_base, tail)) if memo_base == base => {
            memo_stats.tail_hits += 1;
            debug_assert_eq!(
                tail,
                ChainEvaluator::new().tail(
                    &base,
                    &chain_tasks(pet, approx_pet, m),
                    config.compaction
                ),
                "memoised tail is stale for {}",
                m.machine.id
            );
            tail
        }
        _ => {
            memo_stats.tail_misses += 1;
            eval.tail(&base, &chain_tasks(pet, approx_pet, m), config.compaction)
        }
    };
    let (_, tail) = m.tail.insert((base, tail));
    Cow::Borrowed(tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FailureSpec;
    use taskdrop_core::{ProactiveDropper, ReactiveOnly};
    use taskdrop_model::ApproxSpec;
    use taskdrop_pmf::Compaction;
    use taskdrop_sched::{Fcfs, MinMin, Pam};
    use taskdrop_workload::OversubscriptionLevel;

    fn scenario() -> Scenario {
        Scenario::specint(7)
    }

    fn workload(scenario: &Scenario, tasks: usize, window: Tick) -> Workload {
        let level = OversubscriptionLevel::new("core", tasks, window);
        Workload::generate(scenario, &level, 3.0, 42)
    }

    fn cfg() -> SimConfig {
        SimConfig { exclude_boundary: 0, ..SimConfig::default() }
    }

    /// One closed-world trial, run to completion.
    fn run(
        scenario: &Scenario,
        workload: &Workload,
        mapper: &dyn MappingHeuristic,
        dropper: &dyn DropPolicy,
        config: SimConfig,
        exec_seed: u64,
    ) -> TrialResult {
        SimCore::new(scenario, workload, mapper, dropper, config, exec_seed)
            .and_then(|mut core| core.run_to_completion())
            .unwrap()
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let s = scenario();
        let w = workload(&s, 10, 1_000);
        let bad = SimConfig { queue_size: 0, ..cfg() };
        let err = SimCore::new(&s, &w, &Pam, &ReactiveOnly, bad, 1).err();
        assert_eq!(err, Some(SimError::ZeroQueueSize));
    }

    /// A compaction policy that `Compaction::apply` would panic on is
    /// refused up front, before any chain step runs.
    #[test]
    fn invalid_compaction_is_a_typed_error() {
        let s = scenario();
        let w = workload(&s, 40, 1_000);
        let dropper = ProactiveDropper::paper_default();
        for (compaction, problem) in [
            (Compaction::MaxImpulses(0), "MaxImpulses requires max >= 2"),
            (Compaction::MaxImpulses(1), "MaxImpulses requires max >= 2"),
            (Compaction::BinWidth(0), "BinWidth requires width >= 1"),
        ] {
            let bad = SimConfig { compaction, ..cfg() };
            let err = SimCore::new(&s, &w, &Pam, &dropper, bad, 1).err();
            assert_eq!(err, Some(SimError::InvalidCompaction { problem }), "{compaction:?}");
        }
        for compaction in [Compaction::MaxImpulses(2), Compaction::BinWidth(1)] {
            let fine = SimConfig { compaction, ..cfg() };
            assert_eq!(run(&s, &w, &Pam, &dropper, fine, 1).total_tasks, 40, "{compaction:?}");
        }
    }

    #[test]
    fn misnumbered_workload_rejected() {
        let s = scenario();
        let mut w = workload(&s, 5, 1_000);
        w.tasks[3].id = TaskId(77);
        let err = SimCore::new(&s, &w, &Pam, &ReactiveOnly, cfg(), 1).err();
        assert_eq!(err, Some(SimError::MisnumberedWorkload { index: 3, id: 77 }));
    }

    #[test]
    fn stepping_reaches_drain_and_result() {
        let s = scenario();
        let w = workload(&s, 120, 2_000);
        let dropper = ProactiveDropper::paper_default();
        let mut core = SimCore::new(&s, &w, &Pam, &dropper, cfg(), 1).unwrap();
        assert_eq!(core.result(), Err(SimError::NotDrained { resolved: 0, total: 120 }));
        let mut steps = 0u64;
        while let StepOutcome::Advanced { .. } = core.step() {
            steps += 1;
        }
        let r = core.result().unwrap();
        assert!(r.is_conserved());
        // One mapping event per step (the final step drains).
        assert_eq!(r.mapping_events, steps + 1);
        // Drained cores stay drained.
        assert!(core.step().is_drained());
    }

    #[test]
    fn run_until_respects_the_clock() {
        let s = scenario();
        let w = workload(&s, 200, 4_000);
        let mut core = SimCore::new(&s, &w, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        let outcome = core.run_until(1_000);
        assert!(!outcome.is_drained());
        assert!(core.now() <= 1_000);
        assert!(core.next_event_time().is_some_and(|t| t > 1_000));
        let mid = core.state();
        assert!(mid.resolved_tasks < mid.total_tasks);
        let r = core.run_to_completion().unwrap();
        assert!(r.is_conserved());
    }

    #[test]
    fn state_snapshot_is_consistent_mid_trial() {
        let s = scenario();
        let w = workload(&s, 300, 2_000);
        let mut core = SimCore::new(&s, &w, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        core.run_until(800);
        let st = core.state();
        assert_eq!(st.machines.len(), s.machine_count());
        assert_eq!(st.now, core.now());
        let queued: usize = st.machines.iter().map(|m| m.pending.len()).sum();
        let running: usize = st.machines.iter().filter(|m| m.running.is_some()).count();
        // Everything is somewhere: resolved, queued, running, batched, or
        // still in the future.
        assert!(st.resolved_tasks + queued + running + st.batch.len() <= st.total_tasks);
        for m in &st.machines {
            assert!(m.pending.len() < core.config().queue_size);
        }
        // Inspection and persistence show the same queues.
        assert!(queued > 0, "no queued task to compare");
        let saved = core.snapshot();
        assert_eq!(st.machines.len(), saved.machines.len());
        for (m, cp) in st.machines.iter().zip(&saved.machines) {
            assert_eq!(m.pending, cp.pending, "{}", m.machine.id);
        }
    }

    #[test]
    fn open_core_accepts_injections_and_drains() {
        let s = scenario();
        let mut core = SimCore::open(&s, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        assert!(core.step().is_drained(), "no work yet");
        let mut ids = Vec::new();
        for k in 0..40u64 {
            let id = core.inject(TaskTypeId((k % 12) as u16), 10 * k, 10 * k + 600).unwrap();
            ids.push(id);
        }
        assert_eq!(core.total_tasks(), 40);
        let r = core.run_to_completion().unwrap();
        assert!(r.is_conserved());
        assert_eq!(r.total_tasks, 40);
        for id in ids {
            assert!(core.fate(id).is_some());
        }
    }

    /// Tasks whose arrival and deadline sit at the end of the tick range
    /// are priced, queued, dropped or run, and resolved: completions past
    /// `Tick::MAX` saturate there instead of overflowing.
    #[test]
    fn tasks_at_the_end_of_the_tick_range_resolve() {
        let s = Scenario::specint(5);
        let dropper = ProactiveDropper::paper_default();
        let mut core = SimCore::open(&s, &Pam, &dropper, cfg(), 1).unwrap();
        let ids: Vec<TaskId> = (0..3 * s.machine_count() as u64)
            .map(|k| core.inject(TaskTypeId((k % 12) as u16), u64::MAX - 10, u64::MAX).unwrap())
            .collect();
        core.step();
        let r = core.run_to_completion().unwrap();
        assert!(r.is_conserved());
        assert!(ids.iter().all(|&id| core.fate(id).is_some()));
    }

    #[test]
    fn inject_validates_its_arguments() {
        let s = scenario();
        let mut core = SimCore::open(&s, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        assert_eq!(
            core.inject(TaskTypeId(99), 0, 10).err(),
            Some(SimError::UnknownTaskType { type_id: 99, task_types: 12 })
        );
        assert_eq!(
            core.inject(TaskTypeId(0), 5, 5).err(),
            Some(SimError::InvalidDeadline { arrival: 5, deadline: 5 })
        );
        core.inject(TaskTypeId(0), 100, 700).unwrap();
        core.run_until(100);
        let now = core.now();
        assert!(now >= 100);
        assert_eq!(
            core.inject(TaskTypeId(0), now.saturating_sub(1), now + 500).err(),
            Some(SimError::InjectedInPast { now, arrival: now - 1 })
        );
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let s = scenario();
        let w = workload(&s, 150, 1_800);
        let dropper = ProactiveDropper::paper_default();
        let mut reference = SimCore::new(&s, &w, &Pam, &dropper, cfg(), 9).unwrap();
        let expected = reference.run_to_completion().unwrap();

        let mut interrupted = SimCore::new(&s, &w, &Pam, &dropper, cfg(), 9).unwrap();
        for _ in 0..40 {
            interrupted.step();
        }
        let cp = interrupted.snapshot();
        // Snapshotting is side-effect free: the interrupted core finishes
        // identically, and so does a core restored from the checkpoint.
        assert_eq!(interrupted.run_to_completion().unwrap(), expected);
        let mut restored = SimCore::restore(&s, &Pam, &dropper, &cp).unwrap();
        assert_eq!(restored.now(), cp.now);
        assert_eq!(restored.run_to_completion().unwrap(), expected);
    }

    #[test]
    fn restore_validates_version_and_context() {
        let s = scenario();
        let w = workload(&s, 20, 600);
        let core = SimCore::new(&s, &w, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        let cp = core.snapshot();

        // Versions other than the current one are rejected outright; there
        // is no migration, not even from version 1.
        for found in [1, 99] {
            let mut wrong_version = cp.clone();
            wrong_version.version = found;
            assert_eq!(
                SimCore::restore(&s, &Pam, &ReactiveOnly, &wrong_version).err(),
                Some(SimError::CheckpointVersion { found, supported: CHECKPOINT_VERSION })
            );
        }

        let other = Scenario::specint(s.seed + 1);
        assert!(matches!(
            SimCore::restore(&other, &Pam, &ReactiveOnly, &cp).err(),
            Some(SimError::CheckpointMismatch { field: "scenario", .. })
        ));

        let mut missized = cp.clone();
        missized.fates.push(None);
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &missized).err(),
            Some(SimError::CheckpointMismatch { field: "fates", .. })
        ));

        let mut bad_seq = cp.clone();
        bad_seq.event_seq = 0;
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_seq).err(),
            Some(SimError::CheckpointMismatch { field: "event_seq", .. })
        ));

        // Queue/batch/event entries must reference recorded tasks and real
        // machines — a corrupted checkpoint fails restore, not step().
        let alien = Task::new(TaskId(77), TaskTypeId(0), 1, 100);
        let mut bad_batch = cp.clone();
        bad_batch.batch.push(alien);
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_batch).err(),
            Some(SimError::CheckpointMismatch { field: "batch", .. })
        ));

        let mut bad_pending = cp.clone();
        bad_pending.machines[0]
            .pending
            .push(crate::checkpoint::QueuedCheckpoint { task: alien, degraded: false });
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_pending).err(),
            Some(SimError::CheckpointMismatch { field: "pending", .. })
        ));

        // A recorded task whose fields drifted from the task table is just
        // as alien as an out-of-range id.
        let mut drifted = cp.clone();
        let mut twisted = drifted.tasks[3];
        twisted.deadline += 1;
        drifted.batch.push(twisted);
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &drifted).err(),
            Some(SimError::CheckpointMismatch { field: "batch", .. })
        ));

        let mut bad_event = cp.clone();
        bad_event.events.push(crate::checkpoint::EventEntry {
            time: 1,
            seq: bad_event.event_seq,
            event: Event::Arrival(999),
        });
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_event).err(),
            Some(SimError::CheckpointMismatch { field: "events", .. })
        ));

        let mut bad_machine_event = cp.clone();
        bad_machine_event.events.push(crate::checkpoint::EventEntry {
            time: 1,
            seq: bad_machine_event.event_seq,
            event: Event::MachineRepair(taskdrop_model::MachineId(200)),
        });
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &bad_machine_event).err(),
            Some(SimError::CheckpointMismatch { field: "events", .. })
        ));

        // A recorded task placed twice (here: batch + its own pending
        // arrival event) would be resolved twice; restore refuses it.
        let mut double_placed = cp.clone();
        let first = double_placed.tasks[0];
        double_placed.batch.push(first);
        assert!(matches!(
            SimCore::restore(&s, &Pam, &ReactiveOnly, &double_placed).err(),
            Some(SimError::CheckpointMismatch { field: "placement", .. })
        ));
    }

    #[test]
    fn notify_observers_forwards_but_rejects_terminal_events() {
        let s = scenario();
        let seen = std::cell::Cell::new(0usize);
        let mut core = SimCore::open(&s, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        core.attach(|_: &SimEvent| seen.set(seen.get() + 1));
        core.notify_observers(&SimEvent::AdmissionDropped {
            type_id: TaskTypeId(0),
            arrival: 5,
            deadline: 50,
            now: 5,
            kind: crate::observer::AdmissionDropKind::RejectedFull,
        });
        assert_eq!(seen.get(), 1);
        let terminal = SimEvent::Dropped { task: TaskId(0), now: 5, kind: DropKind::Reactive };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.notify_observers(&terminal)
        }));
        assert!(panicked.is_err(), "terminal events must be refused");
    }

    #[test]
    fn injection_after_drain_revives_the_core() {
        let s = scenario();
        let mut core = SimCore::open(&s, &Pam, &ReactiveOnly, cfg(), 1).unwrap();
        core.inject(TaskTypeId(0), 0, 500).unwrap();
        let _ = core.run_to_completion().unwrap();
        assert!(core.is_drained());
        let now = core.now();
        core.inject(TaskTypeId(1), now + 50, now + 900).unwrap();
        assert!(!core.is_drained());
        let r = core.run_to_completion().unwrap();
        assert_eq!(r.total_tasks, 2);
        assert!(r.is_conserved());
    }

    #[test]
    fn conservation_every_task_has_one_fate() {
        let s = scenario();
        let w = workload(&s, 400, 4_000);
        let r = run(&s, &w, &MinMin, &ProactiveDropper::paper_default(), cfg(), 1);
        assert_eq!(r.counted_tasks, 400);
        assert!(r.is_conserved(), "{r:?}");
    }

    #[test]
    fn underloaded_system_completes_everything() {
        let s = scenario();
        // 50 tasks over 100 s: ~0.5 tasks/s against ~64/s capacity.
        let w = workload(&s, 50, 100_000);
        let r = run(&s, &w, &MinMin, &ReactiveOnly, cfg(), 1);
        assert!(
            r.robustness_pct() > 95.0,
            "underloaded robustness {:.1}% (fates: late {}, reactive {})",
            r.robustness_pct(),
            r.late,
            r.dropped_reactive
        );
        assert_eq!(r.dropped_proactive, 0);
    }

    #[test]
    fn oversubscription_degrades_robustness() {
        let s = scenario();
        let light = workload(&s, 300, 30_000);
        let heavy = workload(&s, 1200, 10_000);
        let robustness = |w: &Workload| run(&s, w, &Pam, &ReactiveOnly, cfg(), 1).robustness_pct();
        assert!(robustness(&light) > robustness(&heavy) + 5.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let s = scenario();
        let w = workload(&s, 300, 3_000);
        let dropper = ProactiveDropper::paper_default();
        assert_eq!(run(&s, &w, &Pam, &dropper, cfg(), 9), run(&s, &w, &Pam, &dropper, cfg(), 9));
    }

    #[test]
    fn exec_seed_changes_outcomes() {
        let s = scenario();
        let w = workload(&s, 500, 5_000);
        assert_ne!(
            run(&s, &w, &Pam, &ReactiveOnly, cfg(), 1),
            run(&s, &w, &Pam, &ReactiveOnly, cfg(), 2)
        );
    }

    #[test]
    fn boundary_exclusion_shrinks_counted_window() {
        let s = scenario();
        let w = workload(&s, 400, 4_000);
        let config = SimConfig { exclude_boundary: 100, ..SimConfig::default() };
        let r = run(&s, &w, &MinMin, &ReactiveOnly, config, 1);
        assert_eq!(r.total_tasks, 400);
        assert_eq!(r.counted_tasks, 200);
        assert!(r.is_conserved());
    }

    #[test]
    fn queue_size_one_still_works() {
        let s = scenario();
        let w = workload(&s, 200, 4_000);
        let config = SimConfig { queue_size: 1, ..cfg() };
        assert!(run(&s, &w, &Fcfs, &ReactiveOnly, config, 1).is_conserved());
    }

    /// A queue size is a bound, not a request for memory: a core built with
    /// `usize::MAX`, and one restored from a checkpoint whose queue size
    /// times the machine count overflows, both drain and conserve.
    #[test]
    fn huge_queue_sizes_drain() {
        let s = scenario();
        let w = workload(&s, 150, 1_500);
        let dropper = ProactiveDropper::paper_default();
        let unbounded = SimConfig { queue_size: usize::MAX, ..cfg() };
        assert!(run(&s, &w, &Pam, &dropper, unbounded, 1).is_conserved());
        let mut core = SimCore::new(&s, &w, &Pam, &dropper, cfg(), 1).unwrap();
        for _ in 0..30 {
            core.step();
        }
        let mut cp = core.snapshot();
        cp.config.queue_size = usize::MAX / 2;
        let mut restored = SimCore::restore(&s, &Pam, &dropper, &cp).unwrap();
        assert!(restored.run_to_completion().unwrap().is_conserved());
    }

    #[test]
    fn proactive_dropper_records_proactive_fates() {
        let s = scenario();
        // Heavy oversubscription so dropping definitely engages.
        let w = workload(&s, 1000, 8_000);
        let r = run(&s, &w, &Pam, &ProactiveDropper::paper_default(), cfg(), 1);
        assert!(r.dropped_proactive > 0, "expected proactive drops: {r:?}");
    }

    #[test]
    fn failure_injection_loses_tasks_and_conserves() {
        let s = scenario();
        let w = workload(&s, 400, 8_000);
        let config = SimConfig { failures: Some(FailureSpec { mtbf: 2_000, mttr: 500 }), ..cfg() };
        let r = run(&s, &w, &Pam, &ReactiveOnly, config, 1);
        assert!(r.is_conserved(), "{r:?}");
        assert!(r.lost_to_failure > 0, "flaky machines must lose some work: {r:?}");
    }

    #[test]
    fn failures_reduce_robustness() {
        let s = scenario();
        let w = workload(&s, 400, 8_000);
        let flaky = SimConfig { failures: Some(FailureSpec { mtbf: 1_500, mttr: 800 }), ..cfg() };
        let a = run(&s, &w, &Pam, &ReactiveOnly, cfg(), 1);
        let b = run(&s, &w, &Pam, &ReactiveOnly, flaky, 1);
        assert!(
            a.robustness_pct() > b.robustness_pct(),
            "healthy {:.1}% vs flaky {:.1}%",
            a.robustness_pct(),
            b.robustness_pct()
        );
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let s = scenario();
        let w = workload(&s, 300, 4_000);
        let config = SimConfig { failures: Some(FailureSpec { mtbf: 3_000, mttr: 400 }), ..cfg() };
        assert_eq!(
            run(&s, &w, &Pam, &ReactiveOnly, config, 9),
            run(&s, &w, &Pam, &ReactiveOnly, config, 9)
        );
    }

    #[test]
    fn near_infinite_mtbf_behaves_like_no_failures() {
        let s = scenario();
        let w = workload(&s, 300, 4_000);
        let rare =
            SimConfig { failures: Some(FailureSpec { mtbf: u64::MAX / 4, mttr: 100 }), ..cfg() };
        let a = run(&s, &w, &Pam, &ReactiveOnly, cfg(), 1);
        let b = run(&s, &w, &Pam, &ReactiveOnly, rare, 1);
        assert_eq!(a.on_time, b.on_time);
        assert_eq!(b.lost_to_failure, 0);
    }

    #[test]
    fn busy_time_and_cost_accrue() {
        let s = scenario();
        let w = workload(&s, 200, 10_000);
        let r = run(&s, &w, &MinMin, &ReactiveOnly, cfg(), 1);
        assert!(r.busy_ticks.iter().sum::<u64>() > 0);
        assert!(r.cost_dollars > 0.0);
        assert!(r.makespan > 0);
    }

    #[test]
    fn approx_mode_yields_partial_completions() {
        let s = scenario();
        let w = workload(&s, 800, 4_000);
        let config = SimConfig { approx: Some(ApproxSpec::new(0.4, 0.6)), ..cfg() };
        let r = run(&s, &w, &Pam, &ProactiveDropper::paper_default(), config, 1);
        assert!(r.is_conserved(), "{r:?}");
        assert!(r.on_time_approx > 0, "degradation never engaged: {r:?}");
        assert!(r.utility_pct() > r.robustness_pct());
        assert!((r.approx_value - 0.6).abs() < 1e-12);
    }

    #[test]
    fn approx_mode_improves_utility_over_plain_dropping() {
        let s = scenario();
        let w = workload(&s, 800, 4_000);
        let approx_cfg = SimConfig { approx: Some(ApproxSpec::half_time()), ..cfg() };
        let plain = run(&s, &w, &Pam, &ProactiveDropper::paper_default(), cfg(), 1);
        let approx = run(&s, &w, &Pam, &ProactiveDropper::paper_default(), approx_cfg, 1);
        assert!(
            approx.utility_pct() + 2.0 > plain.utility_pct(),
            "approx utility {:.1} should not trail plain dropping {:.1}",
            approx.utility_pct(),
            plain.utility_pct()
        );
    }
}
