//! Per-trial metrics: task fates, robustness, drop breakdown, cost, and
//! the one fold that tallies them from the event stream.

use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::observer::{SimEvent, SimObserver};
use serde::{Deserialize, Serialize};
use taskdrop_model::{MachineId, TaskId};
use taskdrop_pmf::Tick;
use taskdrop_workload::Scenario;

/// What ultimately happened to a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskFate {
    /// Completed strictly before its deadline.
    OnTime,
    /// Completed strictly before its deadline in *approximate* (degraded)
    /// mode, yielding partial value (the future-work extension).
    OnTimeApprox,
    /// Ran to completion but finished at or after its deadline.
    Late,
    /// Reactively dropped: its deadline passed while it waited (batch queue,
    /// machine queue, or at the moment it would have started), or it was
    /// killed at its deadline while running.
    DroppedReactive,
    /// Proactively dropped by the dropping policy.
    DroppedProactive,
    /// Lost when its machine failed mid-execution (failure injection).
    LostToFailure,
    /// Forfeited by a dependency-aware graph layer before it was ever
    /// injected: a predecessor was dropped/killed/lost, its subtree was
    /// pruned, or chain-aware admission shed it at release time. The
    /// engine itself never assigns this fate — it exists so graph-level
    /// fate tables (`taskdrop_dag`) and stream-reconstructed accounting
    /// share one vocabulary with the per-task fates.
    Forfeited,
}

/// Metrics of one simulation trial.
///
/// The *counted window* excludes the first and last `exclude_boundary` tasks
/// (by arrival order), per the paper's Section V-A; whole-trial totals are
/// kept as well for conservation checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// Total tasks in the workload.
    pub total_tasks: usize,
    /// Tasks inside the counted window.
    pub counted_tasks: usize,
    /// Counted tasks completing strictly before their deadlines at full
    /// fidelity.
    pub on_time: usize,
    /// Counted tasks completing on time in approximate (degraded) mode.
    #[serde(default)]
    pub on_time_approx: usize,
    /// Relative value of an approximate completion (from the config; 0 when
    /// approximate computing is disabled).
    #[serde(default)]
    pub approx_value: f64,
    /// Counted tasks that ran but finished late.
    pub late: usize,
    /// Counted tasks dropped reactively.
    pub dropped_reactive: usize,
    /// Counted tasks dropped proactively.
    pub dropped_proactive: usize,
    /// Counted tasks lost to machine failures (0 unless failure injection
    /// is enabled).
    #[serde(default)]
    pub lost_to_failure: usize,
    /// Counted graph nodes forfeited before injection by a
    /// dependency-aware layer (0 for independent-task trials; see
    /// [`TaskFate::Forfeited`]).
    #[serde(default)]
    pub forfeited: usize,
    /// Whole-trial busy time per machine, in ticks.
    pub busy_ticks: Vec<u64>,
    /// Whole-trial dollar cost of busy time (AWS-style hourly prices).
    pub cost_dollars: f64,
    /// Tick at which the system drained back to idle.
    pub makespan: Tick,
    /// Number of mapping events processed.
    pub mapping_events: u64,
}

impl TrialResult {
    /// Robustness: percentage of counted tasks completed on time at full
    /// fidelity (the paper's headline metric; approximate completions do
    /// not count here).
    #[must_use]
    pub fn robustness_pct(&self) -> f64 {
        if self.counted_tasks == 0 {
            return 0.0;
        }
        100.0 * self.on_time as f64 / self.counted_tasks as f64
    }

    /// Utility: robustness credit including approximate completions at
    /// their partial value — `(full + value · approx) / counted × 100`.
    /// Equals [`TrialResult::robustness_pct`] when approximate computing is
    /// disabled.
    #[must_use]
    pub fn utility_pct(&self) -> f64 {
        if self.counted_tasks == 0 {
            return 0.0;
        }
        100.0 * (self.on_time as f64 + self.approx_value * self.on_time_approx as f64)
            / self.counted_tasks as f64
    }

    /// Fraction of all drops that were reactive (the paper reports ≈7 %
    /// under the proactive heuristic).
    #[must_use]
    pub fn reactive_drop_fraction(&self) -> Option<f64> {
        let total = self.dropped_reactive + self.dropped_proactive;
        (total > 0).then(|| self.dropped_reactive as f64 / total as f64)
    }

    /// Incurred cost divided by robustness percentage — the normalised cost
    /// metric of the paper's Figure 9.
    #[must_use]
    pub fn cost_per_robustness(&self) -> f64 {
        let r = self.robustness_pct();
        if r == 0.0 {
            f64::INFINITY
        } else {
            self.cost_dollars / r
        }
    }

    /// Conservation check: every counted task has exactly one fate.
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.on_time
            + self.on_time_approx
            + self.late
            + self.dropped_reactive
            + self.dropped_proactive
            + self.lost_to_failure
            + self.forfeited
            == self.counted_tasks
    }
}

/// The one accounting fold: the only code that turns a trial's fates, busy
/// time and mapping rounds into its [`TrialResult`].
///
/// [`SimCore`](crate::SimCore) owns one and folds every event it emits
/// itself before the event reaches its observer hub, so
/// [`SimCore::result`](crate::SimCore::result) is this fold's result.
/// Attached as an observer it also sees the events a serving or graph
/// layer forwards through
/// [`SimCore::notify_observers`](crate::SimCore::notify_observers), which
/// reach observers only: a graph layer's forfeits count here, never in the
/// engine's result.
///
/// Attach it **before the first step**: the fold can only cover events it
/// actually saw, so one attached mid-trial reports only the remainder
/// (tasks resolved earlier are missing from its totals, and executions
/// already in flight contribute no busy time).
#[derive(Debug)]
pub struct MetricsObserver {
    exclude_boundary: usize,
    approx_value: f64,
    /// Hourly price per machine index (from the scenario's machine types).
    prices: Vec<f64>,
    /// Fate of each task by id; `None` while it is in flight.
    fates: Vec<Option<TaskFate>>,
    /// How many entries of `fates` are decided.
    resolved: usize,
    busy_ticks: Vec<u64>,
    /// Start tick of each machine's current execution.
    running_since: Vec<Option<Tick>>,
    makespan: Tick,
    mapping_events: u64,
    /// Graph nodes forfeited before injection ([`SimEvent::CascadeForfeited`]).
    forfeited: usize,
}

impl MetricsObserver {
    /// A fold of the accounting the engine does under `config` on
    /// `scenario`.
    #[must_use]
    pub fn new(scenario: &Scenario, config: &SimConfig) -> Self {
        MetricsObserver {
            exclude_boundary: config.exclude_boundary,
            approx_value: config.approx.map_or(0.0, |a| a.value),
            prices: scenario.machines.iter().map(|m| scenario.price_per_hour(m.id)).collect(),
            fates: Vec::new(),
            resolved: 0,
            busy_ticks: vec![0; scenario.machine_count()],
            running_since: vec![None; scenario.machine_count()],
            makespan: 0,
            mapping_events: 0,
            forfeited: 0,
        }
    }

    /// The fold of a core restored from `checkpoint`: its fates, each
    /// machine's busy ticks and running start, its mapping-event count,
    /// and its clock as the makespan (every step ends with a mapping round
    /// at the clock).
    pub(crate) fn restore(scenario: &Scenario, checkpoint: &Checkpoint) -> Self {
        MetricsObserver {
            fates: checkpoint.fates.clone(),
            resolved: checkpoint.fates.iter().flatten().count(),
            busy_ticks: checkpoint.machines.iter().map(|m| m.busy_ticks).collect(),
            running_since: checkpoint.machines.iter().map(|m| m.running.map(|r| r.start)).collect(),
            makespan: checkpoint.now,
            mapping_events: checkpoint.mapping_events,
            ..MetricsObserver::new(scenario, &checkpoint.config)
        }
    }

    /// Graph nodes seen forfeited so far (the
    /// [`SimEvent::CascadeForfeited`] tally; 0 for independent-task
    /// trials).
    #[must_use]
    pub fn forfeited(&self) -> usize {
        self.forfeited
    }

    /// Sizes the fate table to hold `task`, so the totals count it while
    /// it is in flight.
    pub(crate) fn admit(&mut self, task: TaskId) {
        self.slot(task);
    }

    /// Tasks with a fate slot: every task admitted or seen arriving.
    pub(crate) fn total_tasks(&self) -> usize {
        self.fates.len()
    }

    /// Tasks whose fate is decided.
    pub(crate) fn resolved_tasks(&self) -> usize {
        self.resolved
    }

    /// Whether every task with a fate slot has a fate.
    pub(crate) fn is_drained(&self) -> bool {
        self.resolved == self.fates.len()
    }

    /// The fate of `task`, or `None` while it is in flight (or unknown).
    pub(crate) fn fate(&self, task: TaskId) -> Option<TaskFate> {
        self.fates.get(task.index()).copied().flatten()
    }

    /// Every fate, indexed by task id.
    pub(crate) fn fates(&self) -> &[Option<TaskFate>] {
        &self.fates
    }

    /// Busy ticks accrued per machine, by machine index.
    pub(crate) fn busy_ticks(&self) -> &[u64] {
        &self.busy_ticks
    }

    /// Mapping rounds folded so far.
    pub(crate) fn mapping_events(&self) -> u64 {
        self.mapping_events
    }

    fn slot(&mut self, task: TaskId) -> &mut Option<TaskFate> {
        let idx = task.index();
        if self.fates.len() <= idx {
            self.fates.resize(idx + 1, None);
        }
        &mut self.fates[idx]
    }

    fn accrue_busy(&mut self, machine: MachineId, now: Tick) {
        // A missing start means the observer was attached while this
        // execution was already running; its ticks cannot be attributed.
        if let Some(start) = self.running_since[machine.index()].take() {
            self.busy_ticks[machine.index()] += now - start;
        }
    }

    /// The folded [`TrialResult`]: the counted window (the first and last
    /// `exclude_boundary` tasks by id left out), the fate tally, and busy
    /// ticks priced into dollars.
    ///
    /// Forfeited graph nodes never received a [`TaskId`], so they ride on
    /// top of the per-task fate table: each observed
    /// [`SimEvent::CascadeForfeited`] adds one task with
    /// [`TaskFate::Forfeited`] to the totals and the counted window (never
    /// boundary-trimmed — forfeiture is a steady-state loss, not a warm-up
    /// artefact), keeping the result conserved and the robustness
    /// denominator honest about every unit of offered graph work.
    ///
    /// # Errors
    ///
    /// [`SimError::NotDrained`] if any task with a fate slot has no
    /// terminal event yet.
    pub fn result(&self) -> Result<TrialResult, SimError> {
        let total = self.fates.len();
        if self.resolved != total {
            return Err(SimError::NotDrained { resolved: self.resolved, total });
        }
        let lo = self.exclude_boundary.min(total);
        let hi = total.saturating_sub(self.exclude_boundary).max(lo);
        let cost_dollars: f64 = self
            .busy_ticks
            .iter()
            .zip(&self.prices)
            .map(|(&busy, &price)| busy as f64 / 3_600_000.0 * price)
            .sum();
        let mut result = TrialResult {
            total_tasks: total + self.forfeited,
            counted_tasks: hi - lo + self.forfeited,
            on_time: 0,
            on_time_approx: 0,
            approx_value: self.approx_value,
            late: 0,
            dropped_reactive: 0,
            dropped_proactive: 0,
            lost_to_failure: 0,
            forfeited: self.forfeited,
            busy_ticks: self.busy_ticks.clone(),
            cost_dollars,
            makespan: self.makespan,
            mapping_events: self.mapping_events,
        };
        // Every fate is decided (the count matched), so `flatten` skips none.
        for fate in self.fates.iter().take(hi).skip(lo).flatten() {
            let tally = match fate {
                TaskFate::OnTime => &mut result.on_time,
                TaskFate::OnTimeApprox => &mut result.on_time_approx,
                TaskFate::Late => &mut result.late,
                TaskFate::DroppedReactive => &mut result.dropped_reactive,
                TaskFate::DroppedProactive => &mut result.dropped_proactive,
                TaskFate::LostToFailure => &mut result.lost_to_failure,
                TaskFate::Forfeited => &mut result.forfeited,
            };
            *tally += 1;
        }
        Ok(result)
    }
}

impl SimObserver for MetricsObserver {
    fn on_event(&mut self, ev: &SimEvent) {
        if let Some((task, fate)) = ev.resolved() {
            let slot = self.slot(task);
            debug_assert!(slot.is_none(), "task {task} resolved twice in the event stream");
            self.resolved += usize::from(slot.replace(fate).is_none());
        }
        match *ev {
            SimEvent::Arrived { task } => self.admit(task.id),
            SimEvent::Started { machine, now, .. } => {
                self.running_since[machine.index()] = Some(now);
            }
            SimEvent::Completed { machine, now, .. }
            | SimEvent::Killed { machine, now, .. }
            | SimEvent::MachineFailed { machine, now, lost: Some(_) } => {
                self.accrue_busy(machine, now);
            }
            SimEvent::MappingRound { now } => {
                self.makespan = now;
                // Saturates: only a forged checkpoint starts near the end.
                self.mapping_events = self.mapping_events.saturating_add(1);
            }
            SimEvent::CascadeForfeited { .. } => {
                self.forfeited += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrialResult {
        TrialResult {
            total_tasks: 1200,
            counted_tasks: 1000,
            on_time: 400,
            on_time_approx: 0,
            approx_value: 0.0,
            late: 100,
            dropped_reactive: 50,
            dropped_proactive: 450,
            lost_to_failure: 0,
            forfeited: 0,
            busy_ticks: vec![1000, 2000],
            cost_dollars: 2.0,
            makespan: 90_000,
            mapping_events: 2400,
        }
    }

    #[test]
    fn forfeited_counts_toward_conservation() {
        let mut r = sample();
        r.forfeited = 30;
        assert!(!r.is_conserved(), "forfeits must be matched by counted tasks");
        r.counted_tasks += 30;
        r.total_tasks += 30;
        assert!(r.is_conserved());
        // Forfeited work dilutes robustness: the denominator grew.
        assert!(r.robustness_pct() < 40.0);
    }

    #[test]
    fn robustness_is_on_time_share() {
        assert!((sample().robustness_pct() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn reactive_fraction() {
        assert!((sample().reactive_drop_fraction().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn cost_per_robustness_normalises() {
        assert!((sample().cost_per_robustness() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn conservation_detects_mismatch() {
        let mut r = sample();
        assert!(r.is_conserved());
        r.on_time += 1;
        assert!(!r.is_conserved());
    }

    #[test]
    fn zero_counted_is_zero_robustness() {
        let mut r = sample();
        r.counted_tasks = 0;
        assert_eq!(r.robustness_pct(), 0.0);
        assert!(r.cost_per_robustness().is_infinite());
    }
}
