//! Admission control in front of [`SimCore::inject`].
//!
//! A serving front-end cannot pass every offered task straight into the
//! engine: under oversubscription the batch queue would grow without bound
//! and doomed work would waste capacity the dropping policy then has to
//! claw back. The [`AdmissionController`] is a **bounded ingress queue**
//! with a pluggable [`BackpressurePolicy`] deciding what happens when the
//! bound is hit — and, for [`BackpressurePolicy::PreDrop`], a probabilistic
//! gate that refuses tasks whose estimated chance of success is already
//! below a threshold *before* they consume a queue slot. The estimate is
//! the paper's Equation (2) applied at the front door: the best up
//! machine's queue-tail completion PMF convolved with the task's execution
//! PMF ([`SimCore::best_chance`], the pricing the PAM mapper and the graph
//! layer's pruning read too). This is the serverless-companion paper's
//! "probabilistic task pruning" moved to admission time.
//!
//! Every refusal is counted in [`AdmissionStats`] *and* surfaced to the
//! core's observers as a [`SimEvent::AdmissionDropped`] through
//! [`SimCore::notify_observers`], so one observer chain sees the complete
//! lifecycle from ingress to fate.
//!
//! [`SimCore::inject`]: taskdrop_sim::SimCore::inject
//! [`SimCore::best_chance`]: taskdrop_sim::SimCore::best_chance
//! [`SimCore::notify_observers`]: taskdrop_sim::SimCore::notify_observers

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use taskdrop_model::TaskId;
use taskdrop_pmf::Tick;
use taskdrop_sim::{AdmissionDropKind, ObserverHub, SimCore, SimError, SimEvent};
use taskdrop_workload::OfferedTask;

/// What to do when the bounded ingress queue cannot absorb an offer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Turn new offers away while the queue is full (tail drop).
    Reject,
    /// Evict the oldest queued offer to make room for the newest one
    /// (head drop — newest work has the freshest deadline).
    ShedOldest,
    /// Probabilistic pre-drop: once the ingress queue is at least half
    /// full, estimate each offer's chance of success (Eq 2 over the best
    /// machine's tail, Eq 1 chaining) and refuse it below `threshold`.
    /// Offers that pass the gate still tail-drop when the queue is full.
    PreDrop {
        /// Minimum acceptable chance of success in `[0, 1]`.
        threshold: f64,
    },
}

/// Per-policy admission accounting. `offered` is conserved:
/// `offered + stolen_in = admitted + turned_away() + still queued + stolen_out`
/// (the two `stolen_*` terms are zero outside a work-stealing fleet, which
/// reduces to the familiar `offered = admitted + turned_away() + queued`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdmissionStats {
    /// Tasks offered to the controller.
    pub offered: u64,
    /// Tasks injected into the core.
    pub admitted: u64,
    /// Offers refused because the ingress queue was full.
    pub rejected_full: u64,
    /// Queued offers evicted by [`BackpressurePolicy::ShedOldest`].
    pub shed_oldest: u64,
    /// Offers refused by the probabilistic pre-drop gate.
    pub pre_dropped: u64,
    /// Queued offers whose deadline passed before injection.
    pub expired: u64,
    /// Offers the core refused to inject (unknown task type — a
    /// misconfigured traffic source).
    #[serde(default)]
    pub invalid: u64,
    /// Queued offers that arrived from another shard's ingress queue
    /// (work stealing at a fleet epoch barrier).
    #[serde(default)]
    pub stolen_in: u64,
    /// Queued offers donated to another shard's ingress queue.
    #[serde(default)]
    pub stolen_out: u64,
}

impl AdmissionStats {
    /// Total offers the controller turned away (everything but admitted
    /// and still-queued).
    #[must_use]
    pub fn turned_away(&self) -> u64 {
        self.rejected_full + self.shed_oldest + self.pre_dropped + self.expired + self.invalid
    }
}

/// The controller's verdict on one offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Queued for injection (possibly after shedding an older offer).
    Accepted,
    /// Turned away; the kind says which rule fired.
    TurnedAway(AdmissionDropKind),
}

/// Bounded ingress queue + backpressure policy in front of one core.
///
/// Offers enter through [`AdmissionController::offer`] (in nondecreasing
/// arrival order, as traffic sources produce them) and leave through
/// [`AdmissionController::drain_due`], which injects everything due by the
/// epoch boundary. The whole controller — policy, bound, queue contents,
/// counters — is serde-serializable, so a shard checkpoint captures it
/// wholesale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionController {
    capacity: usize,
    policy: BackpressurePolicy,
    queue: VecDeque<OfferedTask>,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// A controller holding at most `capacity` queued offers under
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if [`AdmissionController::check_settings`] refuses `capacity`
    /// and `policy`.
    #[must_use]
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> Self {
        assert_eq!(Self::check_settings(capacity, policy), Ok(()), "invalid admission controller");
        AdmissionController {
            capacity,
            policy,
            queue: VecDeque::new(),
            stats: AdmissionStats::default(),
        }
    }

    /// The conditions [`AdmissionController::new`] asserts: at least one
    /// ingress slot, and a [`BackpressurePolicy::PreDrop`] threshold in
    /// `[0, 1]`.
    ///
    /// # Errors
    ///
    /// The broken condition, in words.
    pub fn check_settings(capacity: usize, policy: BackpressurePolicy) -> Result<(), &'static str> {
        if capacity == 0 {
            return Err("ingress queue needs at least one slot");
        }
        match policy {
            BackpressurePolicy::PreDrop { threshold } if !(0.0..=1.0).contains(&threshold) => {
                Err("pre-drop threshold must be a probability in [0, 1]")
            }
            _ => Ok(()),
        }
    }

    /// Checks a controller that did not come from
    /// [`AdmissionController::new`], such as one parsed from a checkpoint:
    /// the conditions of [`AdmissionController::check_settings`], and the
    /// queue invariants [`AdmissionController::offer`],
    /// [`AdmissionController::drain_due`] and
    /// [`AdmissionController::accept_stolen`] rely on — at most `capacity`
    /// queued offers, in non-decreasing arrival order.
    ///
    /// # Errors
    ///
    /// The broken condition, in words.
    pub fn validate(&self) -> Result<(), &'static str> {
        Self::check_settings(self.capacity, self.policy)?;
        if self.queue.len() > self.capacity {
            return Err("ingress queue holds more offers than its capacity");
        }
        if self.queue.iter().zip(self.queue.iter().skip(1)).any(|(a, b)| a.arrival > b.arrival) {
            return Err("ingress queue arrivals must be non-decreasing");
        }
        Ok(())
    }

    /// The configured backpressure policy.
    #[must_use]
    pub fn policy(&self) -> BackpressurePolicy {
        self.policy
    }

    /// The ingress queue bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers currently waiting for injection.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The accounting so far.
    #[must_use]
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Offers one task. `core` prices the offer for the pre-drop gate
    /// ([`SimCore::best_chance`]) and carries the observers that refusals
    /// are surfaced to; admission never mutates the trial itself.
    pub fn offer<H: ObserverHub>(
        &mut self,
        task: OfferedTask,
        core: &mut SimCore<'_, H>,
    ) -> AdmissionOutcome {
        self.stats.offered += 1;
        if let BackpressurePolicy::PreDrop { threshold } = self.policy {
            // The gate opens at half occupancy: under light load every
            // offer is admitted without touching the PMF machinery; under
            // pressure it prices each offer the way the paper prices a
            // queued task.
            if 2 * self.queue.len() >= self.capacity && priced_below(core, &task, threshold) {
                return self.turn_away(task, AdmissionDropKind::PreDropped, core);
            }
        }
        if self.queue.len() >= self.capacity {
            match self.policy {
                BackpressurePolicy::ShedOldest => {
                    if let Some(oldest) = self.queue.pop_front() {
                        self.record_refusal(&oldest, AdmissionDropKind::ShedOldest, core);
                    }
                }
                BackpressurePolicy::Reject | BackpressurePolicy::PreDrop { .. } => {
                    return self.turn_away(task, AdmissionDropKind::RejectedFull, core);
                }
            }
        }
        self.queue.push_back(task);
        AdmissionOutcome::Accepted
    }

    /// Chain-aware immediate admission: one offer, decided and (on
    /// acceptance) injected *right now*, bypassing the ingress queue.
    /// Dependency-graph layers (`taskdrop_dag`) release a node the instant
    /// its predecessors complete — parking it in the ingress queue would
    /// only erode slack the chain has already spent — so this path applies
    /// the [`BackpressurePolicy::PreDrop`] gate *unconditionally* (release
    /// offers always price against fresh tails; there is no half-occupancy
    /// warm-up because there is no queue to measure) and otherwise injects
    /// at `max(arrival, now)`. Returns `Ok(None)` when the offer was
    /// turned away (expired or pre-dropped); refusals are counted in
    /// [`AdmissionStats`] and surfaced as [`SimEvent::AdmissionDropped`]
    /// exactly like the queued path's.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTaskType`] if the offer names a task type the
    /// core's scenario lacks; the offer is consumed and counted as
    /// [`AdmissionStats::invalid`], preserving the `offered` conservation
    /// identity.
    pub fn admit_now<H: ObserverHub>(
        &mut self,
        task: OfferedTask,
        core: &mut SimCore<'_, H>,
    ) -> Result<Option<TaskId>, SimError> {
        self.stats.offered += 1;
        let arrival = task.arrival.max(core.now());
        if task.deadline <= arrival {
            self.record_refusal(&task, AdmissionDropKind::Expired, core);
            return Ok(None);
        }
        if let BackpressurePolicy::PreDrop { threshold } = self.policy {
            if priced_below(core, &task, threshold) {
                self.record_refusal(&task, AdmissionDropKind::PreDropped, core);
                return Ok(None);
            }
        }
        match core.inject(task.type_id, arrival, task.deadline) {
            Ok(id) => {
                self.stats.admitted += 1;
                Ok(Some(id))
            }
            Err(e) => {
                self.record_refusal(&task, AdmissionDropKind::Invalid, core);
                Err(e)
            }
        }
    }

    /// Injects every queued offer whose arrival is at or before `until`,
    /// in offer order. An offer that out-waited the core's clock is
    /// injected at the current simulation time (its deadline is
    /// unchanged); one whose deadline already passed is dropped here as
    /// [`AdmissionDropKind::Expired`]. Returns how many tasks were
    /// injected.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownTaskType`] if an offer names a task type the
    /// core's scenario lacks (a misconfigured traffic source); the failing
    /// offer is consumed and counted as [`AdmissionStats::invalid`], so
    /// the `offered` conservation identity survives the error.
    pub fn drain_due<H: ObserverHub>(
        &mut self,
        core: &mut SimCore<'_, H>,
        until: Tick,
    ) -> Result<usize, SimError> {
        let mut injected = 0;
        while let Some(&front) = self.queue.front() {
            if front.arrival > until {
                break;
            }
            self.queue.pop_front();
            let arrival = front.arrival.max(core.now());
            if front.deadline <= arrival {
                self.record_refusal(&front, AdmissionDropKind::Expired, core);
                continue;
            }
            if let Err(e) = core.inject(front.type_id, arrival, front.deadline) {
                // The failed offer is consumed (already popped) and
                // counted, so `offered` stays conserved across the error.
                self.record_refusal(&front, AdmissionDropKind::Invalid, core);
                return Err(e);
            }
            self.stats.admitted += 1;
            injected += 1;
        }
        Ok(injected)
    }

    /// Removes up to `count` offers from the **back** of the ingress queue
    /// for migration to another shard (fleet work stealing). The newest
    /// offers are taken — they have waited least and are the least likely
    /// to be due imminently — and because the queue holds offers in
    /// nondecreasing arrival order, removing a suffix preserves that
    /// invariant on both sides. The removed offers are returned in arrival
    /// order and counted as [`AdmissionStats::stolen_out`].
    pub fn release_for_steal(&mut self, count: usize) -> Vec<OfferedTask> {
        let keep = self.queue.len().saturating_sub(count);
        let offers: Vec<OfferedTask> = self.queue.split_off(keep).into();
        self.stats.stolen_out += offers.len() as u64;
        offers
    }

    /// Merges offers stolen from another shard into this queue, keeping it
    /// sorted by arrival (a plain `push_back` could strand an already-due
    /// migrant behind later local arrivals and starve
    /// [`AdmissionController::drain_due`]'s in-order scan). Counted as
    /// [`AdmissionStats::stolen_in`]. The steal planner never moves more
    /// offers than the receiver has free slots, so the bound holds by
    /// construction (debug-asserted).
    pub fn accept_stolen(&mut self, offers: &[OfferedTask]) {
        for &offer in offers {
            let at = self.queue.partition_point(|q| q.arrival <= offer.arrival);
            self.queue.insert(at, offer);
        }
        self.stats.stolen_in += offers.len() as u64;
        debug_assert!(
            self.queue.len() <= self.capacity,
            "steal planner overfilled the receiving ingress queue"
        );
    }

    /// The single refusal bookkeeper: every turned-away offer — rejected,
    /// shed, pre-dropped or expired — bumps its counter and reaches the
    /// observers through here, so stats and stream cannot drift apart.
    fn record_refusal<H: ObserverHub>(
        &mut self,
        task: &OfferedTask,
        kind: AdmissionDropKind,
        core: &mut SimCore<'_, H>,
    ) {
        match kind {
            AdmissionDropKind::RejectedFull => self.stats.rejected_full += 1,
            AdmissionDropKind::ShedOldest => self.stats.shed_oldest += 1,
            AdmissionDropKind::PreDropped => self.stats.pre_dropped += 1,
            AdmissionDropKind::Expired => self.stats.expired += 1,
            AdmissionDropKind::Invalid => self.stats.invalid += 1,
        }
        core.notify_observers(&admission_dropped(task, core.now(), kind));
    }

    fn turn_away<H: ObserverHub>(
        &mut self,
        task: OfferedTask,
        kind: AdmissionDropKind,
        core: &mut SimCore<'_, H>,
    ) -> AdmissionOutcome {
        self.record_refusal(&task, kind, core);
        AdmissionOutcome::TurnedAway(kind)
    }
}

fn admission_dropped(task: &OfferedTask, now: Tick, kind: AdmissionDropKind) -> SimEvent {
    SimEvent::AdmissionDropped {
        type_id: task.type_id,
        arrival: task.arrival,
        deadline: task.deadline,
        now,
        kind,
    }
}

/// Whether the pre-drop gate refuses `task`: its best chance of success
/// ([`SimCore::best_chance`]) is below `threshold`.
///
/// The deadline is evaluated as the offer's *slack window opening at*
/// `now`, not at its absolute tick: queue tails are only known for the
/// present, so judging a late-in-epoch arrival's far-future deadline
/// against today's tails would wave everything through. The slack-window
/// form asks the question the paper's pruning asks — "joining a queue
/// shaped like this, does the task stand a chance?" — independently of how
/// far ahead the offer sits. An offer the core cannot price (a task type
/// its scenario lacks) passes, and injection refuses it with a typed error.
fn priced_below<H: ObserverHub>(
    core: &mut SimCore<'_, H>,
    task: &OfferedTask,
    threshold: f64,
) -> bool {
    let deadline = core.now().saturating_add(task.deadline.saturating_sub(task.arrival));
    core.best_chance(task.type_id, deadline).is_ok_and(|chance| chance < threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use taskdrop_core::ReactiveOnly;
    use taskdrop_model::TaskTypeId;
    use taskdrop_sched::Pam;
    use taskdrop_sim::SimConfig;
    use taskdrop_workload::Scenario;

    fn offered(arrival: Tick, deadline: Tick) -> OfferedTask {
        OfferedTask { type_id: TaskTypeId(0), arrival, deadline }
    }

    fn open_core(scenario: &Scenario) -> SimCore<'_> {
        let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
        SimCore::open(scenario, &Pam, &ReactiveOnly, config, 1).unwrap()
    }

    #[test]
    fn reject_policy_tail_drops_when_full() {
        let s = Scenario::specint(5);
        let mut core = open_core(&s);
        let mut ctl = AdmissionController::new(2, BackpressurePolicy::Reject);
        assert_eq!(ctl.offer(offered(10, 500), &mut core), AdmissionOutcome::Accepted);
        assert_eq!(ctl.offer(offered(20, 500), &mut core), AdmissionOutcome::Accepted);
        assert_eq!(
            ctl.offer(offered(30, 500), &mut core),
            AdmissionOutcome::TurnedAway(AdmissionDropKind::RejectedFull)
        );
        assert_eq!(ctl.stats().rejected_full, 1);
        assert_eq!(ctl.queued(), 2);
    }

    #[test]
    fn shed_oldest_evicts_the_head_and_reports_it() {
        let s = Scenario::specint(5);
        let dropped = RefCell::new(Vec::new());
        let mut core = open_core(&s);
        core.attach(|ev: &SimEvent| {
            if let SimEvent::AdmissionDropped { arrival, kind, .. } = *ev {
                dropped.borrow_mut().push((arrival, kind));
            }
        });
        let mut ctl = AdmissionController::new(2, BackpressurePolicy::ShedOldest);
        ctl.offer(offered(10, 500), &mut core);
        ctl.offer(offered(20, 500), &mut core);
        assert_eq!(ctl.offer(offered(30, 500), &mut core), AdmissionOutcome::Accepted);
        assert_eq!(ctl.stats().shed_oldest, 1);
        assert_eq!(ctl.queued(), 2);
        assert_eq!(dropped.borrow().as_slice(), &[(10, AdmissionDropKind::ShedOldest)]);
    }

    #[test]
    fn drain_injects_due_offers_and_expires_stale_ones() {
        let s = Scenario::specint(5);
        let mut core = open_core(&s);
        let mut ctl = AdmissionController::new(8, BackpressurePolicy::Reject);
        ctl.offer(offered(5, 400), &mut core);
        ctl.offer(offered(50, 60), &mut core); // will out-wait its deadline
        ctl.offer(offered(900, 1_500), &mut core); // not due yet
        assert_eq!(ctl.drain_due(&mut core, 10).unwrap(), 1);
        // Park an arrival event at t=70 so the clock provably passes the
        // second offer's deadline before the next drain.
        core.inject(TaskTypeId(0), 70, 800).unwrap();
        core.run_until(70);
        assert!(core.now() >= 60, "clock should have passed the stale deadline");
        assert_eq!(ctl.drain_due(&mut core, 100).unwrap(), 0);
        let stats = ctl.stats();
        assert_eq!((stats.admitted, stats.expired), (1, 1));
        assert_eq!(ctl.queued(), 1, "the far-future offer stays queued");
        assert_eq!(core.total_tasks(), 2, "one admitted + one parked helper");
    }

    #[test]
    fn predrop_gate_refuses_hopeless_offers_under_pressure() {
        let s = Scenario::specint(5);
        let mut core = open_core(&s);
        let mut ctl = AdmissionController::new(4, BackpressurePolicy::PreDrop { threshold: 0.25 });
        // Below half occupancy the gate stays closed even for an offer
        // whose deadline leaves room for nothing (clock is 0, so a
        // deadline of 1 admits only a sub-1-tick completion).
        assert_eq!(ctl.offer(offered(0, 1), &mut core), AdmissionOutcome::Accepted);
        ctl.offer(offered(12, 600), &mut core);
        // Now at half occupancy: the same hopeless shape is pre-dropped; a
        // roomy one passes.
        assert_eq!(
            ctl.offer(offered(0, 1), &mut core),
            AdmissionOutcome::TurnedAway(AdmissionDropKind::PreDropped)
        );
        assert_eq!(ctl.offer(offered(20, 900), &mut core), AdmissionOutcome::Accepted);
        assert_eq!(ctl.stats().pre_dropped, 1);
    }

    #[test]
    fn admit_now_injects_immediately_and_gates_unconditionally() {
        let s = Scenario::specint(5);
        let mut core = open_core(&s);
        let mut ctl = AdmissionController::new(4, BackpressurePolicy::PreDrop { threshold: 0.25 });
        // Queue is empty — the queued path would wave anything through, but
        // the release path prices every offer: a 1-tick window is refused.
        assert_eq!(ctl.admit_now(offered(0, 1), &mut core).unwrap(), None);
        assert_eq!(ctl.stats().pre_dropped, 1);
        // A roomy offer is injected at once, bypassing the queue.
        let id = ctl.admit_now(offered(0, 900), &mut core).unwrap().expect("admitted");
        assert_eq!(core.total_tasks(), 1);
        assert_eq!(id, TaskId(0));
        assert_eq!(ctl.queued(), 0, "release offers never occupy the ingress queue");
        // An offer whose deadline the clock already passed is expired here,
        // not handed to the core.
        assert_eq!(
            ctl.admit_now(
                OfferedTask { type_id: TaskTypeId(0), arrival: 0, deadline: 0 },
                &mut core
            )
            .unwrap(),
            None
        );
        // An unknown task type passes the gate and is refused by the core.
        assert_eq!(
            ctl.admit_now(
                OfferedTask { type_id: TaskTypeId(12), arrival: 0, deadline: 900 },
                &mut core
            ),
            Err(SimError::UnknownTaskType { type_id: 12, task_types: 12 })
        );
        let stats = ctl.stats();
        assert_eq!((stats.offered, stats.admitted, stats.expired, stats.invalid), (4, 1, 1, 1));
    }

    /// The pre-drop gate prices a late offer's slack window from now; a
    /// window that reaches past `Tick::MAX` saturates there.
    #[test]
    fn a_window_past_the_last_tick_saturates_at_the_gate() {
        let s = Scenario::specint(5);
        let mut core = open_core(&s);
        core.inject(TaskTypeId(0), 0, 5_000).unwrap();
        core.run_until(100);
        assert!(core.now() > 0, "the clock moved past the offer's arrival");
        let mut ctl = AdmissionController::new(2, BackpressurePolicy::PreDrop { threshold: 0.25 });
        let late = OfferedTask { type_id: TaskTypeId(0), arrival: 0, deadline: Tick::MAX };
        assert!(ctl.admit_now(late, &mut core).unwrap().is_some(), "a roomy offer is admitted");
    }

    #[test]
    fn best_chance_is_high_on_an_idle_cluster_with_roomy_deadline() {
        let s = Scenario::specint(5);
        let mut core = open_core(&s);
        let roomy = core.best_chance(TaskTypeId(0), 5_000).unwrap();
        let hopeless = core.best_chance(TaskTypeId(0), 1).unwrap();
        assert!(roomy > 0.9, "idle cluster, roomy deadline: {roomy}");
        assert!(hopeless < 0.05, "1-tick deadline: {hopeless}");
    }

    /// An offer of a task type the scenario lacks cannot be priced, so it
    /// passes the pre-drop gate and is refused at injection exactly as
    /// under the policies that never price.
    #[test]
    fn an_unknown_task_type_is_refused_at_injection_under_every_policy() {
        let s = Scenario::specint(5);
        let policies = [
            BackpressurePolicy::Reject,
            BackpressurePolicy::ShedOldest,
            BackpressurePolicy::PreDrop { threshold: 0.25 },
        ];
        for policy in policies {
            let mut core = open_core(&s);
            let mut ctl = AdmissionController::new(2, policy);
            ctl.offer(offered(10, 500), &mut core);
            let unknown = OfferedTask { type_id: TaskTypeId(12), arrival: 20, deadline: 500 };
            assert_eq!(ctl.offer(unknown, &mut core), AdmissionOutcome::Accepted, "{policy:?}");
            assert_eq!(
                ctl.drain_due(&mut core, 100),
                Err(SimError::UnknownTaskType { type_id: 12, task_types: 12 }),
                "{policy:?}"
            );
            let stats = ctl.stats();
            assert_eq!((stats.admitted, stats.invalid), (1, 1), "{policy:?}");
        }
    }

    #[test]
    fn steal_release_takes_the_newest_suffix_and_accept_merges_in_order() {
        let s = Scenario::specint(5);
        let mut core = open_core(&s);
        let mut donor = AdmissionController::new(8, BackpressurePolicy::Reject);
        for arrival in [10, 20, 30, 40] {
            donor.offer(offered(arrival, 500), &mut core);
        }
        let moved = donor.release_for_steal(2);
        assert_eq!(moved.iter().map(|o| o.arrival).collect::<Vec<_>>(), [30, 40]);
        assert_eq!(donor.queued(), 2);
        assert_eq!(donor.stats().stolen_out, 2);
        // Asking for more than is queued empties the queue and no more.
        assert_eq!(donor.release_for_steal(99).len(), 2);
        assert_eq!(donor.queued(), 0);

        let mut receiver = AdmissionController::new(8, BackpressurePolicy::Reject);
        receiver.offer(offered(25, 500), &mut core);
        receiver.offer(offered(35, 500), &mut core);
        receiver.accept_stolen(&moved);
        assert_eq!(receiver.stats().stolen_in, 2);
        // Merge kept the queue sorted by arrival: the removal order proves it.
        let drained = receiver.release_for_steal(4);
        assert_eq!(drained.iter().map(|o| o.arrival).collect::<Vec<_>>(), [25, 30, 35, 40]);
        // Conservation with steals: offered + stolen_in = admitted +
        // turned_away + queued + stolen_out.
        let st = receiver.stats();
        assert_eq!(
            st.offered + st.stolen_in,
            st.admitted + st.turned_away() + receiver.queued() as u64 + st.stolen_out
        );
    }

    #[test]
    fn controller_serde_roundtrip_preserves_queue_and_stats() {
        let s = Scenario::specint(5);
        let mut core = open_core(&s);
        let mut ctl = AdmissionController::new(2, BackpressurePolicy::ShedOldest);
        ctl.offer(offered(10, 500), &mut core);
        ctl.offer(offered(20, 500), &mut core);
        ctl.offer(offered(30, 500), &mut core);
        let json = serde_json::to_string(&ctl).unwrap();
        let back: AdmissionController = serde_json::from_str(&json).unwrap();
        assert_eq!(ctl, back);
    }
}
