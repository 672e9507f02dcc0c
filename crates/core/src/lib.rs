//! The paper's primary contribution: **autonomous proactive task dropping**.
//!
//! Dropping a task is a double-edged sword (Section IV-A): the dropped task's
//! own chance of success is forfeited, but every task in its *influence zone*
//! (the tasks queued behind it) starts earlier and gains chance. A dropping
//! policy decides, at every mapping event and for every machine queue, which
//! pending tasks to discard so that the queue's *instantaneous robustness* —
//! the sum of the chances of success of its tasks (Eq 3) — is maximised.
//!
//! Three policies are provided, plus the no-op baseline:
//!
//! * [`ProactiveDropper`] — the paper's heuristic (Section IV-E): one pass
//!   per queue, dropping task *i* iff the chance gained within the
//!   *effective depth* η behind it outweighs β times the chance kept
//!   (Equation 8). Autonomous: no user-tuned threshold. With approximate
//!   computing on (the paper's future work), a task Eq 8 clears is
//!   degraded to its approximate variant instead of dropped when that
//!   salvages at least as much; it is the only policy that degrades.
//! * [`OptimalDropper`] — the paper's optimal model (Section IV-D):
//!   exhaustive search over the `2^(q-1)` drop subsets of each queue,
//!   implemented as a shared-prefix DFS so common chain prefixes are
//!   convolved once, with an optional admissible-bound pruning extension.
//! * [`ThresholdDropper`] — the prior-work baseline (Gentry et al. \[2\],
//!   "PAM+Threshold"): drop a task when its chance of success falls below a
//!   user-provided threshold, mildly adapted to the observed
//!   oversubscription pressure at each mapping event (a fixed rate and
//!   cap).
//! * [`ReactiveOnly`] — no proactive drops at all; only the engine's
//!   reactive dropping (tasks that already missed their deadlines) applies.
//!
//! Policies never see the simulator: they receive one [`QueueView`] per
//! machine queue — the inputs of its Eq-1 chain — and return the pending
//! positions to drop. The *running* task is never
//! droppable (the system model forbids preemption), and the *last* pending
//! task is excluded because its influence zone is empty (Section IV-D).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod heuristic;
mod optimal;
mod reactive;
mod threshold;

pub use heuristic::ProactiveDropper;
pub use optimal::OptimalDropper;
pub use reactive::ReactiveOnly;
pub use threshold::ThresholdDropper;

use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{DropContext, QueueView};

/// Outcome of a dropping decision for one machine queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DropDecision {
    /// Indices into [`QueueView::tasks`] to drop, strictly increasing.
    pub drops: Vec<usize>,
    /// Indices into [`QueueView::tasks`] to *degrade* to their approximate
    /// variants (the future-work extension), strictly increasing and
    /// disjoint from `drops`. Only [`ProactiveDropper`] degrades, and only
    /// positions [`QueueView::degradable`] offers, so this is empty while
    /// approximate computing is off.
    pub degrades: Vec<usize>,
}

impl DropDecision {
    /// The no-drop decision.
    #[must_use]
    pub fn none() -> Self {
        DropDecision::default()
    }

    /// A drop-only decision.
    #[must_use]
    pub fn drops(drops: Vec<usize>) -> Self {
        DropDecision { drops, degrades: Vec::new() }
    }

    /// Whether the decision changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty() && self.degrades.is_empty()
    }
}

/// A proactive dropping policy, invoked per machine queue at every mapping
/// event (after the engine's reactive dropping, before mapping).
///
/// Policies are stateless values (`&self`): all mutable working state lives
/// in the caller-owned [`PolicyCtx`], which the engine constructs once and
/// threads through every call so scratch buffers stay warm across mapping
/// events. Decisions must not depend on what a previous call left in the
/// context — the differential suite in
/// `crates/model/tests/evaluator_equivalence.rs` pins persistent-context
/// decisions bit-identical to fresh-context ones.
///
/// A decision is a function of the [`QueueView`] and of the
/// [`DropContext`] fields the policy reads, and nothing else. The engine
/// relies on this: it does not re-ask about a queue it last kept whole
/// while the queue, its base and the context are unchanged (the keep-all
/// verdict memo, DESIGN.md §13). [`DropContext::pressure`] joins that key
/// only when [`DropPolicy::reads_pressure`] says so.
pub trait DropPolicy: Send + Sync {
    /// Stable identifier used in reports and configs (e.g. `"Heuristic"`).
    fn name(&self) -> &'static str;

    /// Selects pending positions to drop from one machine queue, using
    /// `scratch` for all chain evaluation.
    ///
    /// Returned indices must be strictly increasing and reference
    /// [`QueueView::tasks`]; a degrade must name a position whose
    /// [`QueueView::degradable`] entry is `Some`. The engine validates
    /// this.
    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision;

    /// Whether decisions read [`DropContext::pressure`]. The default,
    /// `true`, is never wrong; a policy that ignores pressure returns
    /// `false`, so the engine can skip repeat decisions on a queue it last
    /// kept whole even while the batch queue grows or shrinks.
    fn reads_pressure(&self) -> bool {
        true
    }

    /// One-shot convenience: [`DropPolicy::select_drops`] against a fresh
    /// [`PolicyCtx`]. This is the reference path the differential tests
    /// compare the persistent path against; production drivers should
    /// reuse one context instead.
    fn select_drops_fresh(&self, queue: &QueueView<'_>, ctx: &DropContext) -> DropDecision {
        self.select_drops(queue, ctx, &mut PolicyCtx::new())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use taskdrop_model::queue::ChainTask;
    use taskdrop_model::view::QueueView;
    use taskdrop_model::{MachineTypeId, PetMatrix, TaskTypeId};
    use taskdrop_pmf::{Compaction, Pmf, Tick};

    /// A 3-type x 1-machine PET: type 0 = 10 ticks, type 1 = 50 ticks,
    /// type 2 = {20 w.p. 0.5, 80 w.p. 0.5}.
    pub fn pet() -> PetMatrix {
        PetMatrix::new(
            3,
            1,
            vec![
                Pmf::point(10),
                Pmf::point(50),
                Pmf::from_impulses(vec![(20, 0.5), (80, 0.5)]).unwrap(),
            ],
        )
    }

    /// Pending tasks given as (task type, deadline), chained behind `base`.
    pub fn queue<'a>(pet: &'a PetMatrix, base: Pmf, pending: &[(u16, Tick)]) -> QueueView<'a> {
        let tasks = pending
            .iter()
            .map(|&(ttype, deadline)| ChainTask {
                deadline,
                exec: pet.pmf(TaskTypeId(ttype), MachineTypeId(0)),
            })
            .collect();
        QueueView::new(base, tasks, Vec::new(), Compaction::None)
    }

    /// Queue on an idle machine at `now`.
    pub fn idle_queue<'a>(pet: &'a PetMatrix, now: Tick, pending: &[(u16, Tick)]) -> QueueView<'a> {
        queue(pet, Pmf::point(now), pending)
    }
}
