//! **Approximate-computing dropping** — the paper's future-work extension
//! ("we plan to extend the probabilistic analysis to consider approximately
//! computing tasks, in addition to task dropping"), built on the same Eq-8
//! machinery as the proactive heuristic.
//!
//! The dropping *decision* is untouched — Eq 8 still determines, per task,
//! whether keeping it is worse than clearing its slot. What changes is the
//! *action* taken on a would-be-dropped task: the policy weighs the drop
//! future against a **degrade** future in which task *i* runs its
//! approximate variant (execution PMF time-scaled by the approx factor),
//! keeping `v < 1` of its value while freeing most of the slack for its
//! influence zone:
//!
//! * **keep**:    `U_keep    = p_i + Σ_{n=i+1}^{i+η} p_n`
//! * **drop**:    `U_drop    = Σ_{n=i+1}^{i+η} p⁽ⁱ⁾_n`  (Eq 8 right side)
//! * **degrade**: `U_degrade = v·p̃_i + Σ_{n=i+1}^{i+η} p̃_n`
//!
//! If `U_drop > β·U_keep` (Eq 8 fires) the task is degraded when
//! `U_degrade ≥ U_drop`, otherwise dropped. Tasks Eq 8 would keep are
//! *never* degraded — degradation is a rescue for doomed work, not a
//! throughput dial, so the paper's full-fidelity robustness metric is not
//! cannibalised. Already-degraded tasks are only eligible for dropping.
//! With approximate computing disabled in the context, the policy reduces
//! *exactly* to [`ProactiveDropper`] (tested).

use crate::{DropDecision, DropPolicy, ProactiveDropper};
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::queue::{ChainLink, ChainTask};
use taskdrop_model::view::{DropContext, QueueView};

/// Proactive dropping with degradation to approximate task variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxDropper {
    beta: f64,
    eta: usize,
}

impl ApproxDropper {
    /// Creates the policy; β and η have the same meaning as in
    /// [`ProactiveDropper`].
    ///
    /// # Panics
    ///
    /// Panics if [`ProactiveDropper::check_settings`] refuses `beta` and
    /// `eta`.
    #[must_use]
    pub fn new(beta: f64, eta: usize) -> Self {
        assert_eq!(ProactiveDropper::check_settings(beta, eta), Ok(()), "invalid approx dropper");
        ApproxDropper { beta, eta }
    }

    /// The paper-default dial (β = 1, η = 2).
    #[must_use]
    pub fn paper_default() -> Self {
        ApproxDropper::new(1.0, 2)
    }
}

impl Default for ApproxDropper {
    fn default() -> Self {
        ApproxDropper::paper_default()
    }
}

impl DropPolicy for ApproxDropper {
    fn name(&self) -> &'static str {
        "Approx"
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        let tasks = &queue.tasks;
        let n = tasks.len();
        if n < 2 {
            return DropDecision::none();
        }
        let value = ctx.approx.map_or(0.0, |a| a.value);

        let mut drops = Vec::new();
        let mut degrades = Vec::new();
        // Lazily extended baseline + probe evaluators from the persistent
        // context, exactly as in `ProactiveDropper::select_drops` (prefix
        // reuse, DESIGN.md §12); the baseline reflects the current
        // survivor/fidelity set.
        let PolicyCtx { baseline, probe, .. } = scratch;
        baseline.reset(&queue.base);
        let mut prev = queue.base.clone();
        for i in 0..n - 1 {
            let window_end = (i + 1 + self.eta).min(n);
            baseline.ensure(tasks, window_end, ctx.compaction);
            let u_keep: f64 = baseline.links()[i..window_end].iter().map(|l| l.chance).sum();
            let u_drop = probe.chance_sum(&prev, &tasks[i + 1..], self.eta, ctx.compaction);

            if u_drop <= self.beta * u_keep + f64::EPSILON {
                // Eq 8 keeps the task at full fidelity; never degrade work
                // that is worth running as-is.
                prev = baseline.links()[i].completion.clone();
                continue;
            }

            // Eq 8 fires: clear the slot. Rescue branch — task i runs its
            // approximate execution PMF; the successor window spans the same
            // η tasks as the keep branch (positions i+1 ..= i+η).
            // `degradable` is empty when the extension is off.
            let u_degrade = match queue.degradable.get(i).copied().flatten() {
                Some(exec) => {
                    let head = ChainTask { deadline: tasks[i].deadline, exec };
                    let (chance, completion) = probe.step_from(&prev, head, ctx.compaction);
                    let own = value * chance;
                    let rest =
                        probe.chance_sum(&completion, &tasks[i + 1..], self.eta, ctx.compaction);
                    Some((own + rest, ChainLink { completion, chance }))
                }
                None => None,
            };

            match u_degrade {
                Some((u_deg, head_link)) if u_deg >= u_drop => {
                    degrades.push(i);
                    // The chain continues from the degraded completion:
                    // rewind the baseline to restart behind the degraded
                    // head (only positions past i are ever re-chained).
                    prev = head_link.completion.clone();
                    baseline.replace(i, head_link);
                    baseline.rewind(&prev, i + 1);
                }
                _ => {
                    drops.push(i);
                    // prev unchanged; links[i] now dead, never read again.
                    baseline.rewind(&prev, i + 1);
                }
            }
        }
        DropDecision { drops, degrades }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{idle_queue, pet};
    use taskdrop_model::approx::{degraded_pet, ApproxSpec};
    use taskdrop_model::view::QueueView;
    use taskdrop_model::{MachineTypeId, PetMatrix, TaskTypeId};
    use taskdrop_pmf::{Compaction, Pmf};

    fn ctx_with(approx: Option<ApproxSpec>) -> DropContext {
        DropContext { compaction: Compaction::None, pressure: 0.0, approx }
    }

    /// Idle queue at 0 with approximate computing on: pending tasks given
    /// as (task type, deadline, already degraded), as the engine builds
    /// them from `pet` and its degraded copy `apet`.
    fn approx_queue<'a>(
        pet: &'a PetMatrix,
        apet: &'a PetMatrix,
        pending: &[(u16, u64, bool)],
    ) -> QueueView<'a> {
        let exec = |source: &'a PetMatrix, ttype| source.pmf(TaskTypeId(ttype), MachineTypeId(0));
        QueueView {
            base: Pmf::point(0),
            tasks: pending
                .iter()
                .map(|&(ttype, deadline, degraded)| ChainTask {
                    deadline,
                    exec: exec(if degraded { apet } else { pet }, ttype),
                })
                .collect(),
            degradable: pending
                .iter()
                .map(|&(ttype, _, degraded)| (!degraded).then(|| exec(apet, ttype)))
                .collect(),
        }
    }

    #[test]
    fn reduces_to_proactive_without_approx() {
        let pet = pet();
        let queues: [&[(u16, u64)]; 3] =
            [&[(1, 20), (0, 30)], &[(2, 45), (0, 35)], &[(0, 1000), (0, 1000), (1, 5)]];
        for pendings in queues {
            let q = idle_queue(&pet, 0, pendings);
            let a = ApproxDropper::paper_default().select_drops_fresh(&q, &ctx_with(None));
            let p = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx_with(None));
            assert_eq!(a.drops, p.drops);
            assert!(a.degrades.is_empty());
        }
    }

    #[test]
    fn degrades_when_partial_value_beats_dropping() {
        let pet = pet();
        let spec = ApproxSpec::new(0.2, 0.8); // 5x faster, 80 % value
        let apet = degraded_pet(&pet, spec);
        // Task 1: type 1 (exec 50), deadline 30 -> full chance 0, degraded
        // exec 10 -> completes at 10 < 30 with chance 1 worth 0.8.
        // Task 2: type 0 (exec 10), deadline 25: behind full task 1 -> 0;
        // behind degraded task 1 (done at 10) -> done 20 < 25 -> 1; with
        // task 1 dropped -> done 10 -> 1.
        // U_keep = 0; U_drop = 1; U_degrade = 0.8 + 1 = 1.8 -> degrade.
        let q = approx_queue(&pet, &apet, &[(1, 30, false), (0, 25, false)]);
        let d = ApproxDropper::paper_default().select_drops_fresh(&q, &ctx_with(Some(spec)));
        assert_eq!(d.degrades, vec![0]);
        assert!(d.drops.is_empty());
    }

    #[test]
    fn drops_when_degraded_variant_is_still_hopeless() {
        let pet = pet();
        let spec = ApproxSpec::new(0.9, 0.1); // barely faster, little value
        let apet = degraded_pet(&pet, spec);
        // Task 1: type 1 (exec 50, degraded 45), deadline 20 -> hopeless
        // either way. Task 2 (exec 10), deadline 30: blocked by 45-50 ticks
        // -> 0; dropped -> 1. Degrade gains nothing; drop wins.
        let q = approx_queue(&pet, &apet, &[(1, 20, false), (0, 30, false)]);
        let d = ApproxDropper::paper_default().select_drops_fresh(&q, &ctx_with(Some(spec)));
        assert_eq!(d.drops, vec![0]);
        assert!(d.degrades.is_empty());
    }

    #[test]
    fn keeps_viable_tasks_untouched() {
        let pet = pet();
        let spec = ApproxSpec::half_time();
        let apet = degraded_pet(&pet, spec);
        let q = approx_queue(&pet, &apet, &[(1, 60, false), (0, 70, false)]);
        let d = ApproxDropper::paper_default().select_drops_fresh(&q, &ctx_with(Some(spec)));
        assert!(d.is_empty());
    }

    #[test]
    fn already_degraded_tasks_not_redegraded() {
        let pet = pet();
        let spec = ApproxSpec::new(0.2, 0.8);
        let apet = degraded_pet(&pet, spec);
        // The first task is already approximate.
        let q = approx_queue(&pet, &apet, &[(1, 30, true), (0, 25, false)]);
        let d = ApproxDropper::paper_default().select_drops_fresh(&q, &ctx_with(Some(spec)));
        assert!(!d.degrades.contains(&0), "cannot degrade twice: {d:?}");
    }
}
