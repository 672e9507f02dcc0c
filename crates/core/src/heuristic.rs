//! The proactive task dropping **heuristic** (Section IV-E, Figure 4).
//!
//! A single head-to-tail pass over each machine queue. For each droppable
//! pending task *i* (not the running task; not the last pending task, whose
//! influence zone is empty) the heuristic compares two futures over the
//! *effective depth* η:
//!
//! * **keep**: chances of success `p_n` for `n ∈ {i, …, i+η}` with task *i*
//!   in place;
//! * **drop**: chances `p⁽ⁱ⁾_n` for `n ∈ {i+1, …, i+η}` with task *i*
//!   provisionally removed (Equations 4–6).
//!
//! Task *i* is dropped iff the drop-future strictly beats β times the
//! keep-future (Equation 8):
//!
//! ```text
//!   Σ_{n=i+1}^{i+η} p⁽ⁱ⁾_n  >  β · Σ_{n=i}^{i+η} p_n
//! ```
//!
//! β ≥ 1 is the *robustness improvement factor*: β → 1 drops on any
//! improvement, β → ∞ disables proactive dropping (Figure 6 of the paper
//! finds β = 1 best). One literal consequence of Eq 8: when the keep-future
//! has *zero* total chance, any positive gain exceeds `β · 0`, so a
//! chance-less blocker is dropped at every β — only windows with some
//! retained chance become conservative as β grows. η limits how far into
//! the influence zone gains may be
//! collected, preventing "misleading gains" amortised over many far-away
//! tasks (Figure 5 finds η = 2 best, η = 1 short-sighted).
//!
//! Confirmed drops take effect immediately within the pass: the chain
//! predecessor PMF simply skips dropped tasks, so later decisions see the
//! improved queue — `O(η·q)` convolutions per queue (Section IV-F).
//!
//! **Approximate computing** (the paper's future work, enabled by
//! `SimConfig::approx`) changes only the *action* taken once Eq 8 fires.
//! When the task can still be degraded ([`QueueView::degradable`]), the
//! heuristic also prices a **degrade** future, in which task *i* runs its
//! approximate variant and keeps a fraction `v` of its value:
//!
//! ```text
//!   v · p̃_i  +  Σ_{n=i+1}^{i+η} p̃_n
//! ```
//!
//! with `p̃` the chances behind the degraded head. The task is degraded
//! when that is at least the drop-future, and dropped otherwise. Tasks
//! Eq 8 keeps are never degraded, so degradation rescues doomed work and
//! never trades away the paper's full-fidelity robustness. With
//! `degradable` empty the pass is the paper's, step for step.
//!
//! Implementation (DESIGN.md §12): the keep-futures read straight from the
//! view's keep-all chain ([`QueueView::keep_all`], built once and shared
//! with the engine, which reuses its last link as the queue's tail) until
//! the first confirmed drop or degrade. From then on a *baseline*
//! [`LazyChain`](taskdrop_model::queue::LazyChain) re-chains from the
//! surviving predecessor, only as far as the current keep-window needs,
//! so a confirmed drop re-chains at most the next window instead of the
//! whole `O(q)` suffix. A *probe* [`ChainEvaluator`] prices the η-deep
//! drop-window of Eq 8, unless a bound proves Eq 8 cannot fire: each
//! drop-future chance is at most the mass that reaches it, so when β times
//! the keep-future already covers the sum of those masses the task is kept
//! without the probe. Decisions are bit-identical to the naive
//! formulation; only allocation, re-chaining and provably losing prices
//! are removed.

use crate::{DropDecision, DropPolicy};
use std::borrow::Cow;
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::queue::{ChainEvaluator, ChainLink, ChainTask};
use taskdrop_model::view::{DropContext, QueueView};
use taskdrop_pmf::{Pmf, ROUNDING_MARGIN};

/// The autonomous proactive dropping heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProactiveDropper {
    beta: f64,
    eta: usize,
}

impl ProactiveDropper {
    /// Creates the heuristic with robustness improvement factor `beta` and
    /// effective depth `eta`.
    ///
    /// # Panics
    ///
    /// Panics if [`ProactiveDropper::check_settings`] refuses `beta` and
    /// `eta`.
    #[must_use]
    pub fn new(beta: f64, eta: usize) -> Self {
        assert_eq!(Self::check_settings(beta, eta), Ok(()), "invalid proactive dropper");
        ProactiveDropper { beta, eta }
    }

    /// The conditions [`ProactiveDropper::new`] asserts: a finite `beta ≥ 1`
    /// (Eq 8 requires β ≥ 1) and `eta ≥ 1` (a zero depth can never observe
    /// a gain, so every comparison degenerates).
    ///
    /// # Errors
    ///
    /// The broken condition, in words.
    pub fn check_settings(beta: f64, eta: usize) -> Result<(), &'static str> {
        if !(beta.is_finite() && beta >= 1.0) {
            return Err("beta must be >= 1");
        }
        if eta == 0 {
            return Err("effective depth must be >= 1");
        }
        Ok(())
    }

    /// The configuration the paper converges on: β = 1, η = 2.
    #[must_use]
    pub fn paper_default() -> Self {
        ProactiveDropper::new(1.0, 2)
    }

    /// The robustness improvement factor β.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The effective depth η.
    #[must_use]
    pub fn eta(&self) -> usize {
        self.eta
    }

    /// Whether Eq 8 provably keeps the task whose keep-future is `keep`,
    /// with `prev` the predecessor its drop-future chains `behind` from.
    ///
    /// The drop-future sums the chances of the first
    /// `m = min(η, |behind|)` tasks of that chain, and each chance is at
    /// most the mass that reaches its task: Eq 1 passes late mass through
    /// and scales on-time mass by the execution PMF's mass, so the mass
    /// reaching the k-th is at most
    /// `mass(prev) · Π_{j≤k} max(1, mass(exec_j))`. Actual masses are used
    /// because a PET cell may carry up to `1 + MASS_EPSILON`. When β times
    /// the keep-future, plus Eq 8's `f64::EPSILON`, covers the sum of
    /// those ceilings scaled by `1 + ROUNDING_MARGIN` (the rounding between
    /// the chain's sums and this one), the drop-future cannot beat it.
    fn eq8_cannot_fire(&self, keep: f64, prev: &Pmf, behind: &[ChainTask<'_>]) -> bool {
        let mut reach = prev.total_mass();
        let mut ceiling = 0.0;
        for t in behind.iter().take(self.eta) {
            reach *= t.exec.total_mass().max(1.0);
            ceiling += reach;
        }
        self.beta * keep + f64::EPSILON >= ceiling * (1.0 + ROUNDING_MARGIN)
    }
}

impl Default for ProactiveDropper {
    fn default() -> Self {
        ProactiveDropper::paper_default()
    }
}

impl DropPolicy for ProactiveDropper {
    fn name(&self) -> &'static str {
        "Heuristic"
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        let tasks = queue.tasks();
        let n = tasks.len();
        if n < 2 {
            // A single pending task is the last task: influence zone empty.
            return DropDecision::none();
        }
        // The value a degraded on-time completion keeps (unused while
        // `degradable` is empty).
        let value = ctx.approx.map_or(0.0, |a| a.value);
        let mut decision = DropDecision::none();
        // The keep-future of position i reads from a baseline chain (no
        // further drops), so each position costs at most η extra
        // convolutions (the drop-branch) instead of 2η+2 — the O(η·q)
        // bound of Section IV-F. Until the first drop or degrade that
        // chain is the view's keep-all chain. After it, `baseline` holds
        // the chain from the surviving predecessor, with its link 0 at
        // position `rechained_at`, extended only as far as the current
        // keep-window needs, so each confirmed drop re-chains at most one
        // window. The evaluators come from the persistent context: the
        // buffers are warm from previous calls, the arithmetic is
        // untouched.
        let PolicyCtx { eval, probe, baseline, .. } = scratch;
        let compaction = queue.compaction();
        let keep_all = queue.keep_all(eval);
        let mut rechained_at: Option<usize> = None;
        // Completion PMF of the latest surviving predecessor: borrowed
        // from the keep-all chain until the first drop or degrade.
        let mut prev: Cow<'_, Pmf> = Cow::Borrowed(queue.base());
        for i in 0..n - 1 {
            let window_end = (i + 1 + self.eta).min(n);
            let window: &[ChainLink] = match rechained_at {
                None => keep_all.get(i..window_end),
                Some(at) => {
                    let rest = tasks.get(at..).unwrap_or_default();
                    baseline.ensure(rest, window_end - at, compaction);
                    baseline.links().get(i - at..window_end - at)
                }
            }
            .unwrap_or_default();
            debug_assert_eq!(window.len(), window_end - i, "no keep window at position {i}");
            // Keep-future: chances of i and up to η successors.
            let keep: f64 = window.iter().map(|l| l.chance).sum();
            // The up to η successors the drop-future chains behind prev.
            let behind = tasks.get(i + 1..).unwrap_or_default();
            let fires = if self.eq8_cannot_fire(keep, &prev, behind) {
                debug_assert!(
                    ChainEvaluator::new().chance_sum(&prev, behind, self.eta, compaction)
                        <= self.beta * keep + f64::EPSILON,
                    "the Eq 8 bound skipped a drop-future that fires at position {i}"
                );
                None
            } else {
                // Drop-future: chances of up to η successors with i removed.
                let drop = probe.chance_sum(&prev, behind, self.eta, compaction);
                (drop > self.beta * keep + f64::EPSILON).then_some(drop)
            };
            if let Some(drop) = fires {
                // Eq 8 clears the slot. Degrade-future: i runs its
                // approximate variant and the same η successors chain
                // behind it; degrade when that is worth at least the drop.
                let degraded = queue.degradable().get(i).copied().flatten().and_then(|exec| {
                    let head = ChainTask { deadline: tasks.get(i)?.deadline, exec };
                    let (chance, completion) = probe.step_from(&prev, head, compaction);
                    let rest = probe.chance_sum(&completion, behind, self.eta, compaction);
                    (value * chance + rest >= drop).then_some(completion)
                });
                match degraded {
                    Some(completion) => {
                        decision.degrades.push(i);
                        prev = Cow::Owned(completion);
                    }
                    // prev unchanged: the chain now skips task i.
                    None => decision.drops.push(i),
                }
                // Positions past i re-chain from prev on demand.
                match rechained_at {
                    None => baseline.reset(&prev),
                    Some(at) => baseline.rewind(&prev, i + 1 - at),
                }
                rechained_at = rechained_at.or(Some(i + 1));
            } else {
                let kept = match rechained_at {
                    None => keep_all.get(i).map(|kept| Cow::Borrowed(&kept.completion)),
                    Some(_) => window.first().map(|kept| Cow::Owned(kept.completion.clone())),
                };
                debug_assert!(kept.is_some(), "no link for the task kept at position {i}");
                prev = kept.unwrap_or(prev);
            }
        }
        decision
    }

    // Eq 8 has no pressure term: the mechanism is autonomous.
    fn reads_pressure(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{idle_queue, pet, queue};
    use taskdrop_model::approx::{degraded_pet, ApproxSpec};
    use taskdrop_model::{MachineTypeId, PetMatrix, TaskTypeId};
    use taskdrop_pmf::{Compaction, Pmf};

    fn ctx() -> DropContext {
        DropContext::plain()
    }

    fn approx_ctx(spec: ApproxSpec) -> DropContext {
        DropContext { approx: Some(spec), ..ctx() }
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
        QueueView::new(
            Pmf::point(0),
            pending
                .iter()
                .map(|&(ttype, deadline, degraded)| ChainTask {
                    deadline,
                    exec: exec(if degraded { apet } else { pet }, ttype),
                })
                .collect(),
            pending
                .iter()
                .map(|&(ttype, _, degraded)| (!degraded).then(|| exec(apet, ttype)))
                .collect(),
            Compaction::None,
        )
    }

    #[test]
    fn empty_queue_no_drops() {
        let pet = pet();
        let q = idle_queue(&pet, 0, &[]);
        assert!(ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn single_task_never_dropped() {
        let pet = pet();
        // Hopeless deadline, but it is the last task: influence zone empty.
        let q = idle_queue(&pet, 0, &[(1, 5)]);
        assert!(ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn drops_doomed_blocker() {
        let pet = pet();
        // Task 1 (type 1, exec 50) has deadline 20: chance 0. Behind it,
        // task 2 (type 0, exec 10) with deadline 30: blocked it completes at
        // 60 (chance 0); alone it completes at 10 (chance 1). Dropping the
        // blocker gains 1.0 > beta * 0.0.
        let q = idle_queue(&pet, 0, &[(1, 20), (0, 30)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert_eq!(d.drops, vec![0]);
    }

    #[test]
    fn keeps_viable_blocker() {
        let pet = pet();
        // Task 1 (exec 50, deadline 60): chance 1. Task 2 (exec 10,
        // deadline 70): completes at 60 < 70, chance 1. Nothing to gain.
        let q = idle_queue(&pet, 0, &[(1, 60), (0, 70)]);
        assert!(ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn beta_infinite_disables_dropping() {
        let pet = pet();
        // Blocker of type 2 ({20: .5, 80: .5}) with deadline 45: chance 0.5.
        // Follower (exec 10) with deadline 35: blocked chance = P(done<35)
        // = P(exec branch 20) * P(10 after) = 30 < 35 -> 0.5; alone chance 1.
        // Gain 0.5 vs loss 0.5: beta=1 is indifferent (strict >), huge beta
        // certainly keeps it.
        let q = idle_queue(&pet, 0, &[(2, 45), (0, 35)]);
        let conservative = ProactiveDropper::new(1e12, 2);
        assert!(conservative.select_drops_fresh(&q, &ctx()).is_empty());
        // With beta = 1 and a slightly *bigger* gain (tighten the follower
        // deadline to 31 so the blocked chance drops to 0.5 while... keep
        // the construction simple: widen gain by making the blocker's own
        // chance smaller via deadline 25 -> blocker chance 0.5 (20 < 25),
        // hmm same. Direct check: beta=1 drops when gain exceeds loss.)
        let q2 = idle_queue(&pet, 0, &[(2, 85), (0, 35)]);
        // Blocker chance: 20<85 and 80<85 -> 1.0; follower blocked: done at
        // 30 (.5) or 90 (.5) -> 0.5; alone -> 1.0. Gain 0.5 < loss 1.0+0.5:
        // no drop at any beta >= 1. Sanity only.
        assert!(ProactiveDropper::new(1.0, 2).select_drops_fresh(&q2, &ctx()).is_empty());
    }

    #[test]
    fn zero_keep_chance_blocker_dropped_at_any_beta() {
        let pet = pet();
        // Literal Eq 8: keep-future chance 0 means any gain wins at any beta.
        let q = idle_queue(&pet, 0, &[(1, 20), (0, 30)]);
        let conservative = ProactiveDropper::new(1e12, 2);
        assert_eq!(conservative.select_drops_fresh(&q, &ctx()).drops, vec![0]);
    }

    #[test]
    fn does_not_drop_for_zero_sum_gain() {
        let pet = pet();
        // Both tasks hopeless: dropping the first gains nothing (0 > 0 is
        // false), so Eq 8 keeps it; the engine's reactive dropping will
        // handle them as their deadlines pass.
        let q = idle_queue(&pet, 0, &[(1, 10), (1, 10)]);
        assert!(ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn eta_one_misses_far_gain() {
        let pet = pet();
        // Queue: A (type 1, exec 50, deadline 55, chance 1 alone),
        //        B (type 0, exec 10, deadline 70): behind A completes at 60,
        //          chance 1? 60 < 70 yes. Make B's deadline 58: 60 >= 58 ->
        //          chance 0; dropped-A chance: completes at 10 < 58 -> 1.
        //        C (type 0, exec 10, deadline 75): behind A+B completes at 70
        //          (or 60 if B reactively dropped...) — construct so that the
        //          gain for dropping A shows only at depth 2.
        // A: chance 1 (50 < 55). Dropping A loses 1.0.
        // eta=1 sees only B: gain = p(B|drop A) - p(B|keep A) = 1 - 0 = 1.
        //   Eq 8: 1 > 1*(p_A + p_B) = 1*(1+0) = 1 -> false, keep A.
        // eta=2 adds C: keep-chain: A done 50, B ran (started 50<58) done 60,
        //   C starts 60, done 70 < 75 -> p_C = 1. keep sum = 1+0+1 = 2.
        //   drop-chain: B done 10, C done 20 -> both 1. drop sum = 2.
        //   2 > 2 false -> keep A. Good: both depths keep A here.
        // Now tighten A's deadline to 45 so p_A = 0 (50 >= 45 means A cannot
        // even start? A starts at 0 < 45, completes 50 >= 45: ran but late:
        // p_A = 0, and it still blocks).
        //   eta=1: drop-sum = p(B) = 1; keep-sum = p_A + p_B = 0 + 0 = 0.
        //     1 > 0 -> drop A. Hmm, also drops. Distinguish eta=1 miss: need
        //     p_B unaffected but p_C affected.
        // Make B tiny with a very loose deadline (succeeds either way), C
        // tight (only succeeds if A dropped):
        //   A: type 1 (exec 50), deadline 45 -> p_A = 0 (runs, finishes late).
        //   B: type 0 (exec 10), deadline 1000 -> p_B = 1 either way.
        //   C: type 0 (exec 10), deadline 25: keep-A -> starts 60, late (0);
        //      drop-A -> B done 10, C done 20 < 25 (1).
        // eta=1: drop-sum = p(B|dropA) = 1; keep-sum = p_A + p_B = 0 + 1 = 1.
        //   1 > 1 false -> A kept (misses C's gain).
        // eta=2: drop-sum = 1 + 1 = 2; keep-sum = 0 + 1 + 0 = 1. 2 > 1 -> drop A.
        let mk = |pet| idle_queue(pet, 0, &[(1, 45), (0, 1000), (0, 25)]);
        let q = mk(&pet);
        let shallow = ProactiveDropper::new(1.0, 1);
        assert!(shallow.select_drops_fresh(&q, &ctx()).is_empty(), "eta=1 misses the depth-2 gain");
        let deep = ProactiveDropper::new(1.0, 2);
        assert_eq!(deep.select_drops_fresh(&q, &ctx()).drops, vec![0], "eta=2 sees it");
    }

    #[test]
    fn last_task_never_dropped() {
        let pet = pet();
        // Three tasks; make the last hopeless. It must survive (its
        // influence zone is empty).
        let q = idle_queue(&pet, 0, &[(0, 1000), (0, 1000), (1, 5)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert!(!d.drops.contains(&2));
    }

    #[test]
    fn confirmed_drop_updates_chain_for_later_decisions() {
        let pet = pet();
        // A doomed huge task followed by two viable ones; after dropping the
        // blocker the survivors are fine and must not be dropped.
        let q = idle_queue(&pet, 0, &[(1, 20), (0, 40), (0, 40)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert_eq!(d.drops, vec![0]);
    }

    #[test]
    fn works_behind_running_task() {
        let pet = pet();
        // Machine busy until 100. Pending: X (type 0, deadline 50: doomed,
        // cannot start before 50), Y (type 0, deadline 115: behind X the
        // reactive pass-through means X's slot costs nothing... X passes
        // through (never starts), so Y completes at 110 < 115 either way;
        // no gain, no drop.)
        let q = queue(&pet, Pmf::point(100), &[(0, 50), (0, 115)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert!(d.is_empty(), "pass-through already neutralises the doomed task");
        // But with a *stochastic* runner the doomed task can hurt: runner
        // finishes at 40 w.p. 0.5 (X starts, occupying until 50) or at 100.
        // Y deadline 115: keep -> Y completion = 60 w.p. .5 / 110 w.p. .5,
        // all < 115: chance 1 anyway. Tighten Y deadline to 105:
        //   keep: 60 (ok) / 110 (late) -> 0.5. drop X: 50/110 -> 0.5. equal.
        // Tighten to 111: keep: 60 ok, 110 ok -> 1.0; equal again. The case
        // that matters: X *starts* at 40 and runs 10 -> occupies 40..50, Y
        // starts at 50 vs 40. Y deadline 51 (exec 10): keep -> done 60 w.p.
        // .5 (late) or pass-through... runner at 100 >= X deadline 50: X
        // passes; Y starts at 100: late. chance = 0. drop X: Y starts 40,
        // done 50 < 51 w.p. 0.5 -> chance 0.5 > 0. Drop!
        let runner = Pmf::from_impulses(vec![(40, 0.5), (100, 0.5)]).unwrap();
        let q = queue(&pet, runner, &[(0, 50), (0, 51)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
        assert_eq!(d.drops, vec![0]);
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
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &approx_ctx(spec));
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
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &approx_ctx(spec));
        assert_eq!(d.drops, vec![0]);
        assert!(d.degrades.is_empty());
    }

    #[test]
    fn keeps_viable_tasks_untouched() {
        let pet = pet();
        let spec = ApproxSpec::half_time();
        let apet = degraded_pet(&pet, spec);
        let q = approx_queue(&pet, &apet, &[(1, 60, false), (0, 70, false)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &approx_ctx(spec));
        assert!(d.is_empty());
    }

    #[test]
    fn already_degraded_tasks_not_redegraded() {
        let pet = pet();
        let spec = ApproxSpec::new(0.2, 0.8);
        let apet = degraded_pet(&pet, spec);
        // The first task is already approximate.
        let q = approx_queue(&pet, &apet, &[(1, 30, true), (0, 25, false)]);
        let d = ProactiveDropper::paper_default().select_drops_fresh(&q, &approx_ctx(spec));
        assert!(!d.degrades.contains(&0), "cannot degrade twice: {d:?}");
    }

    #[test]
    #[should_panic(expected = "beta must be >= 1")]
    fn rejects_beta_below_one() {
        let _ = ProactiveDropper::new(0.5, 2);
    }

    #[test]
    #[should_panic(expected = "effective depth")]
    fn rejects_zero_eta() {
        let _ = ProactiveDropper::new(1.0, 0);
    }
}
