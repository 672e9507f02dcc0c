//! **Optimal** proactive dropping (Section IV-D).
//!
//! For a queue of `q` pending tasks the optimal decision examines every
//! subset of droppable positions — all pending tasks except the last (its
//! influence zone is empty) — and keeps the subset whose surviving chain
//! maximises the instantaneous robustness (Eq 3). That is `2^(q-1)` subsets,
//! each requiring up to `q` deadline-convolutions: `O(q·2^(q-1))`
//! convolutions per queue (the paper's complexity analysis).
//!
//! Implementation: depth-first search over positions sharing chain prefixes,
//! so the keep/drop decision at position `i` reuses the predecessor
//! completion PMF computed for positions `0..i`. The total number of
//! convolutions equals the number of *keep* edges in the decision tree
//! (`≲ 2^q`), substantially below the naive per-subset recomputation.
//!
//! An optional **bound pruning** extension (not in the paper; see DESIGN.md)
//! cuts subtrees that provably cannot beat the incumbent: the chance of any
//! position is at most its chance when *everything* droppable ahead of it is
//! dropped, which is precomputed once per queue. With pruning the search is
//! exact — identical decisions, fewer convolutions — as the test
//! `pruned_and_unpruned_agree` and the property `pruning_is_exact` check
//! against the unpruned search.

use crate::{DropDecision, DropPolicy};
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::queue::{ChainEvaluator, ChainTask};
use taskdrop_model::view::{DropContext, QueueView};
use taskdrop_pmf::{Compaction, Pmf};

/// Exhaustive optimal proactive dropping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimalDropper {
    /// Enable the admissible-bound pruning extension.
    prune: bool,
}

impl OptimalDropper {
    /// Hard cap on droppable positions per queue; beyond this the
    /// enumeration would explode (the paper's regime is q ≤ 6).
    /// [`OptimalDropper::check_queue_size`] refuses configurations that
    /// could exceed it; [`DropPolicy::select_drops`] panics past it.
    pub const MAX_DROPPABLE: usize = 24;

    /// Creates the exhaustive search (pruning enabled).
    #[must_use]
    pub fn new() -> Self {
        OptimalDropper { prune: true }
    }

    /// Plain enumeration without bound pruning: the reference the pruned
    /// search is tested against.
    #[must_use]
    pub fn without_pruning() -> Self {
        OptimalDropper { prune: false }
    }

    /// The condition a machine-queue capacity must meet for the search to
    /// stay within [`OptimalDropper::MAX_DROPPABLE`]. The longest pending
    /// list the engine judges has `queue_size` entries (a restored
    /// checkpoint bounds only occupancy, so a machine with nothing running
    /// may hold that many), and every position but the last is droppable.
    ///
    /// # Errors
    ///
    /// The broken condition, in words.
    pub fn check_queue_size(queue_size: usize) -> Result<(), &'static str> {
        if queue_size.saturating_sub(1) > Self::MAX_DROPPABLE {
            return Err("queue_size must be at most 25 for Optimal's exhaustive search");
        }
        Ok(())
    }

    /// Whether bound pruning is enabled.
    #[must_use]
    pub fn prunes(&self) -> bool {
        self.prune
    }
}

impl Default for OptimalDropper {
    fn default() -> Self {
        OptimalDropper::new()
    }
}

/// DFS state shared across the recursion.
struct Search<'a> {
    tasks: &'a [ChainTask<'a>],
    compaction: Compaction,
    prune: bool,
    /// Fused per-step evaluator borrowed from the persistent context: one
    /// completion materialisation per keep edge instead of a raw PMF plus
    /// a compacted clone, with buffers warm across mapping events.
    eval: &'a mut ChainEvaluator,
    /// Upper bound on the chance of position `i`: its chance when chained
    /// directly after the queue base (all predecessors dropped), plus the
    /// best-case chances of all later positions. `bound[i]` = max possible
    /// robustness contribution of positions `i..`.
    bound_tail: Vec<f64>,
    /// Incumbent: (robustness, drop count, drops).
    best_r: f64,
    best_drops: Vec<usize>,
    current: Vec<usize>,
}

impl Search<'_> {
    fn dfs(&mut self, pos: usize, prev: &Pmf, acc: f64) {
        if self.prune && acc + self.bound_tail[pos] <= self.best_r + 1e-12 {
            // Even with every remaining task at its best-case chance this
            // branch cannot strictly beat the incumbent.
            return;
        }
        if pos == self.tasks.len() {
            // Strict improvement required: prefers fewer drops (the keep
            // branch is explored first) and lexicographically smaller sets.
            if acc > self.best_r + 1e-12 {
                self.best_r = acc;
                self.best_drops = self.current.clone();
            }
            return;
        }
        let t = self.tasks[pos];
        // Keep branch first: the empty drop set is the first leaf visited.
        let (chance, completion) = self.eval.step_from(prev, t, self.compaction);
        self.dfs(pos + 1, &completion, acc + chance);
        // Drop branch (not allowed for the last position).
        if pos + 1 < self.tasks.len() {
            self.current.push(pos);
            self.dfs(pos + 1, prev, acc);
            self.current.pop();
        }
    }
}

impl DropPolicy for OptimalDropper {
    fn name(&self) -> &'static str {
        "Optimal"
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        let (base, tasks) = (queue.base(), queue.tasks());
        let n = tasks.len();
        if n < 2 {
            return DropDecision::none();
        }
        assert!(
            n - 1 <= Self::MAX_DROPPABLE,
            "optimal dropping over {} droppable positions would enumerate 2^{} subsets",
            n - 1,
            n - 1
        );
        let eval = &mut scratch.eval;

        // Per-position best-case chance: chained directly after the base.
        // Admissible: any surviving predecessor chain is stochastically
        // later than the bare base, and Eq (1) chances are monotone in the
        // predecessor (see `completion_dominates_predecessor` property).
        let mut bound_tail = vec![0.0; n + 1];
        for i in (0..n).rev() {
            bound_tail[i] = bound_tail[i + 1] + eval.chance_from(base, tasks[i]);
        }

        // Seed the incumbent with the no-drop chain so pruning has a bar,
        // then search all alternatives.
        let seed_r = eval.chance_sum(base, tasks, n, ctx.compaction);
        let mut search = Search {
            tasks,
            compaction: ctx.compaction,
            prune: self.prune,
            eval,
            bound_tail,
            best_r: seed_r,
            best_drops: Vec::new(),
            current: Vec::new(),
        };
        search.dfs(0, base, 0.0);
        DropDecision::drops(search.best_drops)
    }

    // The search maximises Eq 3 over the queue alone.
    fn reads_pressure(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{idle_queue, pet};
    use crate::ProactiveDropper;
    use taskdrop_model::queue::{chain_with_drops, instantaneous_robustness};

    fn ctx() -> DropContext {
        DropContext::plain(Compaction::None)
    }

    /// Oracle: enumerate all masks with `chain_with_drops` and return the
    /// best robustness value.
    fn oracle_best(queue: &QueueView<'_>) -> f64 {
        let n = queue.tasks().len();
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << n) {
            // Last task not droppable.
            if n > 0 && mask & (1 << (n - 1)) != 0 {
                continue;
            }
            let dropped: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            let links = chain_with_drops(queue.base(), queue.tasks(), &dropped, Compaction::None);
            best = best.max(instantaneous_robustness(&links));
        }
        best
    }

    fn achieved(queue: &QueueView<'_>, drops: &[usize]) -> f64 {
        let mut mask = vec![false; queue.tasks().len()];
        for &d in drops {
            mask[d] = true;
        }
        let links = chain_with_drops(queue.base(), queue.tasks(), &mask, Compaction::None);
        instantaneous_robustness(&links)
    }

    #[test]
    fn empty_and_singleton_queues() {
        let pet = pet();
        let q = idle_queue(&pet, 0, &[]);
        assert!(OptimalDropper::new().select_drops_fresh(&q, &ctx()).is_empty());
        let q = idle_queue(&pet, 0, &[(1, 5)]);
        assert!(OptimalDropper::new().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn matches_oracle_on_doomed_blocker() {
        let pet = pet();
        let q = idle_queue(&pet, 0, &[(1, 20), (0, 30)]);
        let d = OptimalDropper::new().select_drops_fresh(&q, &ctx());
        assert_eq!(d.drops, vec![0]);
        assert!((achieved(&q, &d.drops) - oracle_best(&q)).abs() < 1e-9);
    }

    #[test]
    fn no_drop_when_nothing_gained() {
        let pet = pet();
        let q = idle_queue(&pet, 0, &[(1, 60), (0, 70)]);
        assert!(OptimalDropper::new().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn matches_oracle_on_mixed_queues() {
        let pet = pet();
        let queues: [&[(u16, u64)]; 3] = [
            &[(2, 90), (0, 100), (1, 120), (0, 50)],
            &[(1, 55), (1, 40), (0, 95), (0, 130)],
            &[(2, 30), (2, 85), (0, 95), (1, 160), (0, 175)],
        ];
        for pendings in queues {
            let q = idle_queue(&pet, 0, pendings);
            let d = OptimalDropper::new().select_drops_fresh(&q, &ctx());
            let got = achieved(&q, &d.drops);
            let best = oracle_best(&q);
            assert!((got - best).abs() < 1e-9, "optimal {got} vs oracle {best}");
        }
    }

    #[test]
    fn pruned_and_unpruned_agree() {
        let pet = pet();
        let pendings = [(2, 60), (1, 70), (0, 45), (2, 150), (0, 90)];
        let q = idle_queue(&pet, 0, &pendings);
        let with = OptimalDropper::new().select_drops_fresh(&q, &ctx());
        let without = OptimalDropper::without_pruning().select_drops_fresh(&q, &ctx());
        assert_eq!(with, without);
    }

    #[test]
    fn optimal_at_least_as_good_as_heuristic() {
        let pet = pet();
        let cases: [&[(u16, u64)]; 3] = [
            &[(1, 20), (0, 30), (2, 80)],
            &[(2, 45), (0, 22), (1, 130), (0, 60)],
            &[(0, 15), (1, 55), (2, 95), (0, 105)],
        ];
        for pendings in cases {
            let q = idle_queue(&pet, 0, pendings);
            let od = OptimalDropper::new().select_drops_fresh(&q, &ctx());
            let hd = ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx());
            let r_opt = achieved(&q, &od.drops);
            let r_heu = achieved(&q, &hd.drops);
            assert!(r_opt + 1e-9 >= r_heu, "optimal {r_opt} < heuristic {r_heu}");
        }
    }

    #[test]
    fn never_drops_last_task() {
        let pet = pet();
        let q = idle_queue(&pet, 0, &[(0, 1000), (1, 5)]);
        let d = OptimalDropper::new().select_drops_fresh(&q, &ctx());
        assert!(!d.drops.contains(&1));
    }

    #[test]
    fn queue_size_bound_admits_exactly_the_searchable_queues() {
        let longest = OptimalDropper::MAX_DROPPABLE + 1;
        assert_eq!(OptimalDropper::check_queue_size(1), Ok(()));
        assert_eq!(OptimalDropper::check_queue_size(longest), Ok(()));
        let refusal = OptimalDropper::check_queue_size(longest + 1).unwrap_err();
        assert!(refusal.contains(&format!("at most {longest} ")), "{refusal}");
        // The longest admitted queue sits exactly at the search's cap.
        let pet = pet();
        let pendings = vec![(0, 10_000); longest];
        let q = idle_queue(&pet, 0, &pendings);
        assert!(OptimalDropper::new().select_drops_fresh(&q, &ctx()).is_empty());
    }

    #[test]
    fn prefers_fewest_drops_among_ties() {
        let pet = pet();
        // Two identical viable tasks: dropping either changes nothing
        // (pass-through makes doomed drops free only when they add chance).
        // Both viable -> optimal must keep both.
        let q = idle_queue(&pet, 0, &[(0, 500), (0, 500)]);
        let d = OptimalDropper::new().select_drops_fresh(&q, &ctx());
        assert!(d.is_empty());
    }
}
