//! Deadline-aware convolution — Equation (1) of the paper, reused verbatim by
//! Equations (4) and (5) for provisional-drop analysis.
//!
//! Semantics: let `prev` be the completion-time PMF of the task ahead in the
//! machine queue and `exec` the execution-time PMF of the pending task with
//! deadline `deadline`.
//!
//! * Predecessor mass landing **before** the deadline lets the task start, so
//!   it convolves with `exec` (including outcomes that finish late — starting
//!   on time does not guarantee finishing on time).
//! * Predecessor mass landing **at or after** the deadline means the task is
//!   *reactively dropped* in that branch of the future: the machine becomes
//!   free at the predecessor's completion time, so that mass passes through
//!   unchanged.
//!
//! The result is the completion-time PMF "of the task slot": a mixture of
//! "task ran" and "task was dropped, slot freed at predecessor completion".
//!
//! **Mass contract.** The output's total mass is exactly
//!
//! ```text
//!   |out| = |prev ≥ deadline| + |prev < deadline| · |exec|
//! ```
//!
//! where `|·|` is total mass: pass-through mass survives verbatim, and
//! on-time mass multiplies by `exec`'s mass (convolution of
//! sub-distributions). When `exec` is a proper distribution (mass 1 — every
//! PET matrix cell is) the operation is a Markov kernel and total mass is
//! conserved exactly. A *sub*-normalised `exec` models a task that may never
//! complete; in the degenerate empty-`exec` case the whole on-time branch is
//! absorbed and only late predecessor mass passes through (see
//! `empty_exec_passes_only_late_mass`).

use crate::chain::deadline_convolve_impl;
use crate::pmf::Pmf;
use crate::Tick;

/// Computes Equation (1): completion-time PMF of a pending task with
/// execution PMF `exec` and deadline `deadline`, queued behind a predecessor
/// whose completion PMF is `prev`.
///
/// "Can start before the deadline" is the strict comparison `k < deadline`,
/// consistent with [`Pmf::mass_before`] and Figure 2 of the paper.
///
/// Total mass follows the module-level mass contract: conserved exactly for
/// a proper `exec`, scaled on the on-time branch for a sub-normalised one.
///
/// Colliding products are summed in *generation order* (ascending
/// predecessor tick, then ascending execution tick) through the pair path
/// that is also [`crate::ChainEvaluator`]'s sparse fallback; the
/// evaluator's dense path keeps the same order, so naive and
/// evaluator-based chain evaluations are bit-identical.
#[must_use]
pub fn deadline_convolve(prev: &Pmf, exec: &Pmf, deadline: Tick) -> Pmf {
    deadline_convolve_impl(prev, exec, deadline)
}

/// Chance of success (Equation (2)): probability that a task with
/// completion-time PMF `completion` finishes strictly before `deadline`.
#[must_use]
pub fn chance_of_success(completion: &Pmf, deadline: Tick) -> f64 {
    completion.mass_before(deadline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    /// Reproduces Figure 2 of the paper exactly.
    #[test]
    fn paper_figure2() {
        let exec = Pmf::from_impulses(vec![(1, 0.6), (2, 0.4)]).unwrap();
        let prev = Pmf::from_impulses(vec![(10, 0.6), (11, 0.3), (12, 0.05), (13, 0.05)]).unwrap();
        let c = deadline_convolve(&prev, &exec, 13);
        let pairs = c.to_pairs();
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs[0].0, 11);
        assert!(close(pairs[0].1, 0.36));
        assert_eq!(pairs[1].0, 12);
        assert!(close(pairs[1].1, 0.42));
        assert_eq!(pairs[2].0, 13);
        assert!(close(pairs[2].1, 0.20));
        assert_eq!(pairs[3].0, 14);
        assert!(close(pairs[3].1, 0.02));
        // Chance of success annotated in the figure: mass strictly before 13.
        assert!(close(chance_of_success(&c, 13), 0.78));
    }

    #[test]
    fn conserves_mass() {
        let exec = Pmf::from_impulses(vec![(3, 0.5), (7, 0.5)]).unwrap();
        let prev = Pmf::from_impulses(vec![(0, 0.25), (10, 0.25), (20, 0.5)]).unwrap();
        for deadline in [0, 1, 5, 10, 15, 21, 100] {
            let c = deadline_convolve(&prev, &exec, deadline);
            assert!(close(c.total_mass(), 1.0), "deadline={deadline}");
        }
    }

    #[test]
    fn all_mass_after_deadline_passes_through() {
        // Predecessor finishes at 20 or later; deadline 15 -> task never runs.
        let exec = Pmf::point(5);
        let prev = Pmf::from_impulses(vec![(20, 0.5), (30, 0.5)]).unwrap();
        let c = deadline_convolve(&prev, &exec, 15);
        assert_eq!(c, prev);
        assert_eq!(chance_of_success(&c, 15), 0.0);
    }

    #[test]
    fn all_mass_before_deadline_is_plain_convolution() {
        let exec = Pmf::from_impulses(vec![(2, 0.5), (4, 0.5)]).unwrap();
        let prev = Pmf::from_impulses(vec![(1, 0.5), (3, 0.5)]).unwrap();
        let c = deadline_convolve(&prev, &exec, 100);
        assert_eq!(c, prev.convolve(&exec));
    }

    #[test]
    fn boundary_start_exactly_at_deadline_is_dropped() {
        // Predecessor completes exactly at the deadline: task cannot start.
        let exec = Pmf::point(1);
        let prev = Pmf::point(10);
        let c = deadline_convolve(&prev, &exec, 10);
        assert_eq!(c, prev);
        // One tick of slack lets it run.
        let c = deadline_convolve(&prev, &exec, 11);
        assert_eq!(c, Pmf::point(11));
    }

    #[test]
    fn late_finish_mass_is_kept_not_passed_through() {
        // Starts on time (prev=5 < 10) but may finish late (exec up to 20).
        let exec = Pmf::from_impulses(vec![(1, 0.5), (20, 0.5)]).unwrap();
        let prev = Pmf::point(5);
        let c = deadline_convolve(&prev, &exec, 10);
        assert!(close(c.at(6), 0.5)); // on time
        assert!(close(c.at(25), 0.5)); // late, but it did run
        assert!(close(chance_of_success(&c, 10), 0.5));
    }

    #[test]
    fn empty_prev_yields_empty() {
        let exec = Pmf::point(1);
        let c = deadline_convolve(&Pmf::empty(), &exec, 10);
        assert!(c.is_empty());
    }

    #[test]
    fn empty_exec_passes_only_late_mass() {
        // Degenerate: a task with no execution-time model contributes nothing
        // for on-time branches; late branches still pass through. This is the
        // module-level mass contract with |exec| = 0.
        let prev = Pmf::from_impulses(vec![(5, 0.5), (20, 0.5)]).unwrap();
        let c = deadline_convolve(&prev, &Pmf::empty(), 10);
        assert_eq!(c.to_pairs(), vec![(20, 0.5)]);
        let expected = prev.mass_at_or_after(10) + prev.mass_before(10) * 0.0;
        assert!(close(c.total_mass(), expected));
    }

    /// The module-level mass contract for a sub-normalised `exec`:
    /// `|out| = |prev >= d| + |prev < d| * |exec|`.
    #[test]
    fn subnormal_exec_scales_only_on_time_mass() {
        let prev = Pmf::from_impulses(vec![(0, 0.25), (10, 0.25), (20, 0.5)]).unwrap();
        let exec = Pmf::point(3).scale_mass(0.6);
        for deadline in [0, 5, 15, 25] {
            let c = deadline_convolve(&prev, &exec, deadline);
            let expected =
                prev.mass_at_or_after(deadline) + prev.mass_before(deadline) * exec.total_mass();
            assert!(close(c.total_mass(), expected), "deadline={deadline}");
        }
    }

    /// Dropping the predecessor (replacing `prev` by something stochastically
    /// earlier) can only improve the chance of success of the follower.
    #[test]
    fn earlier_predecessor_never_hurts() {
        let exec = Pmf::from_impulses(vec![(2, 0.3), (5, 0.7)]).unwrap();
        let slow = Pmf::from_impulses(vec![(8, 0.5), (12, 0.5)]).unwrap();
        let fast = Pmf::from_impulses(vec![(4, 0.5), (8, 0.5)]).unwrap(); // dominates
        for deadline in [5, 9, 11, 13, 15, 20] {
            let p_slow = chance_of_success(&deadline_convolve(&slow, &exec, deadline), deadline);
            let p_fast = chance_of_success(&deadline_convolve(&fast, &exec, deadline), deadline);
            assert!(p_fast >= p_slow - 1e-12, "deadline={deadline}");
        }
    }

    /// A completion past `Tick::MAX` is pinned there, where no deadline
    /// precedes it, on the pair path and through the chain evaluator.
    #[test]
    fn completions_past_the_last_tick_saturate() {
        let prev = Pmf::point(Tick::MAX - 2);
        let exec = Pmf::point(5);
        let c = deadline_convolve(&prev, &exec, Tick::MAX);
        assert_eq!(c.to_pairs(), vec![(Tick::MAX, 1.0)]);
        assert_eq!(c.mass_before(Tick::MAX), 0.0);
        let mut eval = crate::ChainEvaluator::new();
        let task = crate::ChainTask { deadline: Tick::MAX, exec: &exec };
        let (chance, completion) = eval.step_from(&prev, task, crate::Compaction::None);
        assert_eq!((chance, completion), (0.0, c));
        assert_eq!(eval.chance_from(&prev, task), 0.0);
        // Products on both sides of the end: those that fit keep their tick.
        let prev = Pmf::from_impulses(vec![(0, 0.5), (Tick::MAX - 2, 0.5)]).unwrap();
        let c = deadline_convolve(&prev, &exec, Tick::MAX);
        assert_eq!(c.to_pairs(), vec![(5, 0.5), (Tick::MAX, 0.5)]);
        assert_eq!(prev.convolve(&exec), c);
        assert_eq!(prev.shift(5), c);
    }
}
