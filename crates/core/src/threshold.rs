//! The prior-work baseline: probabilistic **threshold** dropping
//! ("PAM+Threshold" in the paper's Figures 8 and 9), reconstructing the
//! pruning mechanism of Gentry et al. [2] / Denninnart et al. [17].
//!
//! A pending task is dropped when its chance of success falls below a
//! threshold. The threshold is *user-provided* — exactly the drawback the
//! paper's autonomous mechanism removes — and, following the paper's
//! description of [2] ("the predetermined threshold is adjusted at each
//! mapping event"), it is mildly adapted to the observed oversubscription:
//!
//! ```text
//!   effective = clamp(base · (1 + ADAPT_RATE · pressure), 0, CAP)
//! ```
//!
//! where `pressure` is the ratio of unmapped batch-queue tasks to total
//! machine-queue capacity (0 when the system keeps up), and the rate and
//! cap are fixed ([`ThresholdDropper::ADAPT_RATE`] = 0.25,
//! [`ThresholdDropper::CAP`] = 0.8). A more oversubscribed system prunes
//! more aggressively. The exact adaptive rule of [2] is not restated in the
//! reproduced paper; this reconstruction preserves its interface (a base
//! threshold the operator must pick) and its qualitative behaviour (see
//! DESIGN.md, substitutions table).
//!
//! Like the heuristic, the pass is head-to-tail with confirmed drops taking
//! effect immediately; chances are computed with the paper's Eq (1) chain.
//! The last pending task *is* droppable here — threshold pruning judges each
//! task on its own chance, not on its influence zone.

use crate::{DropDecision, DropPolicy};
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{DropContext, QueueView};

/// Threshold-based probabilistic dropping (the PAM+Threshold baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdDropper {
    base: f64,
}

impl ThresholdDropper {
    /// How fast the threshold rises with oversubscription pressure.
    pub const ADAPT_RATE: f64 = 0.25;

    /// The highest threshold pressure can raise it to.
    pub const CAP: f64 = 0.8;

    /// Creates a threshold dropper with the given base threshold.
    ///
    /// # Panics
    ///
    /// Panics if [`ThresholdDropper::check_settings`] refuses `base`.
    #[must_use]
    pub fn new(base: f64) -> Self {
        assert_eq!(Self::check_settings(base), Ok(()), "invalid threshold dropper");
        ThresholdDropper { base }
    }

    /// The condition [`ThresholdDropper::new`] asserts: `base` in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// The broken condition, in words.
    pub fn check_settings(base: f64) -> Result<(), &'static str> {
        if !(0.0..=1.0).contains(&base) {
            return Err("base threshold must be in [0, 1]");
        }
        Ok(())
    }

    /// The threshold the paper's comparison uses (25 %).
    #[must_use]
    pub fn paper_default() -> Self {
        ThresholdDropper::new(0.25)
    }

    /// The effective threshold at the given oversubscription pressure.
    #[must_use]
    pub fn effective_threshold(&self, pressure: f64) -> f64 {
        (self.base * (1.0 + Self::ADAPT_RATE * pressure.max(0.0))).clamp(0.0, Self::CAP)
    }
}

impl Default for ThresholdDropper {
    fn default() -> Self {
        ThresholdDropper::paper_default()
    }
}

impl DropPolicy for ThresholdDropper {
    fn name(&self) -> &'static str {
        "Threshold"
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        let threshold = self.effective_threshold(ctx.pressure);
        let mut drops = Vec::new();
        let eval = &mut scratch.eval;
        let mut prev = queue.base().clone();
        for (i, &t) in queue.tasks().iter().enumerate() {
            let (chance, completion) = eval.step_from(&prev, t, queue.compaction());
            if chance < threshold {
                drops.push(i);
                // prev unchanged: the chain skips the dropped task.
            } else {
                prev = completion;
            }
        }
        DropDecision::drops(drops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{idle_queue, pet};

    fn ctx(pressure: f64) -> DropContext {
        DropContext { pressure, approx: None }
    }

    #[test]
    fn drops_below_threshold_only() {
        let pet = pet();
        // Task 1: type 2 ({20: .5, 80: .5}), deadline 50 -> chance 0.5.
        // Task 2 (behind 1): type 0 (exec 10), deadline 95:
        //   completion = 30 w.p. .5 / 90 w.p. .5 -> chance 1.0.
        let q = idle_queue(&pet, 0, &[(2, 50), (0, 95)]);
        let lenient = ThresholdDropper::new(0.3);
        assert!(lenient.select_drops_fresh(&q, &ctx(0.0)).is_empty());
        let strict = ThresholdDropper::new(0.6);
        assert_eq!(strict.select_drops_fresh(&q, &ctx(0.0)).drops, vec![0]);
    }

    #[test]
    fn zero_threshold_never_drops() {
        let pet = pet();
        let q = idle_queue(&pet, 0, &[(1, 20), (0, 30)]);
        let off = ThresholdDropper::new(0.0);
        assert!(off.select_drops_fresh(&q, &ctx(5.0)).is_empty());
    }

    #[test]
    fn may_drop_last_task() {
        let pet = pet();
        // Unlike Eq-8 droppers, threshold pruning discards a hopeless tail.
        let q = idle_queue(&pet, 0, &[(0, 1000), (1, 5)]);
        let d = ThresholdDropper::paper_default().select_drops_fresh(&q, &ctx(0.0));
        assert_eq!(d.drops, vec![1]);
    }

    #[test]
    fn dropping_improves_follower_chance_within_pass() {
        let pet = pet();
        // Doomed 50-tick blocker (chance 0 < 0.25) then a task that is only
        // viable once the blocker is gone.
        let q = idle_queue(&pet, 0, &[(1, 20), (0, 15)]);
        let d = ThresholdDropper::paper_default().select_drops_fresh(&q, &ctx(0.0));
        // Blocker dropped; follower then completes at 10 < 15 (chance 1).
        assert_eq!(d.drops, vec![0]);
    }

    #[test]
    fn threshold_adapts_to_pressure() {
        let t = ThresholdDropper::new(0.2);
        assert!((t.effective_threshold(0.0) - 0.2).abs() < 1e-12);
        assert!((t.effective_threshold(2.0) - 0.3).abs() < 1e-12);
        // Caps at CAP.
        assert!((t.effective_threshold(100.0) - 0.8).abs() < 1e-12);
        // Negative pressure treated as zero.
        assert!((t.effective_threshold(-3.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn pressure_changes_decisions() {
        let pet = pet();
        // Chance 0.5 task: kept at base 0.4, dropped once pressure raises
        // the effective threshold above 0.5 (0.6 at pressure 2).
        let q = idle_queue(&pet, 0, &[(2, 50), (0, 1000)]);
        let t = ThresholdDropper::new(0.4);
        assert!(t.select_drops_fresh(&q, &ctx(0.0)).is_empty());
        assert_eq!(t.select_drops_fresh(&q, &ctx(2.0)).drops, vec![0]);
    }

    #[test]
    #[should_panic(expected = "base threshold")]
    fn rejects_out_of_range_base() {
        let _ = ThresholdDropper::new(1.5);
    }
}
