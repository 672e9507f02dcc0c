//! The no-proactive-dropping baseline ("+ReactDrop" in the paper's figures).
//!
//! Reactive dropping — discarding tasks whose deadlines have already passed —
//! is performed by the simulation engine itself at every mapping event (step
//! 2 of the paper's Figure 4 algorithm) regardless of policy, so this policy
//! simply never volunteers additional drops.

use crate::{DropDecision, DropPolicy};
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{DropContext, QueueView};

/// Dropping policy that performs no proactive drops.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactiveOnly;

impl DropPolicy for ReactiveOnly {
    fn name(&self) -> &'static str {
        "ReactDrop"
    }

    fn select_drops(
        &self,
        _queue: &QueueView<'_>,
        _ctx: &DropContext,
        _scratch: &mut PolicyCtx,
    ) -> DropDecision {
        DropDecision::none()
    }

    // Never drops, at any pressure.
    fn reads_pressure(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{idle_queue, pet};

    #[test]
    fn never_drops() {
        let pet = pet();
        // Even a hopeless queue yields no proactive drops.
        let q = idle_queue(&pet, 0, &[(1, 12), (0, 15)]);
        let ctx = DropContext { pressure: 10.0, approx: None };
        assert!(ReactiveOnly.select_drops_fresh(&q, &ctx).is_empty());
    }
}
