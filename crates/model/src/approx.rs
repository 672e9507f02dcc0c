//! Approximate computing — the paper's future-work extension.
//!
//! The conclusion of the paper: *"In future, we plan to extend the
//! probabilistic analysis to consider approximately computing tasks, in
//! addition to task dropping."* An approximate (degraded) task variant runs
//! in a fraction of the full execution time — e.g. transcoding at a lower
//! quality preset — and yields a fraction of the full utility. Instead of
//! discarding a doomed task outright, the system may degrade it: the queue
//! behind it still gains most of the slack, and the task itself salvages
//! partial value.
//!
//! The extension sits behind `SimConfig::approx` alone. When it is set, the
//! paper's heuristic (`ProactiveDropper`) weighs degrading against dropping
//! each task Eq 8 clears; no other policy degrades. A queue entry may be
//! degraded only while a spec is set, and a checkpoint holding one without
//! it is refused.

use crate::PetMatrix;
use serde::{Deserialize, Serialize};

/// Parameters of the approximate execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproxSpec {
    /// Execution-time multiplier of the degraded variant, in `(0, 1)`.
    pub time_factor: f64,
    /// Utility of a degraded on-time completion relative to a full one, in
    /// `(0, 1)`.
    pub value: f64,
}

impl ApproxSpec {
    /// Creates a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if [`ApproxSpec::check_settings`] refuses the parameters.
    #[must_use]
    pub fn new(time_factor: f64, value: f64) -> Self {
        assert_eq!(Self::check_settings(time_factor, value), Ok(()), "invalid approx spec");
        ApproxSpec { time_factor, value }
    }

    /// The conditions [`ApproxSpec::new`] asserts: both parameters lie
    /// strictly between 0 and 1 (a factor of 1 would make degradation
    /// pointless, 0 would make it free; a value of 1 or more would credit
    /// a degraded completion as a full one). A spec parsed from a file
    /// skipped them; `SimConfig::validate` checks them.
    ///
    /// # Errors
    ///
    /// The broken condition, in words.
    pub fn check_settings(time_factor: f64, value: f64) -> Result<(), &'static str> {
        let open_unit = |x: f64| x > 0.0 && x < 1.0;
        if !open_unit(time_factor) {
            return Err("approx time factor must be in (0, 1)");
        }
        if !open_unit(value) {
            return Err("approx value must be in (0, 1)");
        }
        Ok(())
    }

    /// A typical setting: half the execution time for 60 % of the value.
    #[must_use]
    pub fn half_time() -> Self {
        ApproxSpec::new(0.5, 0.6)
    }
}

/// Builds the degraded PET matrix: every cell's execution-time PMF scaled by
/// `spec.time_factor`. Computed once per simulation and shared by the engine
/// and the dropping policy.
#[must_use]
pub fn degraded_pet(pet: &PetMatrix, spec: ApproxSpec) -> PetMatrix {
    let cells = (0..pet.task_types())
        .flat_map(|t| {
            (0..pet.machine_types()).map(move |m| {
                pet.pmf(crate::TaskTypeId(t as u16), crate::MachineTypeId(m as u16))
                    .time_scale(spec.time_factor)
            })
        })
        .collect();
    PetMatrix::new(pet.task_types(), pet.machine_types(), cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineTypeId, TaskTypeId};
    use taskdrop_pmf::Pmf;

    #[test]
    fn degraded_pet_scales_every_cell() {
        let pet = PetMatrix::new(
            2,
            2,
            vec![Pmf::point(100), Pmf::point(200), Pmf::point(50), Pmf::point(80)],
        );
        let degraded = degraded_pet(&pet, ApproxSpec::new(0.5, 0.6));
        for t in 0..2u16 {
            for m in 0..2u16 {
                let full = pet.mean_exec(TaskTypeId(t), MachineTypeId(m));
                let half = degraded.mean_exec(TaskTypeId(t), MachineTypeId(m));
                assert!((half - full / 2.0).abs() < 1.0, "cell ({t},{m}): {half} vs {full}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "time factor")]
    fn rejects_factor_one() {
        let _ = ApproxSpec::new(1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "value")]
    fn rejects_zero_value() {
        let _ = ApproxSpec::new(0.5, 0.0);
    }

    #[test]
    fn half_time_is_valid() {
        let s = ApproxSpec::half_time();
        assert!(s.time_factor < 1.0 && s.value < 1.0);
    }
}
