//! Simulation configuration.

use crate::error::SimError;
use serde::{Deserialize, Serialize};
use taskdrop_core::{DropPolicy, OptimalDropper, ProactiveDropper, ReactiveOnly, ThresholdDropper};
use taskdrop_pmf::Compaction;

/// Machine failure injection (the paper's future-work "resource failure"
/// compound uncertainty, built as an extension — see DESIGN.md §7).
///
/// Each machine independently alternates between up and down periods with
/// exponentially distributed durations. A failure kills the running task
/// (it is lost); queued tasks stay mapped (the system model forbids
/// remapping) and age towards their deadlines while the machine is repaired.
/// Schedulers are *not* told about failures — they are one more source of
/// uncertainty perturbing the PET-based estimates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureSpec {
    /// Mean time between failures per machine, in ticks (exponential).
    pub mtbf: u64,
    /// Mean repair duration, in ticks (exponential).
    pub mttr: u64,
}

impl FailureSpec {
    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// [`SimError::DegenerateFailureSpec`] if either duration is zero.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.mtbf == 0 || self.mttr == 0 {
            return Err(SimError::DegenerateFailureSpec { mtbf: self.mtbf, mttr: self.mttr });
        }
        Ok(())
    }

    /// Steady-state availability `mtbf / (mtbf + mttr)`.
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.mtbf as f64 / (self.mtbf + self.mttr) as f64
    }
}

/// Engine configuration knobs (the paper's Section V-A setup).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Machine-queue capacity *including* the running task (paper: 6).
    pub queue_size: usize,
    /// PMF compaction policy used for all completion-time chains.
    pub compaction: Compaction,
    /// Number of tasks excluded from metrics at each end of the trial
    /// (paper: first and last 100).
    pub exclude_boundary: usize,
    /// Reactively kill the *running* task the moment its deadline passes
    /// (the paper's live-video model: "there is no value in executing tasks
    /// that have missed their deadlines and such tasks should be dropped to
    /// maintain liveness"). Disable for the ablation where started tasks
    /// always run to completion and late finishes waste capacity.
    #[serde(default = "default_true")]
    pub kill_running_at_deadline: bool,
    /// Optional machine failure injection.
    #[serde(default)]
    pub failures: Option<FailureSpec>,
    /// Optional approximate computing (degrade instead of drop); see
    /// [`taskdrop_model::approx`]. Degrading is the heuristic's job
    /// ([`DropperKind::Heuristic`]); `Optimal` and `Threshold` never
    /// degrade.
    #[serde(default)]
    pub approx: Option<taskdrop_model::ApproxSpec>,
}

fn default_true() -> bool {
    true
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            queue_size: 6,
            compaction: Compaction::default(),
            exclude_boundary: 100,
            kill_running_at_deadline: true,
            failures: None,
            approx: None,
        }
    }
}

impl SimConfig {
    /// Validates invariants (queue size at least 1, compaction policy,
    /// failure and approximate-computing specs sane).
    ///
    /// # Errors
    ///
    /// [`SimError::ZeroQueueSize`] if `queue_size == 0`,
    /// [`SimError::InvalidCompaction`] if the compaction policy breaks a
    /// condition of [`Compaction::check_settings`],
    /// [`SimError::DegenerateFailureSpec`] if the failure spec is
    /// degenerate, [`SimError::InvalidApprox`] if the approximate-computing
    /// spec breaks a condition of [`taskdrop_model::ApproxSpec::check_settings`].
    pub fn validate(&self) -> Result<(), SimError> {
        if self.queue_size == 0 {
            return Err(SimError::ZeroQueueSize);
        }
        self.compaction
            .check_settings()
            .map_err(|problem| SimError::InvalidCompaction { problem })?;
        if let Some(f) = &self.failures {
            f.validate()?;
        }
        if let Some(a) = &self.approx {
            taskdrop_model::ApproxSpec::check_settings(a.time_factor, a.value)
                .map_err(|problem| SimError::InvalidApprox { problem })?;
        }
        Ok(())
    }
}

/// Serializable constructor for dropping policies, so experiment configs can
/// name them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DropperKind {
    /// No proactive dropping (reactive only).
    ReactiveOnly,
    /// The paper's proactive heuristic with parameters β and η. When
    /// [`SimConfig::approx`] is set it also degrades a task Eq 8 clears
    /// whenever that salvages at least as much as dropping it; it is the
    /// only kind that degrades.
    Heuristic {
        /// Robustness improvement factor (≥ 1).
        beta: f64,
        /// Effective depth (≥ 1).
        eta: usize,
    },
    /// The paper's optimal subset search.
    Optimal,
    /// The prior-work threshold baseline with its base threshold.
    Threshold {
        /// Base chance-of-success threshold in `[0, 1]`.
        base: f64,
    },
}

impl DropperKind {
    /// The paper-default heuristic (β = 1, η = 2).
    #[must_use]
    pub fn heuristic_default() -> Self {
        DropperKind::Heuristic { beta: 1.0, eta: 2 }
    }

    /// Checks the parameters against the conditions of the constructor
    /// [`DropperKind::build`] calls (a kind parsed from a file skipped
    /// them), and `Optimal` against the machine-queue capacity
    /// `queue_size` it will judge ([`OptimalDropper::check_queue_size`]).
    ///
    /// # Errors
    ///
    /// The broken condition, in words.
    pub fn validate(&self, queue_size: usize) -> Result<(), &'static str> {
        match *self {
            DropperKind::ReactiveOnly => Ok(()),
            DropperKind::Optimal => OptimalDropper::check_queue_size(queue_size),
            DropperKind::Heuristic { beta, eta } => ProactiveDropper::check_settings(beta, eta),
            DropperKind::Threshold { base } => ThresholdDropper::check_settings(base),
        }
    }

    /// Instantiates the policy.
    ///
    /// # Panics
    ///
    /// Panics if [`DropperKind::validate`] refuses the parameters.
    #[must_use]
    pub fn build(&self) -> Box<dyn DropPolicy> {
        match *self {
            DropperKind::ReactiveOnly => Box::new(ReactiveOnly),
            DropperKind::Heuristic { beta, eta } => Box::new(ProactiveDropper::new(beta, eta)),
            DropperKind::Optimal => Box::new(OptimalDropper::new()),
            DropperKind::Threshold { base } => Box::new(ThresholdDropper::new(base)),
        }
    }

    /// Display label used in figures (matches the paper's legends).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DropperKind::ReactiveOnly => "ReactDrop",
            DropperKind::Heuristic { .. } => "Heuristic",
            DropperKind::Optimal => "Optimal",
            DropperKind::Threshold { .. } => "Threshold",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.queue_size, 6);
        assert_eq!(c.exclude_boundary, 100);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn dropper_kinds_build_expected_policies() {
        assert_eq!(DropperKind::ReactiveOnly.build().name(), "ReactDrop");
        assert_eq!(DropperKind::heuristic_default().build().name(), "Heuristic");
        assert_eq!(DropperKind::Optimal.build().name(), "Optimal");
        assert_eq!(DropperKind::Threshold { base: 0.25 }.build().name(), "Threshold");
    }

    #[test]
    fn serde_roundtrip() {
        let k = DropperKind::Heuristic { beta: 1.5, eta: 3 };
        let json = serde_json::to_string(&k).unwrap();
        let back: DropperKind = serde_json::from_str(&json).unwrap();
        assert_eq!(k, back);
    }

    #[test]
    fn zero_queue_rejected() {
        let err = SimConfig { queue_size: 0, ..SimConfig::default() }.validate();
        assert_eq!(err, Err(SimError::ZeroQueueSize));
    }

    #[test]
    fn degenerate_failure_spec_rejected() {
        let cfg =
            SimConfig { failures: Some(FailureSpec { mtbf: 0, mttr: 10 }), ..SimConfig::default() };
        assert_eq!(cfg.validate(), Err(SimError::DegenerateFailureSpec { mtbf: 0, mttr: 10 }));
        assert!((FailureSpec { mtbf: 900, mttr: 100 }).validate().is_ok());
    }
}
