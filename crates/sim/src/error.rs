//! Typed errors for simulation construction, running and inspection.
//!
//! Every fallible entry point returns a [`SimError`]: building a trial
//! ([`crate::SimCore::new`], [`crate::SimCore::restore`]), running one
//! ([`crate::SimCore::run_to_completion`], [`crate::TrialRunner::run`]) and
//! aggregating ([`crate::SimReport::robustness`]).

use taskdrop_pmf::Tick;

/// Everything that can go wrong assembling or querying a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// `SimConfig::queue_size` was zero; a machine queue must hold at least
    /// the running task.
    ZeroQueueSize,
    /// A `FailureSpec` had a zero MTBF or MTTR (degenerate exponential).
    DegenerateFailureSpec {
        /// Mean time between failures, in ticks.
        mtbf: u64,
        /// Mean repair duration, in ticks.
        mttr: u64,
    },
    /// The deadline slack coefficient γ was negative or not finite.
    InvalidGamma,
    /// A [`crate::DropperKind`]'s parameters break a condition of the
    /// policy's constructor ([`crate::DropperKind::validate`]).
    InvalidDropper {
        /// The broken condition, in words.
        problem: &'static str,
    },
    /// A `SimConfig::approx` spec breaks a condition of
    /// `ApproxSpec::check_settings`.
    InvalidApprox {
        /// The broken condition, in words.
        problem: &'static str,
    },
    /// A `SimConfig::compaction` policy breaks a condition of
    /// `Compaction::check_settings`.
    InvalidCompaction {
        /// The broken condition, in words.
        problem: &'static str,
    },
    /// A `TrialRunner` was asked to run zero trials.
    ZeroTrials,
    /// A `SimReport` aggregate was requested over zero trials.
    EmptyReport,
    /// The initial workload's task ids were not the dense sequence
    /// `0..tasks.len()` in arrival order (the engine's fate accounting
    /// indexes by id).
    MisnumberedWorkload {
        /// Position in the workload at which the mismatch was found.
        index: usize,
        /// The id actually found there.
        id: u64,
    },
    /// `SimCore::inject` was called with an arrival tick earlier than the
    /// core's current simulation time (events cannot be scheduled in the
    /// past).
    InjectedInPast {
        /// Current simulation time.
        now: Tick,
        /// Requested arrival tick.
        arrival: Tick,
    },
    /// An injected task's deadline did not leave room for any execution
    /// (`deadline <= arrival`).
    InvalidDeadline {
        /// Requested arrival tick.
        arrival: Tick,
        /// Requested deadline tick.
        deadline: Tick,
    },
    /// An injected task named a task type the scenario does not define.
    UnknownTaskType {
        /// The out-of-range task type index.
        type_id: u16,
        /// Number of task types the scenario defines.
        task_types: usize,
    },
    /// A final [`crate::TrialResult`] was requested from a `SimCore` that
    /// still has unresolved tasks; keep stepping until it drains.
    NotDrained {
        /// Tasks whose fate is already decided.
        resolved: usize,
        /// Total tasks admitted so far.
        total: usize,
    },
    /// A [`crate::Checkpoint`] was written by an incompatible format
    /// version.
    CheckpointVersion {
        /// Version recorded in the checkpoint.
        found: u32,
        /// Version this build understands
        /// ([`crate::CHECKPOINT_VERSION`]).
        supported: u32,
    },
    /// A [`crate::Checkpoint`] failed structural validation against the
    /// scenario and config it was asked to restore onto.
    CheckpointMismatch {
        /// Which invariant failed (e.g. `"scenario"`, `"machines"`).
        field: &'static str,
        /// What the restore context requires.
        expected: String,
        /// What the checkpoint holds.
        found: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::ZeroQueueSize => write!(f, "queue size must be at least 1"),
            SimError::DegenerateFailureSpec { mtbf, mttr } => {
                write!(f, "failure spec needs positive MTBF and MTTR (got {mtbf}/{mttr})")
            }
            SimError::InvalidGamma => write!(f, "gamma must be finite and >= 0"),
            SimError::InvalidDropper { problem } => write!(f, "invalid dropper: {problem}"),
            SimError::InvalidApprox { problem } => {
                write!(f, "invalid approximate computing: {problem}")
            }
            SimError::InvalidCompaction { problem } => write!(f, "invalid compaction: {problem}"),
            SimError::ZeroTrials => write!(f, "need at least one trial"),
            SimError::EmptyReport => write!(f, "report aggregate requested over zero trials"),
            SimError::MisnumberedWorkload { index, id } => {
                write!(f, "workload task at position {index} has id {id}; ids must be 0..n")
            }
            SimError::InjectedInPast { now, arrival } => {
                write!(f, "cannot inject a task arriving at {arrival}; time is already {now}")
            }
            SimError::InvalidDeadline { arrival, deadline } => {
                write!(f, "deadline {deadline} leaves no room after arrival {arrival}")
            }
            SimError::UnknownTaskType { type_id, task_types } => {
                write!(f, "task type {type_id} out of range (scenario has {task_types})")
            }
            SimError::NotDrained { resolved, total } => {
                write!(f, "trial not drained: {resolved}/{total} tasks resolved")
            }
            SimError::CheckpointVersion { found, supported } => {
                write!(f, "checkpoint format v{found} unsupported (this build reads v{supported})")
            }
            SimError::CheckpointMismatch { field, ref expected, ref found } => {
                write!(f, "checkpoint {field} mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        assert!(SimError::ZeroQueueSize.to_string().contains("queue size"));
        assert!(SimError::NotDrained { resolved: 3, total: 9 }.to_string().contains("3/9"));
        assert!(SimError::InjectedInPast { now: 10, arrival: 5 }.to_string().contains("10"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&SimError::EmptyReport);
    }
}
