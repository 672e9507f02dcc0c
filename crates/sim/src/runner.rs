//! Parallel multi-trial execution — the paper's "30 workload trials with the
//! same intensity level" methodology.
//!
//! Trials are embarrassingly parallel: each gets an independent workload
//! seed and execution-time seed derived from the master seed, so results are
//! byte-identical no matter how many worker threads run them (verified by an
//! integration test). Workers pull trial indices from an atomic counter
//! (crossbeam scoped threads); results land in a `parking_lot`-guarded slot
//! vector, preserving trial order.

use crate::config::{DropperKind, SimConfig};
use crate::core::SimCore;
use crate::error::SimError;
use crate::metrics::TrialResult;
use crate::report::SimReport;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use taskdrop_sched::HeuristicKind;
use taskdrop_stats::derive_seed;
use taskdrop_workload::{OversubscriptionLevel, Scenario, Workload};

/// One experimental configuration to repeat across trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Oversubscription level (tasks + window).
    pub level: OversubscriptionLevel,
    /// Deadline slack coefficient γ.
    pub gamma: f64,
    /// Mapping heuristic.
    pub mapper: HeuristicKind,
    /// Dropping policy.
    pub dropper: DropperKind,
    /// Engine configuration.
    pub config: SimConfig,
}

/// Repeats a [`RunSpec`] across seeded trials, in parallel.
#[derive(Debug, Clone, Copy)]
pub struct TrialRunner {
    /// Number of trials (the paper uses 30).
    pub trials: usize,
    /// Master seed; trial *k* derives its own workload and execution seeds.
    pub master_seed: u64,
    /// Worker threads; 0 means use all available cores.
    pub threads: usize,
}

impl TrialRunner {
    /// Creates a runner using every available core.
    #[must_use]
    pub fn new(trials: usize, master_seed: u64) -> Self {
        TrialRunner { trials, master_seed, threads: 0 }
    }

    fn worker_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            // lint:allow(thread-primitives): sizes the crossbeam worker pool only; results are thread-count-invariant (pinned by tests/determinism.rs)
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Checks the runner/spec combination before any trial runs; the
    /// errors are listed on [`TrialRunner::run`].
    fn validate(&self, spec: &RunSpec) -> Result<(), SimError> {
        if self.trials == 0 {
            return Err(SimError::ZeroTrials);
        }
        if !spec.gamma.is_finite() || spec.gamma < 0.0 {
            return Err(SimError::InvalidGamma);
        }
        spec.dropper
            .validate(spec.config.queue_size)
            .map_err(|problem| SimError::InvalidDropper { problem })?;
        spec.config.validate()
    }

    /// Runs all trials of `spec` on `scenario` and aggregates a report.
    ///
    /// # Errors
    ///
    /// [`SimError::ZeroTrials`] for a runner with zero trials,
    /// [`SimError::InvalidGamma`] for a non-finite or negative slack
    /// coefficient, [`SimError::InvalidDropper`] for dropper parameters
    /// (or an `Optimal` queue size) [`DropperKind::validate`] refuses, or
    /// any configuration error from [`SimConfig::validate`], all before
    /// any trial runs; otherwise the first trial's error (in trial order)
    /// from [`SimCore::new`] or [`SimCore::run_to_completion`].
    pub fn run(&self, scenario: &Scenario, spec: &RunSpec) -> Result<SimReport, SimError> {
        self.validate(spec)?;
        let results: Vec<Mutex<Option<Result<TrialResult, SimError>>>> =
            (0..self.trials).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.worker_count().min(self.trials);

        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| {
                    let mapper = spec.mapper.build();
                    let dropper = spec.dropper.build();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= self.trials {
                            break;
                        }
                        let workload_seed = derive_seed(self.master_seed, 2 * i as u64);
                        let exec_seed = derive_seed(self.master_seed, 2 * i as u64 + 1);
                        let workload =
                            Workload::generate(scenario, &spec.level, spec.gamma, workload_seed);
                        let result = SimCore::new(
                            scenario,
                            &workload,
                            mapper.as_ref(),
                            dropper.as_ref(),
                            spec.config,
                            exec_seed,
                        )
                        .and_then(|mut core| core.run_to_completion());
                        *results[i].lock() = Some(result);
                    }
                });
            }
        })
        .expect("worker panicked");

        Ok(SimReport {
            scenario: scenario.name.clone(),
            level: spec.level.label.clone(),
            mapper: spec.mapper.name().to_string(),
            dropper: spec.dropper.label().to_string(),
            trials: results
                .into_iter()
                .map(|slot| slot.into_inner().expect("every trial index visited"))
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskdrop_core::OptimalDropper;
    use taskdrop_model::ApproxSpec;

    fn spec(tasks: usize, window: u64) -> RunSpec {
        RunSpec {
            level: OversubscriptionLevel::new("test", tasks, window),
            gamma: 3.0,
            mapper: HeuristicKind::Pam,
            dropper: DropperKind::heuristic_default(),
            config: SimConfig { exclude_boundary: 10, ..SimConfig::default() },
        }
    }

    #[test]
    fn runs_requested_trials() {
        let scenario = Scenario::specint(7);
        let report = TrialRunner::new(3, 1).run(&scenario, &spec(150, 2_000)).unwrap();
        assert_eq!(report.trials.len(), 3);
        assert!(report.trials.iter().all(TrialResult::is_conserved));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let scenario = Scenario::specint(7);
        let s = spec(120, 1_500);
        let serial =
            TrialRunner { trials: 4, master_seed: 5, threads: 1 }.run(&scenario, &s).unwrap();
        let parallel =
            TrialRunner { trials: 4, master_seed: 5, threads: 4 }.run(&scenario, &s).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn different_master_seeds_differ() {
        let scenario = Scenario::specint(7);
        let s = spec(120, 1_500);
        let a = TrialRunner { trials: 2, master_seed: 1, threads: 2 }.run(&scenario, &s).unwrap();
        let b = TrialRunner { trials: 2, master_seed: 2, threads: 2 }.run(&scenario, &s).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_trials_is_a_typed_error() {
        let scenario = Scenario::specint(7);
        let err = TrialRunner::new(0, 1).run(&scenario, &spec(50, 1_000)).err();
        assert_eq!(err, Some(SimError::ZeroTrials));
    }

    #[test]
    fn bad_gamma_is_a_typed_error() {
        let scenario = Scenario::specint(7);
        let mut s = spec(50, 1_000);
        s.gamma = f64::NAN;
        let err = TrialRunner::new(1, 1).run(&scenario, &s).err();
        assert_eq!(err, Some(SimError::InvalidGamma));
    }

    #[test]
    fn out_of_range_dropper_parameters_are_a_typed_error() {
        let scenario = Scenario::specint(7);
        let beta = "beta must be >= 1";
        let eta = "effective depth must be >= 1";
        let cases = [
            (DropperKind::Heuristic { beta: 0.5, eta: 2 }, beta),
            (DropperKind::Heuristic { beta: f64::NAN, eta: 2 }, beta),
            (DropperKind::Heuristic { beta: 1.0, eta: 0 }, eta),
            (DropperKind::Threshold { base: 1.5 }, "base threshold must be in [0, 1]"),
        ];
        for (dropper, problem) in cases {
            let s = RunSpec { dropper, ..spec(50, 1_000) };
            let err = TrialRunner::new(1, 1).run(&scenario, &s).err();
            assert_eq!(err, Some(SimError::InvalidDropper { problem }), "{dropper:?}");
        }
    }

    #[test]
    fn optimal_on_a_queue_too_long_to_search_is_a_typed_error() {
        let scenario = Scenario::specint(7);
        let mut s = RunSpec { dropper: DropperKind::Optimal, ..spec(50, 1_000) };
        s.config.queue_size = OptimalDropper::MAX_DROPPABLE + 2;
        let err = TrialRunner::new(1, 1).run(&scenario, &s).err();
        let problem = OptimalDropper::check_queue_size(s.config.queue_size).unwrap_err();
        assert_eq!(err, Some(SimError::InvalidDropper { problem }));
        // The longest searchable queue still runs.
        s.config.queue_size = OptimalDropper::MAX_DROPPABLE + 1;
        assert!(TrialRunner::new(1, 1).run(&scenario, &s).is_ok());
    }

    #[test]
    fn out_of_range_approx_settings_are_a_typed_error() {
        let scenario = Scenario::specint(7);
        let factor = "approx time factor must be in (0, 1)";
        let value = "approx value must be in (0, 1)";
        for (time_factor, v, problem) in
            [(0.0, 0.6, factor), (f64::NAN, 0.6, factor), (0.5, 7.0, value), (3.0, 0.6, factor)]
        {
            let mut s = spec(50, 1_000);
            s.config.approx = Some(ApproxSpec { time_factor, value: v });
            let err = TrialRunner::new(1, 1).run(&scenario, &s).err();
            assert_eq!(err, Some(SimError::InvalidApprox { problem }), "({time_factor}, {v})");
        }
    }

    #[test]
    fn zero_queue_size_is_a_typed_error() {
        let scenario = Scenario::specint(7);
        let mut s = spec(50, 1_000);
        s.config.queue_size = 0;
        let err = TrialRunner::new(1, 1).run(&scenario, &s).err();
        assert_eq!(err, Some(SimError::ZeroQueueSize));
    }

    #[test]
    fn trials_are_distinct() {
        let scenario = Scenario::specint(7);
        let report = TrialRunner::new(2, 9).run(&scenario, &spec(150, 2_000)).unwrap();
        assert_ne!(report.trials[0], report.trials[1]);
    }
}
