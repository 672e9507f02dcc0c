//! One fluent, serialisable entry point for a whole experiment.
//!
//! Running a paper-style experiment used to take five separately constructed
//! pieces — a [`Scenario`], an [`OversubscriptionLevel`], a gamma for
//! [`Workload::generate`](taskdrop_workload::Workload::generate), a
//! [`RunSpec`], and a [`TrialRunner`] — wired together by hand in every
//! binary. [`ExperimentBuilder`] chains all of it:
//!
//! ```
//! use taskdrop::experiment::ExperimentBuilder;
//! use taskdrop::prelude::*;
//!
//! let report = ExperimentBuilder::specint(0xA5)
//!     .level("30k", 600, 3_240)
//!     .gamma(1.0)
//!     .mapper(HeuristicKind::Pam)
//!     .dropper(DropperKind::heuristic_default())
//!     .trials(3)
//!     .master_seed(0x0808)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.trials.len(), 3);
//! ```
//!
//! The builder's [`build`](ExperimentBuilder::build) output is an
//! [`ExperimentSpec`]: a plain serde-round-trippable value capturing the
//! *entire* experiment (scenario seed included), so a JSON file can name
//! everything a figure needs and [`ExperimentSpec::run`] reproduces it
//! bit-for-bit. Every grid cell of the seven `fig*` binaries is expressible
//! this way (asserted by `tests/experiment_builder.rs`).

use serde::{Deserialize, Serialize};
use taskdrop_model::ApproxSpec;
use taskdrop_pmf::Tick;
use taskdrop_sched::HeuristicKind;
use taskdrop_sim::{
    DropperKind, FailureSpec, RunSpec, SimConfig, SimError, SimReport, TrialRunner,
};
use taskdrop_workload::{OversubscriptionLevel, Scenario, SPECINT_WINDOW};

/// A scenario named by generator + seed, so experiment files stay
/// self-contained and reproducible (the generators are deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioSpec {
    /// The paper's main set-up: 12 SPECint task types × 8 heterogeneous
    /// machines ([`Scenario::specint`]).
    Specint {
        /// Scenario seed (truth model + learned PET).
        seed: u64,
    },
    /// The validation set-up: 4 transcoding task types × 4 VM types, two
    /// machines each ([`Scenario::transcode`]).
    Transcode {
        /// Scenario seed.
        seed: u64,
    },
    /// The homogeneous control: 8 identical machines
    /// ([`Scenario::homogeneous`]).
    Homogeneous {
        /// Scenario seed.
        seed: u64,
    },
}

impl ScenarioSpec {
    /// Builds the scenario this spec names.
    #[must_use]
    pub fn build(&self) -> Scenario {
        match *self {
            ScenarioSpec::Specint { seed } => Scenario::specint(seed),
            ScenarioSpec::Transcode { seed } => Scenario::transcode(seed),
            ScenarioSpec::Homogeneous { seed } => Scenario::homogeneous(seed),
        }
    }
}

/// A complete, validated, serialisable experiment: scenario + workload
/// intensity + policies + engine config + trial plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Which scenario to generate.
    pub scenario: ScenarioSpec,
    /// Workload intensity (tasks + arrival window).
    pub level: OversubscriptionLevel,
    /// Deadline slack coefficient γ.
    pub gamma: f64,
    /// Mapping heuristic.
    pub mapper: HeuristicKind,
    /// Dropping policy.
    pub dropper: DropperKind,
    /// Engine configuration.
    pub config: SimConfig,
    /// Number of trials (the paper uses 30).
    pub trials: usize,
    /// Master seed; trial *k* derives its own workload and execution seeds.
    pub master_seed: u64,
    /// Worker threads; 0 means use all available cores.
    pub threads: usize,
}

impl ExperimentSpec {
    /// The per-trial [`RunSpec`] this experiment repeats — what the figure
    /// binaries hand to [`TrialRunner::run`].
    #[must_use]
    pub fn run_spec(&self) -> RunSpec {
        RunSpec {
            level: self.level.clone(),
            gamma: self.gamma,
            mapper: self.mapper,
            dropper: self.dropper,
            config: self.config,
        }
    }

    /// The trial plan.
    #[must_use]
    pub fn runner(&self) -> TrialRunner {
        TrialRunner { trials: self.trials, master_seed: self.master_seed, threads: self.threads }
    }

    /// Generates the scenario and runs every trial.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from [`TrialRunner::run`].
    pub fn run(&self) -> Result<SimReport, SimError> {
        self.run_on(&self.scenario.build())
    }

    /// Runs against an already-built scenario (sharing one scenario across
    /// many specs skips the repeated PET learning).
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from [`TrialRunner::run`].
    pub fn run_on(&self, scenario: &Scenario) -> Result<SimReport, SimError> {
        self.runner().run(scenario, &self.run_spec())
    }
}

/// Fluent construction of an [`ExperimentSpec`].
///
/// Defaults mirror the figure harness: the SPECint scenario, the 30k paper
/// level at the calibrated window, γ = 1.0, PAM + the paper-default
/// heuristic dropper, [`SimConfig::default`], 30 trials, master seed 0, all
/// cores.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentBuilder {
    spec: ExperimentSpec,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            spec: ExperimentSpec {
                scenario: ScenarioSpec::Specint { seed: 0xA5 },
                level: OversubscriptionLevel::new("30k", 30_000, SPECINT_WINDOW),
                gamma: 1.0,
                mapper: HeuristicKind::Pam,
                dropper: DropperKind::heuristic_default(),
                config: SimConfig::default(),
                trials: 30,
                master_seed: 0,
                threads: 0,
            },
        }
    }
}

impl ExperimentBuilder {
    /// Starts from the defaults (see the type-level docs).
    #[must_use]
    pub fn new() -> Self {
        ExperimentBuilder::default()
    }

    /// Starts on the SPECint scenario with the given seed.
    #[must_use]
    pub fn specint(seed: u64) -> Self {
        ExperimentBuilder::new().scenario(ScenarioSpec::Specint { seed })
    }

    /// Starts on the video-transcoding scenario with the given seed.
    #[must_use]
    pub fn transcode(seed: u64) -> Self {
        ExperimentBuilder::new().scenario(ScenarioSpec::Transcode { seed })
    }

    /// Starts on the homogeneous control scenario with the given seed.
    #[must_use]
    pub fn homogeneous(seed: u64) -> Self {
        ExperimentBuilder::new().scenario(ScenarioSpec::Homogeneous { seed })
    }

    /// Sets the scenario.
    #[must_use]
    pub fn scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.spec.scenario = scenario;
        self
    }

    /// Sets the oversubscription level (label, task count, window).
    #[must_use]
    pub fn level(mut self, label: impl Into<String>, tasks: usize, window: Tick) -> Self {
        self.spec.level = OversubscriptionLevel::new(label, tasks, window);
        self
    }

    /// Sets the oversubscription level from an existing value.
    #[must_use]
    pub fn at_level(mut self, level: OversubscriptionLevel) -> Self {
        self.spec.level = level;
        self
    }

    /// Scales the current level's tasks and window together (preserving the
    /// arrival rate), like the figure harness's `--quick`/`--medium` modes.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        self.spec.level = self.spec.level.scaled(factor);
        self
    }

    /// Sets the deadline slack coefficient γ.
    #[must_use]
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.spec.gamma = gamma;
        self
    }

    /// Sets the mapping heuristic.
    #[must_use]
    pub fn mapper(mut self, mapper: HeuristicKind) -> Self {
        self.spec.mapper = mapper;
        self
    }

    /// Sets the dropping policy.
    #[must_use]
    pub fn dropper(mut self, dropper: DropperKind) -> Self {
        self.spec.dropper = dropper;
        self
    }

    /// Replaces the whole engine configuration.
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.spec.config = config;
        self
    }

    /// Sets the machine-queue capacity (including the running task).
    #[must_use]
    pub fn queue_size(mut self, queue_size: usize) -> Self {
        self.spec.config.queue_size = queue_size;
        self
    }

    /// Sets the metric exclusion boundary (tasks ignored at each end).
    #[must_use]
    pub fn exclude_boundary(mut self, exclude_boundary: usize) -> Self {
        self.spec.config.exclude_boundary = exclude_boundary;
        self
    }

    /// Enables or disables killing the running task at its deadline.
    #[must_use]
    pub fn kill_running_at_deadline(mut self, kill: bool) -> Self {
        self.spec.config.kill_running_at_deadline = kill;
        self
    }

    /// Enables machine failure injection.
    #[must_use]
    pub fn failures(mut self, failures: FailureSpec) -> Self {
        self.spec.config.failures = Some(failures);
        self
    }

    /// Enables approximate computing (degrade instead of drop).
    #[must_use]
    pub fn approx(mut self, approx: ApproxSpec) -> Self {
        self.spec.config.approx = Some(approx);
        self
    }

    /// Sets the number of trials.
    #[must_use]
    pub fn trials(mut self, trials: usize) -> Self {
        self.spec.trials = trials;
        self
    }

    /// Sets the master seed the per-trial seeds derive from.
    #[must_use]
    pub fn master_seed(mut self, master_seed: u64) -> Self {
        self.spec.master_seed = master_seed;
        self
    }

    /// Sets the worker-thread count (0 = all cores).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = threads;
        self
    }

    /// Validates and returns the finished [`ExperimentSpec`].
    ///
    /// # Errors
    ///
    /// Any error from [`TrialRunner::validate`] — [`SimError::ZeroTrials`],
    /// [`SimError::InvalidGamma`], or a config error from
    /// [`SimConfig::validate`].
    pub fn build(self) -> Result<ExperimentSpec, SimError> {
        self.spec.runner().validate(&self.spec.run_spec())?;
        Ok(self.spec)
    }

    /// Builds and runs the experiment in one call.
    ///
    /// # Errors
    ///
    /// Any error from [`ExperimentBuilder::build`] or
    /// [`TrialRunner::run`].
    pub fn run(self) -> Result<SimReport, SimError> {
        self.build()?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_figure_harness() {
        let spec = ExperimentBuilder::new().build().unwrap();
        assert_eq!(spec.scenario, ScenarioSpec::Specint { seed: 0xA5 });
        assert_eq!(spec.level.label, "30k");
        assert_eq!(spec.trials, 30);
        assert_eq!(spec.config, SimConfig::default());
    }

    #[test]
    fn builder_validates() {
        assert_eq!(ExperimentBuilder::new().trials(0).build().err(), Some(SimError::ZeroTrials));
        assert_eq!(
            ExperimentBuilder::new().gamma(f64::NAN).build().err(),
            Some(SimError::InvalidGamma)
        );
        assert_eq!(
            ExperimentBuilder::new().queue_size(0).build().err(),
            Some(SimError::ZeroQueueSize)
        );
    }

    #[test]
    fn scaled_preserves_rate() {
        let spec = ExperimentBuilder::new().level("x", 1_000, 10_000).scaled(0.1).build().unwrap();
        assert_eq!(spec.level.tasks, 100);
        assert_eq!(spec.level.window, 1_000);
    }

    #[test]
    fn scenario_specs_build_their_generators() {
        assert_eq!(ScenarioSpec::Specint { seed: 3 }.build().name, "specint");
        assert_eq!(ScenarioSpec::Transcode { seed: 3 }.build().name, "transcode");
        assert_eq!(ScenarioSpec::Homogeneous { seed: 3 }.build().name, "homogeneous");
    }
}
