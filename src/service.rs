//! One serialisable entry point for a whole serving session.
//!
//! A closed batch experiment is a [`RunSpec`](taskdrop_sim::RunSpec)
//! repeated by a [`TrialRunner`](taskdrop_sim::TrialRunner); a
//! [`ServicePlan`] names an *open* one: a scenario, a fleet of shards (each
//! with its own traffic source, admission policy and engine config), an
//! epoch length, and a checkpoint cadence.
//! [`ServicePlan::run`] owns the whole lifecycle — build the scenario and
//! policies, assemble the [`FleetDriver`], drive it to idle — and
//! returns a [`ServiceReport`] with per-shard trial results and admission
//! accounting. Because the plan is serde-round-trippable, a JSON file
//! fully describes a streaming scenario (see EXPERIMENTS.md).
//!
//! ```
//! use taskdrop::service::{ServicePlan, ShardPlan};
//! use taskdrop::prelude::*;
//! use taskdrop::workload::{BurstySource, TrafficSource};
//!
//! let plan = ServicePlan {
//!     scenario: ScenarioSpec::Specint { seed: 1 },
//!     epoch: 500,
//!     checkpoint_every: Some(2_000),
//!     max_epochs: 100,
//!     parallel: None,
//!     shards: vec![ShardPlan {
//!         name: "tenant-a".into(),
//!         mapper: HeuristicKind::Pam,
//!         dropper: DropperKind::heuristic_default(),
//!         config: SimConfig { exclude_boundary: 0, ..SimConfig::default() },
//!         exec_seed: 7,
//!         source: TrafficSource::Bursty(BurstySource::new(9, 0.4, 0.0, 300, 700, 400, 12, 50)),
//!         ingress_capacity: 16,
//!         backpressure: BackpressurePolicy::PreDrop { threshold: 0.2 },
//!     }],
//! };
//! let report = plan.run().unwrap();
//! assert!(report.idle);
//! assert!(report.shards[0].result.is_conserved());
//! ```

use serde::{Deserialize, Serialize};
use taskdrop_core::DropPolicy;
use taskdrop_pmf::Tick;
use taskdrop_sched::{HeuristicKind, MappingHeuristic};
use taskdrop_serve::{
    AdmissionController, AdmissionStats, BackpressurePolicy, FleetDriver, FleetShard, ServeError,
    StealPolicy,
};
use taskdrop_sim::{DropperKind, SimConfig, TrialResult};
use taskdrop_workload::{Scenario, TrafficSource};

/// A scenario named by generator + seed, so plan files stay
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

/// One shard of a [`ServicePlan`]: policies + engine config + traffic
/// source + admission control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Display name (tenant/cluster id).
    pub name: String,
    /// Mapping heuristic.
    pub mapper: HeuristicKind,
    /// Dropping policy.
    pub dropper: DropperKind,
    /// Engine configuration.
    pub config: SimConfig,
    /// Execution-time seed (the shard's "luck").
    pub exec_seed: u64,
    /// The arrival stream.
    pub source: TrafficSource,
    /// Ingress queue bound.
    pub ingress_capacity: usize,
    /// Backpressure policy at the ingress bound.
    pub backpressure: BackpressurePolicy,
}

/// Parallel-fleet execution options for a [`ServicePlan`].
///
/// Every plan runs on the [`FleetDriver`]. Absent (`parallel: None`), it
/// runs on one worker with stealing off. Present, the worker count is
/// yours to pick and stealing can be enabled — the report is the same at
/// any worker count, so with `stealing` off it equals the
/// `parallel: None` report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetPlan {
    /// Worker threads for the parallel phase; `None` picks one per
    /// available core. Purely a throughput knob — never observable.
    #[serde(default)]
    pub workers: Option<usize>,
    /// Cross-shard work stealing at epoch barriers, if enabled (switches
    /// ingress to epoch-batched dispatch — see
    /// [`FleetDriver::with_stealing`]).
    #[serde(default)]
    pub stealing: Option<StealPolicy>,
}

/// A complete serving session: scenario + shard fleet + clock discipline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServicePlan {
    /// Which scenario every shard runs on.
    pub scenario: ScenarioSpec,
    /// The shard fleet.
    pub shards: Vec<ShardPlan>,
    /// Epoch length in ticks (the driver's advance quantum).
    pub epoch: Tick,
    /// Periodic checkpoint interval, if any.
    pub checkpoint_every: Option<Tick>,
    /// Epoch budget for [`ServicePlan::run`].
    pub max_epochs: usize,
    /// Parallel-fleet options; `None` (the default, and what plans
    /// serialized by older builds deserialize to) runs on one worker with
    /// stealing off.
    #[serde(default)]
    pub parallel: Option<FleetPlan>,
}

/// Outcome of one shard after the fleet went idle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// The shard's name.
    pub name: String,
    /// Final trial metrics of everything that was admitted.
    pub result: TrialResult,
    /// Admission accounting (offers turned away never reach `result`).
    pub admission: AdmissionStats,
}

/// Outcome of a [`ServicePlan::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Virtual clock when the run stopped.
    pub clock: Tick,
    /// Epochs actually driven.
    pub epochs: usize,
    /// Whether the fleet fully drained inside the epoch budget.
    pub idle: bool,
    /// Per-shard outcomes, in plan order.
    pub shards: Vec<ShardReport>,
}

impl ServicePlan {
    /// Builds the scenario and policies, assembles the driver, and runs
    /// the fleet to idle (or until `max_epochs`).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidPlan`] before anything is built if the plan
    /// breaks a condition of a constructor it feeds (a plan parsed from a
    /// file skipped them); otherwise any [`ServeError`] from shard assembly
    /// or driving, or
    /// [`SimError::NotDrained`](taskdrop_sim::SimError::NotDrained)
    /// surfaced through it if the epoch budget ran out with tasks still in
    /// flight (the report's `result` requires a drained core).
    pub fn run(&self) -> Result<ServiceReport, ServeError> {
        self.check()?;
        let scenario = self.scenario.build();
        let mappers: Vec<Box<dyn MappingHeuristic>> =
            self.shards.iter().map(|s| s.mapper.build()).collect();
        let droppers: Vec<Box<dyn DropPolicy>> =
            self.shards.iter().map(|s| s.dropper.build()).collect();

        let fleet = self.parallel.unwrap_or(FleetPlan { workers: Some(1), stealing: None });
        let mut driver = FleetDriver::new();
        if let Some(workers) = fleet.workers {
            driver = driver.with_workers(workers);
        }
        if let Some(policy) = fleet.stealing {
            driver = driver.with_stealing(policy);
        }
        if let Some(interval) = self.checkpoint_every {
            driver = driver.with_checkpoint_every(interval);
        }
        for ((plan, mapper), dropper) in self.shards.iter().zip(&mappers).zip(&droppers) {
            driver.add_shard(FleetShard::new(
                plan.name.clone(),
                &scenario,
                mapper.as_ref(),
                dropper.as_ref(),
                plan.config,
                plan.exec_seed,
                plan.source.clone(),
                AdmissionController::new(plan.ingress_capacity, plan.backpressure),
            )?);
        }
        let epochs = driver.run_until_idle(self.epoch, self.max_epochs)?;
        let idle = driver.is_idle();
        let shards = driver
            .shards()
            .iter()
            .map(|shard| {
                Ok(ShardReport {
                    name: shard.name().to_string(),
                    result: shard.result()?,
                    admission: shard.admission().stats(),
                })
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        Ok(ServiceReport { clock: driver.clock(), epochs, idle, shards })
    }

    /// The conditions of the constructors [`ServicePlan::run`] feeds: a
    /// positive checkpoint interval, a valid steal policy, and per shard a
    /// traffic source, admission settings and dropper parameters their
    /// constructors accept.
    fn check(&self) -> Result<(), ServeError> {
        let fleet_wide = |problem| ServeError::InvalidPlan { shard: None, problem };
        if self.checkpoint_every == Some(0) {
            return Err(fleet_wide("checkpoint interval must be positive"));
        }
        if self.parallel.and_then(|p| p.stealing).is_some_and(|s| !s.is_valid()) {
            return Err(fleet_wide("steal policy thresholds out of range"));
        }
        for shard in &self.shards {
            shard
                .source
                .validate()
                .and_then(|()| {
                    AdmissionController::check_settings(shard.ingress_capacity, shard.backpressure)
                })
                .and_then(|()| shard.dropper.validate(shard.config.queue_size))
                .map_err(|problem| ServeError::InvalidPlan {
                    shard: Some(shard.name.clone()),
                    problem,
                })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskdrop_workload::{BurstySource, DiurnalSource};

    fn plan() -> ServicePlan {
        let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
        ServicePlan {
            scenario: ScenarioSpec::Specint { seed: 11 },
            epoch: 500,
            checkpoint_every: Some(2_000),
            max_epochs: 150,
            parallel: None,
            shards: vec![
                ShardPlan {
                    name: "bursty".into(),
                    mapper: HeuristicKind::Pam,
                    dropper: DropperKind::heuristic_default(),
                    config,
                    exec_seed: 7,
                    source: TrafficSource::Bursty(BurstySource::new(
                        21, 0.5, 0.0, 400, 900, 350, 12, 150,
                    )),
                    ingress_capacity: 24,
                    backpressure: BackpressurePolicy::PreDrop { threshold: 0.2 },
                },
                ShardPlan {
                    name: "diurnal".into(),
                    mapper: HeuristicKind::MinMin,
                    dropper: DropperKind::ReactiveOnly,
                    config,
                    exec_seed: 8,
                    source: TrafficSource::Diurnal(DiurnalSource::new(
                        33, 0.1, 0.9, 3_000, 450, 12, 120,
                    )),
                    ingress_capacity: 16,
                    backpressure: BackpressurePolicy::ShedOldest,
                },
            ],
        }
    }

    /// `plan` is refused before anything runs, naming `problem` and, when
    /// the problem is in a shard, that shard.
    fn assert_refused(plan: &ServicePlan, shard: Option<&str>, problem: &'static str) {
        assert_eq!(
            plan.run(),
            Err(ServeError::InvalidPlan { shard: shard.map(String::from), problem })
        );
    }

    #[test]
    fn a_plan_with_a_zero_period_diurnal_source_is_refused() {
        let mut p = plan();
        let source = serde_json::to_string(&p.shards[1].source).unwrap();
        assert_eq!(source.matches("\"period\":3000").count(), 1, "{source}");
        p.shards[1].source =
            serde_json::from_str(&source.replace("\"period\":3000", "\"period\":0")).unwrap();
        assert_refused(&p, Some("diurnal"), "period must be positive");
    }

    #[test]
    fn a_plan_with_a_zero_ingress_capacity_is_refused() {
        let mut p = plan();
        p.shards[0].ingress_capacity = 0;
        assert_refused(&p, Some("bursty"), "ingress queue needs at least one slot");
    }

    #[test]
    fn a_plan_with_a_pre_drop_threshold_above_one_is_refused() {
        let mut p = plan();
        p.shards[0].backpressure = BackpressurePolicy::PreDrop { threshold: 1.5 };
        assert_refused(&p, Some("bursty"), "pre-drop threshold must be a probability in [0, 1]");
    }

    #[test]
    fn a_plan_with_an_out_of_range_dropper_parameter_is_refused() {
        let mut p = plan();
        p.shards[0].dropper = DropperKind::Heuristic { beta: 0.5, eta: 2 };
        assert_refused(&p, Some("bursty"), "beta must be >= 1");
    }

    #[test]
    fn a_plan_running_optimal_on_a_queue_too_long_to_search_is_refused() {
        let mut p = plan();
        p.shards[1].dropper = DropperKind::Optimal;
        p.shards[1].config.queue_size = 40;
        let problem = taskdrop_core::OptimalDropper::check_queue_size(40).unwrap_err();
        assert_refused(&p, Some("diurnal"), problem);
    }

    #[test]
    fn a_plan_with_a_zero_checkpoint_interval_is_refused() {
        let mut p = plan();
        p.checkpoint_every = Some(0);
        assert_refused(&p, None, "checkpoint interval must be positive");
    }

    #[test]
    fn a_plan_with_an_invalid_steal_policy_is_refused() {
        let mut p = plan();
        p.parallel = Some(FleetPlan {
            workers: Some(1),
            stealing: Some(StealPolicy { saturation: 0.0, headroom: 0.9, max_per_epoch: 4 }),
        });
        assert_refused(&p, None, "steal policy thresholds out of range");
    }

    #[test]
    fn scenario_specs_build_their_generators() {
        assert_eq!(ScenarioSpec::Specint { seed: 3 }.build().name, "specint");
        assert_eq!(ScenarioSpec::Transcode { seed: 3 }.build().name, "transcode");
        assert_eq!(ScenarioSpec::Homogeneous { seed: 3 }.build().name, "homogeneous");
    }

    #[test]
    fn plan_runs_to_an_idle_conserved_report() {
        let report = plan().run().unwrap();
        assert!(report.idle, "fleet did not drain in {} epochs", report.epochs);
        assert_eq!(report.shards.len(), 2);
        for shard in &report.shards {
            assert!(shard.result.is_conserved(), "{} lost tasks", shard.name);
            assert_eq!(shard.result.total_tasks as u64, shard.admission.admitted);
        }
    }

    #[test]
    fn stealing_plan_runs_to_idle_and_balances_the_ledger() {
        let mut p = plan();
        p.parallel = Some(FleetPlan {
            workers: Some(2),
            stealing: Some(StealPolicy { saturation: 0.5, headroom: 0.9, max_per_epoch: 4 }),
        });
        let report = p.run().unwrap();
        assert!(report.idle, "stealing fleet did not drain in {} epochs", report.epochs);
        let stolen_out: u64 = report.shards.iter().map(|s| s.admission.stolen_out).sum();
        let stolen_in: u64 = report.shards.iter().map(|s| s.admission.stolen_in).sum();
        assert_eq!(stolen_out, stolen_in);
        for shard in &report.shards {
            assert!(shard.result.is_conserved(), "{} lost tasks", shard.name);
            assert_eq!(
                shard.admission.offered + shard.admission.stolen_in,
                shard.admission.admitted
                    + shard.admission.turned_away()
                    + shard.admission.stolen_out
            );
        }
        // A plan without the `parallel` field still deserializes (older
        // plan files) and runs on one worker with stealing off.
        let legacy = r#"{"scenario":{"Specint":{"seed":11}},"shards":[],"epoch":500,"checkpoint_every":null,"max_epochs":1}"#;
        let p: ServicePlan = serde_json::from_str(legacy).unwrap();
        assert_eq!(p.parallel, None);
    }

    #[test]
    fn plan_and_report_are_serde_round_trippable_and_reproducible() {
        let p = plan();
        let json = serde_json::to_string(&p).unwrap();
        let back: ServicePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
        let a = p.run().unwrap();
        let b = back.run().unwrap();
        assert_eq!(a, b, "identical plans must produce identical reports");
    }
}
