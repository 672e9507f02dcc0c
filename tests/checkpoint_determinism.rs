//! Checkpoint determinism: resuming a trial from a mid-flight
//! [`Checkpoint`] — including a full serde_json round-trip — must be
//! byte-identical to never having stopped.
//!
//! This is the contract that makes the serving layer's kill/restore
//! invisible, so it is pinned from several angles: a property test that
//! interrupts at a random step under randomly drawn workloads and
//! policies, a failure-injection case (outstanding failure/repair events
//! and epoch counters live in the checkpoint), a double-restore case (a
//! checkpoint is reusable, not consumable), and JSON canonicality
//! (identical states serialize to identical bytes).

use proptest::prelude::*;
use taskdrop::prelude::*;

fn quick_config() -> SimConfig {
    SimConfig { exclude_boundary: 0, ..SimConfig::default() }
}

/// Runs `steps` steps, snapshots through a JSON round-trip, restores, and
/// finishes both cores; returns (uninterrupted, resumed) results.
fn interrupted_vs_straight(
    scenario: &Scenario,
    workload: &Workload,
    dropper: &dyn taskdrop::core::DropPolicy,
    config: SimConfig,
    exec_seed: u64,
    steps: usize,
) -> (TrialResult, TrialResult) {
    let mut straight = SimCore::new(scenario, workload, &Pam, dropper, config, exec_seed)
        .expect("valid straight core");
    let expected = straight.run_to_completion().expect("straight core drains");

    let mut first = SimCore::new(scenario, workload, &Pam, dropper, config, exec_seed)
        .expect("valid interrupted core");
    for _ in 0..steps {
        if first.step().is_drained() {
            break;
        }
    }
    let json = serde_json::to_string(&first.snapshot()).expect("serialize checkpoint");
    drop(first); // the trial is dead; only the checkpoint survives
    let checkpoint: Checkpoint = serde_json::from_str(&json).expect("parse checkpoint");
    let mut resumed =
        SimCore::restore(scenario, &Pam, dropper, &checkpoint).expect("restore checkpoint");
    let resumed_result = resumed.run_to_completion().expect("resumed core drains");
    (expected, resumed_result)
}

proptest! {
    // Each case runs two full trials; 12 cases keep this file well under
    // the tier-1 budget (the inputs below bound trials to ~200 tasks).
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resuming_from_a_random_interrupt_is_byte_identical(
        seed in 0u64..1_000,
        tasks in 40usize..200,
        steps in 0usize..400,
        dropper_kind in 0u8..3,
    ) {
        let scenario = Scenario::specint(17);
        let window = (tasks as u64) * 12; // ~2x oversubscription
        let level = OversubscriptionLevel::new("cp", tasks, window);
        let workload = Workload::generate(&scenario, &level, 2.0, seed);
        let heuristic = ProactiveDropper::paper_default();
        // The threshold dropper reads pressure, so its keep-all verdicts
        // are keyed on it too; a restore starts that memo cold.
        let threshold = ThresholdDropper::paper_default();
        let dropper: &dyn taskdrop::core::DropPolicy = match dropper_kind {
            0 => &heuristic,
            1 => &ReactiveOnly,
            _ => &threshold,
        };
        let (expected, resumed) = interrupted_vs_straight(
            &scenario, &workload, dropper, quick_config(), seed ^ 0xC0FFEE, steps,
        );
        prop_assert_eq!(expected, resumed);
    }
}

/// Failure injection exercises the checkpoint paths a clean run never
/// touches: down machines, bumped epochs, outstanding failure/repair
/// events far past the snapshot, and lost-to-failure fates.
#[test]
fn resuming_under_failure_injection_is_byte_identical() {
    let scenario = Scenario::specint(29);
    let level = OversubscriptionLevel::new("cpf", 150, 1_800);
    let workload = Workload::generate(&scenario, &level, 2.0, 5);
    let config = SimConfig {
        failures: Some(taskdrop::sim::FailureSpec { mtbf: 700, mttr: 150 }),
        ..quick_config()
    };
    let dropper = ProactiveDropper::paper_default();
    for steps in [1, 37, 160] {
        let (expected, resumed) =
            interrupted_vs_straight(&scenario, &workload, &dropper, config, 3, steps);
        assert!(expected.is_conserved());
        assert_eq!(expected, resumed, "diverged after interrupt at step {steps}");
    }
}

/// A checkpoint is a value, not a consumable: restoring it twice gives two
/// cores that finish identically, and the original snapshot is unchanged
/// by either run.
#[test]
fn a_checkpoint_restores_any_number_of_times() {
    let scenario = Scenario::transcode(7);
    let level = OversubscriptionLevel::new("cp2", 120, 2_000);
    let workload = Workload::generate(&scenario, &level, 1.5, 9);
    let dropper = ProactiveDropper::paper_default();
    let mut core = SimCore::new(&scenario, &workload, &Pam, &dropper, quick_config(), 4).unwrap();
    core.run_until(600);
    let checkpoint = core.snapshot();
    let expected = core.run_to_completion().unwrap();

    let first = SimCore::restore(&scenario, &Pam, &dropper, &checkpoint)
        .unwrap()
        .run_to_completion()
        .unwrap();
    let second = SimCore::restore(&scenario, &Pam, &dropper, &checkpoint)
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_eq!(first, expected);
    assert_eq!(second, expected);
}

/// Identical states must serialize to identical bytes (snapshots are
/// canonical), and a snapshot of a restored core must equal the
/// checkpoint it came from.
#[test]
fn snapshots_are_canonical_json() {
    let scenario = Scenario::specint(3);
    let level = OversubscriptionLevel::new("cp3", 100, 1_400);
    let workload = Workload::generate(&scenario, &level, 2.0, 2);
    let mut core =
        SimCore::new(&scenario, &workload, &Pam, &ReactiveOnly, quick_config(), 6).unwrap();
    core.run_until(500);
    let a = core.snapshot();
    let b = core.snapshot();
    assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());

    let restored = SimCore::restore(&scenario, &Pam, &ReactiveOnly, &a).unwrap();
    assert_eq!(restored.snapshot(), a, "restore must not perturb the state it loads");
}

/// An open-world core's checkpoint carries injected tasks and revives
/// mid-stream injection: inject, snapshot, restore, inject more, drain.
#[test]
fn open_world_checkpoints_carry_injected_tasks() {
    let scenario = Scenario::specint(13);
    let mut core = SimCore::open(&scenario, &Pam, &ReactiveOnly, quick_config(), 2).unwrap();
    for k in 0..30u64 {
        core.inject(taskdrop::model::TaskTypeId((k % 12) as u16), 20 * k, 20 * k + 700).unwrap();
    }
    core.run_until(250);
    let checkpoint = core.snapshot();
    let expected = core.run_to_completion().unwrap();

    let mut resumed = SimCore::restore(&scenario, &Pam, &ReactiveOnly, &checkpoint).unwrap();
    assert_eq!(resumed.total_tasks(), 30);
    assert_eq!(resumed.run_to_completion().unwrap(), expected);

    // And the resumed core keeps accepting new work afterwards.
    let now = resumed.now();
    resumed.inject(taskdrop::model::TaskTypeId(0), now + 10, now + 500).unwrap();
    let extended = resumed.run_to_completion().unwrap();
    assert_eq!(extended.total_tasks, 31);
    assert!(extended.is_conserved());
}

/// A checkpoint can satisfy every restore rule and still strand a task:
/// here the only task has moved from its `Arrival` event into the batch
/// queue and the event heap is empty, so no mapping event will ever place
/// it. Running such a core to completion is a typed error, not a panic.
#[test]
fn a_restored_core_that_cannot_drain_reports_not_drained() {
    let scenario = Scenario::specint(13);
    let mut core = SimCore::open(&scenario, &Pam, &ReactiveOnly, quick_config(), 2).unwrap();
    core.inject(taskdrop::model::TaskTypeId(0), 10, 700).unwrap();
    let mut checkpoint = core.snapshot();
    assert_eq!(checkpoint.events.len(), 1, "only the task's arrival is scheduled");
    checkpoint.batch.push(checkpoint.tasks[0]);
    checkpoint.events.clear();

    let mut restored = SimCore::restore(&scenario, &Pam, &ReactiveOnly, &checkpoint).unwrap();
    assert_eq!(restored.run_to_completion(), Err(SimError::NotDrained { resolved: 0, total: 1 }));
}

/// A mid-run checkpoint of an approximate-computing trial, taken at the
/// first step after which some machine holds a degraded entry.
fn degraded_checkpoint(scenario: &Scenario) -> Checkpoint {
    let level = OversubscriptionLevel::new("cpa", 400, 2_500);
    let workload = Workload::generate(scenario, &level, 1.0, 1);
    let config = SimConfig { approx: Some(ApproxSpec::half_time()), ..quick_config() };
    let dropper = ProactiveDropper::paper_default();
    let mut core = SimCore::new(scenario, &workload, &Pam, &dropper, config, 1).unwrap();
    loop {
        assert!(!core.step().is_drained(), "the trial never degraded a task");
        let degraded =
            core.state().machines.iter().any(|m| {
                m.running.is_some_and(|r| r.degraded) || m.pending.iter().any(|q| q.degraded)
            });
        if degraded {
            return core.snapshot();
        }
    }
}

/// Approximate-computing settings in a checkpoint are untrusted input: a
/// zero time factor is refused with the broken condition instead of
/// panicking while the degraded PET is built.
#[test]
fn a_checkpoint_with_a_zero_approx_time_factor_is_refused() {
    let scenario = Scenario::specint(0xA5);
    let dropper = ProactiveDropper::paper_default();
    let mut checkpoint = degraded_checkpoint(&scenario);
    assert!(SimCore::restore(&scenario, &Pam, &dropper, &checkpoint).is_ok());
    checkpoint.config.approx = Some(ApproxSpec { time_factor: 0.0, value: 0.6 });
    assert_eq!(
        SimCore::restore(&scenario, &Pam, &dropper, &checkpoint).err(),
        Some(SimError::InvalidApprox { problem: "approx time factor must be in (0, 1)" })
    );
}

/// The compaction policy in a checkpoint is untrusted input too: one that
/// keeps a single impulse is refused with the broken condition instead of
/// panicking at the first chain step after the restore.
#[test]
fn a_checkpoint_with_a_one_impulse_compaction_is_refused() {
    let scenario = Scenario::specint(0xA5);
    let level = OversubscriptionLevel::new("cpc", 200, 2_000);
    let workload = Workload::generate(&scenario, &level, 1.0, 3);
    let dropper = ProactiveDropper::paper_default();
    let mut core = SimCore::new(&scenario, &workload, &Pam, &dropper, quick_config(), 3).unwrap();
    core.run_until(600);
    let mut checkpoint = core.snapshot();
    assert!(SimCore::restore(&scenario, &Pam, &dropper, &checkpoint).is_ok());
    checkpoint.config.compaction = Compaction::MaxImpulses(1);
    assert_eq!(
        SimCore::restore(&scenario, &Pam, &dropper, &checkpoint).err(),
        Some(SimError::InvalidCompaction { problem: "MaxImpulses requires max >= 2" })
    );
}

/// The engine degrades a task only while approximate computing is on, so a
/// checkpoint holding degraded entries without `config.approx` is refused.
#[test]
fn degraded_entries_without_approx_are_refused() {
    let scenario = Scenario::specint(0xA5);
    let mut checkpoint = degraded_checkpoint(&scenario);
    checkpoint.config.approx = None;
    let dropper = ProactiveDropper::paper_default();
    assert!(
        matches!(
            SimCore::restore(&scenario, &Pam, &dropper, &checkpoint).err(),
            Some(SimError::CheckpointMismatch { field: "degraded", .. })
        ),
        "a degraded entry restored without approximate computing"
    );
}

/// The persistent PET×tail cache (DESIGN.md §13) is *derived* state: a
/// snapshot taken from a warm-cache core serializes to exactly the bytes
/// a cold-cache twin produces, and the warm→restore→run path is
/// byte-identical to the cold run. Nothing about the cache — revisions,
/// entries, counters — may leak into `Checkpoint` v1.
#[test]
fn warm_cache_snapshot_equals_cold_snapshot() {
    let scenario = Scenario::specint(21);
    let level = OversubscriptionLevel::new("cp4", 160, 1_800);
    let workload = Workload::generate(&scenario, &level, 1.0, 5);
    let dropper = ProactiveDropper::paper_default();

    // Warm core: stepping + explicit tail estimates fill the cache.
    let mut warm = SimCore::new(&scenario, &workload, &Pam, &dropper, quick_config(), 5).unwrap();
    warm.run_until(700);
    for m in scenario.machines.clone() {
        let _ = warm.queue_tail_estimate(m.id);
    }
    assert!(warm.cache_stats().lookups() > 0, "the cache must actually be warm");
    let warm_bytes = serde_json::to_string(&warm.snapshot()).unwrap();

    // Cold twin: restored from those bytes, cache empty, snapshot again.
    let checkpoint: Checkpoint = serde_json::from_str(&warm_bytes).unwrap();
    let mut cold = SimCore::restore(&scenario, &Pam, &dropper, &checkpoint).unwrap();
    assert_eq!(cold.cache_stats().lookups(), 0);
    let cold_bytes = serde_json::to_string(&cold.snapshot()).unwrap();
    assert_eq!(warm_bytes, cold_bytes, "cache state leaked into the checkpoint");

    // Warm-cache continuation == cold-cache continuation, byte for byte.
    assert_eq!(warm.run_to_completion().unwrap(), cold.run_to_completion().unwrap());
}

/// The serialized `Checkpoint` v1 layout is frozen: exactly the seed
/// PR 3 field set, in which the new cache/revision machinery must never
/// appear. A failure here means the checkpoint format changed — bump
/// `CHECKPOINT_VERSION` and write a migration instead.
#[test]
fn checkpoint_v1_field_set_is_frozen() {
    let scenario = Scenario::specint(3);
    let level = OversubscriptionLevel::new("cp5", 60, 900);
    let workload = Workload::generate(&scenario, &level, 2.0, 2);
    let mut core =
        SimCore::new(&scenario, &workload, &Pam, &ReactiveOnly, quick_config(), 6).unwrap();
    core.run_until(400);
    let json = serde_json::to_string(&core.snapshot()).unwrap();

    // Exactly the v1 field set, present by name…
    for field in [
        "version",
        "scenario_name",
        "scenario_seed",
        "config",
        "exec_seed",
        "now",
        "mapping_events",
        "tasks",
        "fates",
        "batch",
        "machines",
        "events",
        "event_seq",
        // MachineCheckpoint fields:
        "down",
        "busy_ticks",
        "epoch",
        "running",
        "pending",
    ] {
        assert!(json.contains(&format!("\"{field}\":")), "v1 field {field} missing");
    }
    // …and none of the derived-state machinery.
    for forbidden in ["queue_rev", "tail_hits", "tail_misses", "conv_", "verdict", "cache", "ctx"] {
        assert!(!json.contains(forbidden), "derived state {forbidden} leaked into checkpoint v1");
    }
}

/// `fixtures/shard_checkpoint_v1.json` was written by a build whose
/// `CHECKPOINT_VERSION` was 1: a SPECint shard (scenario seed 11, PAM,
/// the paper-default heuristic dropper, execution seed 7, a bursty source
/// of 12 offers behind a 4-slot pre-drop ingress queue, a 4-event flight
/// recorder) advanced through two 100-tick epochs and checkpointed at
/// tick 200. Today's types still parse those bytes, defaulting the fields
/// added since, but restore refuses the old version (DESIGN.md §9), and a
/// refused restore leaves the shard's live state and restore point as
/// they were.
#[test]
fn a_version_1_shard_checkpoint_parses_but_is_refused() {
    let v1: ShardCheckpoint =
        serde_json::from_str(include_str!("fixtures/shard_checkpoint_v1.json")).unwrap();
    assert_eq!(v1.core.version, 1);
    assert_eq!((v1.core.scenario_name.as_str(), v1.core.scenario_seed), ("specint", 11));
    let stats = v1.admission.stats();
    assert_eq!((stats.stolen_in, stats.stolen_out), (0, 0));
    assert_eq!(stats.offered, stats.admitted + stats.turned_away());
    let refused = SimError::CheckpointVersion { found: 1, supported: 2 };
    assert_eq!(taskdrop::sim::CHECKPOINT_VERSION, 2);

    let scenario = Scenario::specint(11);
    let dropper = ProactiveDropper::paper_default();
    assert_eq!(SimCore::restore(&scenario, &Pam, &dropper, &v1.core).err(), Some(refused.clone()));

    let mut fleet = FleetDriver::new().with_checkpoint_every(100);
    let mut shard = FleetShard::new(
        "v2",
        &scenario,
        &Pam,
        &dropper,
        quick_config(),
        7,
        TrafficSource::Bursty(BurstySource::new(9, 0.05, 0.0, 300, 700, 400, 12, 12)),
        AdmissionController::new(4, BackpressurePolicy::PreDrop { threshold: 0.2 }),
    )
    .unwrap();
    shard.enable_flight_recorder(4);
    fleet.add_shard(shard);
    fleet.advance(200).unwrap();
    let shard = fleet.shard_mut(0).unwrap();
    let restore_point = shard.last_checkpoint().cloned();
    assert!(restore_point.is_some(), "the live shard has a restore point");
    let live = (
        shard.core().snapshot(),
        shard.source().clone(),
        shard.admission().clone(),
        shard.flight_recorder().map(FlightRecorder::snapshot),
    );

    assert_eq!(shard.restore_from(&v1), Err(refused));
    assert_eq!(shard.last_checkpoint().cloned(), restore_point);
    assert_eq!(
        (
            shard.core().snapshot(),
            shard.source().clone(),
            shard.admission().clone(),
            shard.flight_recorder().map(FlightRecorder::snapshot),
        ),
        live
    );
}

/// A checkpoint is untrusted input, and its traffic source skipped the
/// constructor's checks when it was parsed. A diurnal source with a zero
/// period (the next offer divides by it) and an empty trace (the next
/// offer indexes it modulo its length) are refused with a typed error
/// before any field of the live shard is replaced.
#[test]
fn a_shard_checkpoint_with_a_broken_source_is_refused() {
    let scenario = Scenario::specint(3);
    let dropper = ProactiveDropper::paper_default();
    let mut fleet = FleetDriver::new().with_checkpoint_every(100);
    let shard = FleetShard::new(
        "diurnal",
        &scenario,
        &Pam,
        &dropper,
        quick_config(),
        7,
        TrafficSource::Diurnal(DiurnalSource::new(33, 0.12, 0.9, 3_000, 450, 12, 180)),
        AdmissionController::new(16, BackpressurePolicy::ShedOldest),
    )
    .unwrap();
    fleet.add_shard(shard);
    fleet.advance(200).unwrap();
    let shard = fleet.shard_mut(0).unwrap();
    let restore_point =
        shard.last_checkpoint().cloned().expect("the live shard has a restore point");
    let live = (shard.core().snapshot(), shard.source().clone(), shard.admission().clone());

    let source = serde_json::to_string(&restore_point.source).unwrap();
    assert_eq!(source.matches("\"period\":3000").count(), 1, "{source}");
    let zero_period = source.replace("\"period\":3000", "\"period\":0");
    let empty_trace = r#"{"Trace":{"entries":[],"loop_period":null,"remaining":3,
        "index":0,"offset":0,"upcoming":null}}"#;
    for broken in [zero_period.as_str(), empty_trace] {
        let mut checkpoint = restore_point.clone();
        checkpoint.source = serde_json::from_str(broken).expect("the broken source parses");
        assert!(checkpoint.source.validate().is_err());
        assert!(matches!(
            shard.restore_from(&checkpoint),
            Err(SimError::CheckpointMismatch { field: "source", .. })
        ));
        assert_eq!(shard.last_checkpoint(), Some(&restore_point));
        assert_eq!(
            (shard.core().snapshot(), shard.source().clone(), shard.admission().clone()),
            live
        );
    }
    // The shard is unharmed: it keeps serving from its own source.
    fleet.advance(200).unwrap();
}

/// The admission controller in a checkpoint skipped its constructor's
/// checks too. A zero capacity, a pre-drop threshold above one, a queue
/// longer than its capacity and a queue out of arrival order are each
/// refused with a typed error before any field of the live shard is
/// replaced.
#[test]
fn a_shard_checkpoint_with_a_broken_admission_controller_is_refused() {
    let scenario = Scenario::specint(3);
    let dropper = ProactiveDropper::paper_default();
    let mut fleet = FleetDriver::new().with_checkpoint_every(100);
    let shard = FleetShard::new(
        "bursty",
        &scenario,
        &Pam,
        &dropper,
        quick_config(),
        7,
        TrafficSource::Bursty(BurstySource::new(9, 0.05, 0.0, 300, 700, 400, 12, 40)),
        AdmissionController::new(4, BackpressurePolicy::PreDrop { threshold: 0.2 }),
    )
    .unwrap();
    fleet.add_shard(shard);
    fleet.advance(200).unwrap();
    let shard = fleet.shard_mut(0).unwrap();
    let restore_point =
        shard.last_checkpoint().cloned().expect("the live shard has a restore point");
    let live = (shard.core().snapshot(), shard.source().clone(), shard.admission().clone());

    // A controller with two queued offers, arrivals 10 then 20.
    let mut core = SimCore::open(&scenario, &Pam, &dropper, quick_config(), 1).unwrap();
    let mut queued = AdmissionController::new(4, BackpressurePolicy::PreDrop { threshold: 0.2 });
    for arrival in [10, 20] {
        queued.offer(OfferedTask { type_id: TaskTypeId(0), arrival, deadline: 900 }, &mut core);
    }
    assert_eq!(queued.queued(), 2);
    let json = serde_json::to_string(&queued).unwrap();
    for field in ["\"capacity\":4", "\"threshold\":0.2", "\"arrival\":10"] {
        assert_eq!(json.matches(field).count(), 1, "{json}");
    }
    let broken = [
        json.replace("\"capacity\":4", "\"capacity\":0"),
        json.replace("\"threshold\":0.2", "\"threshold\":1.5"),
        json.replace("\"capacity\":4", "\"capacity\":1"),
        json.replace("\"arrival\":10", "\"arrival\":30"),
    ];
    for admission in &broken {
        let mut checkpoint = restore_point.clone();
        checkpoint.admission =
            serde_json::from_str(admission).expect("the broken controller parses");
        assert!(
            matches!(
                shard.restore_from(&checkpoint),
                Err(SimError::CheckpointMismatch { field: "admission", .. })
            ),
            "{admission}"
        );
        assert_eq!(shard.last_checkpoint(), Some(&restore_point));
        assert_eq!(
            (shard.core().snapshot(), shard.source().clone(), shard.admission().clone()),
            live
        );
    }
    // The untouched controller still restores.
    let mut checkpoint = restore_point.clone();
    checkpoint.admission = serde_json::from_str(&json).unwrap();
    assert_eq!(shard.restore_from(&checkpoint), Ok(()));
}

/// A DAG checkpoint carries the coordinator's admission controller, and
/// restoring it refuses a broken one the same way.
#[test]
fn a_dag_checkpoint_with_a_broken_admission_controller_is_refused() {
    let scenario = Scenario::specint(3);
    let core = SimCore::open(&scenario, &Pam, &ReactiveOnly, quick_config(), 1).unwrap();
    let coordinator = DagCoordinator::new()
        .with_admission(AdmissionController::new(4, BackpressurePolicy::Reject));
    let checkpoint = coordinator.snapshot(&core);
    assert!(checkpoint.restore(&scenario, &Pam, &ReactiveOnly).is_ok());

    let json = serde_json::to_string(&checkpoint.coordinator).unwrap();
    assert_eq!(json.matches("\"capacity\":4").count(), 1, "{json}");
    let mut broken = checkpoint.clone();
    broken.coordinator =
        serde_json::from_str(&json.replace("\"capacity\":4", "\"capacity\":0")).unwrap();
    assert!(matches!(
        broken.restore(&scenario, &Pam, &ReactiveOnly),
        Err(DagError::Sim(SimError::CheckpointMismatch { field: "admission", .. }))
    ));
}

/// A DAG checkpoint's coordinator skipped its own methods too. An
/// in-flight node in a graph that does not exist, a successor out of
/// range and a prune threshold above one each restored before and then
/// panicked mid-run (or broke `with_pruning`'s assertion); each is now
/// refused with a typed error before the core is built.
#[test]
fn a_dag_checkpoint_with_a_broken_coordinator_is_refused() {
    let scenario = Scenario::specint(3);
    let mut core = SimCore::open(&scenario, &Pam, &ReactiveOnly, quick_config(), 1).unwrap();
    let tap = DagTap::new();
    tap.attach(&mut core);
    let mut coordinator = DagCoordinator::new().with_pruning(0.1);
    let chain = GraphBlueprint {
        arrival: 0,
        nodes: vec![BlueprintNode { type_id: TaskTypeId(0), slack: 2_000 }; 2],
        edges: vec![(0, 1)],
    };
    coordinator.add_graph(&mut core, TaskGraph::from_blueprint(&chain).unwrap()).unwrap();
    coordinator.advance(&mut core, &tap, 1).unwrap();
    assert_eq!(coordinator.in_flight(), 1, "the root is in flight");
    let checkpoint = coordinator.snapshot(&core);
    let json = serde_json::to_string(&checkpoint.coordinator).unwrap();
    let edits = [
        ("[{\"graph\":0,\"node\":0}]", "[{\"graph\":7,\"node\":0}]"),
        ("\"succs\":[[1],[]]", "\"succs\":[[5],[]]"),
        ("\"threshold\":0.1", "\"threshold\":7.0"),
    ];
    for (field, corrupted) in edits {
        assert_eq!(json.matches(field).count(), 1, "{json}");
        let mut broken = checkpoint.clone();
        broken.coordinator = serde_json::from_str(&json.replace(field, corrupted))
            .expect("the broken coordinator parses");
        assert!(
            matches!(
                broken.restore(&scenario, &Pam, &ReactiveOnly),
                Err(DagError::Sim(SimError::CheckpointMismatch { field: "coordinator", .. }))
            ),
            "{corrupted}"
        );
    }
    // The untouched snapshot still restores and runs to the end.
    let (mut core, mut coordinator) = checkpoint.restore(&scenario, &Pam, &ReactiveOnly).unwrap();
    let tap = DagTap::new();
    tap.attach(&mut core);
    coordinator.run_to_drain(&mut core, &tap).unwrap();
    assert!(coordinator.all_resolved() && coordinator.audit());
}

/// `DagCheckpoint::restore` refuses a coordinator whose held successor
/// names a task type the scenario lacks, which would otherwise fail only
/// when its root completes and leave it held for good.
#[test]
fn a_dag_checkpoint_naming_an_unknown_task_type_is_refused() {
    let scenario = Scenario::specint(3);
    let mut core = SimCore::open(&scenario, &Pam, &ReactiveOnly, quick_config(), 1).unwrap();
    let tap = DagTap::new();
    tap.attach(&mut core);
    let mut coordinator = DagCoordinator::new();
    let chain = GraphBlueprint {
        arrival: 0,
        nodes: vec![
            BlueprintNode { type_id: TaskTypeId(0), slack: 2_000 },
            BlueprintNode { type_id: TaskTypeId(1), slack: 2_000 },
        ],
        edges: vec![(0, 1)],
    };
    coordinator.add_graph(&mut core, TaskGraph::from_blueprint(&chain).unwrap()).unwrap();
    coordinator.advance(&mut core, &tap, 1).unwrap();
    assert_eq!((coordinator.in_flight(), coordinator.held()), (1, 1));
    let checkpoint = coordinator.snapshot(&core);
    let json = serde_json::to_string(&checkpoint.coordinator).unwrap();
    let field = "{\"type_id\":1,";
    assert_eq!(json.matches(field).count(), 1, "{json}");
    let mut broken = checkpoint.clone();
    broken.coordinator = serde_json::from_str(&json.replace(field, "{\"type_id\":12,"))
        .expect("the edited coordinator parses");
    assert!(matches!(
        broken.restore(&scenario, &Pam, &ReactiveOnly),
        Err(DagError::Sim(SimError::CheckpointMismatch { field: "coordinator", .. }))
    ));
    assert!(checkpoint.restore(&scenario, &Pam, &ReactiveOnly).is_ok());
}
