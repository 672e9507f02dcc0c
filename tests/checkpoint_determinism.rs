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
        heuristic_dropper in (0u8..2).prop_map(|k| k == 0),
    ) {
        let scenario = Scenario::specint(17);
        let window = (tasks as u64) * 12; // ~2x oversubscription
        let level = OversubscriptionLevel::new("cp", tasks, window);
        let workload = Workload::generate(&scenario, &level, 2.0, seed);
        let heuristic = ProactiveDropper::paper_default();
        let dropper: &dyn taskdrop::core::DropPolicy =
            if heuristic_dropper { &heuristic } else { &ReactiveOnly };
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
    for forbidden in ["queue_rev", "tail_hits", "tail_misses", "conv_", "cache", "ctx"] {
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
