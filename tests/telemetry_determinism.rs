//! Determinism and zero-cost guarantees of the `taskdrop_obs` pipeline.
//!
//! Three properties pin the telemetry layer:
//!
//! 1. **Byte determinism** — the same seed produces a byte-identical JSONL
//!    export (every timestamp is a virtual tick; nothing reads the wall
//!    clock).
//! 2. **Zero observational cost** — an instrumented run and a bare run
//!    produce identical per-step [`StepOutcome`]s (work counters
//!    included) and identical final [`TrialResult`]s: observers are
//!    strictly read-only.
//! 3. **Rollup equivalence** — the stream-reconstructed `TrialResult`
//!    equals the engine's own at the fixed bench seed (the same
//!    configuration `BENCH_core.json` pins), so the exporter can never
//!    drift from the accounting CI already guards.
//!
//! Plus the serving-layer guarantee: flight-recorder contents are rebuilt
//! exactly by `kill_and_restore`'s deterministic replay, while the
//! destroyed timeline survives as the post-mortem snapshot.

use taskdrop::prelude::*;

fn bench_core<'a>(
    scenario: &'a Scenario,
    workload: &'a Workload,
    dropper: &'a ProactiveDropper,
) -> SimCore<'a> {
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    SimCore::new(scenario, workload, &Pam, dropper, config, 0xBE).expect("valid configuration")
}

/// Runs the fixed bench-seed trial with telemetry attached and returns the
/// pipeline plus the engine's own result.
fn instrumented_bench_run(
    scenario: &Scenario,
    workload: &Workload,
    dropper: &ProactiveDropper,
) -> (Telemetry, TrialResult) {
    let mut core = bench_core(scenario, workload, dropper);
    let tel = Telemetry::new().with_sample_every(400);
    tel.attach(&mut core, "bench");
    let mut steps = 0u64;
    loop {
        let outcome = core.step();
        steps += 1;
        if steps % 128 == 0 {
            tel.sample_core(&core, "bench");
        }
        if outcome.is_drained() {
            break;
        }
    }
    tel.sample_core(&core, "bench");
    let engine = core.result().expect("drained");
    (tel, engine)
}

#[test]
fn same_seed_produces_byte_identical_jsonl() {
    let scenario = Scenario::specint(0xA5);
    let level = OversubscriptionLevel::new("bench", 600, 3_240);
    let workload = Workload::generate(&scenario, &level, 1.0, 0xBE);
    let dropper = ProactiveDropper::paper_default();

    let (first, _) = instrumented_bench_run(&scenario, &workload, &dropper);
    let (second, _) = instrumented_bench_run(&scenario, &workload, &dropper);
    assert!(!first.jsonl().is_empty(), "the run must emit records");
    assert_eq!(first.jsonl(), second.jsonl(), "JSONL export must be byte-identical per seed");
    assert_eq!(first.prometheus(), second.prometheus());
}

#[test]
fn telemetry_attachment_is_observationally_free() {
    let scenario = Scenario::specint(0xA5);
    let level = OversubscriptionLevel::new("bench", 600, 3_240);
    let workload = Workload::generate(&scenario, &level, 1.0, 0xBE);
    let dropper = ProactiveDropper::paper_default();

    let mut bare = bench_core(&scenario, &workload, &dropper);
    let mut instrumented = bench_core(&scenario, &workload, &dropper);
    let tel = Telemetry::new().with_sample_every(400);
    tel.attach(&mut instrumented, "bench");

    // Lock-step: every step outcome — including the cumulative cache work
    // counters — must match, or attaching telemetry perturbed the engine.
    loop {
        let a = bare.step();
        let b = instrumented.step();
        assert_eq!(a, b, "instrumented step diverged from the bare engine");
        if a.is_drained() {
            break;
        }
    }
    assert_eq!(bare.result().expect("drained"), instrumented.result().expect("drained"));
    assert_eq!(bare.cache_stats(), instrumented.cache_stats());
}

#[test]
fn rollup_equals_engine_result_at_the_bench_seed() {
    let scenario = Scenario::specint(0xA5);
    let level = OversubscriptionLevel::new("bench", 600, 3_240);
    let workload = Workload::generate(&scenario, &level, 1.0, 0xBE);
    let dropper = ProactiveDropper::paper_default();

    let (tel, engine) = instrumented_bench_run(&scenario, &workload, &dropper);
    let rollup = tel.finish_scope("bench").expect("drained");
    assert_eq!(rollup, engine, "stream rollup must reproduce the engine's accounting");
    // The exported rollup record carries the same result verbatim.
    let line = tel
        .jsonl()
        .lines()
        .find(|l| l.contains("\"record\":\"rollup\""))
        .expect("rollup record emitted")
        .to_string();
    let value: taskdrop::obs::RollupRecord =
        serde_json::from_str(&line).expect("rollup record parses");
    assert_eq!(value.result, engine);
}

fn recorder_fleet<'a>(scenario: &'a Scenario, dropper: &'a ProactiveDropper) -> FleetDriver<'a> {
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let bursty = TrafficSource::Bursty(BurstySource::new(21, 0.5, 0.0, 400, 900, 350, 12, 220));
    let diurnal = TrafficSource::Diurnal(DiurnalSource::new(33, 0.12, 0.9, 3_000, 450, 12, 180));
    let mut driver = FleetDriver::new().with_workers(1).with_checkpoint_every(1_000);
    driver.add_shard(
        FleetShard::new(
            "bursty",
            scenario,
            &Pam,
            dropper,
            config,
            7,
            bursty,
            AdmissionController::new(24, BackpressurePolicy::PreDrop { threshold: 0.2 }),
        )
        .expect("valid shard config"),
    );
    driver.add_shard(
        FleetShard::new(
            "diurnal",
            scenario,
            &Pam,
            dropper,
            config,
            8,
            diurnal,
            AdmissionController::new(16, BackpressurePolicy::ShedOldest),
        )
        .expect("valid shard config"),
    );
    driver.shard_mut(0).expect("shard 0").enable_flight_recorder(32);
    driver
}

/// The flight recorder of shard 0, snapshotted.
fn recorded(driver: &FleetDriver<'_>) -> FlightSnapshot {
    driver.shards()[0].flight_recorder().expect("recorder enabled").snapshot()
}

#[test]
fn flight_recorder_is_rebuilt_exactly_by_kill_and_restore() {
    let scenario = Scenario::specint(3);
    let dropper = ProactiveDropper::paper_default();

    let mut disturbed = recorder_fleet(&scenario, &dropper);
    let mut control = recorder_fleet(&scenario, &dropper);

    for _ in 0..4 {
        disturbed.advance(500).expect("epoch");
        control.advance(500).expect("epoch");
    }
    let pre_kill = recorded(&disturbed);
    assert!(!pre_kill.events.is_empty(), "recorder must have captured the live timeline");

    disturbed.kill_and_restore(0).expect("checkpoint exists");

    // The destroyed timeline survives verbatim as the post-mortem...
    let post_mortem = disturbed.shards()[0].post_mortem().expect("recorder enabled");
    assert_eq!(*post_mortem, pre_kill, "post-mortem must capture the killed timeline verbatim");

    // ...and the replayed shard's *live* recorder converges to the control's
    // exact contents: replay is deterministic, so the ring the restored
    // shard carries forward is byte-identical to one that never died.
    assert_eq!(recorded(&disturbed), recorded(&control));

    disturbed.run_until_idle(500, 200).expect("drain");
    control.run_until_idle(500, 200).expect("control drain");
    assert!(disturbed.is_idle() && control.is_idle());
    assert_eq!(
        recorded(&disturbed),
        recorded(&control),
        "drained recorders must match event for event"
    );
    let results: Vec<TrialResult> =
        disturbed.shards().iter().map(|s| s.result().expect("drained")).collect();
    let control_results: Vec<TrialResult> =
        control.shards().iter().map(|s| s.result().expect("drained")).collect();
    assert_eq!(results, control_results, "kill/restore must be invisible in the final metrics");
}
