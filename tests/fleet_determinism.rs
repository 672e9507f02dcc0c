//! Worker-count invariance of the parallel shard fleet (DESIGN.md §18):
//! the same fleet plan driven at 1, 2, 4 and 8 workers must produce
//! **byte-identical** output — trial results, admission ledgers, shard
//! checkpoints, and the full telemetry JSONL stream — with and without
//! cross-shard work stealing, and across a mid-run kill/restore.
//!
//! This is the fleet's load-bearing claim: the worker count is a pure
//! throughput knob. The 1-worker run takes the literally-serial code path
//! in `FleetDriver::parallel_advance`, so every multi-worker run is
//! differentially pinned against straight-line single-threaded execution.

use taskdrop::prelude::*;

fn config() -> SimConfig {
    SimConfig { exclude_boundary: 0, ..SimConfig::default() }
}

fn hot_source() -> TrafficSource {
    TrafficSource::Bursty(BurstySource::new(21, 0.5, 0.0, 400, 900, 350, 12, 220))
}

fn cold_source() -> TrafficSource {
    TrafficSource::Bursty(BurstySource::new(5, 0.05, 0.0, 600, 1_200, 80, 12, 400))
}

fn diurnal_source() -> TrafficSource {
    TrafficSource::Diurnal(DiurnalSource::new(33, 0.12, 0.9, 3_000, 450, 12, 180))
}

/// Everything observable about a finished fleet run, ready for byte
/// comparison across worker counts.
#[derive(Debug, PartialEq)]
struct FleetOutput {
    results: Vec<TrialResult>,
    stats: Vec<AdmissionStats>,
    /// Serialized final checkpoint of each shard, taken at the same tick.
    checkpoints: Vec<String>,
    /// The full telemetry JSONL stream (events, epochs, checkpoints,
    /// kill/restore records).
    telemetry: String,
}

/// Builds a four-shard fleet on one scenario, drives it with an optional
/// mid-run kill/restore choreography, and collects every observable byte.
fn run_fleet(workers: usize, stealing: Option<StealPolicy>, kills: &[usize]) -> FleetOutput {
    let scenario = Scenario::specint(3);
    let dropper = ProactiveDropper::paper_default();
    let telemetry = Telemetry::new();
    let mut fleet = FleetDriver::new()
        .with_workers(workers)
        .with_checkpoint_every(800)
        .with_telemetry(&telemetry);
    if let Some(policy) = stealing {
        fleet = fleet.with_stealing(policy);
    }
    let mut add = |name: &str, seed: u64, source: TrafficSource, cap: usize, bp| {
        fleet.add_shard(
            FleetShard::new(
                name,
                &scenario,
                &Pam,
                &dropper,
                config(),
                seed,
                source,
                AdmissionController::new(cap, bp),
            )
            .expect("valid shard"),
        );
    };
    add("hot", 7, hot_source(), 8, BackpressurePolicy::Reject);
    add("cold", 8, cold_source(), 32, BackpressurePolicy::Reject);
    add("diurnal", 9, diurnal_source(), 16, BackpressurePolicy::ShedOldest);
    add("steady", 10, cold_source(), 24, BackpressurePolicy::PreDrop { threshold: 0.2 });

    // Identical choreography at every worker count: a fixed prefix of
    // epochs, then the requested kills, then drain.
    for _ in 0..7 {
        fleet.advance(400).expect("epoch");
    }
    for &victim in kills {
        let revived = fleet.kill_and_restore(victim).expect("kill/restore");
        // A kill can land exactly on a checkpoint boundary, in which case
        // the revival point *is* the current clock.
        assert!(revived <= fleet.clock(), "revived from the future");
        for _ in 0..3 {
            fleet.advance(400).expect("epoch");
        }
    }
    fleet.run_until_idle(400, 400).expect("drain");
    assert!(fleet.is_idle(), "fleet did not drain inside the epoch budget");

    // One final checkpoint sweep so every shard snapshots at the same
    // tick, then serialize everything observable.
    fleet.checkpoint_all();
    FleetOutput {
        results: fleet.shards().iter().map(|s| s.result().expect("drained")).collect(),
        stats: fleet.shards().iter().map(|s| s.admission().stats()).collect(),
        checkpoints: fleet
            .shards()
            .iter()
            .map(|s| {
                serde_json::to_string(s.last_checkpoint().expect("checkpointed"))
                    .expect("serializable checkpoint")
            })
            .collect(),
        telemetry: telemetry.jsonl(),
    }
}

fn steal_policy() -> StealPolicy {
    StealPolicy { saturation: 0.5, headroom: 0.9, max_per_epoch: 6 }
}

/// Without stealing, every worker count retraces the 1-worker run byte
/// for byte.
#[test]
fn fleet_output_is_worker_count_invariant() {
    let baseline = run_fleet(1, None, &[]);
    for workers in [2, 4, 8] {
        let run = run_fleet(workers, None, &[]);
        assert_eq!(run, baseline, "fleet diverged at {workers} workers");
    }
}

/// Stealing off, two mid-run kill/restores: every worker count retraces
/// the 1-worker run, and the kills are invisible in everything but the
/// telemetry stream (which adds the `kill_restore` records and re-counts
/// replayed events) — results, ledgers and final checkpoints equal an
/// undisturbed run's.
#[test]
fn kill_restore_without_stealing_is_worker_count_invariant() {
    let baseline = run_fleet(1, None, &[0, 1]);
    let undisturbed = run_fleet(1, None, &[]);
    assert_eq!(baseline.results, undisturbed.results, "kill/restore changed the results");
    assert_eq!(baseline.stats, undisturbed.stats, "kill/restore changed the ledgers");
    assert_eq!(baseline.checkpoints, undisturbed.checkpoints, "kill/restore changed the state");
    for workers in [2, 4, 8] {
        let run = run_fleet(workers, None, &[0, 1]);
        assert_eq!(run, baseline, "kill/restore fleet diverged at {workers} workers");
    }
}

/// With stealing enabled the barrier executes cross-shard migrations —
/// planned from the merged snapshot, never thread timing — so the output
/// stays worker-count-invariant even while offers move between shards.
#[test]
fn stealing_fleet_is_worker_count_invariant() {
    let baseline = run_fleet(1, Some(steal_policy()), &[]);
    let moved: u64 = baseline.stats.iter().map(|s| s.stolen_out).sum();
    assert!(moved > 0, "steal thresholds never fired; the differential is vacuous");
    assert_eq!(moved, baseline.stats.iter().map(|s| s.stolen_in).sum::<u64>());
    for workers in [2, 4, 8] {
        let run = run_fleet(workers, Some(steal_policy()), &[]);
        assert_eq!(run, baseline, "stealing fleet diverged at {workers} workers");
    }
}

/// The full gauntlet: stealing on, two mid-run kill/restores (one of a
/// donor-side shard, one of a receiver-side shard). The replay log
/// re-applies the recorded migrations, so even the revived shards rejoin
/// byte-identical at every worker count.
#[test]
fn kill_restore_with_stealing_is_worker_count_invariant() {
    let baseline = run_fleet(1, Some(steal_policy()), &[0, 1]);
    let moved: u64 = baseline.stats.iter().map(|s| s.stolen_out).sum();
    assert!(moved > 0, "steal thresholds never fired; the differential is vacuous");
    for workers in [2, 4, 8] {
        let run = run_fleet(workers, Some(steal_policy()), &[0, 1]);
        assert_eq!(run, baseline, "kill/restore fleet diverged at {workers} workers");
    }
}

/// The `ServicePlan` facade honours the same contract: a plan with a
/// `parallel` block serializes to the same `ServiceReport` bytes at every
/// worker count, stealing included.
#[test]
fn parallel_service_plan_reports_are_byte_identical() {
    let plan_at = |workers: usize| ServicePlan {
        scenario: ScenarioSpec::Specint { seed: 11 },
        epoch: 400,
        checkpoint_every: Some(1_600),
        max_epochs: 300,
        parallel: Some(FleetPlan { workers: Some(workers), stealing: Some(steal_policy()) }),
        shards: vec![
            ShardPlan {
                name: "hot".into(),
                mapper: HeuristicKind::Pam,
                dropper: DropperKind::heuristic_default(),
                config: config(),
                exec_seed: 7,
                source: hot_source(),
                ingress_capacity: 8,
                backpressure: BackpressurePolicy::Reject,
            },
            ShardPlan {
                name: "cold".into(),
                mapper: HeuristicKind::Pam,
                dropper: DropperKind::heuristic_default(),
                config: config(),
                exec_seed: 8,
                source: cold_source(),
                ingress_capacity: 32,
                backpressure: BackpressurePolicy::Reject,
            },
        ],
    };
    let baseline = plan_at(1).run().expect("plan runs");
    assert!(baseline.idle);
    let baseline_bytes = serde_json::to_string(&baseline).expect("serializable report");
    for workers in [2, 4, 8] {
        let report = plan_at(workers).run().expect("plan runs");
        let bytes = serde_json::to_string(&report).expect("serializable report");
        assert_eq!(bytes, baseline_bytes, "report bytes diverged at {workers} workers");
    }
}
