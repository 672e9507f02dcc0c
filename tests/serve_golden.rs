//! Golden output of the serving layer.
//!
//! The constants below are FNV-1a-64 digests and byte lengths of every
//! observable artifact of two serving runs, recorded from the serial
//! single-threaded driver that the one-worker, stealing-off fleet
//! replaced: per-shard results, admission ledgers, final shard
//! checkpoints (flight recorder included), the full telemetry JSONL
//! stream, the kill/restore post-mortems, and a `ServicePlan` report. The
//! fleet must reproduce them byte for byte at any worker count, so the
//! serial behaviour stays pinned without a second driver to compare
//! against.

use taskdrop::prelude::*;

/// FNV-1a-64 hash and length of one serialized artifact.
#[derive(Debug, PartialEq)]
struct Digest {
    fnv: u64,
    len: usize,
}

fn digest(bytes: &str) -> Digest {
    let mut fnv = 0xcbf2_9ce4_8422_2325_u64;
    for b in bytes.bytes() {
        fnv ^= u64::from(b);
        fnv = fnv.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Digest { fnv, len: bytes.len() }
}

fn json_digest(value: &impl serde::Serialize) -> Digest {
    digest(&serde_json::to_string(value).expect("serializable"))
}

const RESULTS: Digest = Digest { fnv: 0x8f95_b340_4882_a1c5, len: 592 };
const ADMISSION: Digest = Digest { fnv: 0x8222_dd31_d35a_7bf0, len: 271 };
const CHECKPOINTS: Digest = Digest { fnv: 0x422e_cfaf_ebfe_e8a7, len: 9_789 };
const TELEMETRY: Digest = Digest { fnv: 0xd72c_95a8_2d05_bf0c, len: 39_831 };
const POST_MORTEMS: Digest = Digest { fnv: 0xbff7_3163_73e7_970b, len: 1_790 };
const REPORT: Digest = Digest { fnv: 0x7e83_f9ac_e42a_05f5, len: 985 };

fn config() -> SimConfig {
    SimConfig { exclude_boundary: 0, ..SimConfig::default() }
}

/// Two shards on `specint(3)`, epoch 500, a checkpoint every 1 000 ticks,
/// telemetry on both shards and a 32-event flight recorder on shard 0;
/// shard 0 and then shard 1 are killed and restored mid-run, the fleet
/// drains, and a final sweep checkpoints every shard at the same tick.
fn fleet_artifacts(workers: usize) -> [(&'static str, Digest); 5] {
    let scenario = Scenario::specint(3);
    let dropper = ProactiveDropper::paper_default();
    let telemetry = Telemetry::new();
    let mut fleet = FleetDriver::new()
        .with_workers(workers)
        .with_checkpoint_every(1_000)
        .with_telemetry(&telemetry);
    fleet.add_shard(
        FleetShard::new(
            "bursty",
            &scenario,
            &Pam,
            &dropper,
            config(),
            7,
            TrafficSource::Bursty(BurstySource::new(21, 0.5, 0.0, 400, 900, 350, 12, 220)),
            AdmissionController::new(24, BackpressurePolicy::PreDrop { threshold: 0.2 }),
        )
        .expect("valid shard"),
    );
    fleet.add_shard(
        FleetShard::new(
            "diurnal",
            &scenario,
            &Pam,
            &dropper,
            config(),
            8,
            TrafficSource::Diurnal(DiurnalSource::new(33, 0.12, 0.9, 3_000, 450, 12, 180)),
            AdmissionController::new(16, BackpressurePolicy::ShedOldest),
        )
        .expect("valid shard"),
    );
    fleet.shard_mut(0).expect("shard 0").enable_flight_recorder(32);

    for _ in 0..5 {
        fleet.advance(500).expect("epoch");
    }
    fleet.kill_and_restore(0).expect("kill/restore");
    for _ in 0..3 {
        fleet.advance(500).expect("epoch");
    }
    fleet.kill_and_restore(1).expect("kill/restore");
    fleet.run_until_idle(500, 200).expect("drain");
    assert!(fleet.is_idle(), "fleet did not drain inside the epoch budget");
    fleet.checkpoint_all();

    // The kill of shard 0 reports the 32 events its post-mortem kept.
    let jsonl = telemetry.jsonl();
    let kill = r#""shard":"bursty","revived_at":2000,"clock":2500,"post_mortem_events":32"#;
    assert!(jsonl.contains(kill), "the kill_restore record must report the post-mortem's size");
    let shards = fleet.shards();
    let results: Vec<TrialResult> = shards.iter().map(|s| s.result().expect("drained")).collect();
    let stats: Vec<AdmissionStats> = shards.iter().map(|s| s.admission().stats()).collect();
    let checkpoints: Vec<&ShardCheckpoint> =
        shards.iter().map(|s| s.last_checkpoint().expect("checkpointed")).collect();
    let post_mortems: Vec<Option<&FlightSnapshot>> =
        shards.iter().map(FleetShard::post_mortem).collect();
    [
        ("results", json_digest(&results)),
        ("admission", json_digest(&stats)),
        ("checkpoints", json_digest(&checkpoints)),
        ("telemetry", digest(&jsonl)),
        ("post_mortems", json_digest(&post_mortems)),
    ]
}

#[test]
fn fleet_reproduces_the_serial_driver_golden_output() {
    for workers in [1, 4] {
        let golden = [RESULTS, ADMISSION, CHECKPOINTS, TELEMETRY, POST_MORTEMS];
        for ((name, actual), expected) in fleet_artifacts(workers).into_iter().zip(golden) {
            assert_eq!(
                actual, expected,
                "{name} diverged from the golden run at {workers} workers"
            );
        }
    }
}

fn plan(parallel: Option<FleetPlan>) -> ServicePlan {
    ServicePlan {
        scenario: ScenarioSpec::Specint { seed: 11 },
        epoch: 500,
        checkpoint_every: Some(2_000),
        max_epochs: 150,
        parallel,
        shards: vec![
            ShardPlan {
                name: "bursty".into(),
                mapper: HeuristicKind::Pam,
                dropper: DropperKind::heuristic_default(),
                config: config(),
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
                config: config(),
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

#[test]
fn service_plan_reproduces_the_serial_report_golden_digest() {
    let fleet = |workers| Some(FleetPlan { workers: Some(workers), stealing: None });
    for parallel in [None, fleet(1), fleet(4)] {
        let report = plan(parallel).run().expect("plan runs");
        assert!(report.idle);
        assert_eq!(
            json_digest(&report),
            REPORT,
            "report diverged from the golden run ({parallel:?})"
        );
    }
}
