//! Serialisation round-trips for every config/result type an experiment
//! pipeline persists.

use taskdrop::prelude::*;

#[test]
fn run_spec_roundtrip() {
    let spec = RunSpec {
        level: OversubscriptionLevel::new("30k", 4_500, 16_200),
        gamma: 1.0,
        mapper: HeuristicKind::Pam,
        dropper: DropperKind::Heuristic { beta: 1.0, eta: 2 },
        config: SimConfig::default(),
    };
    let json = serde_json::to_string_pretty(&spec).unwrap();
    let back: RunSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back.level, spec.level);
    assert_eq!(back.mapper, spec.mapper);
    assert_eq!(back.dropper, spec.dropper);
    assert_eq!(back.config, spec.config);
}

#[test]
fn sim_config_defaults_fill_missing_fields() {
    // Older configs without the kill flag must deserialise with the default.
    let json = r#"{"queue_size":6,"compaction":{"MaxImpulses":64},"exclude_boundary":100}"#;
    let config: SimConfig = serde_json::from_str(json).unwrap();
    assert!(config.kill_running_at_deadline);
}

#[test]
fn workload_roundtrip_preserves_tasks() {
    let scenario = Scenario::transcode(3);
    let level = OversubscriptionLevel::new("w", 120, 4_000);
    let w = Workload::generate(&scenario, &level, 2.0, 17);
    let json = serde_json::to_string(&w).unwrap();
    let back: Workload = serde_json::from_str(&json).unwrap();
    assert_eq!(w, back);
}

#[test]
fn report_serialises_with_trials() {
    let scenario = Scenario::specint(3);
    let spec = RunSpec {
        level: OversubscriptionLevel::new("tiny", 120, 1_200),
        gamma: 1.0,
        mapper: HeuristicKind::MinMin,
        dropper: DropperKind::ReactiveOnly,
        config: SimConfig { exclude_boundary: 10, ..SimConfig::default() },
    };
    let report = TrialRunner::new(2, 5).run(&scenario, &spec).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    assert_eq!(back.trials.len(), 2);
}

#[test]
fn pmf_roundtrip() {
    let p = Pmf::from_impulses(vec![(3, 0.25), (9, 0.75)]).unwrap();
    let json = serde_json::to_string(&p).unwrap();
    assert_eq!(json, "[[3,0.25],[9,0.75]]");
    let back: Pmf = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
}

#[test]
fn pmf_deserialisation_validates() {
    // Negative mass and excess mass must be rejected at the serde boundary.
    assert!(serde_json::from_str::<Pmf>("[[1,-0.5]]").is_err());
    assert!(serde_json::from_str::<Pmf>("[[1,0.9],[2,0.9]]").is_err());
}
