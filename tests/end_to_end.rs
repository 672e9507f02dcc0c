//! End-to-end engine tests across every mapper × dropper combination.

use taskdrop::prelude::*;

fn scenario() -> Scenario {
    Scenario::specint(0xA5)
}

fn workload(scenario: &Scenario, tasks: usize, window: u64) -> Workload {
    let level = OversubscriptionLevel::new("e2e", tasks, window);
    Workload::generate(scenario, &level, 1.0, 99)
}

fn run(
    scenario: &Scenario,
    w: &Workload,
    mapper: &dyn MappingHeuristic,
    dropper: &dyn DropPolicy,
    config: SimConfig,
    exec_seed: u64,
) -> TrialResult {
    SimCore::new(scenario, w, mapper, dropper, config, exec_seed)
        .unwrap()
        .run_to_completion()
        .unwrap()
}

fn all_mappers() -> Vec<HeuristicKind> {
    HeuristicKind::ALL.to_vec()
}

fn all_droppers() -> Vec<DropperKind> {
    vec![
        DropperKind::ReactiveOnly,
        DropperKind::heuristic_default(),
        DropperKind::Optimal,
        DropperKind::Threshold { base: 0.25 },
    ]
}

#[test]
fn every_combination_conserves_tasks() {
    let scenario = scenario();
    let w = workload(&scenario, 300, 2_500);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    for mapper in all_mappers() {
        for dropper in all_droppers() {
            let m = mapper.build();
            let d = dropper.build();
            let r = run(&scenario, &w, m.as_ref(), d.as_ref(), config, 5);
            assert!(r.is_conserved(), "{}+{}: fates do not sum: {r:?}", mapper.name(), d.name());
            let pct = r.robustness_pct();
            assert!((0.0..=100.0).contains(&pct), "{}: robustness {pct}", mapper.name());
        }
    }
}

#[test]
fn reactive_only_never_drops_proactively() {
    let scenario = scenario();
    let w = workload(&scenario, 400, 2_000);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    for mapper in all_mappers() {
        let m = mapper.build();
        let r = run(&scenario, &w, m.as_ref(), &ReactiveOnly, config, 5);
        assert_eq!(r.dropped_proactive, 0, "{}", mapper.name());
    }
}

#[test]
fn combinations_are_deterministic() {
    let scenario = scenario();
    let w = workload(&scenario, 250, 2_000);
    let config = SimConfig::default();
    for mapper in [HeuristicKind::Pam, HeuristicKind::MinMin] {
        for dropper in all_droppers() {
            let m = mapper.build();
            let d = dropper.build();
            let a = run(&scenario, &w, m.as_ref(), d.as_ref(), config, 5);
            let b = run(&scenario, &w, m.as_ref(), d.as_ref(), config, 5);
            assert_eq!(a, b, "{}+{}", mapper.name(), d.name());
        }
    }
}

#[test]
fn underload_needs_no_dropping() {
    // When the system keeps up, proactive dropping must not hurt: robustness
    // stays near 100 % and almost nothing is dropped.
    let scenario = scenario();
    let w = workload(&scenario, 100, 60_000);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let r = run(&scenario, &w, &Pam, &ProactiveDropper::paper_default(), config, 5);
    assert!(r.robustness_pct() > 95.0, "underloaded robustness {:.1}", r.robustness_pct());
    assert!(
        r.dropped_proactive < 5,
        "dropper fired {} times on an underloaded system",
        r.dropped_proactive
    );
}

#[test]
fn homogeneous_scenario_runs_all_ordering_heuristics() {
    let scenario = Scenario::homogeneous(0xA5);
    let level = OversubscriptionLevel::new("homo", 400, 2_000);
    let w = Workload::generate(&scenario, &level, 1.0, 3);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    for mapper in [HeuristicKind::Fcfs, HeuristicKind::Edf, HeuristicKind::Sjf] {
        let m = mapper.build();
        let with = run(&scenario, &w, m.as_ref(), &ProactiveDropper::paper_default(), config, 5);
        let without = run(&scenario, &w, m.as_ref(), &ReactiveOnly, config, 5);
        assert!(with.is_conserved() && without.is_conserved());
        // Oversubscribed homogeneous system: dropping should help (allow a
        // small tolerance for noise at this tiny scale).
        assert!(
            with.robustness_pct() + 3.0 >= without.robustness_pct(),
            "{}: with {:.1} vs without {:.1}",
            mapper.name(),
            with.robustness_pct(),
            without.robustness_pct()
        );
    }
}

#[test]
fn kill_at_deadline_ablation_changes_behaviour() {
    // With kill disabled, started tasks always run to completion: late
    // completions appear and robustness typically suffers in overload.
    let scenario = scenario();
    let w = workload(&scenario, 500, 2_500);
    let kill = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let no_kill =
        SimConfig { exclude_boundary: 0, kill_running_at_deadline: false, ..SimConfig::default() };
    let with_kill = run(&scenario, &w, &Pam, &ReactiveOnly, kill, 5);
    let without_kill = run(&scenario, &w, &Pam, &ReactiveOnly, no_kill, 5);
    assert!(with_kill.is_conserved() && without_kill.is_conserved());
    assert_eq!(with_kill.late, 0, "kill-at-deadline forbids late completions");
    assert!(without_kill.late > 0, "ablation must allow late completions");
    assert!(
        with_kill.robustness_pct() >= without_kill.robustness_pct(),
        "reclaiming doomed executions should not hurt: {:.1} vs {:.1}",
        with_kill.robustness_pct(),
        without_kill.robustness_pct()
    );
}
