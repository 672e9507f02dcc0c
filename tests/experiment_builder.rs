//! `ExperimentBuilder` acceptance: it can express every `RunSpec` the seven
//! figure binaries use, round-trips through serde, and reproduces
//! `TrialRunner` results exactly.

use taskdrop::experiment::{ExperimentBuilder, ExperimentSpec, ScenarioSpec};
use taskdrop::prelude::*;
use taskdrop_bench::figures::{BASE_THRESHOLD, GAMMA, SCENARIO_SEED};

fn paper_levels() -> [OversubscriptionLevel; 3] {
    OversubscriptionLevel::paper_levels(SPECINT_WINDOW)
}

/// Hand-built spec exactly as `taskdrop_bench::figures` wires its cells.
fn figure_run_spec(
    level: &OversubscriptionLevel,
    mapper: HeuristicKind,
    dropper: DropperKind,
) -> RunSpec {
    RunSpec { level: level.clone(), gamma: GAMMA, mapper, dropper, config: SimConfig::default() }
}

fn builder_for(
    scenario: ScenarioSpec,
    level: &OversubscriptionLevel,
    mapper: HeuristicKind,
    dropper: DropperKind,
    master_seed: u64,
) -> ExperimentSpec {
    ExperimentBuilder::new()
        .scenario(scenario)
        .at_level(level.clone())
        .gamma(GAMMA)
        .mapper(mapper)
        .dropper(dropper)
        .trials(3)
        .master_seed(master_seed)
        .build()
        .expect("figure cells are valid experiments")
}

/// Every grid cell of fig05/06/07a/07b/08/09/10, expressed via the builder,
/// produces the exact `RunSpec` the figure harness hands to `TrialRunner`.
#[test]
fn builder_expresses_every_figure_run_spec() {
    let specint = ScenarioSpec::Specint { seed: SCENARIO_SEED };
    let homogeneous = ScenarioSpec::Homogeneous { seed: SCENARIO_SEED };
    let transcode = ScenarioSpec::Transcode { seed: SCENARIO_SEED };
    let levels = paper_levels();
    let mut cells: Vec<(ScenarioSpec, OversubscriptionLevel, HeuristicKind, DropperKind, u64)> =
        Vec::new();

    // fig05: eta sweep, PAM, three levels.
    for level in &levels {
        for eta in 1..=5usize {
            cells.push((
                specint,
                level.clone(),
                HeuristicKind::Pam,
                DropperKind::Heuristic { beta: 1.0, eta },
                0x0505,
            ));
        }
    }
    // fig06: beta sweep, PAM, three levels.
    for level in &levels {
        for half in 2..=8u32 {
            cells.push((
                specint,
                level.clone(),
                HeuristicKind::Pam,
                DropperKind::Heuristic { beta: half as f64 / 2.0, eta: 2 },
                0x0606,
            ));
        }
    }
    // fig07a / fig07b / fig10: mappers × {Heuristic, ReactDrop}.
    for mapper in [HeuristicKind::Msd, HeuristicKind::MinMin, HeuristicKind::Pam] {
        for dropper in [DropperKind::heuristic_default(), DropperKind::ReactiveOnly] {
            cells.push((specint, levels[1].clone(), mapper, dropper, 0x07A0));
            let transcode_level = OversubscriptionLevel::new("20k", 20_000, TRANSCODE_WINDOW);
            cells.push((transcode, transcode_level, mapper, dropper, 0x1010));
        }
    }
    for mapper in [HeuristicKind::Fcfs, HeuristicKind::Edf, HeuristicKind::Sjf, HeuristicKind::Pam]
    {
        for dropper in [DropperKind::heuristic_default(), DropperKind::ReactiveOnly] {
            cells.push((homogeneous, levels[1].clone(), mapper, dropper, 0x07B0));
        }
    }
    // fig08: dropping variants × levels.
    for level in &levels {
        for dropper in [
            DropperKind::Optimal,
            DropperKind::heuristic_default(),
            DropperKind::Threshold { base: BASE_THRESHOLD },
        ] {
            cells.push((specint, level.clone(), HeuristicKind::Pam, dropper, 0x0808));
        }
    }
    // fig09: cost combos × levels.
    for level in &levels {
        for (mapper, dropper) in [
            (HeuristicKind::Pam, DropperKind::Threshold { base: BASE_THRESHOLD }),
            (HeuristicKind::Pam, DropperKind::heuristic_default()),
            (HeuristicKind::MinMin, DropperKind::ReactiveOnly),
        ] {
            cells.push((specint, level.clone(), mapper, dropper, 0x0909));
        }
    }

    assert!(cells.len() > 60, "expected the full grid, got {}", cells.len());
    for (scenario, level, mapper, dropper, seed) in cells {
        let spec = builder_for(scenario, &level, mapper, dropper, seed);
        assert_eq!(spec.run_spec(), figure_run_spec(&level, mapper, dropper));
        assert_eq!(spec.runner().master_seed, seed);
    }
}

#[test]
fn experiment_spec_round_trips_through_serde() {
    let spec = ExperimentBuilder::transcode(0xA5)
        .level("20k", 400, 4_800)
        .gamma(1.5)
        .mapper(HeuristicKind::MinMin)
        .dropper(DropperKind::Threshold { base: 0.25 })
        .queue_size(4)
        .exclude_boundary(5)
        .trials(2)
        .master_seed(0xBEEF)
        .threads(2)
        .build()
        .unwrap();
    let json = serde_json::to_string_pretty(&spec).unwrap();
    let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
}

/// Running through the facade is the same computation as the hand-wired
/// TrialRunner path.
#[test]
fn builder_run_matches_hand_wired_runner() {
    let scenario = Scenario::specint(SCENARIO_SEED);
    let level = OversubscriptionLevel::new("micro", 120, 1_500);
    let spec = ExperimentBuilder::specint(SCENARIO_SEED)
        .at_level(level.clone())
        .gamma(GAMMA)
        .mapper(HeuristicKind::Pam)
        .dropper(DropperKind::heuristic_default())
        .exclude_boundary(10)
        .trials(2)
        .master_seed(42)
        .build()
        .unwrap();
    let via_builder = spec.run().unwrap();
    let hand_wired = TrialRunner::new(2, 42)
        .run(
            &scenario,
            &RunSpec {
                level,
                gamma: GAMMA,
                mapper: HeuristicKind::Pam,
                dropper: DropperKind::heuristic_default(),
                config: SimConfig { exclude_boundary: 10, ..SimConfig::default() },
            },
        )
        .unwrap();
    assert_eq!(via_builder, hand_wired);
}
