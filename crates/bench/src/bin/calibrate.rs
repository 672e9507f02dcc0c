//! Calibration probe: times single trials and sweeps the deadline-slack
//! coefficient γ and the arrival window so the oversubscription levels land
//! in the paper's robustness bands (Figure 5: roughly 50 % / 35 % / 27 % for
//! PAM+Heuristic at 20k/30k/40k). Not one of the paper's figures; a
//! workbench tool.
//!
//! Usage:
//! `cargo run -p taskdrop-bench --release --bin calibrate [factor] [window] [gammas...]`

// crates/bench is the sanctioned wall-clock scope (taskdrop_lint: wall-clock).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;
use taskdrop_sched::HeuristicKind;
use taskdrop_sim::{DropperKind, RunSpec, SimConfig, SimError, TrialRunner};
use taskdrop_workload::{OversubscriptionLevel, Scenario};

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let factor: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.15);
    let window: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(108_000);
    let gammas: Vec<f64> = if args.len() > 2 {
        args[2..].iter().filter_map(|s| s.parse().ok()).collect()
    } else {
        vec![1.0, 1.5, 2.0]
    };
    let scenario = Scenario::specint(0xA5);
    println!("scenario: specint, PET inconsistency {:.2}", scenario.pet.inconsistency());
    println!("scale factor {factor}, window {window}");

    for &gamma in &gammas {
        for level in OversubscriptionLevel::paper_levels(window) {
            let level = level.scaled(factor);
            let spec = RunSpec {
                level: level.clone(),
                gamma,
                mapper: HeuristicKind::Pam,
                dropper: DropperKind::heuristic_default(),
                config: SimConfig::default(),
            };
            let start = Instant::now();
            let report =
                TrialRunner { trials: 2, master_seed: 1, threads: 2 }.run(&scenario, &spec)?;
            let dt = start.elapsed();
            let react = report
                .reactive_drop_fraction()
                .map_or("n/a".to_string(), |s| format!("{:.1}%", s.mean * 100.0));
            println!(
                "gamma={gamma:.1} level={:>3} tasks={:>6} robustness={} reactive-share={} wall={:.2?}/2trials",
                level.label,
                level.tasks,
                report.robustness()?,
                react,
                dt
            );
        }
    }
    Ok(())
}
