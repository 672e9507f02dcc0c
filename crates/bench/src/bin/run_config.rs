//! Config-driven experiment runner: execute any `RunSpec` from JSON.
//!
//! ```sh
//! cargo run -p taskdrop-bench --release --bin run_config -- spec.json \
//!     [--scenario specint|transcode|homogeneous] [--trials N] [--seed S]
//! ```
//!
//! With no file argument, prints a template spec and exits. The report
//! (per-trial results + summaries) is written to stdout as JSON, so this
//! composes with `jq`-style pipelines.

use taskdrop_sched::HeuristicKind;
use taskdrop_sim::{DropperKind, RunSpec, SimConfig, SimError, TrialRunner};
use taskdrop_workload::{OversubscriptionLevel, Scenario, SPECINT_WINDOW};

fn template() -> RunSpec {
    RunSpec {
        level: OversubscriptionLevel::paper_levels(SPECINT_WINDOW)[1].scaled(0.15),
        gamma: 1.0,
        mapper: HeuristicKind::Pam,
        dropper: DropperKind::heuristic_default(),
        config: SimConfig::default(),
    }
}

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec_path: Option<String> = None;
    let mut scenario_name = "specint".to_string();
    let mut trials = 10usize;
    let mut seed = 1u64;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenario" => scenario_name = it.next().expect("--scenario NAME"),
            "--trials" => trials = it.next().expect("--trials N").parse().expect("integer"),
            "--seed" => seed = it.next().expect("--seed S").parse().expect("integer"),
            other => spec_path = Some(other.to_string()),
        }
    }

    let Some(path) = spec_path else {
        eprintln!("no spec file given; template follows (save, edit, re-run):");
        println!("{}", serde_json::to_string_pretty(&template()).expect("template"));
        return Ok(());
    };
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let spec: RunSpec =
        serde_json::from_str(&raw).unwrap_or_else(|e| panic!("invalid spec {path}: {e}"));

    let scenario = match scenario_name.as_str() {
        "specint" => Scenario::specint(0xA5),
        "transcode" => Scenario::transcode(0xA5),
        "homogeneous" => Scenario::homogeneous(0xA5),
        other => panic!("unknown scenario {other}; expected specint|transcode|homogeneous"),
    };

    let report = TrialRunner::new(trials, seed).run(&scenario, &spec)?;
    eprintln!(
        "{} @ {}: robustness {} | cost/robustness {:.4}",
        report.label(),
        report.level,
        report.robustness()?,
        report.cost_per_robustness()?.mean,
    );
    println!("{}", serde_json::to_string_pretty(&report).expect("report"));
    Ok(())
}
