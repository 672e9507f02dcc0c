//! Config-driven experiment runner: execute any `RunSpec` from JSON.
//!
//! ```sh
//! cargo run -p taskdrop_bench --release --bin run_config -- spec.json \
//!     [--scenario specint|transcode|homogeneous] [--trials N] [--seed S]
//! ```
//!
//! With no file argument, prints a template spec and exits. The report
//! (per-trial results + summaries) is written to stdout as JSON, so this
//! composes with `jq`-style pipelines. A malformed command line (an unknown
//! flag, a second spec file, a flag without its value) prints a usage line
//! on stderr and exits with status 2; an unreadable or invalid spec, or a
//! failed run, exits with status 1.

use std::process::ExitCode;
use taskdrop_sched::HeuristicKind;
use taskdrop_sim::{DropperKind, RunSpec, SimConfig, TrialRunner};
use taskdrop_workload::{OversubscriptionLevel, Scenario, SPECINT_WINDOW};

const USAGE: &str = "usage: run_config [SPEC.json] \
                     [--scenario specint|transcode|homogeneous] [--trials N] [--seed S]";

/// The parsed command line.
struct Args {
    spec_path: Option<String>,
    scenario: fn(u64) -> Scenario,
    trials: usize,
    seed: u64,
}

fn template() -> RunSpec {
    RunSpec {
        level: OversubscriptionLevel::paper_levels(SPECINT_WINDOW)[1].scaled(0.15),
        gamma: 1.0,
        mapper: HeuristicKind::Pam,
        dropper: DropperKind::heuristic_default(),
        config: SimConfig::default(),
    }
}

/// The value following `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The integer following `flag`.
fn integer<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = value(args, flag)?;
    raw.parse().map_err(|_| format!("{flag} needs an integer, got {raw:?}"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { spec_path: None, scenario: Scenario::specint, trials: 10, seed: 1 };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => {
                parsed.scenario = match value(&mut args, &arg)?.as_str() {
                    "specint" => Scenario::specint,
                    "transcode" => Scenario::transcode,
                    "homogeneous" => Scenario::homogeneous,
                    other => return Err(format!("unknown scenario {other:?}")),
                }
            }
            "--trials" => parsed.trials = integer(&mut args, &arg)?,
            "--seed" => parsed.seed = integer(&mut args, &arg)?,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path if parsed.spec_path.is_none() => parsed.spec_path = Some(path.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}: one spec file at most")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = &args.spec_path else {
        eprintln!("no spec file given; template follows (save, edit, re-run):");
        println!("{}", serde_json::to_string_pretty(&template())?);
        return Ok(());
    };
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec: RunSpec =
        serde_json::from_str(&raw).map_err(|e| format!("invalid spec {path}: {e}"))?;

    let report = TrialRunner::new(args.trials, args.seed).run(&(args.scenario)(0xA5), &spec)?;
    eprintln!(
        "{} @ {}: robustness {} | cost/robustness {:.4}",
        report.label(),
        report.level,
        report.robustness()?,
        report.cost_per_robustness()?.mean,
    );
    println!("{}", serde_json::to_string_pretty(&report)?);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("run_config: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(problem) => {
            eprintln!("run_config: {problem}");
            ExitCode::FAILURE
        }
    }
}
