//! Extension: approximate computing — the paper's named future work.
//!
//! *"In future, we plan to extend the probabilistic analysis to consider
//! approximately computing tasks, in addition to task dropping."* (paper
//! conclusion). With `SimConfig::approx` set, the paper's heuristic
//! ([`ProactiveDropper`]) may *degrade* a doomed task instead of discarding
//! it: run a cheaper approximate variant (e.g. a lower-quality transcoding
//! preset) that takes `time_factor` of the full execution time and yields
//! `value` of the full utility. The decision generalises Eq 8 to three
//! futures per task — keep, degrade, drop — chosen by expected utility over
//! the effective depth.
//!
//! ```sh
//! cargo run --release --example approximate_computing            # full scale
//! cargo run --release --example approximate_computing -- --quick  # smoke scale
//! ```

use taskdrop::model::ApproxSpec;
use taskdrop::prelude::*;

fn main() -> Result<(), SimError> {
    let scale = taskdrop::demo::scale_from_args();
    let scenario = Scenario::specint(0xA5);
    let level = OversubscriptionLevel::new("approx", 3_000, 16_000).scaled(scale);
    let runner = TrialRunner::new(taskdrop::demo::quick_trials(4, scale), 0xAB);

    println!(
        "oversubscribed SPECint workload, {} tasks/trial, {} trials\n",
        level.tasks, runner.trials
    );
    println!("{:<34} {:>14} {:>14} {:>10}", "policy", "robustness %", "utility %", "degraded");

    // Baseline: the paper's drop-only heuristic.
    let plain = RunSpec {
        level: level.clone(),
        gamma: 1.0,
        mapper: HeuristicKind::Pam,
        dropper: DropperKind::heuristic_default(),
        config: taskdrop::demo::scaled_config(scale),
    };
    let report = runner.run(&scenario, &plain)?;
    let utility: Vec<f64> = report.trials.iter().map(|t| t.utility_pct()).collect();
    println!(
        "{:<34} {:>14} {:>13.2}  {:>10}",
        "PAM + drop-only heuristic",
        report.robustness()?,
        utility.iter().sum::<f64>() / utility.len() as f64,
        0
    );

    // Approximate computing at different quality/value trade-offs.
    for (factor, value) in [(0.5, 0.6), (0.3, 0.4), (0.7, 0.85)] {
        let spec = ApproxSpec::new(factor, value);
        let run = RunSpec {
            level: level.clone(),
            gamma: 1.0,
            mapper: HeuristicKind::Pam,
            dropper: DropperKind::heuristic_default(),
            config: SimConfig { approx: Some(spec), ..taskdrop::demo::scaled_config(scale) },
        };
        let report = runner.run(&scenario, &run)?;
        let utility: Vec<f64> = report.trials.iter().map(|t| t.utility_pct()).collect();
        let degraded: usize = report.trials.iter().map(|t| t.on_time_approx).sum();
        println!(
            "{:<34} {:>14} {:>13.2}  {:>10}",
            format!("PAM + degrade (t x{factor}, v {value})"),
            report.robustness()?,
            utility.iter().sum::<f64>() / utility.len() as f64,
            degraded / report.trials.len(),
        );
    }

    println!(
        "\nRobustness counts only full-fidelity on-time completions (the paper's\n\
         metric); utility also credits approximate completions at their value.\n\
         The trade is real: a degraded task still occupies its machine, so some\n\
         capacity that outright drops would have freed goes to salvage work and\n\
         full-fidelity robustness falls — but total delivered utility rises at\n\
         every setting, which is exactly what approximate computing buys. Note\n\
         the costlier variant (x0.7 time) engages far less often: the Eq-8\n\
         rescue comparison only degrades when it beats dropping."
    );
    Ok(())
}
