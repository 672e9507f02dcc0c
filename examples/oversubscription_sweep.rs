//! Sweep the oversubscription level and the deadline-slack coefficient γ to
//! map out *where* proactive dropping pays off.
//!
//! The paper evaluates three fixed arrival intensities; this example walks
//! the whole curve from an underloaded system (where dropping has nothing to
//! do) deep into overload (where it shines), at two slack settings.
//!
//! ```sh
//! cargo run --release --example oversubscription_sweep            # full scale
//! cargo run --release --example oversubscription_sweep -- --quick  # smoke scale
//! ```

use taskdrop::prelude::*;

fn main() -> Result<(), SimError> {
    let scale = taskdrop::demo::scale_from_args();
    let scenario = Scenario::specint(0xA5);
    let runner = TrialRunner::new(taskdrop::demo::quick_trials(3, scale), 77);
    let base_tasks = 2_000usize;
    // Rate multipliers relative to a roughly-balanced system.
    let multipliers = [0.5, 0.8, 1.0, 1.25, 1.6, 2.0, 2.6];
    // Ticks such that multiplier 1.0 is near the effective capacity.
    let base_window = 22_000u64;

    for gamma in [1.0, 2.0] {
        println!("\nγ = {gamma} (deadline slack = avg_i + γ·avg_all)");
        println!(
            "{:>10} {:>12} {:>22} {:>22} {:>8}",
            "overload", "tasks/s", "PAM+Heuristic", "PAM+ReactDrop", "gain"
        );
        for mult in multipliers {
            let window = (base_window as f64 / mult) as u64;
            let level = OversubscriptionLevel::new("sweep", base_tasks, window).scaled(scale);
            let run = |dropper| {
                runner
                    .run(
                        &scenario,
                        &RunSpec {
                            level: level.clone(),
                            gamma,
                            mapper: HeuristicKind::Pam,
                            dropper,
                            config: taskdrop::demo::scaled_config(scale),
                        },
                    )?
                    .robustness()
            };
            let with = run(DropperKind::heuristic_default())?;
            let without = run(DropperKind::ReactiveOnly)?;
            println!(
                "{:>9.1}x {:>12.0} {:>15.1} ±{:>4.1} {:>15.1} ±{:>4.1} {:>7.1}",
                mult,
                level.rate() * 1000.0,
                with.mean,
                with.ci95,
                without.mean,
                without.ci95,
                with.mean - without.mean,
            );
        }
    }

    println!(
        "\nReading the curve: below ~1x the dropper is idle (nothing worth\n\
         dropping); past it, the gain grows with the overload — uncertainty in\n\
         arrivals is exactly where the mechanism earns its keep (paper §V-F)."
    );
    Ok(())
}
