//! The paper's motivating workload: live video transcoding on heterogeneous
//! cloud VMs (Section V-H / Figure 10).
//!
//! Four transcoding operations (resolution, bitrate, framerate, codec) run
//! on four VM types (general, CPU-optimised, memory-optimised, GPU), two
//! machines each. Each stream task has a hard deadline — a frame transcoded
//! late is worthless. This example compares the three heterogeneous mapping
//! heuristics with and without the autonomous proactive dropper.
//!
//! ```sh
//! cargo run --release --example video_transcoding            # full scale
//! cargo run --release --example video_transcoding -- --quick  # smoke scale
//! ```

use taskdrop::prelude::*;

fn main() -> Result<(), SimError> {
    let scenario = Scenario::transcode(0xA5);
    println!("machines:");
    for m in &scenario.machines {
        let mt = &scenario.machine_types[m.type_id.index()];
        println!("  {}: {} (${}/h)", m.id, mt.name, mt.price_per_hour);
    }
    println!("task types:");
    for t in &scenario.task_types {
        println!("  {}: {} (mean {:.0} ms)", t.id, t.name, t.mean_exec);
    }

    // Moderate oversubscription, like the paper's transcoding traces.
    let scale = taskdrop::demo::scale_from_args();
    let level = OversubscriptionLevel::new("stream", 3_000, 36_000).scaled(scale);
    let runner = TrialRunner::new(taskdrop::demo::quick_trials(5, scale), 0xBEEF);
    println!(
        "\n{} tasks per trial, {} trials; robustness = % completed on time\n",
        level.tasks, runner.trials
    );

    println!("| mapper | + proactive dropping | + reactive only |");
    println!("|--------|----------------------|-----------------|");
    for mapper in [HeuristicKind::Msd, HeuristicKind::MinMin, HeuristicKind::Pam] {
        let mut cells = Vec::new();
        for dropper in [DropperKind::heuristic_default(), DropperKind::ReactiveOnly] {
            let spec = RunSpec {
                level: level.clone(),
                gamma: 1.0,
                mapper,
                dropper,
                config: taskdrop::demo::scaled_config(scale),
            };
            let report = runner.run(&scenario, &spec)?;
            cells.push(format!("{}", report.robustness()?));
        }
        println!("| {} | {} | {} |", mapper.name(), cells[0], cells[1]);
    }

    println!(
        "\nAs in the paper's Figure 10: with the proactive dropper engaged, the\n\
         choice of mapping heuristic stops mattering — dropping hopeless tasks\n\
         forgives poor mapping decisions."
    );
    Ok(())
}
