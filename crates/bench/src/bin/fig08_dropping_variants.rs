//! Regenerates Figure 8: PAM+Optimal vs PAM+Heuristic vs PAM+Threshold
//! across oversubscription levels, plus the Section V-F reactive-share
//! analysis ("only around 7 % of the task droppings happen reactively").

use taskdrop_bench::{figures, parse_scale, render_markdown, write_outputs};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig08 (dropping variants) — scale {}", scale.name());
    let (rows, reports) = figures::fig08(scale)?;
    println!("\n## Figure 8 — optimal vs heuristic vs threshold dropping (PAM)\n");
    println!("{}", render_markdown("level \\ robustness (%)", &rows));

    println!("### §V-F drop breakdown (share of drops that were reactive)\n");
    for report in &reports {
        if let Some(share) = report.reactive_drop_fraction() {
            println!(
                "* {} @ {}: {:.1} % ± {:.1} % reactive",
                report.label(),
                report.level,
                share.mean * 100.0,
                share.ci95 * 100.0
            );
        }
    }
    let dir = write_outputs("fig08", scale.name(), &rows);
    eprintln!("results written under {}", dir.display());
    Ok(())
}
