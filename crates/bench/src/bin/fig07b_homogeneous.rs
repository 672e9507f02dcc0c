//! Regenerates Figure 7b: proactive dropping across mapping heuristics on
//! the homogeneous system, 30k level.

use taskdrop_bench::{figures, parse_scale, render_markdown, write_outputs};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig07b (homogeneous mappers) — scale {}", scale.name());
    let rows = figures::fig07b(scale)?;
    println!("\n## Figure 7b — FCFS/EDF/SJF/PAM ± proactive dropping (homogeneous, 30k)\n");
    println!("{}", render_markdown("mapper \\ robustness (%)", &rows));
    let dir = write_outputs("fig07b", scale.name(), &rows);
    eprintln!("results written under {}", dir.display());
    Ok(())
}
