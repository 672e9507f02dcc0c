//! Regenerates Figure 9: normalised incurred cost (cost / robustness %).

use taskdrop_bench::{figures, parse_scale, render_markdown, write_outputs};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig09 (cost) — scale {}", scale.name());
    let rows = figures::fig09(scale)?;
    println!("\n## Figure 9 — incurred cost / tasks completed on time (%)\n");
    println!("{}", render_markdown("level \\ cost per robustness pt (×100)", &rows));
    let dir = write_outputs("fig09", scale.name(), &rows);
    eprintln!("results written under {}", dir.display());
    Ok(())
}
