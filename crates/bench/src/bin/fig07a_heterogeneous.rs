//! Regenerates Figure 7a: proactive dropping across mapping heuristics on
//! the heterogeneous (SPECint) system, 30k level.

use taskdrop_bench::{figures, parse_scale, render_markdown, write_outputs};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig07a (heterogeneous mappers) — scale {}", scale.name());
    let rows = figures::fig07a(scale)?;
    println!("\n## Figure 7a — MSD/MM/PAM ± proactive dropping (heterogeneous, 30k)\n");
    println!("{}", render_markdown("mapper \\ robustness (%)", &rows));
    let dir = write_outputs("fig07a", scale.name(), &rows);
    eprintln!("results written under {}", dir.display());
    Ok(())
}
