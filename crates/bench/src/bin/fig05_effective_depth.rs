//! Regenerates Figure 5: robustness vs effective depth η.

use taskdrop_bench::{figures, parse_scale, render_markdown, write_outputs};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig05 (effective depth) — scale {}", scale.name());
    let rows = figures::fig05(scale)?;
    println!("\n## Figure 5 — impact of effective depth (η), PAM+Heuristic, β=1\n");
    println!("{}", render_markdown("η \\ robustness (%)", &rows));
    let dir = write_outputs("fig05", scale.name(), &rows);
    eprintln!("results written under {}", dir.display());
    Ok(())
}
