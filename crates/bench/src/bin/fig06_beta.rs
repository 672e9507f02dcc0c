//! Regenerates Figure 6: robustness vs robustness improvement factor β.

use taskdrop_bench::{figures, parse_scale, render_markdown, write_outputs};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig06 (beta sweep) — scale {}", scale.name());
    let rows = figures::fig06(scale)?;
    println!("\n## Figure 6 — impact of robustness improvement factor (β), PAM+Heuristic, η=2\n");
    println!("{}", render_markdown("β \\ robustness (%)", &rows));
    let dir = write_outputs("fig06", scale.name(), &rows);
    eprintln!("results written under {}", dir.display());
    Ok(())
}
