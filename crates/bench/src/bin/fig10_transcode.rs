//! Regenerates Figure 10: the video-transcoding validation workload.

use taskdrop_bench::{figures, parse_scale, render_markdown, write_outputs};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig10 (transcode validation) — scale {}", scale.name());
    let rows = figures::fig10(scale)?;
    println!("\n## Figure 10 — MSD/MM/PAM ± proactive dropping (video transcoding, 20k)\n");
    println!("{}", render_markdown("mapper \\ robustness (%)", &rows));
    let dir = write_outputs("fig10", scale.name(), &rows);
    eprintln!("results written under {}", dir.display());
    Ok(())
}
