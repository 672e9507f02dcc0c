//! Regenerates Figure 5: robustness vs effective depth η.

use taskdrop_bench::{figures, parse_scale};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig05 (effective depth) — scale {}", scale.name());
    figures::publish_fig05(scale)
}
