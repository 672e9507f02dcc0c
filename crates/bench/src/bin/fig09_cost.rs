//! Regenerates Figure 9: normalised incurred cost (cost / robustness %).

use taskdrop_bench::{figures, parse_scale};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig09 (cost) — scale {}", scale.name());
    figures::publish_fig09(scale)
}
