//! Regenerates Figure 7b: proactive dropping across mapping heuristics on
//! the homogeneous system, 30k level.

use taskdrop_bench::{figures, parse_scale};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig07b (homogeneous mappers) — scale {}", scale.name());
    figures::publish_fig07b(scale)
}
