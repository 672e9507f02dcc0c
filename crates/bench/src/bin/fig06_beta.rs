//! Regenerates Figure 6: robustness vs robustness improvement factor β.

use taskdrop_bench::{figures, parse_scale};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig06 (beta sweep) — scale {}", scale.name());
    figures::publish_fig06(scale)
}
