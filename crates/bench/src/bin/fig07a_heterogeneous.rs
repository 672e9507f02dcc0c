//! Regenerates Figure 7a: proactive dropping across mapping heuristics on
//! the heterogeneous (SPECint) system, 30k level.

use taskdrop_bench::{figures, parse_scale};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig07a (heterogeneous mappers) — scale {}", scale.name());
    figures::publish_fig07a(scale)
}
