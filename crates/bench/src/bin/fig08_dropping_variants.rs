//! Regenerates Figure 8: PAM+Optimal vs PAM+Heuristic vs PAM+Threshold
//! across oversubscription levels, plus the Section V-F reactive-share
//! analysis ("only around 7 % of the task droppings happen reactively").

use taskdrop_bench::{figures, parse_scale};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig08 (dropping variants) — scale {}", scale.name());
    figures::publish_fig08(scale)
}
