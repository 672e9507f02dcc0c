//! Regenerates Figure 10: the video-transcoding validation workload.

use taskdrop_bench::{figures, parse_scale};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("fig10 (transcode validation) — scale {}", scale.name());
    figures::publish_fig10(scale)
}
