//! Runs every figure of the paper in sequence and prints all tables.

use taskdrop_bench::{figures, parse_scale};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("all figures — scale {}", scale.name());
    for publish in [
        figures::publish_fig05,
        figures::publish_fig06,
        figures::publish_fig07a,
        figures::publish_fig07b,
        figures::publish_fig08,
        figures::publish_fig09,
        figures::publish_fig10,
    ] {
        publish(scale)?;
    }
    eprintln!("done.");
    Ok(())
}
