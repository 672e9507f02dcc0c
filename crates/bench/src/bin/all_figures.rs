//! Runs every figure of the paper in sequence and prints all tables.

use taskdrop_bench::{figures, parse_scale, render_markdown, write_outputs};
use taskdrop_sim::SimError;

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    eprintln!("all figures — scale {}", scale.name());

    let rows = figures::fig05(scale)?;
    println!("\n## Figure 5 — effective depth (η)\n");
    println!("{}", render_markdown("η \\ robustness (%)", &rows));
    write_outputs("fig05", scale.name(), &rows);

    let rows = figures::fig06(scale)?;
    println!("\n## Figure 6 — robustness improvement factor (β)\n");
    println!("{}", render_markdown("β \\ robustness (%)", &rows));
    write_outputs("fig06", scale.name(), &rows);

    let rows = figures::fig07a(scale)?;
    println!("\n## Figure 7a — heterogeneous mappers ± dropping (30k)\n");
    println!("{}", render_markdown("mapper \\ robustness (%)", &rows));
    write_outputs("fig07a", scale.name(), &rows);

    let rows = figures::fig07b(scale)?;
    println!("\n## Figure 7b — homogeneous mappers ± dropping (30k)\n");
    println!("{}", render_markdown("mapper \\ robustness (%)", &rows));
    write_outputs("fig07b", scale.name(), &rows);

    let (rows, reports) = figures::fig08(scale)?;
    println!("\n## Figure 8 — optimal vs heuristic vs threshold dropping\n");
    println!("{}", render_markdown("level \\ robustness (%)", &rows));
    println!("### §V-F drop breakdown\n");
    for report in &reports {
        if let Some(share) = report.reactive_drop_fraction() {
            println!(
                "* {} @ {}: {:.1} % ± {:.1} % of drops were reactive",
                report.label(),
                report.level,
                share.mean * 100.0,
                share.ci95 * 100.0
            );
        }
    }
    write_outputs("fig08", scale.name(), &rows);

    let rows = figures::fig09(scale)?;
    println!("\n## Figure 9 — normalised cost\n");
    println!("{}", render_markdown("level \\ cost per robustness pt (×100)", &rows));
    write_outputs("fig09", scale.name(), &rows);

    let rows = figures::fig10(scale)?;
    println!("\n## Figure 10 — transcode validation\n");
    println!("{}", render_markdown("mapper \\ robustness (%)", &rows));
    write_outputs("fig10", scale.name(), &rows);

    eprintln!("done.");
    Ok(())
}
