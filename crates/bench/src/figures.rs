//! Grid definitions for every figure of the paper's evaluation section.
//!
//! Each `figNN` function runs the corresponding experiment grid at the given
//! [`Scale`] and returns the result rows, or the first cell's [`SimError`];
//! the integration tests smoke-run them at `Scale::Quick`. Each
//! `publish_figNN` runs the grid, prints its Markdown table on stdout and
//! writes its CSV/JSON under `results/`: the `fig*` binaries and
//! `all_figures` are thin mains around these.
//!
//! Fixed experiment-wide choices (recorded in EXPERIMENTS.md):
//!
//! * scenario seed `0xA5` — one PET matrix "used throughout the
//!   experiments", as in the paper;
//! * deadline slack γ = 1.0 — calibrated so the three oversubscription
//!   levels land in the paper's Figure 5 robustness bands;
//! * per-figure master seeds — within a figure every configuration sees the
//!   *same* workload trials and the same realised execution times, making
//!   comparisons paired like the paper's.

use crate::experiment::{run_cell, Metric, ResultRow, Scale};
use crate::output::{render_markdown, write_outputs};
use taskdrop_sched::HeuristicKind;
use taskdrop_sim::{DropperKind, RunSpec, SimConfig, SimError, SimReport};
use taskdrop_workload::{OversubscriptionLevel, Scenario, SPECINT_WINDOW, TRANSCODE_WINDOW};

/// Scenario seed shared by all figures (one PET throughout, like the paper).
pub const SCENARIO_SEED: u64 = 0xA5;
/// Deadline slack coefficient (calibrated; see module docs).
pub const GAMMA: f64 = 1.0;
/// The threshold the PAM+Threshold baseline is configured with.
pub const BASE_THRESHOLD: f64 = 0.25;

fn specint_levels(scale: Scale) -> Vec<OversubscriptionLevel> {
    OversubscriptionLevel::paper_levels(SPECINT_WINDOW)
        .into_iter()
        .map(|l| l.scaled(scale.factor()))
        .collect()
}

fn spec(level: OversubscriptionLevel, mapper: HeuristicKind, dropper: DropperKind) -> RunSpec {
    RunSpec { level, gamma: GAMMA, mapper, dropper, config: SimConfig::default() }
}

fn progress(figure: &str, series: &str, x: &str, row: &ResultRow) {
    eprintln!(
        "[{figure}] {series} @ {x}: {:.2} ± {:.2} ({} trials)",
        row.mean, row.ci95, row.trials
    );
}

/// Prints a figure's heading and table on stdout and writes its rows as
/// `results/<id>-<scale>.{csv,json}`.
fn publish(id: &str, heading: &str, metric: &str, scale: Scale, rows: &[ResultRow]) {
    println!("\n## {heading}\n");
    println!("{}", render_markdown(metric, rows));
    let dir = write_outputs(id, scale.name(), rows);
    eprintln!("results written under {}", dir.display());
}

/// Figure 5: robustness vs effective depth η ∈ 1..=5, PAM+Heuristic (β=1),
/// three oversubscription levels.
pub fn fig05(scale: Scale) -> Result<Vec<ResultRow>, SimError> {
    let scenario = Scenario::specint(SCENARIO_SEED);
    let mut rows = Vec::new();
    for level in specint_levels(scale) {
        for eta in 1..=5usize {
            let dropper = DropperKind::Heuristic { beta: 1.0, eta };
            let series = format!("{} tasks", level.label);
            let x = format!("{eta}");
            let (row, _) = run_cell(
                &scenario,
                &spec(level.clone(), HeuristicKind::Pam, dropper),
                scale,
                series.clone(),
                x.clone(),
                Metric::Robustness,
                0x0505,
            )?;
            progress("fig05", &series, &x, &row);
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Figure 6: robustness vs robustness improvement factor β ∈ {1.0, …, 4.0}
/// step 0.5, PAM+Heuristic (η=2), three levels.
pub fn fig06(scale: Scale) -> Result<Vec<ResultRow>, SimError> {
    let scenario = Scenario::specint(SCENARIO_SEED);
    let mut rows = Vec::new();
    for level in specint_levels(scale) {
        for half in 2..=8u32 {
            let beta = half as f64 / 2.0;
            let dropper = DropperKind::Heuristic { beta, eta: 2 };
            let series = format!("{} tasks", level.label);
            let x = format!("{beta:.1}");
            let (row, _) = run_cell(
                &scenario,
                &spec(level.clone(), HeuristicKind::Pam, dropper),
                scale,
                series.clone(),
                x.clone(),
                Metric::Robustness,
                0x0606,
            )?;
            progress("fig06", &series, &x, &row);
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Figures 7a / 10 share this shape: mappers × {Heuristic, ReactDrop}.
fn mapping_grid(
    figure: &'static str,
    scenario: &Scenario,
    level: &OversubscriptionLevel,
    mappers: &[HeuristicKind],
    scale: Scale,
    master_seed: u64,
) -> Result<Vec<ResultRow>, SimError> {
    let droppers = [DropperKind::heuristic_default(), DropperKind::ReactiveOnly];
    let mut rows = Vec::new();
    for &mapper in mappers {
        for dropper in droppers {
            let series = format!("{}+{}", mapper.name(), dropper.label());
            let x = mapper.name().to_string();
            let (row, _) = run_cell(
                scenario,
                &spec(level.clone(), mapper, dropper),
                scale,
                series.clone(),
                x.clone(),
                Metric::Robustness,
                master_seed,
            )?;
            progress(figure, &series, &x, &row);
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Figure 7a: MSD/MM/PAM each with and without the proactive heuristic, on
/// the heterogeneous scenario at the 30k level.
pub fn fig07a(scale: Scale) -> Result<Vec<ResultRow>, SimError> {
    let scenario = Scenario::specint(SCENARIO_SEED);
    let level = specint_levels(scale)[1].clone();
    mapping_grid(
        "fig07a",
        &scenario,
        &level,
        &[HeuristicKind::Msd, HeuristicKind::MinMin, HeuristicKind::Pam],
        scale,
        0x07A0,
    )
}

/// Figure 7b: FCFS/EDF/SJF/PAM with and without the proactive heuristic, on
/// the homogeneous scenario at the 30k level.
pub fn fig07b(scale: Scale) -> Result<Vec<ResultRow>, SimError> {
    let scenario = Scenario::homogeneous(SCENARIO_SEED);
    let level = specint_levels(scale)[1].clone();
    mapping_grid(
        "fig07b",
        &scenario,
        &level,
        &[HeuristicKind::Fcfs, HeuristicKind::Edf, HeuristicKind::Sjf, HeuristicKind::Pam],
        scale,
        0x07B0,
    )
}

/// Figure 8: PAM with Optimal vs Heuristic vs Threshold dropping across the
/// three levels. Also returns the reactive-drop share of PAM+Heuristic (the
/// paper's §V-F "≈7 % of droppings are reactive" analysis) via the reports.
pub fn fig08(scale: Scale) -> Result<(Vec<ResultRow>, Vec<SimReport>), SimError> {
    let scenario = Scenario::specint(SCENARIO_SEED);
    let droppers = [
        DropperKind::Optimal,
        DropperKind::heuristic_default(),
        DropperKind::Threshold { base: BASE_THRESHOLD },
    ];
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for level in specint_levels(scale) {
        for dropper in droppers {
            let series = format!("PAM+{}", dropper.label());
            let x = level.label.clone();
            let (row, report) = run_cell(
                &scenario,
                &spec(level.clone(), HeuristicKind::Pam, dropper),
                scale,
                series.clone(),
                x.clone(),
                Metric::Robustness,
                0x0808,
            )?;
            progress("fig08", &series, &x, &row);
            rows.push(row);
            reports.push(report);
        }
    }
    Ok((rows, reports))
}

/// Figure 9: normalised cost (dollars per robustness point, ×100) for
/// PAM+Threshold, PAM+Heuristic and MM+ReactDrop across the three levels.
pub fn fig09(scale: Scale) -> Result<Vec<ResultRow>, SimError> {
    let scenario = Scenario::specint(SCENARIO_SEED);
    let combos = [
        (HeuristicKind::Pam, DropperKind::Threshold { base: BASE_THRESHOLD }),
        (HeuristicKind::Pam, DropperKind::heuristic_default()),
        (HeuristicKind::MinMin, DropperKind::ReactiveOnly),
    ];
    let mut rows = Vec::new();
    for level in specint_levels(scale) {
        for (mapper, dropper) in combos {
            let series = format!("{}+{}", mapper.name(), dropper.label());
            let x = level.label.clone();
            let (row, _) = run_cell(
                &scenario,
                &spec(level.clone(), mapper, dropper),
                scale,
                series.clone(),
                x.clone(),
                Metric::CostPerRobustness,
                0x0909,
            )?;
            progress("fig09", &series, &x, &row);
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Figure 10: the video-transcoding validation — MSD/MM/PAM with and
/// without the proactive heuristic at the (moderately oversubscribed) 20k
/// level.
pub fn fig10(scale: Scale) -> Result<Vec<ResultRow>, SimError> {
    let scenario = Scenario::transcode(SCENARIO_SEED);
    let level = OversubscriptionLevel::new("20k", 20_000, TRANSCODE_WINDOW).scaled(scale.factor());
    mapping_grid(
        "fig10",
        &scenario,
        &level,
        &[HeuristicKind::Msd, HeuristicKind::MinMin, HeuristicKind::Pam],
        scale,
        0x1010,
    )
}

/// Runs [`fig05`], prints its table and writes its results.
pub fn publish_fig05(scale: Scale) -> Result<(), SimError> {
    let heading = "Figure 5 — impact of effective depth (η), PAM+Heuristic, β=1";
    publish("fig05", heading, "η \\ robustness (%)", scale, &fig05(scale)?);
    Ok(())
}

/// Runs [`fig06`], prints its table and writes its results.
pub fn publish_fig06(scale: Scale) -> Result<(), SimError> {
    let heading = "Figure 6 — impact of robustness improvement factor (β), PAM+Heuristic, η=2";
    publish("fig06", heading, "β \\ robustness (%)", scale, &fig06(scale)?);
    Ok(())
}

/// Runs [`fig07a`], prints its table and writes its results.
pub fn publish_fig07a(scale: Scale) -> Result<(), SimError> {
    let heading = "Figure 7a — MSD/MM/PAM ± proactive dropping (heterogeneous, 30k)";
    publish("fig07a", heading, "mapper \\ robustness (%)", scale, &fig07a(scale)?);
    Ok(())
}

/// Runs [`fig07b`], prints its table and writes its results.
pub fn publish_fig07b(scale: Scale) -> Result<(), SimError> {
    let heading = "Figure 7b — FCFS/EDF/SJF/PAM ± proactive dropping (homogeneous, 30k)";
    publish("fig07b", heading, "mapper \\ robustness (%)", scale, &fig07b(scale)?);
    Ok(())
}

/// Runs [`fig08`], prints its table and the §V-F share of each run's drops
/// that were reactive, and writes its results.
pub fn publish_fig08(scale: Scale) -> Result<(), SimError> {
    let (rows, reports) = fig08(scale)?;
    let heading = "Figure 8 — optimal vs heuristic vs threshold dropping (PAM)";
    publish("fig08", heading, "level \\ robustness (%)", scale, &rows);
    println!("### §V-F drop breakdown (share of drops that were reactive)\n");
    for report in &reports {
        if let Some(share) = report.reactive_drop_fraction() {
            println!(
                "* {} @ {}: {:.1} % ± {:.1} % reactive",
                report.label(),
                report.level,
                share.mean * 100.0,
                share.ci95 * 100.0
            );
        }
    }
    Ok(())
}

/// Runs [`fig09`], prints its table and writes its results.
pub fn publish_fig09(scale: Scale) -> Result<(), SimError> {
    let heading = "Figure 9 — incurred cost / tasks completed on time (%)";
    publish("fig09", heading, "level \\ cost per robustness pt (×100)", scale, &fig09(scale)?);
    Ok(())
}

/// Runs [`fig10`], prints its table and writes its results.
pub fn publish_fig10(scale: Scale) -> Result<(), SimError> {
    let heading = "Figure 10 — MSD/MM/PAM ± proactive dropping (video transcoding, 20k)";
    publish("fig10", heading, "mapper \\ robustness (%)", scale, &fig10(scale)?);
    Ok(())
}
