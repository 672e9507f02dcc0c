//! Experiment harness regenerating every figure of the paper.
//!
//! Each paper figure has a binary (`fig05_effective_depth`, `fig06_beta`,
//! `fig07a_heterogeneous`, `fig07b_homogeneous`, `fig08_dropping_variants`,
//! `fig09_cost`, `fig10_transcode`) that runs the corresponding simulation
//! grid and prints a Markdown table of mean ± 95 % CI robustness (or cost)
//! values, alongside CSV/JSON dumps under `results/`.
//!
//! All binaries accept a scale argument:
//!
//! * `--quick`  — tiny sanity scale (seconds; noisy).
//! * `--medium` — the default recorded in EXPERIMENTS.md (minutes on a
//!   laptop): paper task counts scaled by 0.15, 10 trials.
//! * `--full`   — the paper's scale: 20k/30k/40k tasks, 30 trials (hours).
//!
//! Scaling shrinks task count and arrival window together, preserving the
//! arrival *rate* and thus the oversubscription level (see
//! `taskdrop_workload::OversubscriptionLevel::scaled`).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod output;

pub use experiment::{parse_scale, run_cell, Metric, ResultRow, Scale};
pub use output::{render_markdown, write_outputs};
