//! Shared experiment-grid runner.

use serde::{Deserialize, Serialize};
use taskdrop_sim::{RunSpec, SimError, SimReport, TrialRunner};
use taskdrop_workload::Scenario;

/// Execution scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny smoke scale: paper task counts × 0.02, 2 trials.
    Quick,
    /// Laptop scale (the recorded results): × 0.15, 10 trials.
    Medium,
    /// Paper scale: × 1.0, 30 trials.
    Full,
}

impl Scale {
    /// Task-count/window scale factor.
    #[must_use]
    pub fn factor(self) -> f64 {
        match self {
            Scale::Quick => 0.02,
            Scale::Medium => 0.15,
            Scale::Full => 1.0,
        }
    }

    /// Number of trials per configuration.
    #[must_use]
    pub fn trials(self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Medium => 10,
            Scale::Full => 30,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Medium => "medium",
            Scale::Full => "full",
        }
    }
}

/// Parses `--quick | --medium | --full` from argv (default: medium).
///
/// # Panics
///
/// Panics with a usage message on unknown arguments.
#[must_use]
pub fn parse_scale(args: &[String]) -> Scale {
    let mut scale = Scale::Medium;
    for a in args {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--medium" => scale = Scale::Medium,
            "--full" => scale = Scale::Full,
            other => panic!("unknown argument {other}; expected --quick | --medium | --full"),
        }
    }
    scale
}

/// One row of an experiment's result table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultRow {
    /// Series label (e.g. `"PAM+Heuristic"`).
    pub series: String,
    /// X-axis value label (e.g. `"30k"` or `"eta=2"`).
    pub x: String,
    /// Metric mean over trials.
    pub mean: f64,
    /// 95 % CI half-width.
    pub ci95: f64,
    /// Number of trials.
    pub trials: usize,
}

/// Which scalar a run contributes to its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `TrialResult::robustness_pct` (most figures).
    Robustness,
    /// `TrialResult::cost_per_robustness` (Figure 9). Reported ×100 to
    /// match the paper's axis ("Cost / Tasks Completed On Time (%)").
    CostPerRobustness,
}

/// Runs one grid cell and converts it to a [`ResultRow`].
///
/// # Errors
///
/// Any [`SimError`] from [`TrialRunner::run`].
pub fn run_cell(
    scenario: &Scenario,
    spec: &RunSpec,
    scale: Scale,
    series: String,
    x: String,
    metric: Metric,
    master_seed: u64,
) -> Result<(ResultRow, SimReport), SimError> {
    let report = TrialRunner::new(scale.trials(), master_seed).run(scenario, spec)?;
    let summary = match metric {
        Metric::Robustness => report.robustness()?,
        Metric::CostPerRobustness => {
            let mut s = report.cost_per_robustness()?;
            s.mean *= 100.0;
            s.ci95 *= 100.0;
            s
        }
    };
    Ok((ResultRow { series, x, mean: summary.mean, ci95: summary.ci95, trials: summary.n }, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_ordered() {
        assert!(Scale::Quick.factor() < Scale::Medium.factor());
        assert!(Scale::Medium.factor() < Scale::Full.factor());
        assert_eq!(Scale::Full.trials(), 30);
    }

    #[test]
    fn parse_scale_defaults_to_medium() {
        assert_eq!(parse_scale(&[]), Scale::Medium);
        assert_eq!(parse_scale(&["--quick".into()]), Scale::Quick);
        assert_eq!(parse_scale(&["--full".into()]), Scale::Full);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn parse_scale_rejects_garbage() {
        let _ = parse_scale(&["--nope".into()]);
    }
}
