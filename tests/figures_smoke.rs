//! Smoke-runs the figure grids at `Scale::Quick` and asserts the shapes the
//! paper reports. The `fig*` binaries regenerate the real tables; these
//! tests guard the harness itself against regressions.

use taskdrop_bench::figures;
use taskdrop_bench::Scale;

fn series_mean(rows: &[taskdrop_bench::ResultRow], series: &str, x: &str) -> f64 {
    rows.iter()
        .find(|r| r.series == series && r.x == x)
        .unwrap_or_else(|| panic!("missing cell {series}@{x}"))
        .mean
}

#[test]
fn fig07a_grid_has_expected_shape() {
    let rows = figures::fig07a(Scale::Quick).unwrap();
    assert_eq!(rows.len(), 6);
    for r in &rows {
        assert!((0.0..=100.0).contains(&r.mean), "{r:?}");
        assert_eq!(r.trials, Scale::Quick.trials());
    }
    // Without dropping, MSD is the weakest mapper (paper §V-E).
    let msd_bare = series_mean(&rows, "MSD+ReactDrop", "MSD");
    let mm_bare = series_mean(&rows, "MM+ReactDrop", "MM");
    let pam_bare = series_mean(&rows, "PAM+ReactDrop", "PAM");
    assert!(msd_bare < mm_bare && msd_bare < pam_bare, "{msd_bare} {mm_bare} {pam_bare}");
    // With dropping, every mapper improves.
    for mapper in ["MSD", "MM", "PAM"] {
        let with = series_mean(&rows, &format!("{mapper}+Heuristic"), mapper);
        let without = series_mean(&rows, &format!("{mapper}+ReactDrop"), mapper);
        assert!(with > without, "{mapper}: {with} vs {without}");
    }
}

#[test]
fn fig08_grid_has_expected_shape() {
    let (rows, reports) = figures::fig08(Scale::Quick).unwrap();
    assert_eq!(rows.len(), 9);
    for level in ["20k", "30k", "40k"] {
        let optimal = series_mean(&rows, "PAM+Optimal", level);
        let heuristic = series_mean(&rows, "PAM+Heuristic", level);
        let threshold = series_mean(&rows, "PAM+Threshold", level);
        // Optimal ≈ Heuristic (generous tolerance at quick scale).
        assert!(
            (optimal - heuristic).abs() < 10.0,
            "{level}: optimal {optimal} vs heuristic {heuristic}"
        );
        // Both autonomous variants beat the threshold baseline.
        assert!(heuristic > threshold, "{level}: {heuristic} vs {threshold}");
    }
    // Robustness decays with the oversubscription level.
    let h20 = series_mean(&rows, "PAM+Heuristic", "20k");
    let h40 = series_mean(&rows, "PAM+Heuristic", "40k");
    assert!(h20 > h40);
    assert_eq!(reports.len(), 9);
}

#[test]
fn fig05_effective_depth_rows_complete() {
    let rows = figures::fig05(Scale::Quick).unwrap();
    // 3 levels x eta in 1..=5.
    assert_eq!(rows.len(), 15);
    let mut xs: Vec<&str> = rows.iter().map(|r| r.x.as_str()).collect();
    xs.sort_unstable();
    xs.dedup();
    assert_eq!(xs, vec!["1", "2", "3", "4", "5"]);
}
