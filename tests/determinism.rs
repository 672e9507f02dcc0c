//! Determinism regressions for the two risk areas ISSUE 1 calls out:
//! PMF normalization drift along convolution/compaction chains, and
//! seed/thread-independence of `TrialRunner` aggregation.
//!
//! These passed on the first green build of the workspace; they stay here so
//! any future change to the convolution kernel, the compaction binning, or
//! the parallel trial runner that breaks them is caught immediately.

use taskdrop::prelude::*;

/// A deliberately awkward PMF: irregular ticks, masses that do not sum to 1
/// in any "nice" binary fashion.
fn awkward_pmf(seed: u64) -> Pmf {
    let pairs: Vec<(Tick, f64)> = (0..9)
        .map(|k| {
            let t = 3 + k * (5 + (seed + k) % 7);
            let w = 1.0 + ((seed.wrapping_mul(k + 1)) % 13) as f64 / 3.0;
            (t, w)
        })
        .collect();
    Pmf::from_weights(pairs).expect("positive weights")
}

/// Eq (1) chains with per-step compaction must not drift off total mass 1,
/// even after hundreds of steps (a machine queue processes thousands of
/// mapping events per trial).
#[test]
fn deadline_convolution_chain_mass_never_drifts() {
    for compaction in [Compaction::MaxImpulses(16), Compaction::MaxImpulses(64)] {
        let mut completion = Pmf::point(0);
        for step in 0..400u64 {
            let exec = awkward_pmf(step);
            let deadline = 40 + step * 9;
            completion = compaction.apply(&deadline_convolve(&completion, &exec, deadline));
            let drift = (completion.total_mass() - 1.0).abs();
            assert!(
                drift < 1e-9,
                "mass drifted to 1 {drift:+e} after {step} steps under {compaction:?}"
            );
        }
    }
}

/// Plain convolution conserves the *product* of masses for sub-distributions
/// (the pruning lineage depends on this exactness).
#[test]
fn convolution_mass_product_is_exact_for_subdistributions() {
    let a = awkward_pmf(1).scale_mass(0.37);
    let b = awkward_pmf(2).scale_mass(0.81);
    let c = a.convolve(&b);
    assert!((c.total_mass() - a.total_mass() * b.total_mass()).abs() < 1e-12);
}

/// Compaction must preserve mass bit-for-bit closely even when bins collapse
/// many impulses (same summation order guarantee documented in `compact.rs`).
#[test]
fn aggressive_compaction_preserves_mass() {
    let mut p = Pmf::point(0);
    for step in 0..40u64 {
        p = p.convolve(&awkward_pmf(step));
    }
    for max in [2, 3, 8, 32] {
        let c = Compaction::MaxImpulses(max).apply(&p);
        assert!((c.total_mass() - p.total_mass()).abs() < 1e-9, "mass lost at MaxImpulses({max})");
        assert!(c.len() <= max);
    }
}

/// The report aggregate must be byte-identical regardless of worker-thread
/// count: trials pull indices from a shared counter, so only the seed
/// derivation — never scheduling — may influence results.
#[test]
fn trial_runner_reports_identical_across_thread_counts() {
    let scenario = Scenario::specint(11);
    let spec = RunSpec {
        level: OversubscriptionLevel::new("det", 150, 1_800),
        gamma: 2.0,
        mapper: HeuristicKind::MinMin,
        dropper: DropperKind::heuristic_default(),
        config: SimConfig { exclude_boundary: 10, ..SimConfig::default() },
    };
    let reference =
        TrialRunner { trials: 5, master_seed: 0xD5, threads: 1 }.run(&scenario, &spec).unwrap();
    for threads in [2, 3, 8] {
        let parallel =
            TrialRunner { trials: 5, master_seed: 0xD5, threads }.run(&scenario, &spec).unwrap();
        assert_eq!(reference, parallel, "{threads} worker threads changed the report");
    }
    // And the JSON rendering (the artifact experiments persist) is stable too.
    let a = serde_json::to_string(&reference).unwrap();
    let b = serde_json::to_string(
        &TrialRunner { trials: 5, master_seed: 0xD5, threads: 4 }.run(&scenario, &spec).unwrap(),
    )
    .unwrap();
    assert_eq!(a, b);
}

/// Repeated runs in the same process must agree (no hidden global state:
/// thread-local RNGs, time-based seeds, iteration-order dependence).
#[test]
fn trial_runner_is_pure_across_repeated_runs() {
    let scenario = Scenario::transcode(7);
    let spec = RunSpec {
        level: OversubscriptionLevel::new("det", 120, 1_500),
        gamma: 1.0,
        mapper: HeuristicKind::Pam,
        dropper: DropperKind::Optimal,
        config: SimConfig { exclude_boundary: 10, ..SimConfig::default() },
    };
    let runner = TrialRunner::new(3, 99);
    let first = runner.run(&scenario, &spec).unwrap();
    let second = runner.run(&scenario, &spec).unwrap();
    assert_eq!(first, second);
}

/// Scenario construction itself is a function of the seed alone.
#[test]
fn scenario_generation_is_seed_deterministic() {
    let a = Scenario::specint(0xFEED);
    let b = Scenario::specint(0xFEED);
    assert_eq!(a.pet, b.pet, "PET matrices differ for identical seeds");
    let wa = Workload::generate(&a, &OversubscriptionLevel::new("w", 200, 2_000), 1.5, 5);
    let wb = Workload::generate(&b, &OversubscriptionLevel::new("w", 200, 2_000), 1.5, 5);
    assert_eq!(wa, wb);
}
