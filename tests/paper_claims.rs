//! The paper's headline qualitative claims, asserted end-to-end at small
//! scale with fixed seeds. These are the "shape" guarantees the benchmark
//! harness reproduces quantitatively at larger scale.
//!
//! Several claims compare overlapping configurations (PAM+Heuristic at
//! 900/5000 appears in four of them), so runs are memoised in a
//! process-wide cache: each distinct configuration is simulated once no
//! matter how many tests consult it. Results are deterministic under the
//! fixed master seed, so sharing cannot couple the tests.

use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock, Mutex, OnceLock};
use taskdrop::prelude::*;

const SEED: u64 = 0xC1A1;
const TRIALS: usize = 4;

static SPECINT: LazyLock<Scenario> = LazyLock::new(|| Scenario::specint(0xA5));
static TRANSCODE: LazyLock<Scenario> = LazyLock::new(|| Scenario::transcode(0xA5));

/// Memoised trial runs, keyed by every input that influences the report.
/// The map lock is held only to look up the per-key cell; the (multi-second)
/// simulation itself runs outside it, so distinct configurations still
/// compute in parallel and a panicking run cannot poison the map for
/// unrelated tests.
type ReportCell = Arc<OnceLock<Arc<SimReport>>>;

static CACHE: LazyLock<Mutex<BTreeMap<String, ReportCell>>> =
    LazyLock::new(|| Mutex::new(BTreeMap::new()));

fn report(
    scenario: &Scenario,
    mapper: HeuristicKind,
    dropper: DropperKind,
    tasks: usize,
    window: u64,
) -> Arc<SimReport> {
    let key = format!("{}|{mapper:?}|{dropper:?}|{tasks}|{window}", scenario.name);
    let cell = {
        let mut cache = CACHE.lock().expect("cache lock");
        Arc::clone(cache.entry(key).or_default())
    };
    Arc::clone(cell.get_or_init(|| {
        let spec = RunSpec {
            level: OversubscriptionLevel::new("claim", tasks, window),
            gamma: 1.0,
            mapper,
            dropper,
            config: SimConfig { exclude_boundary: 20, ..SimConfig::default() },
        };
        Arc::new(TrialRunner::new(TRIALS, SEED).run(scenario, &spec).expect("valid claim spec"))
    }))
}

fn robustness_mean(r: &SimReport) -> f64 {
    r.robustness().expect("trials > 0").mean
}

/// Claim (abstract): "the autonomous proactive dropping mechanism can
/// improve the system robustness by up to 20 %".
#[test]
fn proactive_dropping_improves_robustness_in_overload() {
    let with = report(&SPECINT, HeuristicKind::Pam, DropperKind::heuristic_default(), 900, 5_000);
    let without = report(&SPECINT, HeuristicKind::Pam, DropperKind::ReactiveOnly, 900, 5_000);
    let gain = robustness_mean(&with) - robustness_mean(&without);
    assert!(
        gain > 5.0,
        "expected a clear robustness gain, got {:.1} ({} vs {})",
        gain,
        with.robustness().unwrap(),
        without.robustness().unwrap()
    );
}

/// Claim (§V-F): "regardless of the oversubscription level, there is no
/// statistically and practically significant difference" between
/// PAM+Optimal and PAM+Heuristic.
#[test]
fn optimal_and_heuristic_are_practically_equal() {
    let heuristic =
        report(&SPECINT, HeuristicKind::Pam, DropperKind::heuristic_default(), 700, 4_000);
    let optimal = report(&SPECINT, HeuristicKind::Pam, DropperKind::Optimal, 700, 4_000);
    let diff = (robustness_mean(&optimal) - robustness_mean(&heuristic)).abs();
    assert!(
        diff < 6.0,
        "optimal {} vs heuristic {} differ by {diff:.1} points",
        optimal.robustness().unwrap(),
        heuristic.robustness().unwrap()
    );
}

/// Claim (§V-E): with proactive dropping in place, MSD/MM/PAM converge to
/// almost the same robustness; without it MSD falls far behind.
#[test]
fn dropping_equalises_mapping_heuristics() {
    let mut with = Vec::new();
    let mut without = Vec::new();
    for mapper in [HeuristicKind::Msd, HeuristicKind::MinMin, HeuristicKind::Pam] {
        with.push(robustness_mean(&report(
            &SPECINT,
            mapper,
            DropperKind::heuristic_default(),
            900,
            5_000,
        )));
        without.push(robustness_mean(&report(
            &SPECINT,
            mapper,
            DropperKind::ReactiveOnly,
            900,
            5_000,
        )));
    }
    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
    };
    assert!(
        spread(&with) < spread(&without),
        "dropping should shrink the spread: with {with:?} vs without {without:?}"
    );
    // MSD specifically is the weakest without dropping.
    assert!(
        without[0] < without[1] && without[0] < without[2],
        "MSD must trail MM/PAM without dropping: {without:?}"
    );
}

/// Claim (§V-F): with proactive dropping engaged, only a small share of
/// drops happen reactively (the paper reports ≈7 %).
#[test]
fn reactive_share_is_small_under_proactive_dropping() {
    let r = report(&SPECINT, HeuristicKind::Pam, DropperKind::heuristic_default(), 900, 5_000);
    let share = r.reactive_drop_fraction().expect("oversubscribed: drops happen");
    assert!(
        share.mean < 0.25,
        "reactive share {:.1} % too high for a proactive mechanism",
        share.mean * 100.0
    );
}

/// Claim (Figure 6 direction): raising β makes the dropper more conservative
/// — fewer proactive drops.
#[test]
fn beta_controls_aggression() {
    let drops_at = |beta: f64| {
        let r = report(
            &SPECINT,
            HeuristicKind::Pam,
            DropperKind::Heuristic { beta, eta: 2 },
            700,
            4_000,
        );
        r.trials.iter().map(|t| t.dropped_proactive).sum::<usize>()
    };
    let aggressive = drops_at(1.0);
    let conservative = drops_at(4.0);
    assert!(
        aggressive > conservative,
        "beta=1 should drop more than beta=4: {aggressive} vs {conservative}"
    );
}

/// Claim (Figure 9 direction): dropping-based PAM costs less per robustness
/// point than MinMin without proactive dropping.
#[test]
fn dropping_lowers_normalised_cost() {
    let pam = report(&SPECINT, HeuristicKind::Pam, DropperKind::heuristic_default(), 900, 5_000);
    let mm = report(&SPECINT, HeuristicKind::MinMin, DropperKind::ReactiveOnly, 900, 5_000);
    let (pam_cost, mm_cost) = (
        pam.cost_per_robustness().expect("trials").mean,
        mm.cost_per_robustness().expect("trials").mean,
    );
    assert!(
        pam_cost < mm_cost,
        "PAM+Heuristic {pam_cost:.4} should undercut MM+ReactDrop {mm_cost:.4}"
    );
}

/// Claim (Figure 10): the video-transcoding validation scenario reproduces
/// the equalisation observation.
#[test]
fn transcode_validation_holds() {
    let mut gains = Vec::new();
    for mapper in [HeuristicKind::Msd, HeuristicKind::MinMin, HeuristicKind::Pam] {
        let with = report(&TRANSCODE, mapper, DropperKind::heuristic_default(), 800, 6_500);
        let without = report(&TRANSCODE, mapper, DropperKind::ReactiveOnly, 800, 6_500);
        gains.push(robustness_mean(&with) - robustness_mean(&without));
    }
    assert!(
        gains.iter().all(|&g| g > -2.0),
        "proactive dropping should not hurt any transcode mapper: {gains:?}"
    );
    assert!(
        gains.iter().any(|&g| g > 3.0),
        "proactive dropping should clearly help at least one mapper: {gains:?}"
    );
}
