//! The engine's memos and the Eq 2 price table are invisible except in
//! speed.
//!
//! Five contracts (DESIGN.md §13):
//!
//! 1. **Regression for the `queue_tail_estimate` hot-path bug**: the
//!    estimate reads the machine's memo, so repeated calls against an
//!    unmoved queue are answered from it (hit counters advance) and
//!    return bit-identical PMFs.
//! 2. **Invalidation property**: after an arbitrary mutation sequence —
//!    injections, stepping with each kind of dropper, tail reads between
//!    single steps, machine failures and repairs — every memoised tail
//!    equals the tail a *cold* core (a checkpoint-restored twin, which
//!    starts with empty memos) computes from scratch, bit for bit. Down
//!    machines are compared too, so failure-aware callers see identical
//!    state either way.
//! 3. **Surfacing**: `StepOutcome` work counters equal
//!    `SimCore::cache_stats()` and lookups are monotone.
//! 4. **One pricing path**: `SimCore::best_chance` — the Eq 2 chance that
//!    admission and pruning read — is the cached `tail ⊛ exec` mass before
//!    the deadline, maximised over the machines that are up, and a cold
//!    restored twin prices bit-identically. One `SimCore::best_chances`
//!    batch prices every query as the one-query calls do, and its idle
//!    walk alone (`SimCore::idle_chances`) is a floor on each price that
//!    reads no queue tail.
//! 5. **Running sums price exactly**: `TailCache::chance`, which keeps the
//!    running sums of `tail ⊛ exec` only up to the latest deadline asked,
//!    equals `tail.convolve(exec).mass_before(deadline)` bit for bit in
//!    any deadline order, and counts one conv hit or miss per call; a
//!    unit-point tail is priced from the exec alone and counts none.

use proptest::prelude::*;
use taskdrop::model::TailCache;
use taskdrop::pmf::{ChainEvaluator, ChainTask, DENSE_SPAN_LIMIT, MASS_EPSILON};
use taskdrop::prelude::*;

fn cfg() -> SimConfig {
    SimConfig { exclude_boundary: 0, ..SimConfig::default() }
}

fn pmf_bits(p: &Pmf) -> Vec<(Tick, u64)> {
    p.iter().map(|i| (i.t, i.p.to_bits())).collect()
}

/// Satellite bugfix regression: `SimCore::queue_tail_estimate` used to
/// build a throwaway evaluator per call; it now reads the machine's memo,
/// so back-to-back calls on an unmoved queue report hits.
#[test]
fn repeated_tail_estimates_hit_the_cache() {
    let scenario = Scenario::specint(7);
    let level = OversubscriptionLevel::new("tail-cache", 400, 2_000);
    let workload = Workload::generate(&scenario, &level, 1.0, 42);
    let dropper = ProactiveDropper::paper_default();
    let mut core = SimCore::new(&scenario, &workload, &Pam, &dropper, cfg(), 1).unwrap();
    core.run_until(600);

    let busy: Vec<MachineId> = core
        .state()
        .machines
        .iter()
        .filter(|m| !m.pending.is_empty())
        .map(|m| m.machine.id)
        .collect();
    assert!(!busy.is_empty(), "oversubscribed mid-trial cluster must have queued work");

    let before = core.cache_stats();
    let first: Vec<Pmf> = busy.iter().map(|&m| core.queue_tail_estimate(m).unwrap()).collect();
    let after_first = core.cache_stats();
    let second: Vec<Pmf> = busy.iter().map(|&m| core.queue_tail_estimate(m).unwrap()).collect();
    let after_second = core.cache_stats();

    for (a, b) in first.iter().zip(&second) {
        assert_eq!(pmf_bits(a), pmf_bits(b));
    }
    // Every second-round lookup is a hit: unchanged queue, same base.
    assert_eq!(
        after_second.tail_hits - after_first.tail_hits,
        busy.len() as u64,
        "repeated estimates must be served from the cache: {after_second:?}"
    );
    assert_eq!(after_second.tail_misses, after_first.tail_misses, "no re-chaining on round two");
    // The first round may hit too (the mapping phase warmed the cache),
    // but it must at least have gone through the counters.
    assert!(after_first.lookups() > before.lookups());
}

/// `StepOutcome` surfaces the cumulative work counters the core reports.
#[test]
fn step_outcomes_surface_cache_work() {
    let scenario = Scenario::specint(7);
    let level = OversubscriptionLevel::new("work", 150, 1_500);
    let workload = Workload::generate(&scenario, &level, 1.0, 9);
    let dropper = ProactiveDropper::paper_default();
    let mut core = SimCore::new(&scenario, &workload, &Pam, &dropper, cfg(), 9).unwrap();
    let mut last = CacheStats::default();
    loop {
        let outcome = core.step();
        let work = outcome.work().expect("closed-world cores never idle");
        assert_eq!(work, core.cache_stats(), "outcome must carry the core's counters");
        assert!(work.lookups() >= last.lookups(), "counters are monotone");
        last = work;
        if outcome.is_drained() {
            break;
        }
    }
    assert!(last.tail_hits + last.tail_misses > 0, "a full trial performs tail lookups");
}

/// Drives a core that drops with `dropper` through a scripted mix of
/// injections, time slices and tail reads, returning it mid-flight. Ops
/// 0 to 5 are light bursts and slices; op 6 is a heavy burst with tight
/// deadlines, and op 7 reads every tail and then takes up to eight single
/// steps, checking every tail against a cold twin ([`cold_twin`]) after
/// each.
fn drive<'a>(
    scenario: &'a Scenario,
    dropper: &'a dyn DropPolicy,
    failures: bool,
    seed: u64,
    ops: &[(u8, u64)],
) -> SimCore<'a> {
    static PAM: Pam = Pam;
    let config = SimConfig {
        failures: failures.then_some(taskdrop::sim::FailureSpec { mtbf: 300, mttr: 200 }),
        ..cfg()
    };
    let mut core = SimCore::open(scenario, &PAM, dropper, config, seed).unwrap();
    for &(op, val) in ops {
        match op {
            // Enough waiting work with little slack, arriving at the next
            // tick, that the droppers act on the queues the mapper has
            // just filled.
            6 => {
                let arrival = core.now() + 1;
                for k in 0..(16 + val % 32) {
                    let _ = core.inject(
                        TaskTypeId(((val + k) % 12) as u16),
                        arrival,
                        arrival + 30 + (val * (k + 1)) % 150,
                    );
                }
            }
            // Admission pricing reads tails between events, which memoises
            // them; the next event may then drop from a queue the mapper
            // filled at the last one, under the same running task. Check
            // right after each step, before a later event clears the memo
            // (the check reads every tail again).
            7 => {
                for m in &scenario.machines {
                    let _ = core.queue_tail_estimate(m.id);
                }
                for _ in 0..=val % 8 {
                    core.step();
                    cold_twin(scenario, dropper, &mut core);
                }
            }
            // A burst of arrivals with mixed deadlines.
            _ if op % 3 == 0 => {
                for k in 0..=(val % 5) {
                    let arrival = core.now() + val % 90;
                    let _ = core.inject(
                        TaskTypeId(((val + k) % 12) as u16),
                        arrival,
                        arrival + 40 + (val * (k + 1)) % 400,
                    );
                }
            }
            _ => {
                core.run_until(core.now() + 1 + val % 150);
            }
        }
    }
    core
}

/// A twin of `warm` restored from its checkpoint, after asserting that
/// every machine's tail on `warm`, memoised or not, is bit-identical to
/// the twin's, and that their down flags agree. The twin starts with empty
/// memos, so its first lookups re-chain everything.
fn cold_twin<'a>(
    scenario: &'a Scenario,
    dropper: &'a dyn DropPolicy,
    warm: &mut SimCore<'_>,
) -> SimCore<'a> {
    static PAM: Pam = Pam;
    let mut cold = SimCore::restore(scenario, &PAM, dropper, &warm.snapshot()).unwrap();
    assert_eq!(cold.cache_stats().lookups(), 0, "restored caches start cold");
    for m in &scenario.machines {
        let from_warm = warm.queue_tail_estimate(m.id).unwrap();
        let from_cold = cold.queue_tail_estimate(m.id).unwrap();
        assert_eq!(pmf_bits(&from_warm), pmf_bits(&from_cold), "machine {}", m.id);
        assert_eq!(warm.machine_is_down(m.id), cold.machine_is_down(m.id));
    }
    cold
}

proptest! {
    // Each case runs a pair of mini-trials, and debug builds re-chain every
    // memo hit: keep the count bounded for the tier-1 budget, and run deep
    // in release (CI).
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 12 } else { 1_024 }))]

    /// After any mutation sequence, and after each single step the script
    /// takes (op 7), every machine's memoised tail is bit-identical
    /// to one computed from scratch by a cold core (a restored twin starts
    /// with empty memos, so its first lookup re-chains everything). The
    /// dropper is the paper's (whose drop pass lends its keep-all chains'
    /// tails to the memos), the threshold baseline or none. Failure
    /// injection is part of the script, so the machine-down case is
    /// covered: down flags agree and down machines' tails match too.
    #[test]
    fn warm_cache_matches_cold_recomputation(
        seed in 0u64..500,
        failure_coin in 0u8..2,
        dropper_pick in 0u8..3,
        ops in prop::collection::vec((0u8..8, 0u64..300), 1..12),
    ) {
        let failures = failure_coin == 1;
        let scenario = Scenario::specint(11);
        let (paper, threshold) = (ProactiveDropper::paper_default(), ThresholdDropper::paper_default());
        let dropper: &dyn DropPolicy = match dropper_pick {
            0 => &ReactiveOnly,
            1 => &paper,
            _ => &threshold,
        };
        let mut warm = drive(&scenario, dropper, failures, seed, &ops);
        // Warm the cache further: estimate every tail once.
        for m in &scenario.machines {
            let _ = warm.queue_tail_estimate(m.id);
        }
        let mut cold = cold_twin(&scenario, dropper, &mut warm);
        // And both cores finish byte-identically: the cache never leaks
        // into trial state.
        if warm.total_tasks() > 0 && !warm.is_drained() {
            prop_assert_eq!(warm.run_to_completion(), cold.run_to_completion());
        }
    }
}

/// The reference prices for a task of `type_id` due at `deadline`, maximised
/// over the machines that are up: the plain `tail ⊛ exec` mass before the
/// deadline, and the fused Eq 1 + Eq 2 kernel (`chance_from`), which sums
/// the same products in another order.
fn reference_chances(core: &mut SimCore<'_>, type_id: TaskTypeId, deadline: Tick) -> (f64, f64) {
    let scenario = core.scenario().clone();
    let (mut plain, mut fused) = (0.0f64, 0.0f64);
    let mut eval = ChainEvaluator::new();
    for m in &scenario.machines {
        if core.machine_is_down(m.id) != Some(false) {
            continue;
        }
        let tail = core.queue_tail_estimate(m.id).unwrap();
        let exec = scenario.pet.pmf(type_id, m.type_id);
        plain = plain.max(tail.convolve(exec).mass_before(deadline));
        fused = fused.max(eval.chance_from(&tail, ChainTask { deadline, exec }));
    }
    (plain, fused)
}

/// Down machines are not priced: on a cluster that failures have taken
/// down, the best chance is the best over the machines still up, and
/// lower than pricing the down machines' tails too would make it.
#[test]
fn best_chance_skips_down_machines() {
    let s = Scenario::specint(5);
    // Machines fail almost immediately and repair glacially, so after a
    // while the cluster is (mostly) down.
    let config = SimConfig {
        failures: Some(taskdrop::sim::FailureSpec { mtbf: 40, mttr: 1_000_000 }),
        ..cfg()
    };
    let mut core = SimCore::open(&s, &Pam, &ReactiveOnly, config, 3).unwrap();
    core.inject(TaskTypeId(0), 8_000, 9_000).unwrap(); // keeps events flowing
    core.run_until(6_000);
    let down = s.machines.iter().filter(|m| core.machine_is_down(m.id) == Some(true)).count();
    assert!(down > 0, "failure spec should have downed at least one machine");
    let deadline = core.now() + 5_000;
    let best = core.best_chance(TaskTypeId(0), deadline).unwrap();
    let (up_only, _) = reference_chances(&mut core, TaskTypeId(0), deadline);
    assert_eq!(best.to_bits(), up_only.to_bits());
    let every_machine = s
        .machines
        .iter()
        .map(|m| {
            let tail = core.queue_tail_estimate(m.id).unwrap();
            tail.convolve(s.pet.pmf(TaskTypeId(0), m.type_id)).mass_before(deadline)
        })
        .fold(0.0f64, f64::max);
    assert!(best < every_machine, "a down machine was priced: {best} vs {every_machine}");
}

proptest! {
    // The default config reads PROPTEST_CASES; CI runs a deep pass.

    /// For any core state reached by the `drive` script, failures on or
    /// off, `best_chance` equals the max over up machines of the cached
    /// `tail ⊛ exec` mass before the deadline bit for bit, sits within
    /// 1e-12 of the fused kernel, and a cold restored twin prices every
    /// query bit-identically to the warm core. One `best_chances` batch of
    /// the queries, one of them twice, gives the same bits on the warm
    /// core and on another cold twin. On both, each `idle_chances` entry
    /// of the batch is at most its `best_chances` entry, equal to it when
    /// no up machine is busy, and computing it moves no cache counter. A
    /// batch naming an unknown type is refused by both walks with no cache
    /// counter moved.
    #[test]
    fn best_chance_is_the_cached_eq2_over_up_machines(
        seed in 0u64..500,
        failure_coin in 0u8..2,
        ops in prop::collection::vec((0u8..6, 0u64..300), 1..12),
        queries in prop::collection::vec((0u16..12, 1u64..2_000), 1..8),
    ) {
        let scenario = Scenario::specint(11);
        let mut warm = drive(&scenario, &ReactiveOnly, failure_coin == 1, seed, &ops);
        let now = warm.now();
        let warm_prices: Vec<f64> = queries
            .iter()
            .map(|&(t, window)| warm.best_chance(TaskTypeId(t), now + window).unwrap())
            .collect();
        for (&(t, window), &price) in queries.iter().zip(&warm_prices) {
            let (plain, fused) = reference_chances(&mut warm, TaskTypeId(t), now + window);
            prop_assert_eq!(price.to_bits(), plain.to_bits(), "type {} window {}", t, window);
            prop_assert!((price - fused).abs() <= 1e-12, "{} vs fused {}", price, fused);
        }
        static PAM: Pam = Pam;
        static DROPPER: ReactiveOnly = ReactiveOnly;
        let checkpoint = warm.snapshot();
        let mut cold = SimCore::restore(&scenario, &PAM, &DROPPER, &checkpoint).unwrap();
        for (&(t, window), &price) in queries.iter().zip(&warm_prices) {
            let again = cold.best_chance(TaskTypeId(t), now + window).unwrap();
            prop_assert_eq!(again.to_bits(), price.to_bits(), "type {} window {}", t, window);
        }
        // One batch, with its first query repeated at the end, prices every
        // query as the one-query calls did, on the warm core and on a cold
        // restored twin.
        let mut batch: Vec<(TaskTypeId, Tick)> =
            queries.iter().map(|&(t, window)| (TaskTypeId(t), now + window)).collect();
        batch.extend(batch.first().copied());
        let expected: Vec<u64> =
            warm_prices.iter().chain(warm_prices.first()).map(|p| p.to_bits()).collect();
        let mut cold_batch = SimCore::restore(&scenario, &PAM, &DROPPER, &checkpoint).unwrap();
        // The idle walk is the whole walk when no up machine is busy.
        let all_idle = warm
            .state()
            .machines
            .iter()
            .all(|m| m.down || (m.running.is_none() && m.pending.is_empty()));
        for core in [&mut warm, &mut cold_batch] {
            let before = core.cache_stats();
            let floors = core.idle_chances(&batch).unwrap();
            prop_assert_eq!(core.cache_stats(), before, "the floor priced a busy queue");
            let batched = core.best_chances(&batch).unwrap();
            prop_assert_eq!(batched.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), expected.clone());
            for (floor, price) in floors.iter().zip(&batched) {
                prop_assert!(floor.to_bits() <= price.to_bits(), "floor {} above {}", floor, price);
                prop_assert!(!all_idle || floor.to_bits() == price.to_bits(), "idle {} vs {}", floor, price);
            }
        }
        // A batch that names an unknown type is refused before any price,
        // by the floor as by the whole walk.
        batch.insert(batch.len() / 2, (TaskTypeId(12), now + 5));
        let before = warm.cache_stats();
        let unknown = Err(SimError::UnknownTaskType { type_id: 12, task_types: 12 });
        prop_assert_eq!(warm.idle_chances(&batch), unknown.clone());
        prop_assert_eq!(warm.best_chances(&batch), unknown);
        prop_assert_eq!(warm.cache_stats(), before);
    }
}

/// A random tail or exec PMF of mass `mass` (a sub-distribution below 1):
/// empty, one impulse, six impulses seven ticks apart (two of them tie on
/// length, where the tail is the outer loop), or up to 40 impulses,
/// strided 2 000 ticks apart for one kind in eight so that most such
/// pairs span past `DENSE_SPAN_LIMIT`.
fn arb_pmf() -> impl Strategy<Value = Pmf> {
    let cells = prop::collection::vec((0u64..500, 1u32..1_000), 1..40);
    (0u8..8, 0u64..3_000, 0.05f64..=1.0, cells).prop_map(|(kind, base, mass, cells)| {
        let cells: Vec<(u64, u32)> = match kind {
            0 => Vec::new(),
            1 => cells.into_iter().take(1).collect(),
            2 => (0..6).zip(cells.iter().cycle()).map(|(k, &(_, w))| (k * 7, w)).collect(),
            _ => cells,
        };
        let stride = if kind == 7 { 2_000 } else { 1 };
        let total: f64 = cells.iter().map(|&(_, w)| f64::from(w)).sum();
        let pairs =
            cells.iter().map(|&(off, w)| (base + off * stride, mass * f64::from(w) / total));
        Pmf::from_impulses(pairs.collect()).unwrap()
    })
}

/// A unit-point tail (one impulse of mass exactly 1.0), at a tick drawn
/// from the first few thousand or, one time in four, from the last few
/// thousand before `Tick::MAX`.
fn arb_unit_point() -> impl Strategy<Value = Pmf> {
    (0u8..4, 0u64..5_000)
        .prop_map(|(kind, t)| Pmf::point(if kind == 0 { Tick::MAX - t } else { t }))
}

/// Whether `pmf` is one impulse of mass exactly 1.0, which
/// `TailCache::chance` prices without a slot.
fn is_unit_point(pmf: &Pmf) -> bool {
    pmf.len() == 1 && pmf.iter().all(|i| i.p == 1.0)
}

proptest! {
    // The default config reads PROPTEST_CASES; CI runs a deep pass.

    /// `TailCache::chance` equals `tail.convolve(exec).mass_before(d)` by
    /// `to_bits` for every deadline of a sequence — below the support,
    /// inside it and past its end, in the generated order, ascending (each
    /// new maximum extends the slot's sums), descending and repeated, each
    /// order in its own slot — and then again after the first slot is
    /// re-keyed with the roles swapped and the second with the tail as
    /// its own exec. Every call counts exactly one conv hit (the slot's
    /// key matched) or miss, except against a unit-point tail.
    ///
    /// A unit-point tail is priced straight from the exec and counts
    /// nothing. It is drawn near 0 and near `Tick::MAX`, and priced
    /// against the drawn exec, an empty one, one of mass
    /// `1 + MASS_EPSILON` and one whose span passes `DENSE_SPAN_LIMIT`, at
    /// deadlines before, at and after the point and at each exec tick.
    #[test]
    fn chance_is_convolve_then_mass_before_bit_for_bit(
        tail in arb_pmf(),
        exec in arb_pmf(),
        fractions in prop::collection::vec(0u64..=1_200, 1..10),
        point in arb_unit_point(),
    ) {
        let conv = tail.convolve(&exec);
        let (lo, hi) = (conv.support_min().unwrap_or(0), conv.support_max().unwrap_or(0));
        // From 5 ticks before the support to a fifth of its span past the end.
        let mut deadlines: Vec<Tick> = fractions
            .iter()
            .map(|&f| (lo + f * (hi - lo + 10) / 1_000).saturating_sub(5))
            .collect();
        deadlines.extend([0, Tick::MAX]);
        let mut ascending = deadlines.clone();
        ascending.sort_unstable();
        let descending: Vec<Tick> = ascending.iter().rev().copied().collect();
        let repeated: Vec<Tick> = deadlines.iter().flat_map(|&d| [d, d]).collect();
        let runs = [
            (0, &tail, &exec, &deadlines),
            (1, &tail, &exec, &ascending),
            (2, &tail, &exec, &descending),
            (3, &tail, &exec, &repeated),
            (0, &exec, &tail, &deadlines),
            (1, &tail, &tail, &deadlines),
        ];
        let mut cache = TailCache::new();
        let mut keys: Vec<Option<(&Pmf, &Pmf)>> = vec![None; 4];
        for (machine, t, e, order) in runs {
            for &d in order {
                let before = cache.stats();
                let chance = cache.chance(machine, 1, 3, t, e, d);
                let expected = t.convolve(e).mass_before(d);
                prop_assert_eq!(chance.to_bits(), expected.to_bits(), "slot {} deadline {}", machine, d);
                let after = cache.stats();
                if is_unit_point(t) {
                    prop_assert_eq!(after, before);
                    continue;
                }
                let hit = keys[machine] == Some((t, e));
                let counted = (after.conv_hits - before.conv_hits, after.conv_misses - before.conv_misses);
                prop_assert_eq!(counted, if hit { (1, 0) } else { (0, 1) });
                prop_assert_eq!(after.lookups(), before.lookups() + 1);
                keys[machine] = Some((t, e));
            }
        }

        let t0 = point.support_min().unwrap_or(0);
        let heavy = Pmf::from_impulses(vec![(3, 0.25), (8, 1.0 + MASS_EPSILON - 0.25)]).unwrap();
        let wide = Pmf::from_impulses(vec![(1, 0.5), (DENSE_SPAN_LIMIT + 7, 0.5)]).unwrap();
        for e in [&exec, &Pmf::empty(), &heavy, &wide] {
            let mut deadlines = vec![0, t0.saturating_sub(1), t0, t0.saturating_add(1), Tick::MAX];
            for i in e.iter() {
                let at = t0.saturating_add(i.t);
                deadlines.extend([at.saturating_sub(1), at, at.saturating_add(1)]);
            }
            let span = e.support_max().unwrap_or(0) + 10;
            deadlines.extend(fractions.iter().map(|&f| t0.saturating_add(f * span / 1_000)));
            for d in deadlines {
                let before = cache.stats();
                let chance = cache.chance(0, 1, 3, &point, e, d);
                let expected = point.convolve(e).mass_before(d);
                prop_assert_eq!(chance.to_bits(), expected.to_bits(), "point {} deadline {}", t0, d);
                prop_assert_eq!(cache.stats(), before, "a unit point took a slot");
            }
        }
    }
}
