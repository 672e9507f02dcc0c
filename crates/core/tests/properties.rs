//! Property-based tests for the dropping policies.
//!
//! The central invariants:
//!
//! 1. **Optimal is optimal**: the exhaustive DFS (with and without pruning)
//!    achieves exactly the oracle-best instantaneous robustness over all
//!    legal drop subsets.
//! 2. **Optimal ≥ Heuristic ≥ no-drop**: the paper's ordering of decision
//!    quality holds pointwise on every queue (heuristic drops are confirmed
//!    only when they improve the η-window, and with β = 1, η = full queue
//!    depth the heuristic's chain updates never decrease robustness...
//!    the *global* heuristic-vs-nodrop claim is only guaranteed for η
//!    covering the whole influence zone, so we assert it for that case).
//! 3. Drop and degrade indices are always strictly increasing, within
//!    bounds and disjoint; drops never include the last pending task for
//!    the Eq-8 policies, and degrades fall only on degradable positions
//!    other than the last.
//! 4. A policy whose `reads_pressure` is `false` decides the same at every
//!    pressure, so the engine's keep-all verdict memo may leave pressure
//!    out of its key for it.

use proptest::prelude::*;
use taskdrop_core::{DropPolicy, OptimalDropper, ProactiveDropper, ReactiveOnly, ThresholdDropper};
use taskdrop_model::approx::degraded_pet;
use taskdrop_model::queue::{chain_with_drops, instantaneous_robustness, ChainTask};
use taskdrop_model::view::{DropContext, QueueView};
use taskdrop_model::{ApproxSpec, MachineTypeId, PetMatrix, TaskTypeId};
use taskdrop_pmf::{Compaction, Pmf};

/// A small PET with stochastic cells so chances are non-trivial.
fn pet() -> PetMatrix {
    PetMatrix::new(
        4,
        1,
        vec![
            Pmf::point(10),
            Pmf::point(60),
            Pmf::from_impulses(vec![(15, 0.5), (45, 0.5)]).unwrap(),
            Pmf::from_impulses(vec![(5, 0.25), (25, 0.5), (100, 0.25)]).unwrap(),
        ],
    )
}

fn queue_strategy() -> impl Strategy<Value = Vec<(u16, u64)>> {
    // (task type, deadline) pairs; queue length 0..=6 like the simulator.
    prop::collection::vec((0u16..4, 10u64..300), 0..=6)
}

fn exec(pet: &PetMatrix, tt: u16) -> &Pmf {
    pet.pmf(TaskTypeId(tt), MachineTypeId(0))
}

/// An idle machine's queue at t = 0, approximate computing off.
fn build_queue<'a>(pet: &'a PetMatrix, spec: &[(u16, u64)]) -> QueueView<'a> {
    QueueView {
        base: Pmf::point(0),
        tasks: spec.iter().map(|&(tt, d)| ChainTask { deadline: d, exec: exec(pet, tt) }).collect(),
        degradable: Vec::new(),
    }
}

/// The same queue with approximate computing on: position `i` is already
/// degraded when `degraded[i]` is 1, and degradable otherwise.
fn build_approx_queue<'a>(
    pet: &'a PetMatrix,
    apet: &'a PetMatrix,
    spec: &[(u16, u64)],
    degraded: &[u8],
) -> QueueView<'a> {
    let entries = || spec.iter().zip(degraded).map(|(&(tt, d), &deg)| (tt, d, deg == 1));
    QueueView {
        base: Pmf::point(0),
        tasks: entries()
            .map(|(tt, d, deg)| ChainTask {
                deadline: d,
                exec: exec(if deg { apet } else { pet }, tt),
            })
            .collect(),
        degradable: entries().map(|(tt, _, deg)| (!deg).then(|| exec(apet, tt))).collect(),
    }
}

fn ctx() -> DropContext {
    DropContext::plain(Compaction::None)
}

/// Every built-in policy.
fn policies() -> Vec<Box<dyn DropPolicy>> {
    vec![
        Box::new(ReactiveOnly),
        Box::new(ProactiveDropper::paper_default()),
        Box::new(OptimalDropper::new()),
        Box::new(ThresholdDropper::paper_default()),
    ]
}

/// The same queue spec with approximate computing off and on, each with
/// its drop context.
fn plain_and_approx_queues<'a>(
    pet: &'a PetMatrix,
    apet: &'a PetMatrix,
    spec: &[(u16, u64)],
    degraded: &[u8],
) -> [(QueueView<'a>, DropContext); 2] {
    let approx_ctx = DropContext { approx: Some(ApproxSpec::half_time()), ..ctx() };
    [(build_queue(pet, spec), ctx()), (build_approx_queue(pet, apet, spec, degraded), approx_ctx)]
}

fn robustness_with(queue: &QueueView<'_>, drops: &[usize]) -> f64 {
    let mut mask = vec![false; queue.tasks.len()];
    for &d in drops {
        mask[d] = true;
    }
    let links = chain_with_drops(&queue.base, &queue.tasks, &mask, Compaction::None);
    instantaneous_robustness(&links)
}

fn oracle_best(queue: &QueueView<'_>) -> f64 {
    let (base, tasks) = (&queue.base, &queue.tasks);
    let n = tasks.len();
    let mut best = f64::NEG_INFINITY;
    for mask_bits in 0u32..(1u32 << n) {
        if n > 0 && mask_bits & (1 << (n - 1)) != 0 {
            continue; // last task not droppable
        }
        let mask: Vec<bool> = (0..n).map(|i| mask_bits & (1 << i) != 0).collect();
        let links = chain_with_drops(base, tasks, &mask, Compaction::None);
        best = best.max(instantaneous_robustness(&links));
    }
    if n == 0 {
        0.0
    } else {
        best
    }
}

proptest! {
    #[test]
    fn optimal_matches_oracle(spec in queue_strategy()) {
        let pet = pet();
        let q = build_queue(&pet, &spec);
        let d = OptimalDropper::new().select_drops_fresh(&q, &ctx());
        let achieved = robustness_with(&q, &d.drops);
        let best = oracle_best(&q);
        prop_assert!((achieved - best).abs() < 1e-9, "optimal {achieved} vs oracle {best}");
    }

    #[test]
    fn pruning_is_exact(spec in queue_strategy()) {
        let pet = pet();
        let q = build_queue(&pet, &spec);
        let with = OptimalDropper::new().select_drops_fresh(&q, &ctx());
        let without = OptimalDropper::without_pruning().select_drops_fresh(&q, &ctx());
        prop_assert_eq!(with, without);
    }

    #[test]
    fn optimal_at_least_heuristic_at_least_nodrop(spec in queue_strategy()) {
        let pet = pet();
        let q = build_queue(&pet, &spec);
        let r_opt = robustness_with(&q, &OptimalDropper::new().select_drops_fresh(&q, &ctx()).drops);
        let r_heu = robustness_with(
            &q,
            &ProactiveDropper::paper_default().select_drops_fresh(&q, &ctx()).drops,
        );
        let r_none = robustness_with(&q, &[]);
        prop_assert!(r_opt + 1e-9 >= r_heu, "optimal {r_opt} < heuristic {r_heu}");
        // With beta=1 every confirmed drop strictly improves its eta-window;
        // eta=2 windows can in principle trade far-field chance, so compare
        // the *full-depth* heuristic against no-drop for the guarantee.
        let full = ProactiveDropper::new(1.0, 6);
        let r_full = robustness_with(&q, &full.select_drops_fresh(&q, &ctx()).drops);
        prop_assert!(r_full + 1e-9 >= r_none, "full-depth heuristic {r_full} < no-drop {r_none}");
    }

    #[test]
    fn drop_indices_well_formed(
        spec in queue_strategy(),
        degraded in prop::collection::vec(0u8..2, 6),
    ) {
        let pet = pet();
        let apet = degraded_pet(&pet, ApproxSpec::half_time());
        let policies = policies();
        for (q, dctx) in &plain_and_approx_queues(&pet, &apet, &spec, &degraded) {
            let n = q.tasks.len();
            for p in &policies {
                let d = p.select_drops_fresh(q, dctx);
                let name = p.name();
                for indices in [&d.drops, &d.degrades] {
                    for w in indices.windows(2) {
                        prop_assert!(w[0] < w[1], "{name} indices not increasing: {d:?}");
                    }
                    for &i in indices {
                        prop_assert!(i < n, "{name} index {i} out of bounds {n}");
                    }
                }
                if name != "Threshold" && n > 0 {
                    prop_assert!(!d.drops.contains(&(n - 1)), "{name} dropped last");
                }
                for &i in &d.degrades {
                    prop_assert!(!d.drops.contains(&i), "{name} dropped and degraded {i}");
                    prop_assert!(i + 1 < n, "{name} degraded the last position");
                    prop_assert!(
                        q.degradable.get(i).is_some_and(Option::is_some),
                        "{name} degraded position {i}, which is not degradable"
                    );
                }
            }
        }
    }

    #[test]
    fn pressure_blind_policies_decide_the_same_at_any_pressure(
        spec in queue_strategy(),
        degraded in prop::collection::vec(0u8..2, 6),
        pressure_a in 0.0f64..16.0,
        pressure_b in 0.0f64..16.0,
    ) {
        let pet = pet();
        let apet = degraded_pet(&pet, ApproxSpec::half_time());
        let queues = plain_and_approx_queues(&pet, &apet, &spec, &degraded);
        for p in policies().iter().filter(|p| !p.reads_pressure()) {
            for (q, dctx) in &queues {
                prop_assert_eq!(
                    p.select_drops_fresh(q, &DropContext { pressure: pressure_a, ..*dctx }),
                    p.select_drops_fresh(q, &DropContext { pressure: pressure_b, ..*dctx }),
                    "{} changed its decision between pressures {} and {}",
                    p.name(),
                    pressure_a,
                    pressure_b
                );
            }
        }
        // The one built-in that adapts to pressure must say so.
        prop_assert!(ThresholdDropper::paper_default().reads_pressure());
    }

    #[test]
    fn policies_deterministic(spec in queue_strategy()) {
        let pet = pet();
        let q = build_queue(&pet, &spec);
        let h = ProactiveDropper::paper_default();
        prop_assert_eq!(h.select_drops_fresh(&q, &ctx()), h.select_drops_fresh(&q, &ctx()));
        let o = OptimalDropper::new();
        prop_assert_eq!(o.select_drops_fresh(&q, &ctx()), o.select_drops_fresh(&q, &ctx()));
    }
}
