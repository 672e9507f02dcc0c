//! Bit-identity of the fused [`ChainEvaluator`] against the naive
//! reference chain functions, and of persistent-[`PolicyCtx`] policy
//! decisions against the fresh-evaluator reference path.
//!
//! The evaluator replaces per-step `Pmf` materialisation, the sort-based
//! coalesce and the compaction clone with reusable scratch buffers and a
//! dense accumulator. That is only sound because the *float summation
//! order* is preserved (DESIGN.md §12); these properties pin the outputs
//! bit-for-bit — `f64::to_bits`, not tolerances — across random queues and
//! all three [`Compaction`] policies.
//!
//! The **differential suite** at the bottom drives all four droppers
//! through proptest-generated queue-mutation scripts (inject / complete /
//! advance / drop / fail / repair interleavings) with ONE long-lived
//! [`PolicyCtx`] shared across every call — exactly how a `SimCore`
//! threads it — and requires each decision to equal the decision of a
//! fresh context (DESIGN.md §13). Nothing a previous call leaves in the
//! scratch buffers may influence a later decision.

use proptest::prelude::*;
use taskdrop_core::{DropPolicy, OptimalDropper, ProactiveDropper, ReactiveOnly, ThresholdDropper};
use taskdrop_model::approx::degraded_pet;
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::queue::{chain, chance_sum, ChainEvaluator, ChainTask};
use taskdrop_model::view::{DropContext, QueueView};
use taskdrop_model::{ApproxSpec, MachineTypeId, PetMatrix, TaskTypeId};
use taskdrop_pmf::{Compaction, Pmf, Tick};

/// A random normalised PMF with up to 12 impulses on ticks 0..=400.
fn arb_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0u64..=400, 1u32..=1000), 1..=12).prop_map(|pairs| {
        let weights: Vec<(Tick, f64)> = pairs.into_iter().map(|(t, w)| (t, w as f64)).collect();
        Pmf::from_weights(weights).expect("positive weights")
    })
}

/// A random queue: execution PMFs plus deadlines spanning hopeless to roomy.
fn arb_queue() -> impl Strategy<Value = (Pmf, Vec<(Pmf, Tick)>)> {
    (arb_pmf(), prop::collection::vec((arb_pmf(), 0u64..=2_000), 1..=7))
}

fn arb_compaction() -> impl Strategy<Value = Compaction> {
    (0u8..3, 2usize..=32, 1u64..=64).prop_map(|(kind, max, width)| match kind {
        0 => Compaction::None,
        1 => Compaction::MaxImpulses(max),
        _ => Compaction::BinWidth(width),
    })
}

fn tasks_of(queue: &[(Pmf, Tick)]) -> Vec<ChainTask<'_>> {
    queue.iter().map(|(exec, deadline)| ChainTask { deadline: *deadline, exec }).collect()
}

fn pmf_bits(p: &Pmf) -> Vec<(Tick, u64)> {
    p.iter().map(|i| (i.t, i.p.to_bits())).collect()
}

/// A small stochastic PET (4 task types × 1 machine type) so chances are
/// non-trivial for the dropper differential suite.
fn dropper_pet() -> PetMatrix {
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

/// A miniature machine-queue state machine the mutation scripts drive:
/// rich enough to produce every queue shape a `SimCore` can hand a policy
/// (idle/busy/stochastic runner, degraded entries, post-failure queues).
#[derive(Default)]
struct QueueSim {
    now: Tick,
    /// Running task: (completion PMF, deadline). `None` after a failure or
    /// while idle.
    running: Option<(Pmf, Tick)>,
    /// Pending entries: (task type, absolute deadline, degraded).
    pending: Vec<(u16, Tick, bool)>,
}

impl QueueSim {
    fn apply(&mut self, op: u8, tt: u16, val: u64) {
        match op {
            // Inject: a new arrival joins the queue tail.
            0 => {
                if self.pending.len() < 6 {
                    self.pending.push((tt % 4, self.now + 10 + val % 350, false));
                }
            }
            // Complete: the runner finishes; the head starts, possibly as
            // a stochastic execution (exercises non-point bases).
            1 => {
                self.running = None;
                if !self.pending.is_empty() {
                    let (_, deadline, _) = self.pending.remove(0);
                    let done = self.now + 1 + val % 80;
                    let completion = if val % 2 == 0 {
                        Pmf::point(done)
                    } else {
                        Pmf::from_impulses(vec![(done, 0.5), (done + 30, 0.5)]).unwrap()
                    };
                    self.running = Some((completion, deadline));
                }
            }
            // Advance the clock; a runner whose support is exhausted ends.
            2 => {
                self.now += 1 + val % 60;
                if let Some((completion, _)) = &self.running {
                    if completion.support_max().is_some_and(|t| t <= self.now) {
                        self.running = None;
                    }
                }
            }
            // Fail: the machine loses its running task (queue frozen).
            3 => self.running = None,
            // Repair/start: an idle machine picks up its head, degraded
            // half the time (exercises the degraded-PET chain path).
            4 => {
                if self.running.is_none() && !self.pending.is_empty() {
                    let (_, deadline, _) = self.pending.remove(0);
                    self.running = Some((Pmf::point(self.now + 1 + val % 50), deadline));
                } else if let Some(entry) = self.pending.get_mut((val % 6) as usize) {
                    entry.2 = true;
                }
            }
            // Drop: a pending entry vanishes (external decision).
            _ => {
                if !self.pending.is_empty() {
                    let idx = (val as usize) % self.pending.len();
                    self.pending.remove(idx);
                }
            }
        }
    }

    /// The policy-facing view, built the way the engine builds it: degraded
    /// entries chain with the degraded PET `apet` when approximate computing
    /// is on (`Some`), and every other entry is degradable then.
    fn view<'a>(
        &self,
        pet: &'a PetMatrix,
        apet: Option<&'a PetMatrix>,
        compaction: Compaction,
    ) -> QueueView<'a> {
        let exec = |source: &'a PetMatrix, tt| source.pmf(TaskTypeId(tt), MachineTypeId(0));
        QueueView::new(
            self.running.as_ref().map_or_else(|| Pmf::point(self.now), |(c, _)| c.clone()),
            self.pending
                .iter()
                .map(|&(tt, deadline, degraded)| ChainTask {
                    deadline,
                    exec: exec(if degraded { apet.unwrap_or(pet) } else { pet }, tt),
                })
                .collect(),
            apet.map_or_else(Vec::new, |apet| {
                self.pending
                    .iter()
                    .map(|&(tt, _, degraded)| (!degraded).then(|| exec(apet, tt)))
                    .collect()
            }),
            compaction,
        )
    }
}

proptest! {
    #[test]
    fn evaluator_chain_is_bit_identical(
        bq in arb_queue(),
        compaction in arb_compaction(),
    ) {
        let (base, queue) = bq;
        let tasks = tasks_of(&queue);
        let naive = chain(&base, &tasks, compaction);
        let mut eval = ChainEvaluator::new();
        let fused = eval.chain(&base, &tasks, compaction);
        prop_assert_eq!(naive.len(), fused.len());
        for (n, f) in naive.iter().zip(fused.iter()) {
            prop_assert_eq!(n.chance.to_bits(), f.chance.to_bits());
            prop_assert_eq!(pmf_bits(&n.completion), pmf_bits(&f.completion));
        }
    }

    #[test]
    fn evaluator_chance_sum_is_bit_identical(
        bq in arb_queue(),
        compaction in arb_compaction(),
        take in 0usize..=8,
    ) {
        let (base, queue) = bq;
        let tasks = tasks_of(&queue);
        let naive = chance_sum(&base, &tasks, take, compaction);
        let mut eval = ChainEvaluator::new();
        let fused = eval.chance_sum(&base, &tasks, take, compaction);
        prop_assert_eq!(naive.to_bits(), fused.to_bits());
    }

    /// `tail` equals the last link of the reference chain, and a reused
    /// evaluator (dirty buffers from a previous queue) stays bit-identical.
    #[test]
    fn evaluator_tail_and_reuse_are_bit_identical(
        bq in arb_queue(),
        bq2 in arb_queue(),
        compaction in arb_compaction(),
    ) {
        let (base, queue) = bq;
        let (base2, queue2) = bq2;
        let tasks = tasks_of(&queue);
        let mut eval = ChainEvaluator::new();
        let tail = eval.tail(&base, &tasks, compaction);
        let naive = chain(&base, &tasks, compaction);
        prop_assert_eq!(
            pmf_bits(&tail),
            pmf_bits(&naive.last().expect("non-empty queue").completion)
        );
        // Second, unrelated queue through the same evaluator.
        let tasks2 = tasks_of(&queue2);
        let naive2 = chain(&base2, &tasks2, compaction);
        let fused2 = eval.chain(&base2, &tasks2, compaction);
        for (n, f) in naive2.iter().zip(fused2.iter()) {
            prop_assert_eq!(n.chance.to_bits(), f.chance.to_bits());
            prop_assert_eq!(pmf_bits(&n.completion), pmf_bits(&f.completion));
        }
    }

    /// Every dropper's decision with a **persistent** `PolicyCtx` (one
    /// context shared across the whole mutation script *and* across all
    /// policies, as adversarial as reuse gets) equals its decision with a
    /// fresh context, at every step of a random
    /// inject/complete/advance/drop/fail/repair interleaving, under all
    /// three `Compaction` policies. Chain arithmetic through the
    /// persistent scratch is additionally pinned to the naive reference
    /// with `f64::to_bits`.
    #[test]
    fn persistent_ctx_decisions_match_fresh_ctx(
        ops in prop::collection::vec((0u8..6, 0u16..4, 0u64..400), 1..20),
        compaction in arb_compaction(),
    ) {
        let pet = dropper_pet();
        let spec = ApproxSpec::new(0.5, 0.6);
        let apet = degraded_pet(&pet, spec);
        let mut sim = QueueSim::default();
        let mut persistent = PolicyCtx::new();
        let policies: Vec<Box<dyn DropPolicy>> = vec![
            Box::new(ReactiveOnly),
            Box::new(ProactiveDropper::paper_default()),
            Box::new(ThresholdDropper::paper_default()),
            Box::new(OptimalDropper::new()),
        ];
        for &(op, tt, val) in &ops {
            sim.apply(op, tt, val);
            if sim.pending.is_empty() {
                continue;
            }
            for (with_approx, pressure) in [(false, 0.0), (true, 1.5)] {
                let dctx = DropContext {
                    pressure,
                    approx: if with_approx { Some(spec) } else { None },
                };
                // Each path gets its own view, so a keep-all chain one
                // path built cannot stand in for the other's.
                let view = || sim.view(&pet, with_approx.then_some(&apet), compaction);
                for p in &policies {
                    let warm = p.select_drops(&view(), &dctx, &mut persistent);
                    let cold = p.select_drops_fresh(&view(), &dctx);
                    prop_assert_eq!(
                        &warm, &cold,
                        "{} diverged under persistent ctx (op {} tt {} val {})",
                        p.name(), op, tt, val
                    );
                }
            }
            // The view's keep-all chain, built with the persistent scratch,
            // stays bit-identical to the naive reference after arbitrary
            // interleaved reuse.
            let view = sim.view(&pet, None, compaction);
            let naive = chain(view.base(), view.tasks(), compaction);
            let fused = view.keep_all(&mut persistent.eval);
            prop_assert_eq!(naive.len(), fused.len());
            for (n, f) in naive.iter().zip(fused.iter()) {
                prop_assert_eq!(n.chance.to_bits(), f.chance.to_bits());
                prop_assert_eq!(pmf_bits(&n.completion), pmf_bits(&f.completion));
            }
            // Interleave a confirmed decision into the script: apply the
            // heuristic's drops so later mutations see the pruned queue.
            let dctx = DropContext::plain();
            let decided =
                ProactiveDropper::paper_default().select_drops(&view, &dctx, &mut persistent);
            for &idx in decided.drops.iter().rev() {
                sim.pending.remove(idx);
            }
        }
    }

    /// The incremental API (`begin`/`step`/`step_from`/`chance_from`)
    /// matches the reference step arithmetic bit-for-bit.
    #[test]
    fn incremental_api_is_bit_identical(
        bq in arb_queue(),
        compaction in arb_compaction(),
    ) {
        let (base, queue) = bq;
        let tasks = tasks_of(&queue);
        let naive = chain(&base, &tasks, compaction);
        let mut eval = ChainEvaluator::new();
        let mut probe = ChainEvaluator::new();
        eval.begin(&base);
        let mut prev = base.clone();
        for (i, &t) in tasks.iter().enumerate() {
            let chance = eval.step(t, compaction);
            prop_assert_eq!(chance.to_bits(), naive[i].chance.to_bits());
            prop_assert_eq!(pmf_bits(&eval.completion_pmf()), pmf_bits(&naive[i].completion));
            // One-shot helpers from the same predecessor agree too.
            let (c2, completion) = probe.step_from(&prev, t, compaction);
            prop_assert_eq!(c2.to_bits(), naive[i].chance.to_bits());
            prop_assert_eq!(pmf_bits(&completion), pmf_bits(&naive[i].completion));
            prop_assert_eq!(probe.chance_from(&prev, t).to_bits(), naive[i].chance.to_bits());
            prev = naive[i].completion.clone();
        }
    }
}
