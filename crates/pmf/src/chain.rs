//! The chain evaluator: zero-allocation fused chain stepping, the
//! engine's hot path.
//!
//! One step of a machine-queue completion-time chain is Eq (1) followed by
//! Eq (2) and compaction:
//!
//! 1. deadline-aware convolution of the predecessor completion PMF with the
//!    task's execution PMF ([`crate::deadline_convolve`]);
//! 2. the chance of success — mass strictly before the deadline — read off
//!    the *raw* (uncompacted) result so the deadline boundary is exact;
//! 3. compaction of the result before it feeds the next step.
//!
//! Done naively that is three materialisations per step: a raw pair vector
//! that gets sorted, a coalesced [`Pmf`], and a compacted clone. The
//! [`ChainEvaluator`] here makes one pass instead. The lowest and highest
//! product tick are read off the ends of the two sorted inputs split at the
//! deadline; when that span fits [`crate::DENSE_SPAN_LIMIT`] the products
//! go straight into a reusable **dense tick-indexed accumulator** (no pair
//! buffer, no sort), the chance is the ascending sum of the cells before
//! the deadline, and compaction reads the cells straight into a ping-pong
//! output buffer that becomes the next step's predecessor, with no raw
//! impulse built in between. A step whose completion is never read (a
//! one-shot chance, the last task of a chance sum) scatters only the
//! products that land before the deadline and builds nothing. No
//! allocation occurs after the buffers reach their steady-state sizes.
//!
//! # Determinism contract
//!
//! Floating-point addition is not associative, so the *order* in which
//! colliding products are summed is part of the observable behaviour. The
//! canonical order is **generation order**: ascending predecessor tick,
//! then ascending execution tick (the order `push_products` appends). The
//! dense accumulator preserves it by construction, and the sparse fallback
//! (support span above [`crate::DENSE_SPAN_LIMIT`]) is the pair path of
//! [`crate::deadline_convolve`] itself, so it and every [`ChainEvaluator`]
//! method produce **bit-identical** results — the reference chain functions
//! in `taskdrop_model::queue` and the differential suite beside them
//! enforce this.

use crate::compact::Compaction;
use crate::ops::{coalesce_into, product_capacity, DENSE_SPAN_LIMIT};
use crate::pmf::{Impulse, Pmf};
use crate::Tick;

/// Accumulates raw `(tick, mass)` products into coalesced, sorted impulses.
///
/// Chooses the same dense/sparse split as [`Pmf::convolve`]: when the
/// support span fits [`DENSE_SPAN_LIMIT`], products are scattered into a
/// zeroed tick-indexed buffer (`O(span + pairs)`, no sort) which preserves
/// generation order for colliding ticks; otherwise the pairs are sorted and
/// merged (the pre-existing sparse path). `pairs` is consumed (left empty),
/// `out` receives the result.
fn accumulate(pairs: &mut Vec<(Tick, f64)>, acc: &mut Vec<f64>, out: &mut Vec<Impulse>) {
    out.clear();
    let Some(&(first_t, _)) = pairs.first() else {
        return;
    };
    let mut lo = first_t;
    let mut hi = first_t;
    for &(t, _) in pairs.iter() {
        lo = lo.min(t);
        hi = hi.max(t);
    }
    if hi - lo < DENSE_SPAN_LIMIT {
        acc.clear();
        acc.resize((hi - lo) as usize + 1, 0.0);
        for &(t, p) in pairs.iter() {
            acc[(t - lo) as usize] += p;
        }
        for (off, &p) in acc.iter().enumerate() {
            if p > 0.0 {
                out.push(Impulse { t: lo + off as Tick, p });
            }
        }
        pairs.clear();
    } else {
        coalesce_into(pairs, out);
    }
}

/// Sum of impulse masses strictly before `deadline`, in ascending tick
/// order — the same summation [`Pmf::mass_before`] performs.
fn chance_before(raw: &[Impulse], deadline: Tick) -> f64 {
    let mut sum = 0.0f64;
    for i in raw {
        if i.t >= deadline {
            break;
        }
        sum += i.p;
    }
    sum
}

/// Appends the raw Eq (1) products of `prev ⊛ exec` under `deadline` into
/// `out` (cleared first), in the canonical generation order: the product
/// generator behind [`crate::deadline_convolve`] and the sparse fallback
/// of [`ChainEvaluator`]. A completion past `Tick::MAX` is pinned at
/// `Tick::MAX`, which no deadline precedes.
fn push_products(prev: &[Impulse], exec: &[Impulse], deadline: Tick, out: &mut Vec<(Tick, f64)>) {
    out.clear();
    for pi in prev {
        if pi.t < deadline {
            // Task starts at pi.t; completion = start + execution time.
            for ei in exec {
                out.push((pi.t.saturating_add(ei.t), pi.p * ei.p));
            }
        } else {
            // Reactive drop: machine is free at the predecessor's completion.
            out.push((pi.t, pi.p));
        }
    }
}

/// The cells a dense Eq (1) step scatters into: every product lands in
/// the `span` ticks from `lo`, and the predecessor impulses before `split`
/// start the task while the rest pass through.
struct Window {
    split: usize,
    lo: Tick,
    span: usize,
}

/// Reads the lowest and highest product tick of `prev ⊛ exec` under
/// `deadline` off the ends of the two sorted inputs split at the deadline:
/// the bounds [`accumulate`] finds by scanning the pairs. `None` when there
/// is no product at all, the span exceeds [`DENSE_SPAN_LIMIT`] or a
/// completion would pass `Tick::MAX`; the pair path takes all three cases,
/// exactly as [`accumulate`] would (saturating the last, as
/// [`push_products`] documents).
fn dense_window(prev: &[Impulse], exec: &[Impulse], deadline: Tick) -> Option<Window> {
    let split = prev.partition_point(|i| i.t < deadline);
    let (on_time, late) = prev.split_at(split);
    let ran = match (on_time.first().zip(on_time.last()), exec.first().zip(exec.last())) {
        (Some((first, last)), Some((shortest, longest))) => {
            Some((first.t.checked_add(shortest.t)?, last.t.checked_add(longest.t)?))
        }
        _ => None,
    };
    let passed = late.first().zip(late.last()).map(|(first, last)| (first.t, last.t));
    let (lo, hi) = match (ran, passed) {
        (Some((lo, hi)), Some((p_lo, p_hi))) => (lo.min(p_lo), hi.max(p_hi)),
        (bounds, None) | (None, bounds) => bounds?,
    };
    (hi - lo < DENSE_SPAN_LIMIT).then_some(Window { split, lo, span: (hi - lo) as usize + 1 })
}

/// Adds the products of the on-time predecessor impulses and `exec` into
/// `acc` (cell `k` holds tick `lo + k`) in generation order. A row stops at
/// its first product past the end of `acc`: execution ticks ascend, so the
/// rest of the row lands later still.
fn scatter(on_time: &[Impulse], exec: &[Impulse], lo: Tick, acc: &mut [f64]) {
    for pi in on_time {
        for ei in exec {
            let Some(cell) = acc.get_mut((pi.t + ei.t - lo) as usize) else {
                break;
            };
            *cell += pi.p * ei.p;
        }
    }
}

/// The sparse fallback: the pair path of [`crate::deadline_convolve`]
/// into `raw`, and the chance read off it.
fn pair_path(
    prev: &[Impulse],
    task: ChainTask<'_>,
    pairs: &mut Vec<(Tick, f64)>,
    acc: &mut Vec<f64>,
    raw: &mut Vec<Impulse>,
) -> f64 {
    push_products(prev, &task.exec.impulses, task.deadline, pairs);
    accumulate(pairs, acc, raw);
    chance_before(raw, task.deadline)
}

/// Ascending sum of `cells` from `+0.0`: the Eq (2) chance of the cells
/// before a deadline. Every cell is `+0.0` or positive, and an empty one
/// leaves the sum as it is, so this sums exactly the impulses
/// [`chance_before`] sums, in the same order.
fn chance_of(cells: &[f64]) -> f64 {
    cells.iter().fold(0.0f64, |sum, &p| sum + p)
}

/// One Eq (1) step of `task` behind `prev`, compacted into `out` (cleared
/// first), returning its Eq (2) chance. Bit-identical to [`pair_path`]
/// then [`Compaction::apply_into`]: every cell gets the same products in
/// the same order, the chance sums the cells before the deadline
/// ([`chance_of`]), and compaction reads the cells straight
/// ([`Compaction::apply_cells_into`]), so no raw impulse is built.
fn step_into(
    prev: &[Impulse],
    task: ChainTask<'_>,
    compaction: Compaction,
    pairs: &mut Vec<(Tick, f64)>,
    acc: &mut Vec<f64>,
    raw: &mut Vec<Impulse>,
    out: &mut Vec<Impulse>,
) -> f64 {
    let Some(Window { split, lo, span }) = dense_window(prev, &task.exec.impulses, task.deadline)
    else {
        let chance = pair_path(prev, task, pairs, acc, raw);
        compaction.apply_into(raw, out);
        return chance;
    };
    let (on_time, late) = prev.split_at(split);
    acc.clear();
    acc.resize(span, 0.0);
    scatter(on_time, &task.exec.impulses, lo, acc);
    for pi in late {
        // Reactive drop: machine is free at the predecessor's completion.
        if let Some(cell) = acc.get_mut((pi.t - lo) as usize) {
            *cell += pi.p;
        }
    }
    let before = task.deadline.saturating_sub(lo).min(span as Tick) as usize;
    let chance = chance_of(acc.get(..before).unwrap_or_default());
    compaction.apply_cells_into(acc, lo, out);
    chance
}

/// The Eq (2) chance of [`step_into`] without its completion: on the dense
/// path only the products landing before the deadline are scattered, and
/// nothing is built. The cells before the deadline get exactly the
/// products and order they get in the full step (pass-through mass lands
/// at or after the deadline), and the sum runs over the same cells in the
/// same order, so the bits match. The path is still chosen by the full
/// product span, because past [`DENSE_SPAN_LIMIT`] the sort order of every
/// pair decides how colliding products are summed.
fn chance_into(
    prev: &[Impulse],
    task: ChainTask<'_>,
    pairs: &mut Vec<(Tick, f64)>,
    acc: &mut Vec<f64>,
    raw: &mut Vec<Impulse>,
) -> f64 {
    let Some(Window { split, lo, span }) = dense_window(prev, &task.exec.impulses, task.deadline)
    else {
        return pair_path(prev, task, pairs, acc, raw);
    };
    let before = task.deadline.saturating_sub(lo).min(span as Tick) as usize;
    acc.clear();
    acc.resize(before, 0.0);
    scatter(prev.split_at(split).0, &task.exec.impulses, lo, acc);
    chance_of(acc)
}

/// One pending task as seen by the chain: its deadline and its
/// execution-time PMF on the machine that queues it (a PET matrix cell).
#[derive(Debug, Clone, Copy)]
pub struct ChainTask<'a> {
    /// Hard deadline of the task.
    pub deadline: Tick,
    /// Execution-time PMF on the machine that queues the task.
    pub exec: &'a Pmf,
}

/// Completion PMF and chance of success of one pending position.
#[derive(Debug, Clone)]
pub struct ChainLink {
    /// Completion-time PMF of the position (after compaction).
    pub completion: Pmf,
    /// Chance of success (Eq 2), computed *before* compaction so the
    /// deadline boundary is exact.
    pub chance: f64,
}

/// Zero-allocation fused evaluator of machine-queue chains: whole chains
/// ([`ChainEvaluator::chain`]), prefix chance sums
/// ([`ChainEvaluator::chance_sum`]), queue tails ([`ChainEvaluator::tail`])
/// and incremental stepping, all from one reusable set of buffers.
///
/// Owns five buffers: the dense accumulator, the raw product pairs and
/// the uncompacted result (both used only past [`DENSE_SPAN_LIMIT`]), and
/// a ping-pong pair (`cur`/`next`) holding the current and upcoming
/// predecessor completion. All buffers are cleared and
/// refilled per step but never shrink, so a steady-state chain evaluation
/// performs no heap allocation. One evaluator is meant to be reused across
/// many queues: buffers grow to the scenario's working-set size and stay
/// there.
///
/// Ownership rule: `cur` (read via [`ChainEvaluator::completion_pmf`]) is
/// only valid between [`ChainEvaluator::begin`]/[`ChainEvaluator::step`]
/// calls, and the whole-chain methods re-`begin`. After
/// [`ChainEvaluator::chance_sum`] the incremental chain is unspecified (its
/// last step reads only the chance), so call `begin` before stepping again.
/// The one-shot helpers ([`ChainEvaluator::step_from`],
/// [`ChainEvaluator::chance_from`]) clobber the internal work buffers but
/// leave `cur` untouched, so they can be interleaved with an in-progress
/// chain.
#[derive(Debug, Default, Clone)]
pub struct ChainEvaluator {
    pairs: Vec<(Tick, f64)>,
    acc: Vec<f64>,
    raw: Vec<Impulse>,
    cur: Vec<Impulse>,
    next: Vec<Impulse>,
}

impl ChainEvaluator {
    /// A fresh evaluator with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        ChainEvaluator::default()
    }

    /// Starts an incremental chain: the predecessor completion becomes
    /// `base`.
    pub fn begin(&mut self, base: &Pmf) {
        self.cur.clear();
        self.cur.extend_from_slice(&base.impulses);
    }

    /// Advances the incremental chain by one task: Eq (1) against the
    /// current predecessor, Eq (2) on the raw result, compaction into the
    /// new predecessor. Returns the chance of success.
    pub fn step(&mut self, task: ChainTask<'_>, compaction: Compaction) -> f64 {
        let ChainEvaluator { pairs, acc, raw, cur, next } = self;
        let chance = step_into(cur, task, compaction, pairs, acc, raw, next);
        std::mem::swap(cur, next);
        chance
    }

    /// Materialises the current predecessor completion as a [`Pmf`].
    #[must_use]
    pub fn completion_pmf(&self) -> Pmf {
        Pmf::from_sorted_unchecked(self.cur.clone())
    }

    /// One-shot step from an arbitrary predecessor `prev`, leaving the
    /// incremental chain state untouched. Returns `(chance, completion)`,
    /// bit-identical to `compaction.apply(&deadline_convolve(prev, exec,
    /// deadline))` plus `raw.mass_before(deadline)`.
    pub fn step_from(
        &mut self,
        prev: &Pmf,
        task: ChainTask<'_>,
        compaction: Compaction,
    ) -> (f64, Pmf) {
        let ChainEvaluator { pairs, acc, raw, next, .. } = self;
        let chance = step_into(&prev.impulses, task, compaction, pairs, acc, raw, next);
        (chance, Pmf::from_sorted_unchecked(next.clone()))
    }

    /// Chance of success of `task` queued directly behind `prev` (Eq 1 +
    /// Eq 2 fused) without materialising the completion at all — the
    /// optimal search's bound primitive. Within [`DENSE_SPAN_LIMIT`] only
    /// the products that land before the deadline are multiplied.
    pub fn chance_from(&mut self, prev: &Pmf, task: ChainTask<'_>) -> f64 {
        let ChainEvaluator { pairs, acc, raw, .. } = self;
        chance_into(&prev.impulses, task, pairs, acc, raw)
    }

    /// Applies Eq (1) along the whole queue behind `base`: one
    /// [`ChainLink`] per task, each completion compacted per `compaction`
    /// before it feeds the next step.
    pub fn chain(
        &mut self,
        base: &Pmf,
        tasks: &[ChainTask<'_>],
        compaction: Compaction,
    ) -> Vec<ChainLink> {
        self.begin(base);
        let mut links = Vec::with_capacity(tasks.len());
        for &t in tasks {
            let chance = self.step(t, compaction);
            links.push(ChainLink { completion: self.completion_pmf(), chance });
        }
        links
    }

    /// Sum of the chances of success of the first `take` tasks of the
    /// chain (Eq 3 restricted to a prefix), without materialising the
    /// links — the hot primitive of the Eq (8) droppers. The last task
    /// feeds no later step, so only its chance is computed, as in
    /// [`ChainEvaluator::chance_from`]; the incremental chain is left
    /// unspecified.
    pub fn chance_sum(
        &mut self,
        base: &Pmf,
        tasks: &[ChainTask<'_>],
        take: usize,
        compaction: Compaction,
    ) -> f64 {
        let Some((&last, init)) = tasks.get(..take).unwrap_or(tasks).split_last() else {
            return 0.0;
        };
        self.begin(base);
        let mut sum = 0.0;
        for &t in init {
            sum += self.step(t, compaction);
        }
        let ChainEvaluator { pairs, acc, raw, cur, .. } = self;
        sum + chance_into(cur, last, pairs, acc, raw)
    }

    /// Completion PMF of the queue tail — where a task appended after
    /// `tasks` would wait: the last link of [`ChainEvaluator::chain`] (or
    /// `base` itself for an empty queue) without materialising the
    /// intermediate links.
    pub fn tail(&mut self, base: &Pmf, tasks: &[ChainTask<'_>], compaction: Compaction) -> Pmf {
        self.begin(base);
        for &t in tasks {
            self.step(t, compaction);
        }
        self.completion_pmf()
    }
}

/// Computes Eq (1) into a freshly allocated [`Pmf`] through the pair path:
/// the body of [`crate::deadline_convolve`]. It lives beside
/// [`ChainEvaluator`], whose sparse fallback it shares, and the
/// differential suites hold the evaluator's dense path to it bit for bit.
pub(crate) fn deadline_convolve_impl(prev: &Pmf, exec: &Pmf, deadline: Tick) -> Pmf {
    let mut pairs: Vec<(Tick, f64)> =
        Vec::with_capacity(product_capacity(prev.len(), exec.len().max(1)));
    push_products(&prev.impulses, &exec.impulses, deadline, &mut pairs);
    let mut acc = Vec::new();
    let mut raw = Vec::new();
    accumulate(&mut pairs, &mut acc, &mut raw);
    Pmf::from_sorted_unchecked(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline_convolve;

    fn bits(p: &Pmf) -> Vec<(Tick, u64)> {
        p.iter().map(|i| (i.t, i.p.to_bits())).collect()
    }

    fn task(deadline: Tick, exec: &Pmf) -> ChainTask<'_> {
        ChainTask { deadline, exec }
    }

    #[test]
    fn step_pmf_matches_naive_pipeline_bitwise() {
        let prev = Pmf::from_impulses(vec![(10, 0.6), (11, 0.3), (12, 0.05), (13, 0.05)]).unwrap();
        let exec = Pmf::from_impulses(vec![(1, 0.6), (2, 0.4)]).unwrap();
        let mut eval = ChainEvaluator::new();
        for compaction in [Compaction::None, Compaction::MaxImpulses(2), Compaction::BinWidth(3)] {
            let raw = deadline_convolve(&prev, &exec, 13);
            let naive = compaction.apply(&raw);
            let (chance, fused) = eval.step_from(&prev, task(13, &exec), compaction);
            assert_eq!(bits(&naive), bits(&fused));
            assert_eq!(chance.to_bits(), raw.mass_before(13).to_bits());
        }
    }

    #[test]
    fn stepping_matches_repeated_naive_steps_bitwise() {
        let base = Pmf::uniform(0, 40);
        let exec = Pmf::from_impulses(vec![(8, 0.5), (16, 0.5)]).unwrap();
        let compaction = Compaction::MaxImpulses(16);
        let mut eval = ChainEvaluator::new();
        eval.begin(&base);
        let mut prev = base;
        for k in 0..5u64 {
            let deadline = 60 + 25 * k;
            let raw = deadline_convolve(&prev, &exec, deadline);
            let naive_chance = raw.mass_before(deadline);
            prev = compaction.apply(&raw);
            let chance = eval.step(task(deadline, &exec), compaction);
            assert_eq!(chance.to_bits(), naive_chance.to_bits(), "step {k}");
            assert_eq!(bits(&prev), bits(&eval.completion_pmf()), "step {k}");
        }
    }

    #[test]
    fn chance_of_matches_mass_before() {
        let prev = Pmf::uniform(5, 60);
        let exec = Pmf::from_impulses(vec![(3, 0.25), (9, 0.75)]).unwrap();
        let mut eval = ChainEvaluator::new();
        for d in [0, 10, 35, 70, 200] {
            let naive = deadline_convolve(&prev, &exec, d).mass_before(d);
            assert_eq!(eval.chance_from(&prev, task(d, &exec)).to_bits(), naive.to_bits());
        }
    }

    #[test]
    fn one_shot_helpers_do_not_disturb_chain_state() {
        let base = Pmf::point(5);
        let exec = Pmf::point(10);
        let mut eval = ChainEvaluator::new();
        eval.begin(&base);
        eval.step(task(100, &exec), Compaction::None);
        let before = eval.completion_pmf();
        let _ = eval.step_from(&Pmf::uniform(0, 9), task(50, &exec), Compaction::MaxImpulses(4));
        let _ = eval.chance_from(&Pmf::uniform(0, 9), task(50, &exec));
        assert_eq!(before, eval.completion_pmf());
        assert_eq!(eval.step(task(100, &exec), Compaction::None), 1.0);
        assert_eq!(eval.completion_pmf(), Pmf::point(25));
    }

    #[test]
    fn stepping_after_chance_sum_matches_a_fresh_evaluator_bitwise() {
        let base = Pmf::uniform(0, 40);
        let exec = Pmf::from_impulses(vec![(8, 0.5), (16, 0.5)]).unwrap();
        let tasks = [task(60, &exec), task(70, &exec), task(95, &exec)];
        let compaction = Compaction::MaxImpulses(16);
        let mut used = ChainEvaluator::new();
        let _ = used.chance_sum(&base, &tasks, 3, compaction);
        let mut fresh = ChainEvaluator::new();
        used.begin(&base);
        fresh.begin(&base);
        for &t in &tasks {
            assert_eq!(used.step(t, compaction).to_bits(), fresh.step(t, compaction).to_bits());
            assert_eq!(bits(&used.completion_pmf()), bits(&fresh.completion_pmf()));
        }
    }

    #[test]
    fn sparse_fallback_matches_naive() {
        // Span far beyond DENSE_SPAN_LIMIT forces the coalesce path.
        let prev = Pmf::from_impulses(vec![(0, 0.5), (200_000, 0.5)]).unwrap();
        let exec = Pmf::from_impulses(vec![(1, 0.5), (100_000, 0.5)]).unwrap();
        let mut eval = ChainEvaluator::new();
        let (chance, fused) = eval.step_from(&prev, task(150_000, &exec), Compaction::None);
        let raw = deadline_convolve(&prev, &exec, 150_000);
        assert_eq!(bits(&raw), bits(&fused));
        assert_eq!(chance.to_bits(), raw.mass_before(150_000).to_bits());
    }

    #[test]
    fn a_step_ending_on_the_last_tick_matches_the_pair_path() {
        let prev = Pmf::from_impulses(vec![(Tick::MAX - 12, 0.5), (Tick::MAX - 10, 0.5)]).unwrap();
        let exec = Pmf::from_impulses(vec![(1, 0.25), (4, 0.25), (10, 0.5)]).unwrap();
        let mut eval = ChainEvaluator::new();
        for compaction in [Compaction::None, Compaction::MaxImpulses(2), Compaction::BinWidth(3)] {
            let raw = deadline_convolve(&prev, &exec, Tick::MAX);
            let (chance, fused) = eval.step_from(&prev, task(Tick::MAX, &exec), compaction);
            assert_eq!(bits(&compaction.apply(&raw)), bits(&fused));
            assert_eq!(chance.to_bits(), raw.mass_before(Tick::MAX).to_bits());
        }
    }

    #[test]
    fn empty_inputs() {
        let mut eval = ChainEvaluator::new();
        let one = Pmf::point(1);
        let (chance, out) = eval.step_from(&Pmf::empty(), task(10, &one), Compaction::None);
        assert_eq!(chance, 0.0);
        assert!(out.is_empty());
        eval.begin(&Pmf::empty());
        assert_eq!(eval.step(task(10, &one), Compaction::None), 0.0);
        assert!(eval.completion_pmf().is_empty());
    }
}
