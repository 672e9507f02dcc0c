//! The persistent per-engine evaluation context: policy scratch buffers
//! plus the Eq 2 price table (DESIGN.md §13).
//!
//! Every scheduling decision — drop policies, mapping tails, admission and
//! pruning estimates — prices queue futures through the Eq (1)/(2) chain.
//! [`PolicyCtx`] is constructed **once per engine** (one `SimCore` owns
//! one), threaded as `&mut` through `DropPolicy::select_drops` and
//! `MappingHeuristic::map`, and reused across steps, checkpoints and
//! serving epochs. It owns
//!
//! * the shared scratch evaluators every policy draws from (buffers warm
//!   up once per trial instead of once per call), and
//! * a [`TailCache`]: per-(machine, task-type) running sums of
//!   `tail ⊛ exec` keyed by `(tail, exec)`, the Eq 2 prices that PAM,
//!   admission and pruning share, with deterministic hit/miss counters.
//!
//! The queue tails and keep-all drop verdicts the engine reuses between
//! mapping events are not here: each machine's state in `SimCore` holds
//! its own.
//!
//! # Correctness contract
//!
//! The cache key is the *complete* input of the cached function, so a hit
//! returns a value **bit-identical** to recomputation — pinned by the
//! differential suites in `crates/model/tests/evaluator_equivalence.rs`
//! and `tests/tail_cache.rs`. Cached state is *derived* state: it never
//! enters a checkpoint, and a restored engine starts cold and converges to
//! the same bytes (asserted in `tests/checkpoint_determinism.rs`).

use crate::queue::{ChainEvaluator, LazyChain};
use taskdrop_pmf::{extend_convolution_sums, Pmf, Tick, DENSE_SPAN_LIMIT};

/// Monotone cache hit/miss counters, deterministic for a given trial
/// (surfaced through `StepOutcome` work counters; `BENCH_counters.json`
/// pins them exactly for each benchmark workload).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queue-tail lookups answered from the queue's memo.
    pub tail_hits: u64,
    /// Queue-tail lookups that had to re-chain the queue.
    pub tail_misses: u64,
    /// Eq 2 pricings whose `(tail, exec)` matched their slot's key: the
    /// chance is read from the slot's running sums, after extending them
    /// when the deadline is later than any the slot has seen. Prices
    /// against a unit-point tail take no slot and count in neither
    /// counter.
    pub conv_hits: u64,
    /// Eq 2 pricings whose `(tail, exec)` did not match: the slot is
    /// re-keyed and its sums recomputed up to the deadline.
    pub conv_misses: u64,
    /// Drop decisions skipped because the queue was last kept whole, and
    /// has not changed since, under the same base and drop context.
    pub verdict_hits: u64,
    /// Drop decisions the policy had to make.
    pub verdict_misses: u64,
}

impl CacheStats {
    /// Total lookups of the three kinds.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.tail_hits
            + self.tail_misses
            + self.conv_hits
            + self.conv_misses
            + self.verdict_hits
            + self.verdict_misses
    }
}

/// Human-readable hit-rate summary, e.g.
/// `tail 1860/3947 hits (47.1%), conv 902/1200 hits (75.2%)`.
/// Zero-lookup caches render as `(-)` rather than dividing by zero.
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn part(
            f: &mut std::fmt::Formatter<'_>,
            name: &str,
            hits: u64,
            misses: u64,
        ) -> std::fmt::Result {
            let total = hits + misses;
            write!(f, "{name} {hits}/{total} hits ")?;
            if total == 0 {
                write!(f, "(-)")
            } else {
                write!(f, "({:.1}%)", 100.0 * hits as f64 / total as f64)
            }
        }
        part(f, "tail", self.tail_hits, self.tail_misses)?;
        write!(f, ", ")?;
        part(f, "conv", self.conv_hits, self.conv_misses)
    }
}

/// One (machine, task type) slot of Eq 2 pricing: the running sums of
/// `tail ⊛ exec`, one per tick from its lowest, computed up to the latest
/// deadline the slot has been asked about. Both inputs are stored and
/// compared on lookup: the tail changes whenever the machine's queue
/// does, and comparing the exec PMF keeps a context safe even if it is
/// (incorrectly but harmlessly) reused across scenarios with different
/// PET matrices.
#[derive(Debug, Clone, Default)]
struct ConvEntry {
    tail: Pmf,
    exec: Pmf,
    /// Lowest tick of `tail ⊛ exec`.
    lo: Tick,
    /// Ticks from `lo` through the highest tick of `tail ⊛ exec`; 0 when
    /// either input is empty.
    span: u64,
    /// [`extend_convolution_sums`] over the first `sums.len()` ticks.
    sums: Vec<f64>,
}

impl ConvEntry {
    /// Re-keys `cell` to `(tail, exec)` with no sums, reusing its buffers.
    fn refill<'c>(cell: &'c mut Option<ConvEntry>, tail: &Pmf, exec: &Pmf) -> &'c mut ConvEntry {
        let entry = cell.get_or_insert_with(ConvEntry::default);
        entry.tail.clone_from(tail);
        entry.exec.clone_from(exec);
        entry.sums.clear();
        // `tail ⊛ exec` covers the ticks `[lo, end)`, none if an input is
        // empty. An `end` past `Tick::MAX` reads as a span past
        // `DENSE_SPAN_LIMIT`, so `chance` convolves whole, where `convolve`
        // pins such completions at `Tick::MAX`.
        let ends = |p: &Pmf| p.support_min().zip(p.support_max());
        (entry.lo, entry.span) = match (ends(tail), ends(exec)) {
            (Some((t_lo, t_hi)), Some((e_lo, e_hi))) => {
                let lo = t_lo.saturating_add(e_lo);
                let end = t_hi.checked_add(e_hi).and_then(|hi| hi.checked_add(1));
                (lo, end.map_or(Tick::MAX, |end| end - lo))
            }
            _ => (0, 0),
        };
        entry
    }

    /// `tail.convolve(exec).mass_before(deadline)`, bit for bit: the
    /// running sum of the ticks before `deadline`, extending the sums
    /// first if they stop short of it. A span past [`DENSE_SPAN_LIMIT`]
    /// convolves whole, since the sparse path's order depends on every
    /// pair.
    fn chance(&mut self, deadline: Tick) -> f64 {
        if self.span > DENSE_SPAN_LIMIT {
            return self.tail.convolve(&self.exec).mass_before(deadline);
        }
        let cut = deadline.saturating_sub(self.lo).min(self.span) as usize;
        if self.sums.len() < cut {
            extend_convolution_sums(&self.tail, &self.exec, cut, &mut self.sums);
        }
        cut.checked_sub(1).and_then(|last| self.sums.get(last)).copied().unwrap_or(0.0)
    }
}

/// The Eq 2 price table: per-(machine, task-type) running sums of
/// `tail ⊛ exec` (the pricing of [`TailCache::chance`]), with hit/miss
/// accounting.
///
/// A slot's key is the complete input of its sums (`ConvEntry` above), so
/// a stale slot can never be served — it simply fails the comparison and
/// is overwritten.
#[derive(Debug, Default, Clone)]
pub struct TailCache {
    convs: Vec<Option<ConvEntry>>,
    conv_types: usize,
    stats: CacheStats,
}

impl TailCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        TailCache::default()
    }

    /// The conv hit/miss counters so far; the tail and verdict counters
    /// stay zero here, since the engine counts those lookups itself.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The paper's Eq 2 for a task appended to `machine`'s queue: the mass
    /// of `tail ⊛ exec` before `deadline`, bit-identical to
    /// `tail.convolve(exec).mass_before(deadline)`. The one place a chance
    /// of success is priced from a queue tail — mapping, admission and
    /// pruning all read it here, so each warms the slots the others reuse.
    ///
    /// A tail that is one impulse of mass exactly 1.0 at `t0`, such as an
    /// idle machine's `Pmf::point(now)`, is priced straight from the PET as
    /// `exec.mass_before(deadline − t0)` and touches no slot: every cell of
    /// `point ⊛ exec` is `1.0 × p`, so the bits are the same. Otherwise the
    /// `(machine, task_type)` slot keeps the running sums of its last
    /// `(tail, exec)`: a call whose inputs match it is a conv hit, and
    /// reads one sum (after extending the sums if this deadline is later
    /// than any before); any other call is a conv miss and re-keys the
    /// slot. `types` is the PET's task-type count (the slot stride); a
    /// context that sees a different stride drops the table rather than
    /// alias slots.
    #[inline]
    pub fn chance(
        &mut self,
        machine: usize,
        task_type: usize,
        types: usize,
        tail: &Pmf,
        exec: &Pmf,
        deadline: Tick,
    ) -> f64 {
        if let Some(t0) = unit_point(tail) {
            return exec.mass_before(deadline.saturating_sub(t0));
        }
        let TailCache { convs, conv_types, stats } = self;
        if *conv_types != types {
            convs.clear();
            *conv_types = types;
        }
        let slot = machine * types + task_type;
        if convs.len() <= slot {
            convs.resize_with(slot + 1, || None);
        }
        convs.get_mut(slot).map_or(0.0, |cell| {
            let entry = match cell {
                Some(e) if e.tail == *tail && e.exec == *exec => {
                    stats.conv_hits += 1;
                    e
                }
                _ => {
                    stats.conv_misses += 1;
                    ConvEntry::refill(cell, tail, exec)
                }
            };
            entry.chance(deadline)
        })
    }
}

/// The tick of `pmf` when it is one impulse of mass exactly 1.0.
fn unit_point(pmf: &Pmf) -> Option<Tick> {
    let mut impulses = pmf.iter();
    match (impulses.next(), impulses.next()) {
        (Some(only), None) if only.p == 1.0 => Some(only.t),
        _ => None,
    }
}

/// Long-lived evaluation context threaded through every policy call: the
/// scratch evaluators the policies share, plus the [`TailCache`] of Eq 2
/// prices. One per engine; see the module docs.
///
/// The scratch fields are public by design: a policy typically needs two
/// of them simultaneously (split borrows), and every method that uses
/// them re-`begin`s or resets before reading, so stale contents from a
/// previous call can never leak into a decision — the differential suite
/// pins persistent-context decisions bit-identical to fresh-context ones.
#[derive(Debug, Default, Clone)]
pub struct PolicyCtx {
    /// General-purpose fused evaluator (threshold pass, optimal DFS,
    /// queue-tail and keep-all chains, ordered mappers).
    pub eval: ChainEvaluator,
    /// Probe evaluator pricing the Eq (8) drop-future windows.
    pub probe: ChainEvaluator,
    /// Lazily-extended baseline chain of the Eq (8) dropper after its
    /// first drop or degrade.
    pub baseline: LazyChain,
    /// The Eq 2 price table that PAM, admission and pruning share.
    pub tails: TailCache,
}

impl PolicyCtx {
    /// A fresh context with empty scratch and a cold price table.
    #[must_use]
    pub fn new() -> Self {
        PolicyCtx::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_is_cached_per_inputs_and_bit_identical() {
        let mut cache = TailCache::new();
        let tail = Pmf::from_impulses(vec![(10, 0.5), (20, 0.5)]).unwrap();
        let exec = Pmf::from_impulses(vec![(5, 0.25), (9, 0.75)]).unwrap();
        let fresh = tail.convolve(&exec);
        // A later deadline extends the slot's sums; an earlier one reads them.
        for deadline in [19, 30, 15, 100] {
            let chance = cache.chance(1, 0, 3, &tail, &exec, deadline);
            assert_eq!(chance.to_bits(), fresh.mass_before(deadline).to_bits(), "{deadline}");
        }
        let stats = cache.stats();
        assert_eq!((stats.conv_hits, stats.conv_misses), (3, 1));
        // A different tail in the same slot recomputes.
        let moved = Pmf::from_impulses(vec![(40, 0.5), (41, 0.5)]).unwrap();
        let recomputed = cache.chance(1, 0, 3, &moved, &exec, 48);
        assert_eq!(recomputed.to_bits(), moved.convolve(&exec).mass_before(48).to_bits());
        assert_eq!(cache.stats().conv_misses, 2);
    }

    #[test]
    fn conv_stride_change_drops_the_table() {
        let mut cache = TailCache::new();
        let tail = Pmf::from_impulses(vec![(10, 0.5), (11, 0.5)]).unwrap();
        let exec = Pmf::point(5);
        assert_eq!(cache.chance(0, 1, 4, &tail, &exec, 17), 1.0);
        // Same (machine, type) under a different stride must not alias.
        assert_eq!(cache.chance(0, 1, 2, &tail, &exec, 17), 1.0);
        assert_eq!(cache.stats().conv_misses, 2);
    }

    #[test]
    fn cache_stats_display_is_zero_safe() {
        let stats = CacheStats {
            tail_hits: 1_860,
            tail_misses: 2_087,
            conv_hits: 3,
            conv_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(stats.to_string(), "tail 1860/3947 hits (47.1%), conv 3/4 hits (75.0%)");
        assert_eq!(CacheStats::default().to_string(), "tail 0/0 hits (-), conv 0/0 hits (-)");
    }
}
