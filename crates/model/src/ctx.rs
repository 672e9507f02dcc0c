//! The persistent per-engine evaluation context: policy scratch buffers
//! plus the keyed PET×tail convolution cache (DESIGN.md §13).
//!
//! Every scheduling decision — drop policies, mapping tails, admission and
//! pruning estimates — prices queue futures through the Eq (1)/(2) chain.
//! PR 4's fused [`ChainEvaluator`] removed the per-*step* allocations, but each
//! policy invocation still constructed fresh evaluators, and the
//! PET×tail convolutions behind every queue-tail estimate were recomputed
//! even when a machine's queue had not changed between mapping events —
//! the redundancy probabilistic-pruning systems exploit with PMF caching.
//!
//! [`PolicyCtx`] fixes both. It is constructed **once per engine** (one
//! `SimCore` owns one), threaded as `&mut` through
//! `DropPolicy::select_drops` and `MappingHeuristic::map`, and reused
//! across steps, checkpoints and serving epochs. It owns
//!
//! * the shared scratch evaluators every policy draws from (buffers warm
//!   up once per trial instead of once per call), and
//! * a [`TailCache`]: per-machine queue-tail completion PMFs keyed by
//!   `(queue revision, base PMF, compaction)`, per-(machine, task-type)
//!   plain `tail ⊛ exec` convolutions keyed by `(tail, exec)`, and
//!   per-machine keep-all drop verdicts keyed by `(queue revision, base
//!   PMF, drop context)`, with deterministic hit/miss counters.
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
use crate::view::DropContext;
use taskdrop_pmf::{Compaction, Pmf, Tick};

/// Monotone cache hit/miss counters, deterministic for a given trial
/// (surfaced through `StepOutcome` work counters; `BENCH_counters.json`
/// pins them exactly for each benchmark workload).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queue-tail lookups answered from the cache.
    pub tail_hits: u64,
    /// Queue-tail lookups that had to re-chain the queue.
    pub tail_misses: u64,
    /// PET×tail convolution lookups answered from the cache.
    pub conv_hits: u64,
    /// PET×tail convolution lookups that had to convolve.
    pub conv_misses: u64,
    /// Drop decisions skipped because the queue was last kept whole under
    /// the same key.
    pub verdict_hits: u64,
    /// Drop decisions the policy had to make.
    pub verdict_misses: u64,
}

impl CacheStats {
    /// Total lookups across the three tables.
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

/// One machine's cached queue tail: the exact inputs it was computed from
/// plus the result. A lookup hits only when every key field matches, so
/// queue mutation (revision bump), a different predecessor completion
/// (clock advanced past a support point, failure/repair changed the
/// running task) or a compaction-policy change each invalidate it.
#[derive(Debug, Clone)]
struct TailEntry {
    rev: u64,
    compaction: Compaction,
    base: Pmf,
    tail: Pmf,
}

/// One cached plain convolution `tail ⊛ exec` for a (machine, task type)
/// slot. Both inputs are stored and compared on lookup: the tail changes
/// whenever the machine's queue does, and comparing the exec PMF keeps a
/// context safe even if it is (incorrectly but harmlessly) reused across
/// scenarios with different PET matrices.
#[derive(Debug, Clone)]
struct ConvEntry {
    tail: Pmf,
    exec: Pmf,
    conv: Pmf,
}

/// One machine's keep-all drop verdict: the key of the last decision that
/// kept the whole queue. The queue revision stands for the pending
/// entries (as in [`TailEntry`]); the base and the drop context are the
/// rest of the decision's input. The caller zeroes `ctx.pressure` for a
/// policy that does not read it.
#[derive(Debug, Clone)]
struct VerdictEntry {
    rev: u64,
    base: Pmf,
    ctx: DropContext,
}

/// Keyed PET×tail cache: per-machine queue tails, per-(machine,
/// task-type) `tail ⊛ exec` convolutions and per-machine keep-all drop
/// verdicts, with hit/miss accounting.
///
/// Keys are the complete inputs of the cached computation (`TailEntry`/
/// `ConvEntry`/`VerdictEntry` above), so stale entries can never be
/// served — they simply fail the comparison and are overwritten. `clear`
/// exists for callers that want to drop memory, not for correctness.
#[derive(Debug, Default, Clone)]
pub struct TailCache {
    tails: Vec<Option<TailEntry>>,
    convs: Vec<Option<ConvEntry>>,
    conv_types: usize,
    verdicts: Vec<Option<VerdictEntry>>,
    stats: CacheStats,
}

impl TailCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        TailCache::default()
    }

    /// The hit/miss counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every cached entry (counters are kept — they are monotone
    /// work accounting, not cache contents).
    pub fn clear(&mut self) {
        self.tails.clear();
        self.convs.clear();
        self.conv_types = 0;
        self.verdicts.clear();
    }

    /// Looks up `machine`'s cached queue tail. Hits (and returns a clone)
    /// only when the queue revision, predecessor completion and compaction
    /// policy all match the entry's key; every call bumps exactly one
    /// counter.
    pub fn lookup_tail(
        &mut self,
        machine: usize,
        rev: u64,
        base: &Pmf,
        compaction: Compaction,
    ) -> Option<Pmf> {
        let entry = self.tails.get(machine).and_then(Option::as_ref);
        match entry {
            Some(e) if e.rev == rev && e.compaction == compaction && e.base == *base => {
                self.stats.tail_hits += 1;
                Some(e.tail.clone())
            }
            _ => {
                self.stats.tail_misses += 1;
                None
            }
        }
    }

    /// Stores `machine`'s queue tail under its complete key, replacing any
    /// previous entry.
    pub fn store_tail(
        &mut self,
        machine: usize,
        rev: u64,
        base: Pmf,
        compaction: Compaction,
        tail: Pmf,
    ) {
        if self.tails.len() <= machine {
            self.tails.resize_with(machine + 1, || None);
        }
        self.tails[machine] = Some(TailEntry { rev, compaction, base, tail });
    }

    /// Whether `machine`'s last drop decision kept its whole queue under
    /// exactly this key: the queue revision, the base PMF and the drop
    /// context all match. Every call bumps exactly one verdict counter.
    pub fn lookup_verdict(
        &mut self,
        machine: usize,
        rev: u64,
        base: &Pmf,
        ctx: &DropContext,
    ) -> bool {
        let entry = self.verdicts.get(machine).and_then(Option::as_ref);
        let hit = entry.is_some_and(|e| e.rev == rev && e.ctx == *ctx && e.base == *base);
        if hit {
            self.stats.verdict_hits += 1;
        } else {
            self.stats.verdict_misses += 1;
        }
        hit
    }

    /// Records that the drop decision for this key kept every task,
    /// replacing `machine`'s previous verdict.
    pub fn store_verdict(&mut self, machine: usize, rev: u64, base: Pmf, ctx: DropContext) {
        if self.verdicts.len() <= machine {
            self.verdicts.resize_with(machine + 1, || None);
        }
        if let Some(slot) = self.verdicts.get_mut(machine) {
            *slot = Some(VerdictEntry { rev, base, ctx });
        }
    }

    /// The plain convolution `tail ⊛ exec` for the `(machine, task_type)`
    /// slot, served from the cache when both stored inputs match and
    /// computed via `convolve` (then cached) otherwise. `types` is the
    /// PET's task-type count (the slot stride); a context that sees a
    /// different stride drops the table rather than alias slots.
    pub fn conv(
        &mut self,
        machine: usize,
        task_type: usize,
        types: usize,
        tail: &Pmf,
        exec: &Pmf,
    ) -> &Pmf {
        if self.conv_types != types {
            self.convs.clear();
            self.conv_types = types;
        }
        let slot = machine * types + task_type;
        if self.convs.len() <= slot {
            self.convs.resize_with(slot + 1, || None);
        }
        let hit = self.convs[slot].as_ref().is_some_and(|e| e.tail == *tail && e.exec == *exec);
        if hit {
            self.stats.conv_hits += 1;
        } else {
            self.stats.conv_misses += 1;
            let conv = tail.convolve(exec);
            self.convs[slot] = Some(ConvEntry { tail: tail.clone(), exec: exec.clone(), conv });
        }
        &self.convs[slot].as_ref().expect("entry filled above").conv
    }

    /// The paper's Eq 2 for a task appended to `machine`'s queue: the mass
    /// of the cached [`TailCache::conv`] completion PMF before `deadline`.
    /// The one place a chance of success is priced from a queue tail —
    /// mapping, admission and pruning all read it here, so each warms the
    /// convolutions the others reuse.
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
        self.conv(machine, task_type, types, tail, exec).mass_before(deadline)
    }
}

/// Long-lived evaluation context threaded through every policy call: the
/// scratch buffers the policies previously constructed per invocation,
/// plus the [`TailCache`]. One per engine; see the module docs for the
/// ownership and invalidation rules.
///
/// The scratch fields are public by design: a policy typically needs two
/// of them simultaneously (split borrows), and every method that uses
/// them re-`begin`s or resets before reading, so stale contents from a
/// previous call can never leak into a decision — the differential suite
/// pins persistent-context decisions bit-identical to fresh-context ones.
#[derive(Debug, Default, Clone)]
pub struct PolicyCtx {
    /// General-purpose fused evaluator (threshold pass, optimal DFS,
    /// queue-tail chains, ordered mappers).
    pub eval: ChainEvaluator,
    /// Probe evaluator pricing the Eq (8) drop-future windows.
    pub probe: ChainEvaluator,
    /// Lazily-extended baseline chain of the Eq (8) droppers.
    pub baseline: LazyChain,
    /// The keyed PET×tail cache.
    pub tails: TailCache,
}

impl PolicyCtx {
    /// A fresh context with empty scratch and a cold cache.
    #[must_use]
    pub fn new() -> Self {
        PolicyCtx::default()
    }

    /// The cache hit/miss counters so far.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.tails.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_lookup_hits_only_on_full_key_match() {
        let mut cache = TailCache::new();
        let base = Pmf::point(10);
        let tail = Pmf::point(30);
        assert!(cache.lookup_tail(2, 1, &base, Compaction::None).is_none());
        cache.store_tail(2, 1, base.clone(), Compaction::None, tail.clone());
        assert_eq!(cache.lookup_tail(2, 1, &base, Compaction::None), Some(tail.clone()));
        // Revision, base or compaction drift each miss.
        assert!(cache.lookup_tail(2, 2, &base, Compaction::None).is_none());
        assert!(cache.lookup_tail(2, 1, &Pmf::point(11), Compaction::None).is_none());
        assert!(cache.lookup_tail(2, 1, &base, Compaction::BinWidth(4)).is_none());
        // Unknown machine misses without panicking.
        assert!(cache.lookup_tail(9, 1, &base, Compaction::None).is_none());
        let stats = cache.stats();
        assert_eq!((stats.tail_hits, stats.tail_misses), (1, 5));
    }

    #[test]
    fn verdict_lookup_hits_only_on_full_key_match() {
        let mut cache = TailCache::new();
        let base = Pmf::point(10);
        let ctx = DropContext::plain(Compaction::None);
        assert!(!cache.lookup_verdict(2, 1, &base, &ctx));
        cache.store_verdict(2, 1, base.clone(), ctx);
        assert!(cache.lookup_verdict(2, 1, &base, &ctx));
        // Revision, base, pressure or compaction drift each miss.
        assert!(!cache.lookup_verdict(2, 2, &base, &ctx));
        assert!(!cache.lookup_verdict(2, 1, &Pmf::point(11), &ctx));
        assert!(!cache.lookup_verdict(2, 1, &base, &DropContext { pressure: 0.5, ..ctx }));
        assert!(!cache.lookup_verdict(2, 1, &base, &DropContext::plain(Compaction::BinWidth(4))));
        // Unknown machine misses without panicking; clear forgets verdicts.
        assert!(!cache.lookup_verdict(9, 1, &base, &ctx));
        cache.clear();
        assert!(!cache.lookup_verdict(2, 1, &base, &ctx));
        let stats = cache.stats();
        assert_eq!((stats.verdict_hits, stats.verdict_misses), (1, 7));
        assert_eq!(stats.lookups(), 8);
    }

    #[test]
    fn conv_is_cached_per_inputs_and_bit_identical() {
        let mut cache = TailCache::new();
        let tail = Pmf::from_impulses(vec![(10, 0.5), (20, 0.5)]).unwrap();
        let exec = Pmf::from_impulses(vec![(5, 0.25), (9, 0.75)]).unwrap();
        let fresh = tail.convolve(&exec);
        let first = cache.conv(1, 0, 3, &tail, &exec).clone();
        let again = cache.conv(1, 0, 3, &tail, &exec).clone();
        assert_eq!(first, fresh);
        assert_eq!(again, fresh);
        let stats = cache.stats();
        assert_eq!((stats.conv_hits, stats.conv_misses), (1, 1));
        // A different tail in the same slot recomputes.
        let moved = Pmf::point(40);
        let recomputed = cache.conv(1, 0, 3, &moved, &exec).clone();
        assert_eq!(recomputed, moved.convolve(&exec));
        assert_eq!(cache.stats().conv_misses, 2);
    }

    #[test]
    fn conv_stride_change_drops_the_table() {
        let mut cache = TailCache::new();
        let tail = Pmf::point(10);
        let exec = Pmf::point(5);
        let _ = cache.conv(0, 1, 4, &tail, &exec);
        // Same (machine, type) under a different stride must not alias.
        let _ = cache.conv(0, 1, 2, &tail, &exec);
        assert_eq!(cache.stats().conv_misses, 2);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let mut cache = TailCache::new();
        let base = Pmf::point(1);
        cache.store_tail(0, 0, base.clone(), Compaction::None, Pmf::point(2));
        assert!(cache.lookup_tail(0, 0, &base, Compaction::None).is_some());
        cache.clear();
        assert!(cache.lookup_tail(0, 0, &base, Compaction::None).is_none());
        let stats = cache.stats();
        assert_eq!((stats.tail_hits, stats.tail_misses), (1, 1));
        assert_eq!(stats.lookups(), 2);
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
