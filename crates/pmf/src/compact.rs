//! Impulse-count compaction.
//!
//! Section IV-F of the paper notes that convolving PMFs with `|N1|` and
//! `|N2|` impulses can yield up to `|N1|·|N2|` impulses, so completion-time
//! PMFs grow along a machine queue. The paper's simulator keeps this in check
//! through histogram discretisation; we make the policy explicit and
//! configurable. The test `compaction_error_falls_as_the_cap_grows` in
//! `crates/model/src/queue.rs` pins what each cap costs in accuracy.
//!
//! Compaction merges nearby impulses into their mass-weighted mean tick:
//! total mass is preserved *exactly* (same summation order), and the mean
//! moves by at most half a tick per merged bin (rounding of the weighted
//! mean). Deadline queries (`mass_before`) can move by at most the mass that
//! sat within one bin width of the deadline.

use crate::pmf::{Impulse, Pmf};
use crate::Tick;

/// Policy limiting the number of impulses a PMF may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Compaction {
    /// Never merge impulses (exact, exponential growth along queues).
    None,
    /// Rebin so at most `max` impulses remain (bin width derived from the
    /// support span). `max` must be at least 2.
    MaxImpulses(usize),
    /// Merge impulses into fixed-width bins of `width` ticks. `width` must be
    /// at least 1 (1 is a no-op since ticks are integers).
    BinWidth(Tick),
}

impl Default for Compaction {
    /// 64 impulses: the paper reports impulse counts in practice stay far
    /// below the worst case; 64 keeps deadline-mass error negligible for the
    /// 50–200 ms execution-time scale while bounding convolution cost.
    fn default() -> Self {
        Compaction::MaxImpulses(64)
    }
}

impl Compaction {
    /// Applies the policy to `pmf`, returning a possibly-smaller PMF.
    #[must_use]
    pub fn apply(self, pmf: &Pmf) -> Pmf {
        let mut out: Vec<Impulse> = Vec::with_capacity(pmf.len());
        self.apply_into(&pmf.impulses, &mut out);
        Pmf::from_sorted_unchecked(out)
    }

    /// Buffer-reusing twin of [`Compaction::apply`]: compacts the sorted,
    /// coalesced `raw` impulses into `out` (cleared first). Shared by the
    /// fused chain kernel ([`crate::ChainScratch`]) so the fused and naive
    /// paths compact with bit-identical arithmetic.
    pub(crate) fn apply_into(self, raw: &[Impulse], out: &mut Vec<Impulse>) {
        match self {
            Compaction::None => copy_into(raw, out),
            Compaction::MaxImpulses(max) => {
                assert!(max >= 2, "MaxImpulses requires max >= 2");
                if raw.len() <= max {
                    return copy_into(raw, out);
                }
                let lo = raw[0].t;
                let hi = raw[raw.len() - 1].t;
                let span = hi - lo + 1;
                // ceil(span / max) guarantees at most `max` bins.
                let width = span.div_ceil(max as Tick).max(1);
                rebin_into(raw, width, out);
            }
            Compaction::BinWidth(width) => {
                assert!(width >= 1, "BinWidth requires width >= 1");
                if width == 1 {
                    return copy_into(raw, out);
                }
                rebin_into(raw, width, out);
            }
        }
    }
}

fn copy_into(raw: &[Impulse], out: &mut Vec<Impulse>) {
    out.clear();
    out.extend_from_slice(raw);
}

/// Merges impulses into bins of `width` ticks anchored at the support
/// minimum; each bin collapses to its mass-weighted mean tick (rounded to the
/// nearest tick, which stays inside the bin). Writes into `out` (cleared
/// first).
fn rebin_into(raw: &[Impulse], width: Tick, out: &mut Vec<Impulse>) {
    out.clear();
    let Some(first) = raw.first() else {
        return;
    };
    let lo = first.t;
    let mut bin_idx: Tick = 0;
    let mut bin_mass = 0.0f64;
    let mut bin_moment = 0.0f64; // sum of (t - lo) * p, kept small for accuracy
    let flush = |out: &mut Vec<Impulse>, mass: f64, moment: f64| {
        if mass > 0.0 {
            let mean_off = (moment / mass).round() as Tick;
            out.push(Impulse { t: lo + mean_off, p: mass });
        }
    };
    for i in raw {
        let idx = (i.t - lo) / width;
        if idx != bin_idx {
            flush(out, bin_mass, bin_moment);
            bin_idx = idx;
            bin_mass = 0.0;
            bin_moment = 0.0;
        }
        bin_mass += i.p;
        bin_moment += (i.t - lo) as f64 * i.p;
    }
    flush(out, bin_mass, bin_moment);
    // Rounding the weighted mean keeps ticks inside their (half-open) bins,
    // and bins are processed in order, so the result is sorted and unique.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn none_is_identity() {
        let p = Pmf::uniform(0, 99);
        assert_eq!(Compaction::None.apply(&p), p);
    }

    #[test]
    fn under_limit_is_identity() {
        let p = Pmf::uniform(0, 9);
        assert_eq!(Compaction::MaxImpulses(10).apply(&p), p);
    }

    #[test]
    fn max_impulses_respects_limit() {
        let p = Pmf::uniform(0, 999);
        for max in [2, 4, 16, 64, 500] {
            let c = Compaction::MaxImpulses(max).apply(&p);
            assert!(c.len() <= max, "max={max} got {}", c.len());
        }
    }

    #[test]
    fn compaction_preserves_mass_exactly_for_uniform() {
        let p = Pmf::uniform(0, 999);
        let c = Compaction::MaxImpulses(16).apply(&p);
        assert!((c.total_mass() - p.total_mass()).abs() < 1e-12);
    }

    #[test]
    fn compaction_preserves_mean_approximately() {
        let p = Pmf::uniform(100, 1099);
        let c = Compaction::MaxImpulses(8).apply(&p);
        let err = (c.mean().unwrap() - p.mean().unwrap()).abs();
        assert!(err <= 0.5, "mean moved by {err}");
    }

    #[test]
    fn bin_width_merges_neighbors() {
        let p = Pmf::from_impulses(vec![(10, 0.25), (11, 0.25), (20, 0.5)]).unwrap();
        let c = Compaction::BinWidth(5).apply(&p);
        // 10 and 11 share a bin; weighted mean is 10.5 -> rounds to 10 or 11.
        assert_eq!(c.len(), 2);
        assert!(close(c.total_mass(), 1.0));
        let first = c.iter().next().unwrap();
        assert!(first.t == 10 || first.t == 11);
        assert!(close(first.p, 0.5));
    }

    #[test]
    fn bin_width_one_is_identity() {
        let p = Pmf::uniform(3, 8);
        assert_eq!(Compaction::BinWidth(1).apply(&p), p);
    }

    #[test]
    fn empty_stays_empty() {
        assert!(Compaction::MaxImpulses(4).apply(&Pmf::empty()).is_empty());
        assert!(Compaction::BinWidth(10).apply(&Pmf::empty()).is_empty());
    }

    #[test]
    fn point_mass_unchanged() {
        let p = Pmf::point(1234);
        assert_eq!(Compaction::MaxImpulses(2).apply(&p), p);
        assert_eq!(Compaction::BinWidth(100).apply(&p), p);
    }

    #[test]
    fn default_is_64_impulses() {
        assert_eq!(Compaction::default(), Compaction::MaxImpulses(64));
    }
}
