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
    ///
    /// # Panics
    ///
    /// Panics if [`Compaction::check_settings`] refuses the policy.
    #[must_use]
    pub fn apply(self, pmf: &Pmf) -> Pmf {
        let mut out: Vec<Impulse> = Vec::with_capacity(pmf.len());
        self.apply_into(&pmf.impulses, &mut out);
        Pmf::from_sorted_unchecked(out)
    }

    /// Checks the conditions [`Compaction::apply`] needs: `MaxImpulses`
    /// keeps at least 2 impulses and `BinWidth` is at least 1 tick wide. A
    /// policy decoded from a file has not been checked yet.
    ///
    /// # Errors
    ///
    /// The broken condition, in words.
    pub fn check_settings(self) -> Result<(), &'static str> {
        match self {
            Compaction::MaxImpulses(max) if max < 2 => Err("MaxImpulses requires max >= 2"),
            Compaction::BinWidth(0) => Err("BinWidth requires width >= 1"),
            _ => Ok(()),
        }
    }

    /// Buffer-reusing twin of [`Compaction::apply`]: compacts the sorted,
    /// coalesced `raw` impulses into `out` (cleared first). The sparse
    /// fallback of the chain kernel ([`crate::ChainEvaluator`]) compacts
    /// through it, and it is the reference [`Compaction::apply_cells_into`]
    /// is held to.
    ///
    /// # Panics
    ///
    /// Panics if [`Compaction::check_settings`] refuses the policy.
    pub(crate) fn apply_into(self, raw: &[Impulse], out: &mut Vec<Impulse>) {
        assert_eq!(self.check_settings(), Ok(()), "invalid compaction");
        match self {
            Compaction::None => copy_into(raw, out),
            Compaction::MaxImpulses(max) => {
                if raw.len() <= max {
                    return copy_into(raw, out);
                }
                let lo = raw[0].t;
                let hi = raw[raw.len() - 1].t;
                // ceil((hi - lo + 1) / max) guarantees at most `max` bins;
                // this form of it cannot overflow on a span of every tick.
                let width = (hi - lo) / max as Tick + 1;
                rebin_into(raw, width, out);
            }
            Compaction::BinWidth(width) => {
                if width == 1 {
                    return copy_into(raw, out);
                }
                rebin_into(raw, width, out);
            }
        }
    }

    /// Compacts the impulses a dense accumulator holds straight into `out`
    /// (cleared first), bit for bit as [`Compaction::apply_into`] compacts
    /// them: cell `k` of `cells` holds the mass at tick `lo + k`, and the
    /// impulses are the non-empty cells in tick order. Every cell must be
    /// `+0.0` or positive, `cells` no longer than
    /// [`crate::DENSE_SPAN_LIMIT`], and `lo + cells.len() - 1` a tick.
    ///
    /// A bin is a fixed run of `width` cells from the first non-empty one,
    /// so no division finds it, and its mass and moment sum every cell of
    /// the run in tick order: an empty cell adds `+0.0` to both, which
    /// changes neither, so a bin sums the same impulses in the same order
    /// as [`rebin_into`] does.
    ///
    /// # Panics
    ///
    /// Panics if [`Compaction::check_settings`] refuses the policy.
    pub(crate) fn apply_cells_into(self, cells: &[f64], lo: Tick, out: &mut Vec<Impulse>) {
        assert_eq!(self.check_settings(), Ok(()), "invalid compaction");
        debug_assert!(cells.len() as u64 <= crate::DENSE_SPAN_LIMIT, "a dense span");
        out.clear();
        let filled = |p: &f64| *p > 0.0;
        let (Some(first), Some(last)) =
            (cells.iter().position(filled), cells.iter().rposition(filled))
        else {
            return;
        };
        let cells = cells.get(first..=last).unwrap_or_default();
        let lo = lo + first as Tick;
        // A width of one cell keeps every impulse as it is.
        let width = match self {
            Compaction::None => 1,
            Compaction::MaxImpulses(max) if cells.iter().filter(|p| filled(p)).count() <= max => 1,
            // As in `apply_into`: the span of the non-empty cells over `max`.
            Compaction::MaxImpulses(max) => (cells.len() - 1) / max + 1,
            Compaction::BinWidth(width) => usize::try_from(width).unwrap_or(usize::MAX),
        };
        if width == 1 {
            let kept = (0u32..).zip(cells).filter(|(_, p)| filled(p));
            out.extend(kept.map(|(off, &p)| Impulse { t: lo + Tick::from(off), p }));
        } else {
            rebin_cells(cells, lo, width.min(cells.len()), out);
        }
    }
}

/// The bins of [`Compaction::apply_cells_into`]: runs of `width` cells
/// (at most the span) from `lo`, each collapsed to its mass-weighted mean
/// tick as [`rebin_into`] collapses a bin. Offsets stay below
/// [`crate::DENSE_SPAN_LIMIT`], so a `u32` holds them and converts to
/// `f64` exactly in one instruction, where a `u64` takes several.
fn rebin_cells(cells: &[f64], lo: Tick, width: usize, out: &mut Vec<Impulse>) {
    let mut start = 0u32;
    for bin in cells.chunks(width) {
        let (mut mass, mut moment) = (0.0f64, 0.0f64);
        for (off, &p) in (start..).zip(bin) {
            mass += p;
            moment += f64::from(off) * p;
        }
        if mass > 0.0 {
            let mean_off = Tick::from(round_offset(moment / mass));
            out.push(Impulse { t: lo.saturating_add(mean_off), p: mass });
        }
        start += width as u32;
    }
}

/// `q.round() as u32` for `0 ≤ q < 2³¹`, without a libm call: the
/// truncation, plus one when the fraction it drops is at least a half
/// (`round` takes a half away from zero). The fraction `q − t` is exact,
/// since both are multiples of `q`'s last place and it is below 1.
fn round_offset(q: f64) -> u32 {
    debug_assert!((0.0..2_147_483_648.0).contains(&q), "an offset within the span");
    let t = q as u32;
    t + u32::from(q - f64::from(t) >= 0.5)
}

fn copy_into(raw: &[Impulse], out: &mut Vec<Impulse>) {
    out.clear();
    out.extend_from_slice(raw);
}

/// Merges impulses into bins of `width` ticks anchored at the support
/// minimum; each bin collapses to its mass-weighted mean tick (rounded to the
/// nearest tick, which stays inside the bin). Writes into `out` (cleared
/// first).
///
/// A bin's index is `(t - lo) / width`, but the division runs only when a
/// tick passes the current bin's last tick: ticks ascend, so every tick up
/// to that one shares the bin, and the grouping is the one a division per
/// impulse gives. The last tick saturates at `Tick::MAX`, where the bin's
/// end lies past the tick range.
fn rebin_into(raw: &[Impulse], width: Tick, out: &mut Vec<Impulse>) {
    out.clear();
    let Some(first) = raw.first() else {
        return;
    };
    let lo = first.t;
    let mut bin_last = lo.saturating_add(width - 1);
    let mut bin_mass = 0.0f64;
    let mut bin_moment = 0.0f64; // sum of (t - lo) * p, kept small for accuracy
    let flush = |out: &mut Vec<Impulse>, mass: f64, moment: f64| {
        if mass > 0.0 {
            let mean_off = (moment / mass).round() as Tick;
            out.push(Impulse { t: lo.saturating_add(mean_off), p: mass });
        }
    };
    for i in raw {
        if i.t > bin_last {
            flush(out, bin_mass, bin_moment);
            let bin_first = i.t - (i.t - lo) % width;
            bin_last = bin_first.saturating_add(width - 1);
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
    fn a_bin_mean_on_a_half_rounds_up_from_the_cells_as_from_the_impulses() {
        // Ticks 10 and 11 share a bin with equal mass: its mean offset is
        // exactly 0.5, which `round` takes up to tick 11.
        let raw = Pmf::from_impulses(vec![(10, 0.25), (11, 0.25), (14, 0.5)]).unwrap();
        let compacted = Compaction::BinWidth(2).apply(&raw);
        assert_eq!(compacted.to_pairs(), vec![(11, 0.5), (14, 0.5)]);
        let mut out = Vec::new();
        Compaction::BinWidth(2).apply_cells_into(&[0.25, 0.25, 0.0, 0.0, 0.5], 10, &mut out);
        assert_eq!(out, compacted.impulses);
        let below_halves = [0.5 - f64::EPSILON / 4.0, 2.5 - 2.0 * f64::EPSILON];
        for q in [0.0, 0.5, 1.5, 2.5, 65_535.5].into_iter().chain(below_halves) {
            assert_eq!(f64::from(round_offset(q)), q.round(), "q = {q}");
        }
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
    fn max_impulses_spans_the_whole_tick_range() {
        let p = Pmf::from_impulses(vec![(0, 0.25), (1, 0.25), (Tick::MAX, 0.5)]).unwrap();
        let c = Compaction::MaxImpulses(2).apply(&p);
        assert_eq!(c.to_pairs(), vec![(1, 0.5), (Tick::MAX, 0.5)]);
    }

    #[test]
    fn default_is_64_impulses() {
        assert_eq!(Compaction::default(), Compaction::MaxImpulses(64));
    }
}
