//! Convolution, shifting and mixing of PMFs.

use crate::pmf::{Impulse, Pmf};
use crate::Tick;

/// Span threshold below which convolution accumulates into a dense buffer.
///
/// A dense accumulation costs `O(span + n*m)` with perfect cache behaviour; a
/// sparse accumulation costs `O(n*m log(n*m))`. For the queue-length and
/// impulse-count regimes of the simulator (spans of a few thousand ticks) the
/// dense path is almost always selected. The same split drives the fused
/// chain kernel ([`crate::ChainEvaluator`]), so both paths stay bit-identical.
pub const DENSE_SPAN_LIMIT: u64 = 1 << 16;

/// Capacity hint for buffers holding up to `a * b` raw products: saturating
/// (a 32-bit host must not overflow `usize`) and capped so a pathological
/// impulse-count product cannot trigger a giant up-front allocation — the
/// buffer grows organically past the cap instead.
pub(crate) fn product_capacity(a: usize, b: usize) -> usize {
    a.saturating_mul(b).min(1 << 20)
}

impl Pmf {
    /// Convolution: the distribution of `X + Y` for independent `X ~ self`,
    /// `Y ~ other`.
    ///
    /// Total mass multiplies: convolving two sub-distributions yields a
    /// sub-distribution. Convolving with the empty PMF yields the empty PMF.
    /// A sum past `Tick::MAX` is pinned at `Tick::MAX`, which no deadline
    /// precedes.
    #[must_use]
    pub fn convolve(&self, other: &Pmf) -> Pmf {
        if self.is_empty() || other.is_empty() {
            return Pmf::empty();
        }
        // Convolve the smaller outer loop over the larger inner loop.
        let (a, b) = (&self.impulses, &other.impulses);
        let lo = a[0].t.saturating_add(b[0].t);
        match a[a.len() - 1].t.checked_add(b[b.len() - 1].t) {
            Some(hi) if hi - lo < DENSE_SPAN_LIMIT => {
                convolve_dense(a, b, lo, (hi - lo) as usize + 1)
            }
            _ => convolve_sparse(a, b),
        }
    }

    /// Shifts every impulse `delta` ticks later: the distribution of
    /// `X + delta`. Ticks past `Tick::MAX` are pinned there and coalesce.
    #[must_use]
    pub fn shift(&self, delta: Tick) -> Pmf {
        if self.support_max().is_none_or(|hi| hi.checked_add(delta).is_some()) {
            return Pmf::from_sorted_unchecked(
                self.impulses.iter().map(|i| Impulse { t: i.t + delta, p: i.p }).collect(),
            );
        }
        coalesce(self.impulses.iter().map(|i| (i.t.saturating_add(delta), i.p)).collect())
    }

    /// The distribution of `max(1, round(factor · X))`: every impulse's tick
    /// is scaled by `factor`, colliding ticks coalesce. Models *approximate
    /// computing*: a degraded task variant that runs in a fraction of the
    /// full execution time (the paper's future-work extension).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[must_use]
    pub fn time_scale(&self, factor: f64) -> Pmf {
        assert!(factor.is_finite() && factor > 0.0, "time scale factor must be > 0");
        let pairs: Vec<(Tick, f64)> = self
            .impulses
            .iter()
            .map(|i| (((i.t as f64 * factor).round() as Tick).max(1), i.p))
            .collect();
        coalesce(pairs)
    }

    /// The distribution of `min(X, cap)`: all mass at or beyond `cap`
    /// collapses onto a single impulse at `cap`. Models an execution that is
    /// forcibly terminated at `cap` (e.g. a running task killed at its
    /// deadline): the machine frees no later than `cap`.
    #[must_use]
    pub fn clamp_max(&self, cap: Tick) -> Pmf {
        let idx = self.impulses.partition_point(|i| i.t < cap);
        let tail_mass: f64 = self.impulses[idx..].iter().map(|i| i.p).sum();
        let mut impulses: Vec<Impulse> = self.impulses[..idx].to_vec();
        if tail_mass > 0.0 {
            impulses.push(Impulse { t: cap, p: tail_mass });
        }
        Pmf::from_sorted_unchecked(impulses)
    }

    /// Weighted mixture of PMFs: `sum_k w_k * pmf_k`.
    ///
    /// Weights must be non-negative and finite; they are *not* renormalised,
    /// so the caller controls the output mass (weights summing to 1 applied
    /// to normalised PMFs yield a normalised PMF).
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    #[must_use]
    pub fn mixture(parts: &[(f64, &Pmf)]) -> Pmf {
        let mut pairs: Vec<(Tick, f64)> = Vec::new();
        for &(w, pmf) in parts {
            assert!(w.is_finite() && w >= 0.0, "mixture weight must be finite and >= 0");
            if w == 0.0 {
                continue;
            }
            pairs.extend(pmf.impulses.iter().map(|i| (i.t, i.p * w)));
        }
        coalesce(pairs)
    }
}

fn convolve_dense(a: &[Impulse], b: &[Impulse], lo: Tick, span: usize) -> Pmf {
    let mut acc = vec![0.0f64; span];
    // Iterate the shorter slice outermost so the inner loop streams linearly.
    let (outer, inner) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    for oi in outer {
        let base = oi.t;
        let p = oi.p;
        for ii in inner {
            let idx = (base + ii.t - lo) as usize;
            acc[idx] += p * ii.p;
        }
    }
    let impulses: Vec<Impulse> = acc
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p > 0.0)
        .map(|(off, &p)| Impulse { t: lo + off as Tick, p })
        .collect();
    Pmf::from_sorted_unchecked(impulses)
}

/// Extends `sums` to the running sums of cells `[0, to)` of the dense
/// accumulator that [`Pmf::convolve`] fills for `a ⊛ b`, where cell `k`
/// holds the mass at tick `lo + k` and `lo` is the sum of the two lowest
/// ticks. `sums` must already hold this pair's first `sums.len()` running
/// sums (none to start); only the cells after them are accumulated. Cells
/// past the span hold no mass, and an empty input leaves `sums` as is.
///
/// Eq 2 reads only the mass before one deadline, so a caller can stop at
/// the deadline's cell and extend later. When the span is within
/// [`DENSE_SPAN_LIMIT`], `sums[k - 1]` has the bits of
/// `a.convolve(b).mass_before(lo + k)`: the outer loop is picked as in
/// `convolve_dense`, so every cell gets the same products in the same
/// order, and the sum runs in tick order from `-0.0` as `mass_before`'s
/// does. The zero cells that `convolve` drops change nothing: one added
/// to a positive sum leaves it as it is, and one added to `-0.0` gives
/// the `0.0` that `mass_before`'s final `+ 0.0` gives an empty sum. Past
/// the limit `convolve` coalesces in an order that depends on every
/// pair, so the identity does not hold there.
///
/// The products of one outer impulse that land in `[from, to)` are a
/// contiguous run of the inner impulses, and both ends of that run only
/// move down as the outer tick rises. So the ends are walked down, in
/// `O(|inner|)` steps over the whole call, instead of searched per outer
/// impulse.
pub fn extend_convolution_sums(a: &Pmf, b: &Pmf, to: usize, sums: &mut Vec<f64>) {
    let from = sums.len();
    let (outer, inner) =
        if a.len() <= b.len() { (&a.impulses, &b.impulses) } else { (&b.impulses, &a.impulses) };
    let (Some(o0), Some(i0)) = (outer.first(), inner.first()) else {
        return;
    };
    if to <= from {
        return;
    }
    sums.resize(to, 0.0);
    // Cell of an (outer, inner) pair: its tick minus `lo`.
    let cell = |o: &Impulse, i: &Impulse| (o.t - o0.t + (i.t - i0.t)) as usize;
    // The row's run `[first, end)`. Each end steps down over the inner
    // impulses whose cell is at or past its bound. With nothing summed yet
    // (a re-keyed slot) no cell is below `from`, so `first` stays at 0.
    let mut first = if from == 0 { 0 } else { inner.len() };
    let mut end = inner.len();
    for o in outer {
        if cell(o, i0) >= to {
            break;
        }
        while first > 0 && inner.get(first - 1).is_some_and(|i| cell(o, i) >= from) {
            first -= 1;
        }
        while end > first && inner.get(end - 1).is_some_and(|i| cell(o, i) >= to) {
            end -= 1;
        }
        for i in inner.get(first..end).unwrap_or_default() {
            if let Some(c) = sums.get_mut(cell(o, i)) {
                *c += o.p * i.p;
            }
        }
    }
    let mut run = from.checked_sub(1).and_then(|k| sums.get(k)).copied().unwrap_or(-0.0);
    for c in sums.iter_mut().skip(from) {
        run += *c;
        *c = run;
    }
}

/// Running sums of `pmf`'s masses in tick order, into `sums` (cleared
/// first): `sums[k]` is the mass of the first `k + 1` impulses. The input
/// [`convolved_mass_before`] reads its `tail` through.
pub fn running_masses(pmf: &Pmf, sums: &mut Vec<f64>) {
    sums.clear();
    let mut run = 0.0f64;
    sums.extend(pmf.impulses.iter().map(|i| {
        run += i.p;
        run
    }));
}

/// The mass of `tail ⊛ exec` before `deadline`, summed by execution tick:
/// `Σ_j q_j · P(tail < deadline − e_j)` over the impulses `(e_j, q_j)` of
/// `exec`, where `tail_sums` is [`running_masses`] of `tail`.
///
/// In exact arithmetic this is `tail.convolve(exec).mass_before(deadline)`.
/// The two add the same non-negative products in different orders, so they
/// differ by rounding alone: each is within [`crate::ROUNDING_MARGIN`] of the
/// other relatively, plus `f64::EPSILON` absolutely (the slack for
/// subnormal products). It costs `O(|exec| + |tail|)`: the cut
/// `deadline − e_j` falls as `e_j` rises, so one index walks the tail down,
/// and an execution tick at or past the deadline ends the sum.
pub fn convolved_mass_before(tail: &Pmf, tail_sums: &[f64], exec: &Pmf, deadline: Tick) -> f64 {
    let mut cut = tail.impulses.len();
    let mut sum = 0.0f64;
    for e in &exec.impulses {
        let Some(limit) = deadline.checked_sub(e.t) else {
            break;
        };
        while cut > 0 && tail.impulses.get(cut - 1).is_some_and(|i| i.t >= limit) {
            cut -= 1;
        }
        match cut.checked_sub(1).and_then(|k| tail_sums.get(k)) {
            Some(&before) => sum += e.p * before,
            None => break,
        }
    }
    sum
}

/// The sort-and-merge convolution. Sums past `Tick::MAX` saturate.
fn convolve_sparse(a: &[Impulse], b: &[Impulse]) -> Pmf {
    let mut pairs: Vec<(Tick, f64)> = Vec::with_capacity(product_capacity(a.len(), b.len()));
    for ai in a {
        for bi in b {
            pairs.push((ai.t.saturating_add(bi.t), ai.p * bi.p));
        }
    }
    coalesce(pairs)
}

/// Forces the dense convolution path regardless of span. Exposed for the
/// cross-validation property tests and benchmarks; production code should
/// call [`Pmf::convolve`], which picks the path by [`DENSE_SPAN_LIMIT`].
#[doc(hidden)]
#[must_use]
pub fn convolve_dense_forced(a: &Pmf, b: &Pmf) -> Pmf {
    if a.is_empty() || b.is_empty() {
        return Pmf::empty();
    }
    let (a, b) = (&a.impulses, &b.impulses);
    let lo = a[0].t + b[0].t;
    let hi = a[a.len() - 1].t + b[b.len() - 1].t;
    convolve_dense(a, b, lo, (hi - lo + 1) as usize)
}

/// Forces the sparse convolution path regardless of span. Exposed for the
/// cross-validation property tests and benchmarks; production code should
/// call [`Pmf::convolve`], which picks the path by [`DENSE_SPAN_LIMIT`].
#[doc(hidden)]
#[must_use]
pub fn convolve_sparse_forced(a: &Pmf, b: &Pmf) -> Pmf {
    if a.is_empty() || b.is_empty() {
        return Pmf::empty();
    }
    convolve_sparse(&a.impulses, &b.impulses)
}

/// Sorts `(tick, mass)` pairs and merges equal ticks into a valid `Pmf`.
pub(crate) fn coalesce(mut pairs: Vec<(Tick, f64)>) -> Pmf {
    let mut impulses: Vec<Impulse> = Vec::with_capacity(pairs.len());
    coalesce_into(&mut pairs, &mut impulses);
    Pmf::from_sorted_unchecked(impulses)
}

/// Buffer-reusing workhorse of [`coalesce`]: sorts `pairs` in place and
/// merges equal ticks into `out` (cleared first), leaving `pairs` empty.
/// Shared by the sparse fallback of the fused chain kernel.
pub(crate) fn coalesce_into(pairs: &mut Vec<(Tick, f64)>, out: &mut Vec<Impulse>) {
    pairs.sort_unstable_by_key(|&(t, _)| t);
    out.clear();
    for &(t, p) in pairs.iter() {
        if p <= 0.0 {
            continue;
        }
        match out.last_mut() {
            Some(last) if last.t == t => last.p += p,
            _ => out.push(Impulse { t, p }),
        }
    }
    pairs.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn convolve_points_adds_ticks() {
        let p = Pmf::point(3).convolve(&Pmf::point(4));
        assert_eq!(p.to_pairs(), vec![(7, 1.0)]);
    }

    #[test]
    fn convolve_uniforms_triangle() {
        // U{0,1} * U{0,1} = {0: .25, 1: .5, 2: .25}
        let u = Pmf::uniform(0, 1);
        let c = u.convolve(&u);
        assert!(close(c.at(0), 0.25));
        assert!(close(c.at(1), 0.5));
        assert!(close(c.at(2), 0.25));
    }

    #[test]
    fn convolve_commutes() {
        let a = Pmf::from_impulses(vec![(1, 0.3), (5, 0.7)]).unwrap();
        let b = Pmf::from_impulses(vec![(2, 0.5), (3, 0.25), (10, 0.25)]).unwrap();
        assert_eq!(a.convolve(&b), b.convolve(&a));
    }

    #[test]
    fn convolve_preserves_mass_product() {
        let a = Pmf::from_impulses(vec![(1, 0.4), (2, 0.4)]).unwrap(); // mass 0.8
        let b = Pmf::from_impulses(vec![(3, 0.5)]).unwrap(); // mass 0.5
        let c = a.convolve(&b);
        assert!(close(c.total_mass(), 0.4));
    }

    #[test]
    fn convolve_mean_is_additive() {
        let a = Pmf::from_impulses(vec![(1, 0.25), (3, 0.75)]).unwrap();
        let b = Pmf::uniform(10, 14);
        let c = a.convolve(&b);
        let mean_sum = a.mean().unwrap() + b.mean().unwrap();
        assert!(close(c.mean().unwrap(), mean_sum));
    }

    #[test]
    fn convolve_with_empty_is_empty() {
        let a = Pmf::uniform(1, 5);
        assert!(a.convolve(&Pmf::empty()).is_empty());
        assert!(Pmf::empty().convolve(&a).is_empty());
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        let a = Pmf::from_impulses(vec![(0, 0.2), (100, 0.3), (250, 0.5)]).unwrap();
        let b = Pmf::from_impulses(vec![(5, 0.6), (90, 0.4)]).unwrap();
        let dense = convolve_dense(&a.impulses, &b.impulses, 5, 341);
        let sparse = convolve_sparse(&a.impulses, &b.impulses);
        assert_eq!(dense.len(), sparse.len());
        for (d, s) in dense.iter().zip(sparse.iter()) {
            assert_eq!(d.t, s.t);
            assert!(close(d.p, s.p));
        }
    }

    #[test]
    fn shift_moves_support() {
        let p = Pmf::uniform(2, 4).shift(10);
        assert_eq!(p.support_min(), Some(12));
        assert_eq!(p.support_max(), Some(14));
        assert!(p.is_normalized());
    }

    #[test]
    fn mixture_weighted() {
        let a = Pmf::point(1);
        let b = Pmf::point(2);
        let m = Pmf::mixture(&[(0.25, &a), (0.75, &b)]);
        assert!(close(m.at(1), 0.25));
        assert!(close(m.at(2), 0.75));
        assert!(m.is_normalized());
    }

    #[test]
    fn mixture_overlapping_support_coalesces() {
        let a = Pmf::from_impulses(vec![(1, 0.5), (2, 0.5)]).unwrap();
        let b = Pmf::from_impulses(vec![(2, 1.0)]).unwrap();
        let m = Pmf::mixture(&[(0.5, &a), (0.5, &b)]);
        assert!(close(m.at(2), 0.75));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn mixture_zero_weight_skipped() {
        let a = Pmf::point(1);
        let m = Pmf::mixture(&[(0.0, &a), (1.0, &a)]);
        assert_eq!(m.to_pairs(), vec![(1, 1.0)]);
    }

    #[test]
    fn time_scale_halves_ticks() {
        let p = Pmf::from_impulses(vec![(10, 0.5), (20, 0.5)]).unwrap();
        let s = p.time_scale(0.5);
        assert_eq!(s.to_pairs(), vec![(5, 0.5), (10, 0.5)]);
        assert!(close(s.mean().unwrap(), p.mean().unwrap() * 0.5));
    }

    #[test]
    fn time_scale_coalesces_collisions() {
        let p = Pmf::from_impulses(vec![(10, 0.5), (11, 0.5)]).unwrap();
        let s = p.time_scale(0.1);
        // Both round to 1 and merge; mass conserved.
        assert_eq!(s.to_pairs(), vec![(1, 1.0)]);
    }

    #[test]
    fn time_scale_clamps_to_one_tick() {
        let p = Pmf::point(2);
        assert_eq!(p.time_scale(0.01).to_pairs(), vec![(1, 1.0)]);
    }

    #[test]
    fn time_scale_identity() {
        let p = Pmf::uniform(5, 9);
        assert_eq!(p.time_scale(1.0), p);
    }

    #[test]
    fn clamp_max_collapses_tail() {
        let p = Pmf::from_impulses(vec![(5, 0.25), (10, 0.25), (15, 0.5)]).unwrap();
        let c = p.clamp_max(10);
        assert_eq!(c.to_pairs(), vec![(5, 0.25), (10, 0.75)]);
        assert!(close(c.total_mass(), 1.0));
        // Mass strictly before the cap is untouched.
        assert!(close(c.mass_before(10), p.mass_before(10)));
    }

    #[test]
    fn clamp_max_past_support_is_identity() {
        let p = Pmf::uniform(1, 5);
        assert_eq!(p.clamp_max(100), p);
    }

    #[test]
    fn clamp_max_before_support_is_point() {
        let p = Pmf::uniform(10, 20);
        let c = p.clamp_max(3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.support_min(), Some(3));
        assert!(close(c.total_mass(), 1.0));
    }

    #[test]
    fn forced_paths_agree_with_convolve() {
        let a = Pmf::uniform(0, 30);
        let b = Pmf::from_impulses(vec![(5, 0.25), (40, 0.75)]).unwrap();
        let auto = a.convolve(&b);
        let dense = convolve_dense_forced(&a, &b);
        let sparse = convolve_sparse_forced(&a, &b);
        assert_eq!(auto, dense);
        assert_eq!(dense.len(), sparse.len());
        for (d, s) in dense.iter().zip(sparse.iter()) {
            assert_eq!(d.t, s.t);
            assert!(close(d.p, s.p));
        }
        assert!(convolve_dense_forced(&Pmf::empty(), &a).is_empty());
        assert!(convolve_sparse_forced(&a, &Pmf::empty()).is_empty());
    }
}
