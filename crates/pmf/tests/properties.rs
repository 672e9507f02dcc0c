//! Property-based tests for the PMF toolkit.

use proptest::prelude::*;
use taskdrop_pmf::{
    chance_of_success, convolve_dense_forced, convolve_sparse_forced, convolved_mass_before,
    deadline_convolve, running_masses, ChainEvaluator, ChainTask, Compaction, Impulse, Pmf, Tick,
    DENSE_SPAN_LIMIT, ROUNDING_MARGIN,
};

const EPS: f64 = 1e-9;

/// Strategy: a normalised PMF with 1..=12 impulses on ticks 0..=500.
fn arb_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0u64..=500, 1u32..=1000), 1..=12).prop_map(|pairs| {
        let weights: Vec<(Tick, f64)> = pairs.into_iter().map(|(t, w)| (t, w as f64)).collect();
        Pmf::from_weights(weights).expect("positive weights")
    })
}

/// Strategy: a normalised PMF whose support can reach past
/// `DENSE_SPAN_LIMIT`, so convolutions straddle the dense/sparse split.
fn arb_wide_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0u64..=DENSE_SPAN_LIMIT + DENSE_SPAN_LIMIT / 4, 1u32..=1000), 1..=8)
        .prop_map(|pairs| {
            let weights: Vec<(Tick, f64)> = pairs.into_iter().map(|(t, w)| (t, w as f64)).collect();
            Pmf::from_weights(weights).expect("positive weights")
        })
}

/// Strategy: a sub-normalised PMF (mass in (0, 1]).
fn arb_sub_pmf() -> impl Strategy<Value = Pmf> {
    (arb_pmf(), 1u32..=100).prop_map(|(p, pct)| p.scale_mass(pct as f64 / 100.0))
}

/// Strategy: a sub-distribution whose masses mix ordinary values with
/// near-underflow (about 1e-165) and subnormal (about 1e-320) ones, so
/// some products round to zero and leave their accumulator cells empty.
fn arb_tiny_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0u64..=500, 1u32..=1000, 0u8..3), 1..=10).prop_map(|impulses| {
        let pairs = impulses
            .into_iter()
            .map(|(t, w, scale)| (t, w as f64 * [1e-4, 1e-165, 1e-320][scale as usize]))
            .collect();
        Pmf::from_impulses(pairs).expect("mass at most 1")
    })
}

/// Strategy: a cluster of impulses on ticks 0..=30 plus one past
/// `DENSE_SPAN_LIMIT`, so products collide often while the span takes the
/// sparse path, whose sort decides the order colliding products are
/// summed in.
fn arb_split_pmf() -> impl Strategy<Value = Pmf> {
    (
        prop::collection::vec((0u64..=30, 1u32..=1000), 2..=12),
        DENSE_SPAN_LIMIT..=DENSE_SPAN_LIMIT + 1_000,
        1u32..=1000,
    )
        .prop_map(|(cluster, far, w)| {
            let mut weights: Vec<(Tick, f64)> =
                cluster.into_iter().map(|(t, w)| (t, w as f64)).collect();
            weights.push((far, w as f64));
            Pmf::from_weights(weights).expect("positive weights")
        })
}

/// Strategy: any PMF the chain kernel can meet — normalised, a
/// sub-distribution, a support reaching past `DENSE_SPAN_LIMIT` (spread
/// out or clustered), masses that underflow, or empty.
fn arb_any_pmf() -> impl Strategy<Value = Pmf> {
    (0u8..6, (arb_pmf(), arb_sub_pmf()), arb_wide_pmf(), arb_split_pmf(), arb_tiny_pmf()).prop_map(
        |(kind, (normal, sub), wide, split, tiny)| match kind {
            0 => normal,
            1 => sub,
            2 => wide,
            3 => split,
            4 => tiny,
            _ => Pmf::empty(),
        },
    )
}

/// Strategy: a deadline relative to a predecessor's support, as `(where,
/// distance, fraction)`; see [`deadline_near`].
fn arb_deadline() -> impl Strategy<Value = (u8, u64, f64)> {
    (0u8..5, 0u64..=2 * DENSE_SPAN_LIMIT, 0.0f64..=1.0)
}

/// A deadline before (0), inside (1) or past (2) the support of `prev`,
/// which passes all of `prev` through; within 64 ticks of its start (3),
/// where the chance sums only a few cells and one ulp in a cell shows; or
/// anywhere in the dense and sparse range (4, and for an empty `prev`).
fn deadline_near(prev: &Pmf, (place, distance, fraction): (u8, u64, f64)) -> Tick {
    match (prev.support_min(), prev.support_max(), place) {
        (Some(lo), _, 0) => lo.saturating_sub(distance % (lo + 1)),
        (Some(lo), Some(hi), 1) => lo + ((hi - lo) as f64 * fraction) as Tick,
        (_, Some(hi), 2) => hi + 1 + distance,
        (Some(lo), _, 3) => lo + 1 + distance % 64,
        _ => distance,
    }
}

/// Strategy: a compaction policy as `(kind, max, width)`; see
/// [`compaction_for`].
fn arb_compaction() -> impl Strategy<Value = (u8, usize, u64)> {
    (0u8..7, 2usize..=32, 1u64..=64)
}

/// The policy `(kind, max, width)` names for compacting `raw`: none (0),
/// an impulse cap of `max` (1) or a bin width of `width` (2), or one set
/// against `raw`'s impulse count `n` and tick span `s`, at the decisions
/// compaction makes: a cap of exactly `n` (3), which keeps every impulse,
/// or of `n − 1` (4), which rebins; a bin `width` ticks wider than the
/// span (5); or bins of `⌊s/2⌋ + 1` ticks (6), whose last one is shorter.
fn compaction_for(raw: &Pmf, (kind, max, width): (u8, usize, u64)) -> Compaction {
    let span = match (raw.support_min(), raw.support_max()) {
        (Some(lo), Some(hi)) => hi - lo + 1,
        _ => 1,
    };
    match kind {
        0 => Compaction::None,
        1 => Compaction::MaxImpulses(max),
        2 => Compaction::BinWidth(width),
        3 => Compaction::MaxImpulses(raw.len().max(2)),
        4 => Compaction::MaxImpulses(raw.len().saturating_sub(1).max(2)),
        5 => Compaction::BinWidth(span + width),
        _ => Compaction::BinWidth((span / 2 + 1).max(2)),
    }
}

/// Strategy: a normalised PMF between two impulses of the least subnormal
/// mass, whose product rounds to zero. Behind a deadline past its support,
/// two such PMFs leave the accumulator's first and last cells empty.
fn arb_hollow_pmf() -> impl Strategy<Value = Pmf> {
    (arb_pmf(), 1u64..=8, 1u64..=8).prop_map(|(body, below, above)| {
        let least = f64::from_bits(1);
        let body = body.shift(below);
        let top = body.support_max().expect("non-empty") + above;
        let mut pairs = vec![(0, least)];
        pairs.extend(body.to_pairs());
        pairs.push((top, least));
        Pmf::from_impulses(pairs).expect("mass at most 1")
    })
}

fn pmf_bits(p: &Pmf) -> Vec<(Tick, u64)> {
    p.iter().map(|i| (i.t, i.p.to_bits())).collect()
}

/// The chance sum by the pair path: `deadline_convolve`, `mass_before` and
/// `Compaction::apply`, one step at a time.
fn reference_chance_sum(
    base: &Pmf,
    tasks: &[ChainTask<'_>],
    take: usize,
    compaction: Compaction,
) -> f64 {
    let mut sum = 0.0;
    let mut prev = base.clone();
    for t in tasks.iter().take(take) {
        let raw = deadline_convolve(&prev, t.exec, t.deadline);
        sum += raw.mass_before(t.deadline);
        prev = compaction.apply(&raw);
    }
    sum
}

/// The rebin `Compaction` used before it divided only on a bin change:
/// one division per impulse, the independent reference for the binned
/// policies.
fn reference_rebin(raw: &[Impulse], width: Tick) -> Vec<Impulse> {
    let mut out = Vec::new();
    let Some(first) = raw.first() else {
        return out;
    };
    let lo = first.t;
    let mut bin_idx: Tick = 0;
    let mut bin_mass = 0.0f64;
    let mut bin_moment = 0.0f64;
    let flush = |out: &mut Vec<Impulse>, mass: f64, moment: f64| {
        if mass > 0.0 {
            let mean_off = (moment / mass).round() as Tick;
            out.push(Impulse { t: lo + mean_off, p: mass });
        }
    };
    for i in raw {
        let idx = (i.t - lo) / width;
        if idx != bin_idx {
            flush(&mut out, bin_mass, bin_moment);
            bin_idx = idx;
            bin_mass = 0.0;
            bin_moment = 0.0;
        }
        bin_mass += i.p;
        bin_moment += (i.t - lo) as f64 * i.p;
    }
    flush(&mut out, bin_mass, bin_moment);
    out
}

/// `compaction` applied to `pmf` through [`reference_rebin`], as bits.
fn reference_compaction(pmf: &Pmf, compaction: Compaction) -> Vec<(Tick, u64)> {
    let raw: Vec<Impulse> = pmf.iter().copied().collect();
    let compacted = match (compaction, pmf.support_min(), pmf.support_max()) {
        (Compaction::MaxImpulses(max), Some(lo), Some(hi)) if raw.len() > max => {
            reference_rebin(&raw, (hi - lo + 1).div_ceil(max as Tick).max(1))
        }
        (Compaction::BinWidth(width), _, _) if width > 1 => reference_rebin(&raw, width),
        _ => raw,
    };
    compacted.iter().map(|i| (i.t, i.p.to_bits())).collect()
}

/// Strategy: a normalised PMF of up to 40 impulses in a 2 000-tick window
/// that starts at 0 or ends at `Tick::MAX`, so bins near the top of the
/// tick range end past it.
fn arb_rebin_pmf() -> impl Strategy<Value = Pmf> {
    (0u8..2, prop::collection::vec((0u64..=2_000, 1u32..=1000), 1..=40)).prop_map(|(top, pairs)| {
        let offset = if top == 1 { Tick::MAX - 2_000 } else { 0 };
        let weights = pairs.into_iter().map(|(t, w)| (offset + t, w as f64)).collect();
        Pmf::from_weights(weights).expect("positive weights")
    })
}

/// Strategy: a binned policy — an impulse cap, a narrow bin width or any
/// width up to `Tick::MAX`.
fn arb_binned_compaction() -> impl Strategy<Value = Compaction> {
    (0u8..3, 2usize..=32, 2u64..=64, 0u64..=Tick::MAX).prop_map(
        |(kind, max, width, any)| match kind {
            0 => Compaction::MaxImpulses(max),
            1 => Compaction::BinWidth(width),
            _ => Compaction::BinWidth(any.max(1)),
        },
    )
}

proptest! {
    #[test]
    fn construction_invariants(p in arb_pmf()) {
        let pairs = p.to_pairs();
        // Sorted, unique ticks; positive masses.
        for w in pairs.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        for &(_, mass) in &pairs {
            prop_assert!(mass > 0.0);
        }
        prop_assert!((p.total_mass() - 1.0).abs() < EPS);
    }

    #[test]
    fn convolution_mass_is_product(a in arb_sub_pmf(), b in arb_sub_pmf()) {
        let c = a.convolve(&b);
        prop_assert!((c.total_mass() - a.total_mass() * b.total_mass()).abs() < EPS);
    }

    #[test]
    fn convolution_mean_additive(a in arb_pmf(), b in arb_pmf()) {
        let c = a.convolve(&b);
        let expect = a.mean().unwrap() + b.mean().unwrap();
        prop_assert!((c.mean().unwrap() - expect).abs() < 1e-6);
    }

    #[test]
    fn convolution_commutative(a in arb_pmf(), b in arb_pmf()) {
        let ab = a.convolve(&b);
        let ba = b.convolve(&a);
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(ba.iter()) {
            prop_assert_eq!(x.t, y.t);
            prop_assert!((x.p - y.p).abs() < EPS);
        }
    }

    #[test]
    fn convolution_support_bounds(a in arb_pmf(), b in arb_pmf()) {
        let c = a.convolve(&b);
        prop_assert_eq!(c.support_min(), Some(a.support_min().unwrap() + b.support_min().unwrap()));
        prop_assert_eq!(c.support_max(), Some(a.support_max().unwrap() + b.support_max().unwrap()));
    }

    #[test]
    fn deadline_convolve_conserves_mass(prev in arb_pmf(), exec in arb_pmf(), d in 0u64..=1200) {
        let c = deadline_convolve(&prev, &exec, d);
        prop_assert!((c.total_mass() - 1.0).abs() < EPS);
    }

    /// With an infinitely late deadline, Eq (1) degenerates to plain convolution.
    #[test]
    fn deadline_convolve_late_deadline_is_convolution(prev in arb_pmf(), exec in arb_pmf()) {
        let c = deadline_convolve(&prev, &exec, u64::MAX);
        let plain = prev.convolve(&exec);
        prop_assert_eq!(c.len(), plain.len());
        for (x, y) in c.iter().zip(plain.iter()) {
            prop_assert_eq!(x.t, y.t);
            prop_assert!((x.p - y.p).abs() < EPS);
        }
    }

    /// With deadline 0 nothing can ever start: pass-through identity.
    #[test]
    fn deadline_convolve_zero_deadline_is_identity(prev in arb_pmf(), exec in arb_pmf()) {
        let c = deadline_convolve(&prev, &exec, 0);
        prop_assert_eq!(c, prev);
    }

    /// Chance of success is monotone non-decreasing in the deadline.
    #[test]
    fn chance_monotone_in_deadline(prev in arb_pmf(), exec in arb_pmf(), d in 0u64..=1100) {
        let c1 = deadline_convolve(&prev, &exec, d);
        let c2 = deadline_convolve(&prev, &exec, d + 25);
        prop_assert!(chance_of_success(&c2, d + 25) + EPS >= chance_of_success(&c1, d));
    }

    /// The completion PMF produced by Eq (1) stochastically dominates the
    /// predecessor: the slot can never free up *earlier* than the predecessor
    /// finished. (Key lemma behind "dropping never hurts the influence zone".)
    #[test]
    fn completion_dominates_predecessor(prev in arb_pmf(), exec in arb_pmf(), d in 0u64..=1100) {
        let c = deadline_convolve(&prev, &exec, d);
        for t in [0u64, 50, 100, 250, 500, 750, 1000, 1500] {
            // P(C < t) <= P(prev < t): completion is stochastically later.
            prop_assert!(c.mass_before(t) <= prev.mass_before(t) + EPS);
        }
    }

    /// The dense and sparse convolution paths agree on PMFs whose spans
    /// straddle `DENSE_SPAN_LIMIT`, so `Pmf::convolve`'s path selection is
    /// unobservable (up to float association error from the different
    /// summation orders).
    #[test]
    fn dense_and_sparse_convolution_agree_across_the_span_split(
        a in arb_wide_pmf(),
        b in arb_wide_pmf(),
    ) {
        let dense = convolve_dense_forced(&a, &b);
        let sparse = convolve_sparse_forced(&a, &b);
        prop_assert_eq!(dense.len(), sparse.len());
        for (d, s) in dense.iter().zip(sparse.iter()) {
            prop_assert_eq!(d.t, s.t);
            prop_assert!((d.p - s.p).abs() < EPS);
        }
        let auto = a.convolve(&b);
        let span = auto.support_max().unwrap() - auto.support_min().unwrap() + 1;
        let reference = if span <= DENSE_SPAN_LIMIT { &dense } else { &sparse };
        prop_assert_eq!(&auto, reference);
    }

    #[test]
    fn compaction_preserves_mass(p in arb_pmf(), max in 2usize..=32) {
        let c = Compaction::MaxImpulses(max).apply(&p);
        prop_assert!((c.total_mass() - p.total_mass()).abs() < EPS);
        prop_assert!(c.len() <= max.max(p.len().min(max)));
    }

    #[test]
    fn compaction_bounds_mean_error(p in arb_pmf(), max in 2usize..=32) {
        let c = Compaction::MaxImpulses(max).apply(&p);
        let span = (p.support_max().unwrap() - p.support_min().unwrap() + 1) as f64;
        let width = (span / max as f64).ceil();
        // Mass-weighted mean moves at most one bin width (rounding inclusive).
        let err = (c.mean().unwrap() - p.mean().unwrap()).abs();
        prop_assert!(err <= width + 0.5, "err {err} > width {width}");
    }

    #[test]
    fn compaction_keeps_support_window(p in arb_pmf(), max in 2usize..=32) {
        let c = Compaction::MaxImpulses(max).apply(&p);
        prop_assert!(c.support_min().unwrap() >= p.support_min().unwrap());
        prop_assert!(c.support_max().unwrap() <= p.support_max().unwrap());
    }

    #[test]
    fn condition_at_least_is_normalized(p in arb_pmf(), t in 0u64..=600) {
        if let Some(c) = p.condition_at_least(t) {
            prop_assert!((c.total_mass() - 1.0).abs() < EPS);
            prop_assert!(c.support_min().unwrap() >= t);
        } else {
            prop_assert!(p.mass_at_or_after(t) <= 0.0 + EPS);
        }
    }

    #[test]
    fn quantile_is_consistent_with_cdf(p in arb_pmf(), q in 0.0f64..=1.0) {
        let t = p.quantile(q).unwrap();
        prop_assert!(p.cdf(t) + EPS >= q * p.total_mass());
    }

    /// The evaluator's one-shot step, chance and chance sum equal the pair
    /// path (`deadline_convolve`, `mass_before`, `Compaction::apply`) bit
    /// for bit on the inputs the dense kernel treats specially:
    /// sub-distributions, an empty predecessor or execution PMF, deadlines
    /// before (only pass-through mass), inside and past the predecessor's
    /// support, spans on both sides of `DENSE_SPAN_LIMIT`, and products
    /// that underflow to empty cells, the first and last among them. The
    /// compaction of the step is set against its result: an impulse count
    /// of exactly the cap and of one more, a bin wider than the span, and a
    /// last bin shorter than the others. A clustered pair past the limit is
    /// also priced at every deadline over its first 64 ticks.
    #[test]
    fn kernel_edge_cases_match_the_pair_path_bit_for_bit(
        prev in arb_any_pmf(),
        exec in arb_any_pmf(),
        deadline in arb_deadline(),
        queue in prop::collection::vec((arb_any_pmf(), arb_deadline()), 1..=4),
        policy in arb_compaction(),
        take in 0usize..=5,
        clustered in (arb_split_pmf(), arb_split_pmf()),
        hollow in (arb_hollow_pmf(), arb_hollow_pmf(), 0u64..=64),
    ) {
        let mut eval = ChainEvaluator::new();
        // Past the span limit the pair path's sort orders colliding
        // products, so a chance read from a dense scatter of only the cells
        // before the deadline would differ in the last bits; a chance of a
        // few cells shows that.
        let (cluster, cluster_exec) = &clustered;
        let start = cluster.support_min().expect("non-empty");
        for d in start + 1..=start + 64 {
            let chance = deadline_convolve(cluster, cluster_exec, d).mass_before(d);
            let task = ChainTask { deadline: d, exec: cluster_exec };
            prop_assert_eq!(eval.chance_from(cluster, task).to_bits(), chance.to_bits());
        }

        // One step, compacted by the policy set against its result.
        let mut check_step = |prev: &Pmf, exec: &Pmf, d: Tick| {
            let task = ChainTask { deadline: d, exec };
            let raw = deadline_convolve(prev, exec, d);
            let chance = raw.mass_before(d);
            let compaction = compaction_for(&raw, policy);
            let (stepped, completion) = eval.step_from(prev, task, compaction);
            prop_assert_eq!(stepped.to_bits(), chance.to_bits());
            prop_assert_eq!(pmf_bits(&completion), pmf_bits(&compaction.apply(&raw)));
            prop_assert_eq!(eval.chance_from(prev, task).to_bits(), chance.to_bits());
            compaction
        };
        let (hollow_prev, hollow_exec, past) = &hollow;
        let after = hollow_prev.support_max().expect("non-empty") + 1 + past;
        check_step(hollow_prev, hollow_exec, after);
        let compaction = check_step(&prev, &exec, deadline_near(&prev, deadline));

        let tasks: Vec<ChainTask<'_>> = queue
            .iter()
            .map(|(exec, deadline)| ChainTask { deadline: deadline_near(&prev, *deadline), exec })
            .collect();
        prop_assert_eq!(
            eval.chance_sum(&prev, &tasks, take, compaction).to_bits(),
            reference_chance_sum(&prev, &tasks, take, compaction).to_bits()
        );
    }

    /// `MaxImpulses` and `BinWidth` rebin exactly as the division-per-impulse
    /// reference does, bit for bit, including bins whose end lies past
    /// `Tick::MAX`.
    #[test]
    fn rebin_matches_the_division_reference_bit_for_bit(
        pmf in arb_rebin_pmf(),
        compaction in arb_binned_compaction(),
    ) {
        prop_assert_eq!(pmf_bits(&compaction.apply(&pmf)), reference_compaction(&pmf, compaction));
    }

    /// The mass before a deadline summed by execution tick stays within
    /// its stated margin of `convolve` then `mass_before`, on both sides:
    /// `ROUNDING_MARGIN` relatively plus `f64::EPSILON`. Deadlines fall
    /// before, inside and past the convolution, at the end of the tick
    /// range, and at every tick over the first 64 of a clustered pair.
    #[test]
    fn convolved_mass_before_is_within_its_margin_of_the_convolution(
        tail in arb_any_pmf(),
        exec in arb_any_pmf(),
        deadline in arb_deadline(),
        clustered in (arb_split_pmf(), arb_split_pmf()),
    ) {
        let within = |tail: &Pmf, exec: &Pmf, d: Tick| {
            let mut sums = Vec::new();
            running_masses(tail, &mut sums);
            let summed = convolved_mass_before(tail, &sums, exec, d);
            let exact = tail.convolve(exec).mass_before(d);
            let margin = |x: f64| x * (1.0 + ROUNDING_MARGIN) + f64::EPSILON;
            summed <= margin(exact) && exact <= margin(summed)
        };
        let whole = tail.convolve(&exec);
        for d in [deadline_near(&whole, deadline), Tick::MAX, Tick::MAX - 1, 0] {
            prop_assert!(within(&tail, &exec, d), "deadline {}", d);
        }
        let (cluster, cluster_exec) = &clustered;
        let start = cluster.support_min().expect("non-empty");
        for d in start + 1..=start + 64 {
            prop_assert!(within(cluster, cluster_exec, d), "clustered deadline {}", d);
        }
    }

    #[test]
    fn shift_preserves_shape(p in arb_pmf(), delta in 0u64..=1000) {
        let s = p.shift(delta);
        prop_assert_eq!(s.len(), p.len());
        prop_assert!((s.total_mass() - p.total_mass()).abs() < EPS);
        prop_assert!((s.mean().unwrap() - p.mean().unwrap() - delta as f64).abs() < 1e-6);
    }
}
