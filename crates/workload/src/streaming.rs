//! Streaming arrival generators for the online serving layer.
//!
//! [`Workload::generate`](crate::Workload::generate) produces a *closed*
//! trial: every task is known up front. A serving system instead faces an
//! open-ended arrival stream whose intensity changes over time. This module
//! provides three such streams, all yielding [`OfferedTask`]s in
//! nondecreasing arrival order:
//!
//! * [`DiurnalSource`] — a sinusoidally modulated Poisson process (the
//!   day/night load cycle of a user-facing service), generated by Lewis
//!   thinning against the peak rate;
//! * [`BurstySource`] — a Markov-modulated on/off process: exponential
//!   on/off dwell times with a separate Poisson rate in each phase (flash
//!   crowds over a quiet baseline);
//! * [`TraceSource`] — replay of a recorded arrival trace, optionally
//!   looped with a fixed period offset.
//!
//! Determinism is load-bearing: the serving layer checkpoints a source
//! mid-stream and must resume it byte-identically. Sources therefore never
//! hold a live RNG. Every stochastic draw is *keyed* — a fresh RNG from
//! `derive_seed(seed, counter)` per decision — so the full generator state
//! is a handful of integer cursors, and all of it serializes losslessly
//! through serde. Cloning a source forks the stream at its current
//! position; two clones replay identical suffixes.

use rand::Rng;
use serde::{Deserialize, Serialize};
use taskdrop_model::TaskTypeId;
use taskdrop_pmf::Tick;
use taskdrop_stats::{derive_seed, new_rng};

/// A task offered to the serving layer: what [`SimCore::inject`] needs,
/// before admission control has decided whether it ever reaches the core.
///
/// [`SimCore::inject`]: ../taskdrop_sim/struct.SimCore.html#method.inject
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OfferedTask {
    /// Requested task type.
    pub type_id: TaskTypeId,
    /// Arrival tick.
    pub arrival: Tick,
    /// Hard deadline tick (strictly after `arrival`).
    pub deadline: Tick,
}

/// The conditions every generated source puts on the offers it makes.
fn check_offers(slack: Tick, task_types: u16) -> Result<(), &'static str> {
    if slack == 0 {
        return Err("slack must be positive");
    }
    if task_types == 0 {
        return Err("need at least one task type");
    }
    Ok(())
}

/// Draws an integer inter-arrival gap (>= 1 tick) from Exp(`rate`).
fn exp_gap(rng: &mut taskdrop_stats::Rng64, rate: f64) -> Tick {
    let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1] so ln is finite
    ((-u.ln() / rate).round() as Tick).max(1)
}

/// Uniform task type in `0..task_types`.
fn draw_type(rng: &mut taskdrop_stats::Rng64, task_types: u16) -> TaskTypeId {
    TaskTypeId(rng.gen_range(0..task_types as usize) as u16)
}

/// Sinusoidally modulated Poisson arrivals (diurnal load), via Lewis
/// thinning: candidates at the peak rate `base * (1 + amplitude)`, each
/// accepted with probability `rate(t) / peak` where
/// `rate(t) = base * (1 + amplitude * sin(2πt / period))`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalSource {
    seed: u64,
    base_rate: f64,
    amplitude: f64,
    period: Tick,
    slack: Tick,
    task_types: u16,
    remaining: u64,
    draw_index: u64,
    now: Tick,
    upcoming: Option<OfferedTask>,
}

impl DiurnalSource {
    /// A stream of `total` tasks at mean rate `base_rate` tasks/tick,
    /// oscillating by `amplitude` over `period` ticks; every task gets
    /// `slack` ticks from arrival to deadline and a uniformly random type
    /// in `0..task_types`.
    ///
    /// # Panics
    ///
    /// Panics unless `base_rate` is finite and positive, `amplitude` is in
    /// `[0, 1]`, and `period`, `slack`, `task_types` are nonzero.
    #[must_use]
    pub fn new(
        seed: u64,
        base_rate: f64,
        amplitude: f64,
        period: Tick,
        slack: Tick,
        task_types: u16,
        total: u64,
    ) -> Self {
        let mut source = DiurnalSource {
            seed,
            base_rate,
            amplitude,
            period,
            slack,
            task_types,
            remaining: total,
            draw_index: 0,
            now: 0,
            upcoming: None,
        };
        assert_eq!(source.check(), Ok(()), "invalid diurnal source");
        source.upcoming = source.generate_next();
        source
    }

    /// The conditions [`DiurnalSource::new`] documents.
    fn check(&self) -> Result<(), &'static str> {
        if !(self.base_rate.is_finite() && self.base_rate > 0.0) {
            return Err("base rate must be finite and > 0");
        }
        if !(0.0..=1.0).contains(&self.amplitude) {
            return Err("amplitude must be in [0, 1]");
        }
        if self.period == 0 {
            return Err("period must be positive");
        }
        check_offers(self.slack, self.task_types)
    }

    fn generate_next(&mut self) -> Option<OfferedTask> {
        if self.remaining == 0 {
            return None;
        }
        let peak = self.base_rate * (1.0 + self.amplitude);
        loop {
            let mut rng = new_rng(derive_seed(self.seed, self.draw_index));
            self.draw_index += 1;
            self.now += exp_gap(&mut rng, peak);
            let phase =
                std::f64::consts::TAU * (self.now % self.period) as f64 / self.period as f64;
            let rate_now = self.base_rate * (1.0 + self.amplitude * phase.sin());
            let accept: f64 = rng.gen();
            if accept * peak <= rate_now {
                self.remaining -= 1;
                return Some(OfferedTask {
                    type_id: draw_type(&mut rng, self.task_types),
                    arrival: self.now,
                    deadline: self.now + self.slack,
                });
            }
        }
    }
}

/// Markov-modulated on/off Poisson arrivals (bursty load): dwell times in
/// each phase are exponential (means `mean_on` / `mean_off` ticks) and
/// arrivals within a phase are Poisson at that phase's rate. A zero
/// `rate_off` gives pure silence between bursts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstySource {
    seed: u64,
    rate_on: f64,
    rate_off: f64,
    mean_on: Tick,
    mean_off: Tick,
    slack: Tick,
    task_types: u16,
    remaining: u64,
    draw_index: u64,
    phase_index: u64,
    now: Tick,
    on: bool,
    phase_end: Tick,
    upcoming: Option<OfferedTask>,
}

impl BurstySource {
    /// A stream of `total` tasks alternating between an *on* phase (rate
    /// `rate_on` tasks/tick, mean dwell `mean_on` ticks) and an *off* phase
    /// (rate `rate_off`, mean dwell `mean_off`), starting *on*.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_on` is finite and positive, `rate_off` is finite
    /// and nonnegative, and `mean_on`, `mean_off`, `slack`, `task_types`
    /// are nonzero.
    #[allow(clippy::too_many_arguments)] // flat config, mirrors DiurnalSource
    #[must_use]
    pub fn new(
        seed: u64,
        rate_on: f64,
        rate_off: f64,
        mean_on: Tick,
        mean_off: Tick,
        slack: Tick,
        task_types: u16,
        total: u64,
    ) -> Self {
        let mut source = BurstySource {
            seed,
            rate_on,
            rate_off,
            mean_on,
            mean_off,
            slack,
            task_types,
            remaining: total,
            draw_index: 0,
            phase_index: 0,
            now: 0,
            on: false,
            phase_end: 0,
            upcoming: None,
        };
        assert_eq!(source.check(), Ok(()), "invalid bursty source");
        source.toggle_phase(); // enter the first on-phase with a drawn dwell
        source.upcoming = source.generate_next();
        source
    }

    /// The conditions [`BurstySource::new`] documents.
    fn check(&self) -> Result<(), &'static str> {
        if !(self.rate_on.is_finite() && self.rate_on > 0.0) {
            return Err("on-rate must be finite and > 0");
        }
        if !(self.rate_off.is_finite() && self.rate_off >= 0.0) {
            return Err("off-rate must be finite and >= 0");
        }
        if self.mean_on == 0 || self.mean_off == 0 {
            return Err("phase dwell means must be positive");
        }
        check_offers(self.slack, self.task_types)
    }

    /// Flips on↔off and draws the new phase's dwell time. Gap draws use
    /// even key streams, phase draws odd ones, so the two decision kinds
    /// never share an RNG.
    fn toggle_phase(&mut self) {
        self.on = !self.on;
        let mean = if self.on { self.mean_on } else { self.mean_off };
        let mut rng = new_rng(derive_seed(self.seed, 2 * self.phase_index + 1));
        self.phase_index += 1;
        self.phase_end = self.now + exp_gap(&mut rng, 1.0 / mean as f64);
    }

    fn generate_next(&mut self) -> Option<OfferedTask> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            let rate = if self.on { self.rate_on } else { self.rate_off };
            if rate <= 0.0 {
                self.now = self.phase_end;
                self.toggle_phase();
                continue;
            }
            let mut rng = new_rng(derive_seed(self.seed, 2 * self.draw_index));
            self.draw_index += 1;
            let candidate = self.now + exp_gap(&mut rng, rate);
            if candidate >= self.phase_end {
                // The gap crosses the phase boundary: discard it and redraw
                // under the next phase's rate (memorylessness makes this
                // exact for the exponential).
                self.now = self.phase_end;
                self.toggle_phase();
                continue;
            }
            self.now = candidate;
            self.remaining -= 1;
            return Some(OfferedTask {
                type_id: draw_type(&mut rng, self.task_types),
                arrival: self.now,
                deadline: self.now + self.slack,
            });
        }
    }
}

/// Replays a recorded arrival trace, optionally looping it forever-ish:
/// each pass is shifted by `loop_period` ticks so arrivals stay
/// nondecreasing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSource {
    entries: Vec<OfferedTask>,
    loop_period: Option<Tick>,
    remaining: u64,
    index: u64,
    offset: Tick,
    upcoming: Option<OfferedTask>,
}

impl TraceSource {
    /// Replays `entries` (which must be nonempty, sorted by arrival, with
    /// `deadline > arrival` each), stopping after `total` offers. With
    /// `loop_period = Some(p)` the trace restarts shifted by `p` after each
    /// pass; without it, at most one pass is replayed regardless of
    /// `total`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, unsorted, contains a
    /// `deadline <= arrival` entry, or if `loop_period` is not strictly
    /// greater than the last entry's arrival (looping would move time
    /// backwards).
    #[must_use]
    pub fn new(entries: Vec<OfferedTask>, loop_period: Option<Tick>, total: u64) -> Self {
        let remaining = if loop_period.is_some() { total } else { total.min(entries.len() as u64) };
        let mut source =
            TraceSource { entries, loop_period, remaining, index: 0, offset: 0, upcoming: None };
        assert_eq!(source.check(), Ok(()), "invalid trace source");
        source.upcoming = source.generate_next();
        source
    }

    /// The conditions [`TraceSource::new`] documents.
    fn check(&self) -> Result<(), &'static str> {
        let Some(last) = self.entries.last() else {
            return Err("trace needs at least one entry");
        };
        if !self.entries.is_sorted_by_key(|e| e.arrival) {
            return Err("trace must be sorted by arrival");
        }
        if self.entries.iter().any(|e| e.deadline <= e.arrival) {
            return Err("trace entry deadline must exceed its arrival");
        }
        if self.loop_period.is_some_and(|p| p <= last.arrival) {
            return Err("loop period must exceed the last trace arrival");
        }
        Ok(())
    }

    fn generate_next(&mut self) -> Option<OfferedTask> {
        if self.remaining == 0 {
            return None;
        }
        let len = self.entries.len() as u64;
        let e = self.entries[(self.index % len) as usize];
        let shifted = OfferedTask {
            type_id: e.type_id,
            arrival: e.arrival + self.offset,
            deadline: e.deadline + self.offset,
        };
        self.index += 1;
        if self.index % len == 0 {
            if let Some(p) = self.loop_period {
                self.offset += p;
            }
        }
        self.remaining -= 1;
        Some(shifted)
    }
}

/// One of the three streaming generators, behind a serializable value the
/// serving layer can checkpoint and restore wholesale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficSource {
    /// Sinusoidal day/night modulation.
    Diurnal(DiurnalSource),
    /// Markov-modulated on/off bursts.
    Bursty(BurstySource),
    /// Recorded-trace replay.
    Trace(TraceSource),
}

impl TrafficSource {
    /// Checks the conditions the source's constructor asserts, returning
    /// the first one it breaks. A source that only came from its
    /// constructor always passes; one deserialized from a checkpoint or a
    /// plan may not, and generating from it could divide by zero or never
    /// terminate.
    ///
    /// # Errors
    ///
    /// The broken condition, in the words of the constructor's panic.
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            TrafficSource::Diurnal(s) => s.check(),
            TrafficSource::Bursty(s) => s.check(),
            TrafficSource::Trace(s) => s.check(),
        }
    }

    /// The next offer without consuming it, or `None` when exhausted.
    #[must_use]
    pub fn peek(&self) -> Option<OfferedTask> {
        match self {
            TrafficSource::Diurnal(s) => s.upcoming,
            TrafficSource::Bursty(s) => s.upcoming,
            TrafficSource::Trace(s) => s.upcoming,
        }
    }

    /// Consumes and returns the next offer, or `None` when exhausted.
    /// Arrivals are nondecreasing across the whole stream.
    pub fn pop(&mut self) -> Option<OfferedTask> {
        match self {
            TrafficSource::Diurnal(s) => {
                let out = s.upcoming.take();
                s.upcoming = s.generate_next();
                out
            }
            TrafficSource::Bursty(s) => {
                let out = s.upcoming.take();
                s.upcoming = s.generate_next();
                out
            }
            TrafficSource::Trace(s) => {
                let out = s.upcoming.take();
                s.upcoming = s.generate_next();
                out
            }
        }
    }

    /// Whether the stream has no offers left.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.peek().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut s: TrafficSource) -> Vec<OfferedTask> {
        let mut out = Vec::new();
        while let Some(t) = s.pop() {
            out.push(t);
        }
        out
    }

    fn assert_well_formed(tasks: &[OfferedTask], task_types: u16) {
        assert!(tasks.windows(2).all(|p| p[0].arrival <= p[1].arrival), "arrivals must be sorted");
        for t in tasks {
            assert!(t.deadline > t.arrival);
            assert!(t.type_id.0 < task_types);
        }
    }

    #[test]
    fn diurnal_emits_sorted_feasible_offers_at_roughly_the_base_rate() {
        let s = DiurnalSource::new(7, 0.05, 0.8, 2_000, 400, 12, 500);
        let tasks = drain(TrafficSource::Diurnal(s));
        assert_eq!(tasks.len(), 500);
        assert_well_formed(&tasks, 12);
        let span = tasks.last().unwrap().arrival as f64;
        let rate = tasks.len() as f64 / span;
        assert!((rate - 0.05).abs() / 0.05 < 0.35, "measured rate {rate} vs base 0.05");
    }

    #[test]
    fn diurnal_modulates_intensity_across_the_period() {
        // Count arrivals in the rising half vs the falling half of each
        // period; with amplitude 1 the halves must differ substantially.
        let s = DiurnalSource::new(3, 0.08, 1.0, 4_000, 300, 4, 2_000);
        let tasks = drain(TrafficSource::Diurnal(s));
        let (mut peak_half, mut trough_half) = (0usize, 0usize);
        for t in &tasks {
            if t.arrival % 4_000 < 2_000 {
                peak_half += 1;
            } else {
                trough_half += 1;
            }
        }
        assert!(
            peak_half as f64 > 1.5 * trough_half as f64,
            "no diurnal contrast: {peak_half} vs {trough_half}"
        );
    }

    #[test]
    fn bursty_clusters_arrivals_inside_on_phases() {
        let s = BurstySource::new(11, 0.2, 0.0, 600, 1_800, 250, 8, 400);
        let tasks = drain(TrafficSource::Bursty(s));
        assert_eq!(tasks.len(), 400);
        assert_well_formed(&tasks, 8);
        // With silence off-phases 3x the on dwell, gaps are bimodal: many
        // short intra-burst gaps plus a few long inter-burst ones.
        let gaps: Vec<Tick> = tasks.windows(2).map(|p| p[1].arrival - p[0].arrival).collect();
        let long = gaps.iter().filter(|&&g| g > 900).count();
        let short = gaps.iter().filter(|&&g| g <= 30).count();
        assert!(long >= 5, "expected inter-burst silences, saw {long}");
        assert!(short > gaps.len() / 2, "expected dense bursts, saw {short}/{}", gaps.len());
    }

    #[test]
    fn trace_replays_and_loops_with_offset() {
        let entries = vec![
            OfferedTask { type_id: TaskTypeId(0), arrival: 10, deadline: 60 },
            OfferedTask { type_id: TaskTypeId(1), arrival: 25, deadline: 95 },
        ];
        let looped = drain(TrafficSource::Trace(TraceSource::new(entries.clone(), Some(100), 5)));
        assert_eq!(looped.len(), 5);
        assert_well_formed(&looped, 2);
        assert_eq!(looped[2].arrival, 110); // second pass, shifted by 100
        assert_eq!(looped[4].arrival, 210); // third pass
        let single = drain(TrafficSource::Trace(TraceSource::new(entries, None, 99)));
        assert_eq!(single.len(), 2, "no loop period caps at one pass");
    }

    #[test]
    fn sources_are_deterministic_and_resume_from_serde_roundtrip() {
        let make = || BurstySource::new(42, 0.1, 0.01, 500, 1_000, 300, 6, 120);
        let full = drain(TrafficSource::Bursty(make()));
        // Same construction replays the identical stream.
        assert_eq!(full, drain(TrafficSource::Bursty(make())));
        // Interrupt mid-stream, round-trip through JSON, resume: the suffix
        // must match the uninterrupted stream exactly.
        let mut source = TrafficSource::Bursty(make());
        let mut prefix = Vec::new();
        for _ in 0..47 {
            prefix.push(source.pop().unwrap());
        }
        let json = serde_json::to_string(&source).unwrap();
        let restored: TrafficSource = serde_json::from_str(&json).unwrap();
        let suffix = drain(restored);
        prefix.extend(suffix);
        assert_eq!(prefix, full);
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut s = TrafficSource::Diurnal(DiurnalSource::new(1, 0.1, 0.5, 500, 100, 3, 10));
        while let Some(peeked) = s.peek() {
            assert_eq!(s.pop(), Some(peeked));
        }
        assert!(s.is_exhausted());
        assert_eq!(s.pop(), None);
    }
}
