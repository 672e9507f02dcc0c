//! `taskdrop_perfbench` — a steady benchmark of the task-dropping engine,
//! the serving fleet and the DAG layer.
//!
//! One run builds its inputs from `--seed`, runs one warm-up pass over them
//! that fixes the reference output, then repeats passes over the same inputs
//! for `--seconds` of wall time. Every measured pass is checked against the
//! reference and against the layer's own accounting identities; a pass that
//! differs or does not balance counts as failed.
//!
//! Workloads, each one layer on top of the engine:
//!
//! * `engine` — closed-world SPECint trials at about twice the cluster's
//!   capacity, so the mapper and the drop policy work on every event. A
//!   round is one `SimCore::step`.
//! * `fleet` — eighteen admission-controlled serving shards with work
//!   stealing and periodic checkpoints. A round is one `FleetDriver::advance` epoch,
//!   plus the checkpoint sweep when one is due.
//! * `dag` — bursts of function chains, scatter/gather and layered graphs
//!   under request merging and subtree pruning. A round is one burst: the
//!   coordinator advances to its arrival, then registers its graphs.
//!
//! All times are CPU time of the one thread that does the work, scaled to a
//! reference CPU speed by a fixed load timed between stretches of the work
//! (see [`Calibrator`]). With `--trace 0` it reports the end-to-end metrics:
//! tasks handled per CPU-second (median over passes), the smoothed median
//! and p90 over a pass's rounds of each round's median time over passes,
//! and the set-up time. With `--trace 1` the drop policy and the mapper run behind
//! timing wrappers and it reports the per-layer metrics: exact per-pass work
//! counters, the time per policy call, and the rounds' time outside the
//! policies.
//!
//! Usage:
//! `taskdrop_perfbench --workload engine|fleet|dag --seed N --seconds S --trace 0|1`
//!
//! The last line of standard output is one JSON object,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, where
//! `attempted` counts measured passes and `failed` those that failed a check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use taskdrop_core::{DropDecision, DropPolicy, ProactiveDropper};
use taskdrop_dag::{DagCoordinator, DagTap, TaskGraph};
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{Assignment, DropContext, MappingInput, QueueView};
use taskdrop_sched::{MappingHeuristic, Pam};
use taskdrop_serve::{
    AdmissionController, AdmissionStats, BackpressurePolicy, FleetDriver, FleetShard, StealPolicy,
};
use taskdrop_sim::{CacheStats, SimConfig, SimCore, StepOutcome, TrialResult};
use taskdrop_workload::{
    graphgen, DiurnalSource, OversubscriptionLevel, Scenario, TrafficSource, Workload,
};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 31;

/// CPU time of one calibration chunk at the reference speed, in ns; about
/// what it takes on an idle 2-vCPU Xeon host (see [`Calibrator`]).
const CHUNK_REF_NS: f64 = 2.0e6;

/// Measured CPU time between two calibration chunks, in ns.
const PAIR_NS: u64 = 8_000_000;

// Engine: eight trials per pass, each 600 SPECint tasks over 3 240 ticks —
// about twice what the eight machines can finish, as in `bench_core`.
// Eight independent arrival streams keep the pass's cost close from seed
// to seed.
const ENGINE_SCENARIO_SEED: u64 = 0xA5;
const ENGINE_TRIALS: u64 = 8;
const ENGINE_TASKS: usize = 600;
const ENGINE_WINDOW: u64 = 3_240;

// Fleet: one scenario shared by three groups of six shards (so they may
// steal from each other). Epochs are short so that one pass holds hundreds
// of distinct epochs: the latency percentiles are taken over a pass's rounds.
const FLEET_SCENARIO_SEED: u64 = 3;
const FLEET_GROUPS: u64 = 3;
const FLEET_EPOCH: u64 = 100;
const FLEET_CHECKPOINT_EVERY: u64 = 10;
const FLEET_MAX_EPOCHS: u64 = 10_000;
const FLEET_STEALING: StealPolicy =
    StealPolicy { saturation: 0.5, headroom: 0.9, max_per_epoch: 6 };

// DAG: one burst of graphs every 160 ticks; every fourth burst adds a
// layered graph (few enough that the median round is one without), and
// every fifth a chain whose slack cannot cover one stage, which pruning
// forfeits whole.
const DAG_SCENARIO_SEED: u64 = 42;
const DAG_BURSTS: u64 = 800;
const DAG_GAP: u64 = 160;
const DAG_PRUNE_THRESHOLD: f64 = 0.3;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("taskdrop_perfbench: {message}");
            eprintln!(
                "usage: taskdrop_perfbench --workload engine|fleet|dag --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload {
        WorkloadKind::Engine => measure(&args, setup_engine, engine_pass),
        WorkloadKind::Fleet => measure(&args, setup_fleet, fleet_pass),
        WorkloadKind::Dag => measure(&args, setup_dag, dag_pass),
    };
    println!("{}", report.to_json(args.trace));
}

#[derive(Debug, Clone, Copy)]
enum WorkloadKind {
    Engine,
    Fleet,
    Dag,
}

#[derive(Debug)]
struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "engine" => WorkloadKind::Engine,
                        "fleet" => WorkloadKind::Fleet,
                        "dag" => WorkloadKind::Dag,
                        other => return Err(format!("unknown workload {other}")),
                    });
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".to_string());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    });
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clock below is declared for 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread in nanoseconds. All measured work runs on
/// this thread (the fleet is built with one worker), so this is the work's
/// CPU time; unlike wall time it leaves out time other processes hold the
/// CPU.
fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `i64`s on
    // 64-bit Linux, the only target this compiles for), and the call writes
    // only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    u64::try_from(ts.tv_sec).expect("non-negative CPU time") * 1_000_000_000
        + u64::try_from(ts.tv_nsec).expect("non-negative CPU time")
}

/// Splitmix64: independent sub-seeds from the run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn config() -> SimConfig {
    SimConfig { exclude_boundary: 0, ..SimConfig::default() }
}

/// Counts calls and the CPU time spent in them. The policy traits take
/// `&self`, so the counters are atomics (relaxed: one thread).
#[derive(Debug, Default)]
struct CallClock {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallClock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = cpu_ns();
        let out = f();
        self.nanos.fetch_add(cpu_ns() - start, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// `(calls, nanoseconds)` so far.
    fn read(&self) -> (u64, u64) {
        (self.calls.load(Ordering::Relaxed), self.nanos.load(Ordering::Relaxed))
    }
}

/// The drop policy behind a timing wrapper (`--trace 1` only).
struct TimedDropper<'a> {
    inner: &'a dyn DropPolicy,
    clock: CallClock,
}

impl DropPolicy for TimedDropper<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        self.clock.time(|| self.inner.select_drops(queue, ctx, scratch))
    }
}

/// The mapping heuristic behind a timing wrapper (`--trace 1` only).
struct TimedMapper<'a> {
    inner: &'a dyn MappingHeuristic,
    clock: CallClock,
}

impl MappingHeuristic for TimedMapper<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        self.clock.time(|| self.inner.map(input, scratch))
    }
}

/// The policies a pass runs with.
struct Policies<'a> {
    mapper: &'a dyn MappingHeuristic,
    dropper: &'a dyn DropPolicy,
}

/// A fixed load, timed in short chunks between stretches of measured work.
///
/// The machines this runs on are shared, and a neighbour's load can slow
/// this thread's CPU time by half for seconds at a time, which no count of
/// repetitions averages away. So the benchmark runs one chunk of a fixed
/// load — this file's own code, never changed by a change to the program —
/// after every [`PAIR_NS`] of measured work, and scales that work's times
/// by `CHUNK_REF_NS / mean chunk time`: every reported time is what it would
/// read on a machine where a chunk takes [`CHUNK_REF_NS`]. Chunks this close
/// together see the same neighbours as the work between them. The load
/// mimics the program's inner loops — small allocations, short dense
/// convolutions of probability mass functions, sorting, and table lookups
/// over a working set larger than the first-level caches — so that a
/// neighbour slows both alike.
struct Calibrator {
    table: Vec<u64>,
    /// Measured CPU time since the last chunk.
    pending_ns: u64,
    /// Chunks run since the last [`Calibrator::speed`], and their CPU time.
    chunks: u64,
    chunk_ns: u64,
    /// CPU time of every chunk so far.
    spent_ns: u64,
}

impl Calibrator {
    fn new() -> Calibrator {
        let mut next = xorshift(0x0123_4567_89AB_CDEF);
        let table = (0..1 << 17).map(|_| next()).collect();
        Calibrator { table, pending_ns: 0, chunks: 0, chunk_ns: 0, spent_ns: 0 }
    }

    /// Runs one chunk.
    fn chunk(&mut self) {
        let start = cpu_ns();
        std::hint::black_box(calibration_load(&self.table));
        let ns = cpu_ns() - start;
        self.chunks += 1;
        self.chunk_ns += ns;
        self.spent_ns += ns;
    }

    /// Accounts `work_ns` of measured CPU time, and runs a chunk once
    /// [`PAIR_NS`] of it has built up.
    fn pace(&mut self, work_ns: u64) {
        self.pending_ns += work_ns;
        if self.pending_ns >= PAIR_NS {
            self.pending_ns = 0;
            self.chunk();
        }
    }

    /// Runs one more chunk, then returns reference-speed time per measured
    /// time over the chunks since the last call.
    fn speed(&mut self) -> f64 {
        self.chunk();
        let speed = CHUNK_REF_NS * self.chunks as f64 / self.chunk_ns as f64;
        (self.pending_ns, self.chunks, self.chunk_ns) = (0, 0, 0);
        speed
    }
}

fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// One calibration chunk over a table of 2^17 words: the same work on
/// every call.
fn calibration_load(table: &[u64]) -> f64 {
    let mut next = xorshift(0x1234_5678_9ABC_DEF0);
    let mut acc = 0.0;
    for round in 0..150 {
        let (la, lb) = (16 + (next() % 48) as usize, 16 + (next() % 48) as usize);
        let a: Vec<(usize, f64)> =
            (0..la).map(|i| (i * 3 + (next() % 3) as usize, 1.0 / la as f64)).collect();
        let b: Vec<(usize, f64)> =
            (0..lb).map(|i| (i * 5 + (next() % 5) as usize, 1.0 / lb as f64)).collect();
        let mut dense = vec![0.0f64; 3 * la + 5 * lb + 8];
        for &(ta, pa) in &a {
            for &(tb, pb) in &b {
                dense[ta + tb] += pa * pb;
            }
        }
        let mut sparse: Vec<(u64, f64)> = dense
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .map(|(t, &p)| (next() % 4096 + t as u64, p))
            .collect();
        sparse.sort_unstable_by_key(|&(t, _)| t);
        let mut idx = round;
        for _ in 0..200 {
            idx ^= table[idx % table.len()] as usize;
        }
        acc += sparse.iter().map(|&(_, p)| p).sum::<f64>() + (idx & 1) as f64;
    }
    acc
}

/// Times the rounds of a pass, and runs the calibration chunks between
/// them.
struct Clocks {
    /// CPU time of each round of the current pass.
    round_ns: Vec<u64>,
    cal: Calibrator,
}

impl Clocks {
    fn time_round<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = cpu_ns();
        let out = f();
        let ns = cpu_ns() - start;
        self.round_ns.push(ns);
        self.cal.pace(ns);
        out
    }
}

/// Exact work counters of one pass; identical for every pass over the same
/// inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    tasks: u64,
    rounds: u64,
    mapping_events: u64,
    cache: CacheStats,
    on_time: u64,
    dropped: u64,
    turned_away: u64,
    stolen: u64,
    checkpoints: u64,
    dag_released: u64,
    dag_merged: u64,
    dag_forfeited: u64,
}

impl Counters {
    fn add_trial(&mut self, result: &TrialResult) {
        self.mapping_events += result.mapping_events;
        self.on_time += (result.on_time + result.on_time_approx) as u64;
        self.dropped += (result.dropped_reactive + result.dropped_proactive) as u64;
    }

    fn add_cache(&mut self, cache: CacheStats) {
        self.cache.tail_hits += cache.tail_hits;
        self.cache.tail_misses += cache.tail_misses;
        self.cache.conv_hits += cache.conv_hits;
        self.cache.conv_misses += cache.conv_misses;
    }
}

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
struct PassOutput {
    /// Every observable result, rendered for exact comparison with the
    /// reference pass.
    digest: String,
    /// Whether the layer's accounting identities held.
    balanced: bool,
    counters: Counters,
}

/// Everything one run measured. Times are at reference speed (see
/// [`Calibrator`]) unless marked raw.
#[derive(Debug)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    setup_s: f64,
    tasks_per_cpu_s: f64,
    round_ms_p50: f64,
    round_ms_p90: f64,
    /// The reference pass's counters.
    counters: Counters,
    /// Policy calls in one pass.
    drop_calls: u64,
    map_calls: u64,
    /// `(calls, raw nanoseconds)` over the measured passes.
    drop: (u64, u64),
    map: (u64, u64),
    /// Rounds and their raw CPU time over the measured passes.
    rounds: u64,
    round_raw_ns: u64,
    /// Median over passes of reference-speed time per measured time.
    speed: f64,
}

/// Sets up `SETUPS` times, warms up with one reference pass, then runs
/// measured passes until `--seconds` of wall time have gone by. Each pass's
/// times are scaled by the speed its calibration chunks read, and only the
/// faster half of the set-ups and of the passes count (see [`faster_half`]).
fn measure<I>(
    args: &Args,
    setup: fn(u64) -> I,
    pass: fn(&I, &Policies<'_>, &mut Clocks) -> PassOutput,
) -> Report {
    let mut clocks = Clocks { round_ns: Vec::new(), cal: Calibrator::new() };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        clocks.cal.chunk();
        let start = cpu_ns();
        inputs = Some(setup(args.seed));
        let ns = cpu_ns() - start;
        let speed = clocks.cal.speed();
        setups.push(Sample { speed, value: ns as f64 * speed / 1e9 });
    }
    let inputs = inputs.expect("at least one set-up");

    let dropper = ProactiveDropper::paper_default();
    let timed_dropper = TimedDropper { inner: &dropper, clock: CallClock::default() };
    let timed_mapper = TimedMapper { inner: &Pam, clock: CallClock::default() };
    let policies = if args.trace {
        Policies { mapper: &timed_mapper, dropper: &timed_dropper }
    } else {
        Policies { mapper: &Pam, dropper: &dropper }
    };

    let reference = pass(&inputs, &policies, &mut clocks);
    let rounds_per_pass = clocks.round_ns.len();
    clocks.round_ns.clear();
    clocks.cal.speed();
    let drop_warm = timed_dropper.clock.read();
    let map_warm = timed_mapper.clock.read();

    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per correct pass: its rate and the reference-speed time of each round.
    let mut passes = Vec::new();
    let mut speeds = Vec::new();
    let (mut rounds, mut round_raw_ns) = (0u64, 0u64);
    // The run's length is wall time by contract; every figure is CPU time.
    #[allow(clippy::disallowed_methods)]
    let wall_start = Instant::now();
    loop {
        let spent = clocks.cal.spent_ns;
        let start = cpu_ns();
        let out = pass(&inputs, &policies, &mut clocks);
        let cpu = cpu_ns() - start - (clocks.cal.spent_ns - spent);
        let speed = clocks.cal.speed();
        attempted += 1;
        if out != reference || !out.balanced || clocks.round_ns.len() != rounds_per_pass {
            failed += 1;
        } else {
            let rate = out.counters.tasks as f64 / (cpu as f64 * speed / 1e9);
            let times: Vec<f64> = clocks.round_ns.iter().map(|&ns| ns as f64 * speed).collect();
            passes.push(Sample { speed, value: (rate, times) });
        }
        speeds.push(speed);
        rounds += clocks.round_ns.len() as u64;
        round_raw_ns += clocks.round_ns.drain(..).sum::<u64>();
        if wall_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let passes = faster_half(passes);
    let mut rates: Vec<f64> = passes.iter().map(|p| p.value.0).collect();
    // Each round's median time over the passes, then percentiles over rounds.
    let mut typical: Vec<f64> = (0..rounds_per_pass)
        .map(|i| median(&mut passes.iter().map(|p| p.value.1[i]).collect::<Vec<_>>()))
        .collect();
    typical.sort_unstable_by(f64::total_cmp);
    let mut setup_s: Vec<f64> = faster_half(setups).into_iter().map(|s| s.value).collect();
    let since = |now: (u64, u64), warm: (u64, u64)| (now.0 - warm.0, now.1 - warm.1);
    Report {
        correct: reference.balanced && failed == 0,
        attempted,
        failed,
        setup_s: median(&mut setup_s),
        tasks_per_cpu_s: median(&mut rates),
        round_ms_p50: smoothed_percentile(&typical, 0.50) / 1e6,
        round_ms_p90: smoothed_percentile(&typical, 0.90) / 1e6,
        counters: reference.counters,
        drop_calls: drop_warm.0,
        map_calls: map_warm.0,
        drop: since(timed_dropper.clock.read(), drop_warm),
        map: since(timed_mapper.clock.read(), map_warm),
        rounds,
        round_raw_ns,
        speed: median(&mut speeds),
    }
}

/// A measured set-up or pass, with the speed its calibration chunks read.
struct Sample<T> {
    speed: f64,
    value: T,
}

/// The faster half (rounded up) of `samples`, by calibration speed.
///
/// Scaling by the calibration speed takes out most of a neighbour's effect,
/// but not all: while the machine is busiest the program's work slows a
/// little more than the calibration load does, so those stretches still
/// read slow. Keeping the stretches the calibration found least disturbed
/// makes the figures repeat from run to run.
fn faster_half<T>(mut samples: Vec<Sample<T>>) -> Vec<Sample<T>> {
    samples.sort_by(|a, b| b.speed.total_cmp(&a.speed));
    samples.truncate(samples.len().div_ceil(2));
    samples
}

/// Median (NaN with no values).
fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Percentile `q` of sorted samples, smoothed: the mean of the samples
/// ranked within five points of it (NaN with none). Round times fall into
/// clusters, and a plain nearest-rank percentile that sits between two of
/// them jumps from one to the other on a small shift.
fn smoothed_percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let lo = (((q - 0.05) * n).floor().max(0.0) as usize).min(sorted.len());
    let hi = (((q + 0.05) * n).ceil() as usize).clamp(lo, sorted.len());
    let band = &sorted[lo..hi];
    band.iter().sum::<f64>() / band.len() as f64
}

/// Raw nanoseconds per item, in reference-speed units of `scale` ns (0 with
/// no items).
fn per_item(nanos: u64, items: u64, scale: f64, speed: f64) -> f64 {
    if items == 0 {
        0.0
    } else {
        nanos as f64 * speed / items as f64 / scale
    }
}

impl Report {
    fn to_json(&self, trace: bool) -> String {
        let c = &self.counters;
        let metrics: Vec<(&str, f64, &str)> = if trace {
            let policy_ns = self.drop.1 + self.map.1;
            let self_ns = self.round_raw_ns.saturating_sub(policy_ns);
            vec![
                ("pass_tasks", c.tasks as f64, "count"),
                ("pass_rounds", c.rounds as f64, "count"),
                ("mapping_events", c.mapping_events as f64, "count"),
                ("drop_calls", self.drop_calls as f64, "count"),
                ("map_calls", self.map_calls as f64, "count"),
                ("tail_cache_hits", c.cache.tail_hits as f64, "count"),
                ("tail_cache_misses", c.cache.tail_misses as f64, "count"),
                ("conv_cache_hits", c.cache.conv_hits as f64, "count"),
                ("conv_cache_misses", c.cache.conv_misses as f64, "count"),
                ("tasks_on_time", c.on_time as f64, "count"),
                ("tasks_dropped", c.dropped as f64, "count"),
                ("offers_turned_away", c.turned_away as f64, "count"),
                ("offers_stolen", c.stolen as f64, "count"),
                ("checkpoints", c.checkpoints as f64, "count"),
                ("dag_released", c.dag_released as f64, "count"),
                ("dag_merged", c.dag_merged as f64, "count"),
                ("dag_forfeited", c.dag_forfeited as f64, "count"),
                ("drop_us_per_call", per_item(self.drop.1, self.drop.0, 1e3, self.speed), "us"),
                ("map_us_per_call", per_item(self.map.1, self.map.0, 1e3, self.speed), "us"),
                ("policy_time_pct", 100.0 * policy_ns as f64 / self.round_raw_ns as f64, "%"),
                ("self_us_per_round", per_item(self_ns, self.rounds, 1e3, self.speed), "us"),
            ]
        } else {
            vec![
                ("tasks_per_cpu_s", self.tasks_per_cpu_s, "1/s"),
                ("round_ms_p50", self.round_ms_p50, "ms"),
                ("round_ms_p90", self.round_ms_p90, "ms"),
                ("setup_s", self.setup_s, "s"),
            ]
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|&(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

// --- engine -----------------------------------------------------------------

struct EngineInputs {
    scenario: Scenario,
    trials: Vec<Workload>,
}

fn setup_engine(seed: u64) -> EngineInputs {
    let scenario = Scenario::specint(ENGINE_SCENARIO_SEED);
    let level = OversubscriptionLevel::new("perfbench", ENGINE_TASKS, ENGINE_WINDOW);
    let trials = (0..ENGINE_TRIALS)
        .map(|i| Workload::generate(&scenario, &level, 1.0, mix(seed, i)))
        .collect();
    EngineInputs { scenario, trials }
}

fn engine_pass(inputs: &EngineInputs, policies: &Policies<'_>, clocks: &mut Clocks) -> PassOutput {
    let mut counters = Counters::default();
    let mut results = Vec::with_capacity(inputs.trials.len());
    let mut balanced = true;
    for workload in &inputs.trials {
        let mut core = SimCore::new(
            &inputs.scenario,
            workload,
            policies.mapper,
            policies.dropper,
            config(),
            mix(workload.seed, 0xE0),
        )
        .expect("generated trials are valid");
        loop {
            counters.rounds += 1;
            if !matches!(clocks.time_round(|| core.step()), StepOutcome::Advanced { .. }) {
                break;
            }
        }
        counters.tasks += workload.len() as u64;
        counters.add_cache(core.cache_stats());
        match core.result() {
            Ok(result) => {
                balanced &= result.is_conserved() && result.total_tasks == workload.len();
                counters.add_trial(&result);
                results.push(result);
            }
            Err(_) => balanced = false,
        }
    }
    PassOutput { digest: format!("{results:?}"), balanced, counters }
}

// --- fleet ------------------------------------------------------------------

struct ShardSpec {
    name: String,
    exec_seed: u64,
    source: TrafficSource,
    capacity: usize,
    policy: BackpressurePolicy,
}

struct FleetInputs {
    scenario: Scenario,
    shards: Vec<ShardSpec>,
}

fn setup_fleet(seed: u64) -> FleetInputs {
    let scenario = Scenario::specint(FLEET_SCENARIO_SEED);
    let types = scenario.task_type_count() as u16;
    // Each group has two flash-crowd tenants behind small front doors, two
    // day/night tenants and two quiet ones: the imbalance that makes
    // stealing and all three backpressure policies act. Every source is a
    // modulated Poisson stream whose cycles are short next to the ~20 000
    // ticks it spans, and an epoch's cost is summed over all groups' shards,
    // so the load of a pass and of its busiest epochs varies little from
    // seed to seed. (On/off bursts with random dwell times would make the
    // whole pass's load hang on a few dozen dwell draws.)
    let stream = |stream, rate, amplitude, period, total| {
        TrafficSource::Diurnal(DiurnalSource::new(
            mix(seed, stream),
            rate,
            amplitude,
            period,
            450,
            types,
            total,
        ))
    };
    let hot = |s| stream(s, 0.12, 1.0, 400, 2_400);
    let diurnal = |s, rate, amplitude, total| stream(s, rate, amplitude, 2_000, total);
    let pre_drop = BackpressurePolicy::PreDrop { threshold: 0.2 };
    let mut shards = Vec::new();
    for group in 0..FLEET_GROUPS {
        let at = 16 * group;
        let mut shard = |name, stream, source, capacity, policy| {
            shards.push(ShardSpec {
                name: format!("{name}-{group}"),
                exec_seed: mix(seed, at + stream),
                source,
                capacity,
                policy,
            });
        };
        shard("burst-a", 10, hot(at + 1), 16, BackpressurePolicy::Reject);
        shard("burst-b", 11, hot(at + 2), 16, pre_drop);
        shard("day-a", 12, diurnal(at + 3, 0.09, 0.6, 1_800), 24, BackpressurePolicy::ShedOldest);
        shard("day-b", 13, diurnal(at + 4, 0.09, 0.6, 1_800), 24, pre_drop);
        shard("quiet-a", 14, diurnal(at + 5, 0.04, 0.3, 800), 32, BackpressurePolicy::Reject);
        shard("quiet-b", 15, diurnal(at + 6, 0.04, 0.3, 800), 32, BackpressurePolicy::ShedOldest);
    }
    FleetInputs { scenario, shards }
}

fn fleet_pass(inputs: &FleetInputs, policies: &Policies<'_>, clocks: &mut Clocks) -> PassOutput {
    let mut fleet = FleetDriver::new().with_workers(1).with_stealing(FLEET_STEALING);
    for spec in &inputs.shards {
        fleet.add_shard(
            FleetShard::new(
                spec.name.as_str(),
                &inputs.scenario,
                policies.mapper,
                policies.dropper,
                config(),
                spec.exec_seed,
                spec.source.clone(),
                AdmissionController::new(spec.capacity, spec.policy),
            )
            .expect("valid shard"),
        );
    }
    let mut counters = Counters::default();
    let mut balanced = true;
    while !fleet.is_idle() && counters.rounds < FLEET_MAX_EPOCHS {
        counters.rounds += 1;
        let due = counters.rounds % FLEET_CHECKPOINT_EVERY == 0;
        balanced &= clocks.time_round(|| {
            let ok = fleet.advance(FLEET_EPOCH).is_ok();
            if due {
                fleet.checkpoint_all();
            }
            ok
        });
        counters.checkpoints += u64::from(due);
    }
    balanced &= fleet.is_idle();

    let stats: Vec<AdmissionStats> = fleet.shards().iter().map(|s| s.admission().stats()).collect();
    let mut results = Vec::with_capacity(stats.len());
    for (shard, st) in fleet.shards().iter().zip(&stats) {
        counters.tasks += st.offered;
        counters.turned_away += st.turned_away();
        counters.stolen += st.stolen_out;
        counters.add_cache(shard.core().cache_stats());
        // The ledger: every offer made here or stolen in was admitted,
        // turned away, is still queued, or was stolen out.
        balanced &= st.offered + st.stolen_in
            == st.admitted + st.turned_away() + shard.admission().queued() as u64 + st.stolen_out;
        match shard.result() {
            Ok(result) => {
                balanced &= result.is_conserved() && result.total_tasks as u64 == st.admitted;
                counters.add_trial(&result);
                results.push(result);
            }
            Err(_) => balanced = false,
        }
    }
    balanced &= stats.iter().map(|s| s.stolen_in).sum::<u64>() == counters.stolen;
    PassOutput { digest: format!("{results:?}{stats:?}"), balanced, counters }
}

// --- dag --------------------------------------------------------------------

struct DagInputs {
    scenario: Scenario,
    exec_seed: u64,
    bursts: Vec<(u64, Vec<TaskGraph>)>,
}

fn setup_dag(seed: u64) -> DagInputs {
    let scenario = Scenario::specint(DAG_SCENARIO_SEED);
    let types = scenario.task_type_count() as u16;
    let graph = |bp| TaskGraph::from_blueprint(&bp).expect("generated graphs validate");
    let bursts = (0..DAG_BURSTS)
        .map(|b| {
            let arrival = DAG_GAP * b;
            let s = mix(seed, b);
            // Identical requests for one chain: the shape merging collapses.
            let len = 2 + (s % 3) as usize;
            let chain = graph(graphgen::linear_chain(s, arrival, len, types, 420));
            let mut graphs = vec![chain; 1 + ((s >> 8) % 3) as usize];
            graphs.push(graph(graphgen::fan_out_fan_in(s ^ 1, arrival, 3, types, 520)));
            if b % 4 == 0 {
                let bp = graphgen::random_layered(s ^ 2, arrival, 3, 3, 0.5, types, (400, 700));
                graphs.push(graph(bp));
            }
            if b % 5 == 4 {
                graphs.push(graph(graphgen::linear_chain(s ^ 3, arrival, 3, types, 25)));
            }
            (arrival, graphs)
        })
        .collect();
    DagInputs { scenario, exec_seed: mix(seed, 0xDA6), bursts }
}

fn dag_pass(inputs: &DagInputs, policies: &Policies<'_>, clocks: &mut Clocks) -> PassOutput {
    let mut core = SimCore::open(
        &inputs.scenario,
        policies.mapper,
        policies.dropper,
        config(),
        inputs.exec_seed,
    )
    .expect("valid configuration");
    let tap = DagTap::new();
    tap.attach(&mut core);
    let mut coord = DagCoordinator::new().with_merging().with_pruning(DAG_PRUNE_THRESHOLD);
    let mut counters = Counters::default();
    let mut balanced = true;
    for (arrival, graphs) in &inputs.bursts {
        counters.rounds += 1;
        balanced &= clocks.time_round(|| {
            let mut ok = coord.advance(&mut core, &tap, *arrival).is_ok();
            for graph in graphs {
                ok &= coord.add_graph(&mut core, graph.clone()).is_ok();
            }
            ok
        });
    }
    counters.rounds += 1;
    balanced &= clocks.time_round(|| coord.run_to_drain(&mut core, &tap).is_ok());
    balanced &= coord.all_resolved() && coord.audit();

    let stats = coord.stats();
    counters.tasks = stats.nodes;
    counters.dag_released = stats.injected;
    counters.dag_merged = stats.merged;
    counters.dag_forfeited = stats.forfeited();
    counters.add_cache(core.cache_stats());
    let result = core.result();
    match &result {
        Ok(r) => {
            balanced &= r.is_conserved();
            counters.add_trial(r);
        }
        Err(_) => balanced = false,
    }
    PassOutput { digest: format!("{stats:?}{result:?}"), balanced, counters }
}
