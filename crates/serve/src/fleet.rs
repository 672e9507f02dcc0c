//! The serving driver: many shards, one virtual clock, epoch-parallel
//! advance with deterministic epoch-barrier merges and optional
//! cross-shard work stealing.
//!
//! [`FleetDriver`] multiplexes independent [`FleetShard`]s — one per
//! tenant or cluster — against a shared virtual clock, in fixed *epochs*.
//! Each epoch runs in two strictly separated phases:
//!
//! 1. **Parallel phase.** The shard vector is partitioned into contiguous
//!    chunks, one per worker, and each worker advances its shards to the
//!    epoch boundary on a crossbeam scoped thread. Shards share *nothing*
//!    mutable — each owns its core, traffic source, admission controller
//!    and flight recorder — so the partition only decides *who* computes
//!    a shard's epoch, never *what* it computes. With one worker the pool
//!    is skipped and the shards advance in index order on the calling
//!    thread.
//! 2. **Barrier phase.** Back on the calling thread, shards are merged in
//!    shard-index order: steal decisions are planned from the merged
//!    backlog snapshot and executed, buffered engine events are drained
//!    into each shard's flight recorder and into telemetry, the epoch
//!    record is emitted, and periodic checkpoints are taken.
//!
//! With a checkpoint interval configured, the driver snapshots every shard
//! periodically, and [`FleetDriver::kill_and_restore`] can discard a
//! shard's live state mid-flight and revive it from its last checkpoint.
//! The revived shard is *caught back up* by replaying the recorded epoch
//! boundaries (and the migrations executed at them), and because every
//! layer is deterministic (keyed RNG draws, serialized cursors,
//! epoch-granular admission), the replay reproduces the killed shard's
//! state exactly.
//!
//! **Determinism claim.** Every byte of output — [`TrialResult`]s, shard
//! checkpoints, telemetry JSONL — is identical at 1, 2, 4, or 8 workers
//! (pinned by `tests/fleet_determinism.rs`). The argument: the parallel
//! phase is embarrassingly parallel over owned state, so each shard's
//! trajectory is a pure function of its inputs; every cross-shard
//! interaction (stealing) and every observation (flight recorder,
//! telemetry, checkpoints) happens in the single-threaded barrier in
//! shard-index order; and steal plans are computed by [`plan_steals`] — a
//! pure function of the merged epoch snapshot with exact integer
//! tie-breaking — never from thread timing. Buffering events in per-shard
//! [`EventRelay`] hubs and draining them at the barrier makes event
//! *observation* order canonical even though event *production* order
//! across shards is not.
//!
//! Work stealing is the serving-layer twist on the paper's thesis: rather
//! than letting a saturated shard turn work away (or pre-drop it) while a
//! sibling idles, queued offers migrate at the barrier — the same
//! utility-aware triage, but the remedy is relocation instead of
//! dropping. The TLA-style fleet invariants (no task duplicated, no task
//! lost, saturated shards make progress) are pinned as proptest
//! properties in `tests/steal_props.rs`.
//!
//! [`EventRelay`]: taskdrop_sim::EventRelay
//! [`TrialResult`]: taskdrop_sim::TrialResult

use crate::shard::FleetShard;
use crate::steal::{plan_steals, ShardLoad, StealPolicy};
use crate::ServeError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use taskdrop_obs::{EpochRecord, Telemetry};
use taskdrop_pmf::Tick;
use taskdrop_sim::SimError;
use taskdrop_workload::OfferedTask;

/// One executed cross-shard migration: `offers` moved from shard `from`
/// to shard `to` at an epoch barrier. Recorded in the fleet's replay log
/// so [`FleetDriver::kill_and_restore`] can re-apply the exact transfer
/// during catch-up.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// Donating shard index.
    pub from: usize,
    /// Receiving shard index.
    pub to: usize,
    /// The migrated offers, in the order they left the donor's queue.
    pub offers: Vec<OfferedTask>,
}

/// One replayable epoch boundary: the tick the fleet advanced to and the
/// transfers executed at its barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EpochEntry {
    until: Tick,
    transfers: Vec<Transfer>,
}

/// Worker-pool default: one worker per available core.
fn default_workers() -> usize {
    // lint:allow(thread-primitives): sizes the crossbeam worker pool only; fleet output is worker-count-invariant (pinned by tests/fleet_determinism.rs)
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Epoch-parallel multi-shard driver with deterministic barrier merges
/// and optional cross-shard work stealing (see the module docs for the
/// two-phase structure and the determinism argument).
pub struct FleetDriver<'a> {
    shards: Vec<FleetShard<'a>>,
    clock: Tick,
    workers: usize,
    checkpoint_every: Option<Tick>,
    next_checkpoint: Tick,
    /// Whether any checkpoint sweep has happened yet; until one has, the
    /// replay log below would be useless (restore has nothing to start
    /// from) and is not kept, so a never-checkpointing fleet does not
    /// accumulate boundaries forever.
    has_checkpoint: bool,
    /// Replayable epoch boundaries (tick + executed transfers) still
    /// needed for catch-up, oldest first — bounded by the retention
    /// contract of `sweep_epoch_log`, which runs after every epoch.
    epoch_log: Vec<EpochEntry>,
    stealing: Option<StealPolicy>,
    /// Telemetry pipeline for shard events, epoch records, checkpoint
    /// cost, and kill/restore records. `None` (the default) is the
    /// zero-cost disabled path: no records, no serialization.
    telemetry: Option<Telemetry>,
}

impl std::fmt::Debug for FleetDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetDriver")
            .field("shards", &self.shards)
            .field("clock", &self.clock)
            .field("workers", &self.workers)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("stealing", &self.stealing)
            .field("epoch_log_len", &self.epoch_log.len())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl<'a> FleetDriver<'a> {
    /// An empty fleet at clock 0 with one worker per available core, no
    /// periodic checkpoints, and stealing disabled.
    #[must_use]
    pub fn new() -> Self {
        FleetDriver {
            shards: Vec::new(),
            clock: 0,
            workers: default_workers(),
            checkpoint_every: None,
            next_checkpoint: 0,
            has_checkpoint: false,
            epoch_log: Vec::new(),
            stealing: None,
            telemetry: None,
        }
    }

    /// Sets the worker-thread count for the parallel phase (clamped to at
    /// least 1). Purely a throughput knob: every observable byte is
    /// identical at any setting.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables periodic checkpoints: after each epoch that reaches or
    /// passes the next multiple of `interval`, every shard is snapshotted.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn with_checkpoint_every(mut self, interval: Tick) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        self.checkpoint_every = Some(interval);
        self.next_checkpoint = self.clock + interval;
        self
    }

    /// Enables cross-shard work stealing at epoch barriers. Only shards
    /// built on the *same scenario* (name and seed) exchange work —
    /// offers carry scenario-relative task-type ids.
    ///
    /// Stealing switches the fleet's ingress schedule from immediate to
    /// **epoch-batched dispatch**: an epoch's arrivals stay queued until
    /// the barrier (where they can migrate) and inject at the next
    /// epoch's start. Choose the mode before the first
    /// [`FleetDriver::advance`] and keep it for the fleet's lifetime — it
    /// is part of the trajectory, not a tuning knob.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails [`StealPolicy::is_valid`].
    #[must_use]
    pub fn with_stealing(mut self, policy: StealPolicy) -> Self {
        assert!(policy.is_valid(), "steal policy thresholds out of range");
        self.stealing = Some(policy);
        self
    }

    /// Wires a [`Telemetry`] pipeline into the fleet's barrier: every
    /// shard's buffered engine events are fed under the shard's name as
    /// scope (in shard-index order) via [`Telemetry::scope_event`], plus
    /// one `epoch` record (with per-shard backlog and admission totals)
    /// and a time-series sample per [`FleetDriver::advance`], a
    /// `checkpoint` record with the serialized byte cost per shard per
    /// sweep, and a `kill_restore` record per revival.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Adds a shard and returns its fleet index.
    pub fn add_shard(&mut self, shard: FleetShard<'a>) -> usize {
        self.shards.push(shard);
        self.shards.len() - 1
    }

    /// The shared virtual clock.
    #[must_use]
    pub fn clock(&self) -> Tick {
        self.clock
    }

    /// All shards, in add order.
    #[must_use]
    pub fn shards(&self) -> &[FleetShard<'a>] {
        &self.shards
    }

    /// Mutable access to one shard (e.g. to take a manual checkpoint or
    /// enable its flight recorder).
    pub fn shard_mut(&mut self, index: usize) -> Option<&mut FleetShard<'a>> {
        self.shards.get_mut(index)
    }

    /// Whether every shard is idle.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(FleetShard::is_idle)
    }

    /// Runs one epoch: the parallel phase advances every shard to
    /// `clock + delta` across the worker pool, then the barrier phase
    /// merges in shard-index order — steals, event drain into flight
    /// recorders and telemetry, epoch record, replay-log upkeep, periodic
    /// checkpoints. Returns the new clock.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidEpoch`] if `delta` is zero; otherwise the
    /// lowest-indexed shard error from the parallel phase (chosen by
    /// index, not thread timing, so the surfaced error is deterministic).
    /// The clock is not advanced past a failing epoch.
    ///
    /// # Panics
    ///
    /// Re-raises a worker-thread panic on the calling thread.
    pub fn advance(&mut self, delta: Tick) -> Result<Tick, ServeError> {
        if delta == 0 {
            return Err(ServeError::InvalidEpoch { delta });
        }
        let until = self.clock + delta;
        self.parallel_advance(until)?;

        // --- Barrier: everything below runs on the calling thread, in
        // shard-index order, regardless of worker count. ---
        let transfers = self.execute_steals(until);
        // Drained even on uninstrumented fleets, so relays stay bounded.
        for shard in &mut self.shards {
            shard.drain_events(self.telemetry.as_ref());
        }
        if let Some(telemetry) = &self.telemetry {
            telemetry.record_epoch(&EpochRecord {
                record: "epoch".to_string(),
                from: self.clock,
                to: until,
                shards: self.shards.iter().map(FleetShard::epoch_snapshot).collect(),
            });
        }
        self.clock = until;
        if self.has_checkpoint {
            self.epoch_log.push(EpochEntry { until, transfers });
            self.sweep_epoch_log();
        }
        if let Some(interval) = self.checkpoint_every {
            if self.clock >= self.next_checkpoint {
                self.checkpoint_all();
                while self.next_checkpoint <= self.clock {
                    self.next_checkpoint += interval;
                }
            }
        }
        Ok(self.clock)
    }

    /// The parallel phase: contiguous shard chunks, one crossbeam scoped
    /// thread each. With one effective worker the thread pool is skipped
    /// entirely — the 1-worker fleet is *literally* serial code, which
    /// anchors the determinism differential.
    fn parallel_advance(&mut self, until: Tick) -> Result<(), ServeError> {
        let deferred = self.stealing.is_some();
        let workers = self.workers.min(self.shards.len()).max(1);
        if workers == 1 {
            for shard in &mut self.shards {
                shard.advance_to(until, deferred)?;
            }
            return Ok(());
        }
        let chunk_size = self.shards.len().div_ceil(workers);
        let outcome = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .chunks_mut(chunk_size)
                .enumerate()
                .map(|(worker, chunk)| {
                    scope.spawn(move |_| {
                        for (offset, shard) in chunk.iter_mut().enumerate() {
                            if let Err(e) = shard.advance_to(until, deferred) {
                                return Some((worker * chunk_size + offset, e));
                            }
                        }
                        None
                    })
                })
                .collect();
            let mut first: Option<(usize, SimError)> = None;
            for handle in handles {
                match handle.join() {
                    Ok(Some((index, e))) => {
                        if first.as_ref().is_none_or(|(i, _)| index < *i) {
                            first = Some((index, e));
                        }
                    }
                    Ok(None) => {}
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            first
        });
        match outcome {
            Ok(None) => Ok(()),
            Ok(Some((_, e))) => Err(e.into()),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Plans and executes this barrier's migrations. Shards are grouped
    /// by scenario identity; within each group [`plan_steals`] runs on
    /// the merged backlog snapshot and the decisions are applied in plan
    /// order (ascending donor/receiver pairs).
    fn execute_steals(&mut self, until: Tick) -> Vec<Transfer> {
        let Some(policy) = self.stealing else { return Vec::new() };
        let mut groups: BTreeMap<(String, u64), Vec<usize>> = BTreeMap::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let scenario = shard.core().scenario();
            let key = (scenario.name.clone(), scenario.seed);
            groups.entry(key).or_default().push(index);
        }
        let mut transfers = Vec::new();
        for members in groups.values() {
            if members.len() < 2 {
                continue;
            }
            let loads: Vec<ShardLoad> = members
                .iter()
                .filter_map(|&i| self.shards.get(i))
                .map(|s| ShardLoad {
                    queued: s.admission().queued(),
                    capacity: s.admission().capacity(),
                })
                .collect();
            for decision in plan_steals(&policy, &loads) {
                let (Some(&from), Some(&to)) =
                    (members.get(decision.from), members.get(decision.to))
                else {
                    continue;
                };
                let Some(donor) = self.shards.get_mut(from) else { continue };
                let offers = donor.donate(decision.count, to, until);
                if let Some(receiver) = self.shards.get_mut(to) {
                    receiver.receive(&offers, from, until);
                }
                transfers.push(Transfer { from, to, offers });
            }
        }
        transfers
    }

    /// Snapshots every shard at the current clock and trims the replay log
    /// (boundaries at or before a fresh checkpoint can never be needed
    /// again).
    pub fn checkpoint_all(&mut self) {
        let clock = self.clock;
        for shard in &mut self.shards {
            let checkpoint = shard.take_checkpoint(clock);
            // Measuring checkpoint cost means serializing it — only paid
            // when telemetry is wired in, so the disabled path is free.
            let bytes = self
                .telemetry
                .as_ref()
                .map(|_| serde_json::to_string(checkpoint).map_or(0, |json| json.len() as u64));
            if let (Some(telemetry), Some(bytes)) = (&self.telemetry, bytes) {
                telemetry.record_checkpoint(shard.name(), clock, bytes);
            }
        }
        self.has_checkpoint = true;
        self.epoch_log.retain(|e| e.until > clock);
    }

    /// Trims the replay log to what a restore could still need.
    ///
    /// **Retention contract:** a revived shard replays the boundaries
    /// strictly after its own checkpoint tick, so any boundary at or
    /// before the *oldest live checkpoint* across the fleet can never be
    /// consulted again and is dropped. Run after every epoch, this bounds
    /// the log even when periodic checkpointing is off and sweeps happen
    /// only through manual per-shard [`FleetShard::take_checkpoint`]
    /// calls: the log holds at most the boundaries since the most stale
    /// shard's last checkpoint. A shard with *no* checkpoint pins nothing
    /// (it cannot be restored at all — [`ServeError::NoCheckpoint`]).
    fn sweep_epoch_log(&mut self) {
        let oldest_live =
            self.shards.iter().filter_map(|s| s.last_checkpoint().map(|cp| cp.taken_at)).min();
        if let Some(oldest) = oldest_live {
            self.epoch_log.retain(|e| e.until > oldest);
        }
    }

    /// Kills shard `index`'s live state, revives it from its last
    /// checkpoint, and replays the recorded epoch boundaries — including
    /// the migrations executed at each barrier, re-applied from the
    /// replay log: the donor side re-releases its queued offers (which
    /// determinism guarantees match the recorded transfer) and the
    /// receiver side re-merges the recorded offers. The revived shard
    /// rejoins the fleet byte-identical to the state that was destroyed,
    /// stealing included. Returns the checkpoint tick it was revived
    /// from.
    ///
    /// Replayed events are re-fed to the flight recorder (revived from
    /// the checkpoint, so it ends up exactly as it was before the kill)
    /// and to telemetry (at-least-once counter semantics: replayed events
    /// count again). The `kill_restore` record reports how many events
    /// the post-mortem kept.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownShard`] for a bad index,
    /// [`ServeError::NoCheckpoint`] if the shard was never checkpointed,
    /// or any restore/replay error.
    pub fn kill_and_restore(&mut self, index: usize) -> Result<Tick, ServeError> {
        let shards = self.shards.len();
        let Some(shard) = self.shards.get_mut(index) else {
            return Err(ServeError::UnknownShard { index, shards });
        };
        let cp = shard
            .last_checkpoint()
            .cloned()
            .ok_or_else(|| ServeError::NoCheckpoint { shard: shard.name().to_string() })?;
        shard.restore_from(&cp)?;
        let revived_at = cp.taken_at;
        let deferred = self.stealing.is_some();
        for entry in &self.epoch_log {
            if entry.until <= revived_at {
                continue;
            }
            shard.advance_to(entry.until, deferred)?;
            for transfer in &entry.transfers {
                if transfer.from == index {
                    let offers = shard.donate(transfer.offers.len(), transfer.to, entry.until);
                    debug_assert_eq!(
                        offers, transfer.offers,
                        "deterministic replay re-released different offers than were recorded"
                    );
                } else if transfer.to == index {
                    shard.receive(&transfer.offers, transfer.from, entry.until);
                }
            }
        }
        shard.drain_events(self.telemetry.as_ref());
        if let Some(telemetry) = &self.telemetry {
            let post_mortem = shard.post_mortem().map_or(0, |snap| snap.events.len() as u64);
            telemetry.record_kill_restore(shard.name(), revived_at, self.clock, post_mortem);
        }
        Ok(revived_at)
    }

    /// Advances in fixed `epoch`-sized steps until every shard is idle or
    /// `max_epochs` have run, returning how many epochs ran. Callers that
    /// need a guarantee should check [`FleetDriver::is_idle`] after.
    ///
    /// # Errors
    ///
    /// Any error from [`FleetDriver::advance`].
    pub fn run_until_idle(&mut self, epoch: Tick, max_epochs: usize) -> Result<usize, ServeError> {
        let mut epochs = 0;
        while epochs < max_epochs && !self.is_idle() {
            self.advance(epoch)?;
            epochs += 1;
        }
        Ok(epochs)
    }
}

impl Default for FleetDriver<'_> {
    fn default() -> Self {
        FleetDriver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionController, BackpressurePolicy};
    use crate::ShardCheckpoint;
    use taskdrop_core::{DropPolicy, ProactiveDropper, ReactiveOnly};
    use taskdrop_obs::FlightRecorder;
    use taskdrop_sched::Pam;
    use taskdrop_sim::{EventRelay, SimConfig, SimCore, TrialResult};
    use taskdrop_workload::{BurstySource, DiurnalSource, Scenario, TrafficSource};

    fn assert_send<T: Send>() {}

    #[test]
    fn fleet_shards_are_send() {
        assert_send::<FleetShard<'static>>();
        assert_send::<SimCore<'static, EventRelay>>();
    }

    fn config() -> SimConfig {
        SimConfig { exclude_boundary: 0, ..SimConfig::default() }
    }

    fn bursty() -> TrafficSource {
        TrafficSource::Bursty(BurstySource::new(21, 0.5, 0.0, 400, 900, 350, 12, 220))
    }

    fn diurnal() -> TrafficSource {
        TrafficSource::Diurnal(DiurnalSource::new(33, 0.12, 0.9, 3_000, 450, 12, 180))
    }

    fn bursty_shard<'a>(scenario: &'a Scenario, dropper: &'a dyn DropPolicy) -> FleetShard<'a> {
        let admission =
            AdmissionController::new(24, BackpressurePolicy::PreDrop { threshold: 0.2 });
        FleetShard::new("bursty", scenario, &Pam, dropper, config(), 7, bursty(), admission)
            .unwrap()
    }

    /// The two-shard fleet (bursty + diurnal, stealing off) most tests
    /// drive.
    fn fleet_driver<'a>(
        scenario: &'a Scenario,
        dropper: &'a dyn DropPolicy,
        workers: usize,
        checkpoint_every: Option<Tick>,
    ) -> FleetDriver<'a> {
        let mut driver = FleetDriver::new().with_workers(workers);
        if let Some(interval) = checkpoint_every {
            driver = driver.with_checkpoint_every(interval);
        }
        driver.add_shard(bursty_shard(scenario, dropper));
        driver.add_shard(
            FleetShard::new(
                "diurnal",
                scenario,
                &Pam,
                dropper,
                config(),
                8,
                diurnal(),
                AdmissionController::new(16, BackpressurePolicy::ShedOldest),
            )
            .unwrap(),
        );
        driver
    }

    #[test]
    fn fleet_serves_to_idle_and_conserves_every_shard() {
        let scenario = Scenario::specint(3);
        let dropper = ProactiveDropper::paper_default();
        let mut driver = fleet_driver(&scenario, &dropper, 1, None);
        driver.run_until_idle(500, 200).unwrap();
        assert!(driver.is_idle(), "fleet failed to drain within the epoch budget");
        for shard in driver.shards() {
            let result = shard.result().unwrap();
            assert!(result.is_conserved(), "{} lost tasks", shard.name());
            let stats = shard.admission().stats();
            assert_eq!(stats.offered, stats.admitted + stats.turned_away());
            assert_eq!(result.total_tasks as u64, stats.admitted);
        }
    }

    #[test]
    fn stealing_conserves_tasks_and_balances_the_ledger() {
        let scenario = Scenario::specint(3);
        let dropper = ProactiveDropper::paper_default();
        // Two shards on the same scenario with very different pressure:
        // the bursty one saturates its tiny queue, the other idles.
        let mut fleet = FleetDriver::new().with_workers(2).with_stealing(StealPolicy {
            saturation: 0.5,
            headroom: 0.9,
            max_per_epoch: 6,
        });
        fleet.add_shard(
            FleetShard::new(
                "hot",
                &scenario,
                &Pam,
                &dropper,
                config(),
                7,
                bursty(),
                AdmissionController::new(8, BackpressurePolicy::Reject),
            )
            .unwrap(),
        );
        fleet.add_shard(
            FleetShard::new(
                "cold",
                &scenario,
                &Pam,
                &dropper,
                config(),
                8,
                TrafficSource::Bursty(BurstySource::new(5, 0.05, 0.0, 600, 1_200, 80, 12, 400)),
                AdmissionController::new(32, BackpressurePolicy::Reject),
            )
            .unwrap(),
        );
        fleet.run_until_idle(400, 300).unwrap();
        assert!(fleet.is_idle());

        let stats: Vec<_> = fleet.shards().iter().map(|s| s.admission().stats()).collect();
        let stolen_out: u64 = stats.iter().map(|s| s.stolen_out).sum();
        let stolen_in: u64 = stats.iter().map(|s| s.stolen_in).sum();
        assert!(stolen_out > 0, "pressure imbalance never triggered a steal");
        assert_eq!(stolen_out, stolen_in, "migrated offers must balance fleet-wide");
        for (shard, s) in fleet.shards().iter().zip(&stats) {
            // Per-shard conservation with migration terms.
            assert_eq!(
                s.offered + s.stolen_in,
                s.admitted + s.turned_away() + s.stolen_out,
                "{} leaked offers",
                shard.name()
            );
            let result = shard.result().unwrap();
            assert!(result.is_conserved());
            assert_eq!(result.total_tasks as u64, s.admitted);
        }
    }

    #[test]
    fn zero_epoch_is_a_typed_error() {
        let scenario = Scenario::specint(3);
        let dropper = ProactiveDropper::paper_default();
        let mut fleet = fleet_driver(&scenario, &dropper, 2, None);
        assert!(matches!(fleet.advance(0), Err(ServeError::InvalidEpoch { delta: 0 })));
    }

    #[test]
    fn rejected_zero_epoch_leaves_the_clock_unchanged() {
        let scenario = Scenario::specint(3);
        let mut fleet = fleet_driver(&scenario, &ReactiveOnly, 1, None);
        fleet.advance(300).unwrap();
        assert!(matches!(fleet.advance(0), Err(ServeError::InvalidEpoch { delta: 0 })));
        assert_eq!(fleet.clock(), 300, "a rejected epoch must not move the clock");
    }

    #[test]
    fn kill_without_checkpoint_is_a_typed_error() {
        let scenario = Scenario::specint(3);
        let mut fleet = fleet_driver(&scenario, &ReactiveOnly, 1, None);
        fleet.advance(300).unwrap();
        assert!(matches!(fleet.kill_and_restore(0), Err(ServeError::NoCheckpoint { .. })));
        assert!(matches!(
            fleet.kill_and_restore(9),
            Err(ServeError::UnknownShard { index: 9, shards: 2 })
        ));
    }

    #[test]
    fn replay_log_is_bounded_by_the_oldest_live_checkpoint() {
        let scenario = Scenario::specint(3);
        let dropper = ProactiveDropper::paper_default();
        // No periodic checkpointing: retention is driven entirely by the
        // per-epoch sweep against manually taken checkpoints.
        let mut fleet = fleet_driver(&scenario, &dropper, 1, None);
        fleet.advance(200).unwrap();
        fleet.checkpoint_all();
        for _ in 0..5 {
            fleet.advance(200).unwrap();
        }
        // All five boundaries are after the only checkpoint (t=200): every
        // one could still be needed for a replay, so all are retained.
        assert_eq!(fleet.epoch_log.len(), 5);
        // Fresh per-shard snapshots advance the oldest live checkpoint;
        // the next epoch's sweep drops everything at or before it.
        let clock = fleet.clock();
        for index in 0..fleet.shards().len() {
            fleet.shard_mut(index).unwrap().take_checkpoint(clock);
        }
        fleet.advance(200).unwrap();
        assert_eq!(
            fleet.epoch_log.len(),
            1,
            "boundaries at or below the oldest live checkpoint must be swept"
        );
        // A revive still works off the trimmed log.
        fleet.kill_and_restore(0).unwrap();
        fleet.run_until_idle(200, 400).unwrap();
        assert!(fleet.is_idle());
    }

    #[test]
    fn shard_checkpoint_survives_serde_and_revives_elsewhere() {
        let scenario = Scenario::specint(3);
        let dropper = ProactiveDropper::paper_default();
        let mut fleet = fleet_driver(&scenario, &dropper, 1, None);
        for _ in 0..4 {
            fleet.advance(400).unwrap();
        }
        fleet.checkpoint_all();
        let json = serde_json::to_string(fleet.shards()[0].last_checkpoint().unwrap()).unwrap();

        // Finish the original fleet.
        fleet.run_until_idle(400, 200).unwrap();
        let expected = fleet.shards()[0].result().unwrap();

        // Revive shard 0 from the serialized checkpoint in a *fresh*
        // one-shard fleet, bring its clock to the checkpoint tick (an
        // epoch the restored shard has already served, so it does
        // nothing), and drive it alone to completion.
        let cp: ShardCheckpoint = serde_json::from_str(&json).unwrap();
        let mut revived = FleetDriver::new().with_workers(1);
        revived.add_shard(bursty_shard(&scenario, &dropper));
        revived.shard_mut(0).unwrap().restore_from(&cp).unwrap();
        revived.advance(cp.taken_at).unwrap();
        revived.run_until_idle(400, 200).unwrap();
        assert!(revived.is_idle());
        assert_eq!(revived.shards()[0].result().unwrap(), expected);
    }

    #[test]
    fn flight_recorder_rides_in_the_checkpoint() {
        let scenario = Scenario::specint(3);
        let dropper = ProactiveDropper::paper_default();
        let mut fleet = FleetDriver::new().with_workers(1);
        fleet.add_shard(bursty_shard(&scenario, &dropper));
        fleet.advance(400).unwrap();
        fleet.checkpoint_all();
        let shard = fleet.shard_mut(0).unwrap();
        let bare = shard.last_checkpoint().unwrap().clone();
        assert_eq!(bare.flight, None, "no recorder, nothing checkpointed");
        shard.enable_flight_recorder(16);
        for _ in 0..3 {
            fleet.advance(400).unwrap();
        }
        fleet.checkpoint_all();
        let recorded = fleet.shards()[0].flight_recorder().unwrap().snapshot();
        assert_eq!(recorded.events.len(), 16, "the barrier fills the ring to capacity");
        let cp = fleet.shards()[0].last_checkpoint().unwrap().clone();
        assert_eq!(cp.flight.as_ref(), Some(&recorded));

        // Revived elsewhere, a shard without a recorder gets it back.
        let mut fresh = bursty_shard(&scenario, &dropper);
        fresh.restore_from(&cp).unwrap();
        assert_eq!(fresh.flight_recorder().map(FlightRecorder::snapshot), Some(recorded.clone()));
        assert_eq!(fresh.post_mortem(), None, "a fresh shard destroys no timeline");

        // Rewinding to a checkpoint from before the recorder clears the
        // ring and keeps the destroyed contents as the post-mortem.
        let shard = fleet.shard_mut(0).unwrap();
        shard.restore_from(&bare).unwrap();
        assert_eq!(shard.post_mortem(), Some(&recorded));
        assert!(shard.flight_recorder().unwrap().is_empty());
    }

    #[test]
    fn kill_and_restore_replays_transfers_exactly() {
        let scenario = Scenario::specint(3);
        let dropper = ProactiveDropper::paper_default();
        let policy = StealPolicy { saturation: 0.5, headroom: 0.9, max_per_epoch: 6 };

        let build = |workers: usize| {
            let mut fleet = FleetDriver::new()
                .with_workers(workers)
                .with_checkpoint_every(800)
                .with_stealing(policy);
            fleet.add_shard(
                FleetShard::new(
                    "hot",
                    &scenario,
                    &Pam,
                    &dropper,
                    config(),
                    7,
                    bursty(),
                    AdmissionController::new(8, BackpressurePolicy::Reject),
                )
                .unwrap(),
            );
            fleet.add_shard(
                FleetShard::new(
                    "cold",
                    &scenario,
                    &Pam,
                    &dropper,
                    config(),
                    8,
                    diurnal(),
                    AdmissionController::new(32, BackpressurePolicy::Reject),
                )
                .unwrap(),
            );
            fleet
        };

        let mut straight = build(1);
        straight.run_until_idle(400, 300).unwrap();
        assert!(straight.is_idle());
        let expected: Vec<TrialResult> =
            straight.shards().iter().map(|s| s.result().unwrap()).collect();
        let expected_stats: Vec<_> =
            straight.shards().iter().map(|s| s.admission().stats()).collect();
        assert!(
            expected_stats.iter().any(|s| s.stolen_in + s.stolen_out > 0),
            "plan never stole; the replay test is vacuous"
        );

        let mut disturbed = build(4);
        for _ in 0..7 {
            disturbed.advance(400).unwrap();
        }
        let revived = disturbed.kill_and_restore(0).unwrap();
        assert!(revived < disturbed.clock());
        for _ in 0..3 {
            disturbed.advance(400).unwrap();
        }
        disturbed.kill_and_restore(1).unwrap();
        disturbed.run_until_idle(400, 300).unwrap();
        assert!(disturbed.is_idle());

        let results: Vec<TrialResult> =
            disturbed.shards().iter().map(|s| s.result().unwrap()).collect();
        assert_eq!(results, expected, "kill/restore with stealing diverged");
        let stats: Vec<_> = disturbed.shards().iter().map(|s| s.admission().stats()).collect();
        assert_eq!(stats, expected_stats);
    }
}
