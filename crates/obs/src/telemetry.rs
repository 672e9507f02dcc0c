//! The [`Telemetry`] handle: one registry + span tracker + rollups +
//! JSONL buffer behind a cheaply-cloneable handle, fed by read-only
//! observers.

use crate::export::{
    CheckpointRecord, DagRecord, EpochRecord, KillRestoreRecord, RollupRecord, SampleRecord,
    SpanRecord,
};
use crate::registry::MetricsRegistry;
use crate::trace::SpanTracker;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use taskdrop_pmf::Tick;
use taskdrop_sim::{
    AdmissionDropKind, DropKind, ForfeitKind, MetricsObserver, MigrationKind, SimCore, SimError,
    SimEvent, SimReport, TaskFate, TrialResult,
};

/// Fixed buckets for the `task_turnaround_ticks` histogram (arrival →
/// terminal event, in virtual ticks).
pub const TURNAROUND_BUCKETS: &[u64] = &[60, 120, 240, 480, 960, 1_920, 3_840];

/// Fixed buckets for the `checkpoint_bytes` histogram.
pub const CHECKPOINT_BYTES_BUCKETS: &[u64] =
    &[1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20];

/// The stable label for a [`TaskFate`] (used in counters, span outcomes,
/// and the JSONL stream).
#[must_use]
pub fn fate_str(fate: TaskFate) -> &'static str {
    match fate {
        TaskFate::OnTime => "on_time",
        TaskFate::OnTimeApprox => "on_time_approx",
        TaskFate::Late => "late",
        TaskFate::DroppedReactive => "dropped_reactive",
        TaskFate::DroppedProactive => "dropped_proactive",
        TaskFate::LostToFailure => "lost_to_failure",
        TaskFate::Forfeited => "forfeited",
    }
}

fn event_kind(ev: &SimEvent) -> &'static str {
    match ev {
        SimEvent::Arrived { .. } => "arrived",
        SimEvent::Mapped { .. } => "mapped",
        SimEvent::Started { .. } => "started",
        SimEvent::Degraded { .. } => "degraded",
        SimEvent::Completed { .. } => "completed",
        SimEvent::Killed { .. } => "killed",
        SimEvent::Dropped { kind: DropKind::Reactive, .. } => "dropped_reactive",
        SimEvent::Dropped { kind: DropKind::Proactive, .. } => "dropped_proactive",
        SimEvent::MachineFailed { .. } => "machine_failed",
        SimEvent::MachineRepaired { .. } => "machine_repaired",
        SimEvent::MappingRound { .. } => "mapping_round",
        SimEvent::AdmissionDropped { .. } => "admission_dropped",
        SimEvent::CascadeForfeited { .. } => "cascade_forfeited",
        SimEvent::TaskMigrated { kind: MigrationKind::Donated, .. } => "migrated_out",
        SimEvent::TaskMigrated { kind: MigrationKind::Received, .. } => "migrated_in",
        _ => "other",
    }
}

fn admission_kind_str(kind: AdmissionDropKind) -> &'static str {
    match kind {
        AdmissionDropKind::RejectedFull => "rejected_full",
        AdmissionDropKind::ShedOldest => "shed_oldest",
        AdmissionDropKind::PreDropped => "pre_dropped",
        AdmissionDropKind::Expired => "expired",
        AdmissionDropKind::Invalid => "invalid",
    }
}

fn forfeit_kind_str(kind: ForfeitKind) -> &'static str {
    match kind {
        ForfeitKind::Cascade => "cascade",
        ForfeitKind::Pruned => "pruned",
        ForfeitKind::AdmissionShed => "admission_shed",
    }
}

#[derive(Debug, Default)]
struct TelemetryInner {
    registry: MetricsRegistry,
    trackers: BTreeMap<String, SpanTracker>,
    rollups: BTreeMap<String, MetricsObserver>,
    jsonl: String,
    spans_emitted: u64,
    sample_every: Option<Tick>,
    next_sample: Tick,
}

impl TelemetryInner {
    fn push_record<T: Serialize>(&mut self, rec: &T) {
        // lint:allow(panic-unwrap): derived Serialize on plain record structs is infallible
        let line = serde_json::to_string(rec).expect("telemetry records always serialize");
        self.jsonl.push_str(&line);
        self.jsonl.push('\n');
    }

    fn sample(&mut self, t: Tick) {
        let point = self.registry.sample(t);
        self.push_record(&SampleRecord { record: "sample".to_string(), t, metrics: point.metrics });
    }

    fn observe_event(&mut self, scope: &str, ev: &SimEvent, rollup: bool) {
        self.registry.counter_add(
            "sim_events_total",
            &[("scope", scope), ("kind", event_kind(ev))],
            1,
        );
        if let Some((_, fate)) = ev.resolved() {
            self.registry.counter_add(
                "tasks_resolved_total",
                &[("scope", scope), ("fate", fate_str(fate))],
                1,
            );
        }
        match ev {
            SimEvent::AdmissionDropped { kind, .. } => self.registry.counter_add(
                "admission_dropped_total",
                &[("scope", scope), ("kind", admission_kind_str(*kind))],
                1,
            ),
            SimEvent::CascadeForfeited { kind, .. } => self.registry.counter_add(
                "dag_forfeited_total",
                &[("scope", scope), ("kind", forfeit_kind_str(*kind))],
                1,
            ),
            SimEvent::TaskMigrated { kind, .. } => {
                let direction = match kind {
                    MigrationKind::Donated => "out",
                    MigrationKind::Received => "in",
                };
                self.registry.counter_add(
                    "tasks_migrated_total",
                    &[("scope", scope), ("direction", direction)],
                    1,
                );
            }
            _ => {}
        }
        let tracker = self.trackers.entry(scope.to_string()).or_default();
        if let Some(span) = tracker.on_event(ev) {
            self.registry.observe(
                "task_turnaround_ticks",
                &[("scope", scope)],
                TURNAROUND_BUCKETS,
                span.turnaround(),
            );
            self.spans_emitted += 1;
            self.push_record(&SpanRecord {
                record: "span".to_string(),
                scope: scope.to_string(),
                span,
            });
        }
        if rollup {
            if let Some(observer) = self.rollups.get_mut(scope) {
                use taskdrop_sim::SimObserver as _;
                observer.on_event(ev);
            }
        }
        if let Some(every) = self.sample_every {
            if let SimEvent::MappingRound { now } = ev {
                if *now >= self.next_sample {
                    self.sample(*now);
                    self.next_sample = (*now / every + 1) * every;
                }
            }
        }
    }
}

/// The telemetry pipeline behind a cheaply-cloneable handle.
///
/// One `Telemetry` owns a [`MetricsRegistry`], per-scope
/// [`SpanTracker`]s and [`MetricsObserver`] rollups, and the JSONL
/// export buffer. Clones share everything (single-threaded
/// `Rc<RefCell<…>>`, the `DagTap` pattern) — attach one clone per core,
/// keep one to sample and export.
///
/// **Determinism.** Every timestamp entering the pipeline is a virtual
/// tick supplied by the engine or the caller; nothing here reads the
/// wall clock or draws randomness. For a fixed seed the JSONL export is
/// byte-identical across runs, and because observers are read-only, an
/// instrumented run's engine state (fates, work counters, checkpoints)
/// is byte-identical to an uninstrumented one — *not attaching* is the
/// zero-cost disabled path.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Rc<RefCell<TelemetryInner>>,
}

impl Telemetry {
    /// A fresh, empty pipeline.
    #[must_use]
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Enables automatic sampling: the registry is flattened into the
    /// time series at the first mapping round on or after each multiple
    /// of `every` virtual ticks. (Callers can always [`Telemetry::sample`]
    /// manually, e.g. on fleet epoch boundaries.)
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    #[must_use]
    pub fn with_sample_every(self, every: Tick) -> Self {
        assert!(every > 0, "sampling interval must be positive");
        {
            let mut inner = self.inner.borrow_mut();
            inner.sample_every = Some(every);
            inner.next_sample = every;
        }
        self
    }

    /// Attaches full instrumentation to `core` under `scope`: per-event
    /// counters, lifecycle spans, the turnaround histogram, **and** a
    /// [`MetricsObserver`] rollup that reconstructs the core's
    /// [`TrialResult`] (retrieve it with [`Telemetry::finish_scope`]).
    ///
    /// Attach **before the first step** and use one scope per core: the
    /// rollup can only account for events it saw, and scopes share one
    /// task-id namespace per core.
    pub fn attach(&self, core: &mut SimCore<'_>, scope: &str) {
        let rollup = MetricsObserver::new(core.scenario(), core.config());
        self.inner.borrow_mut().rollups.insert(scope.to_string(), rollup);
        self.attach_impl(core, scope, true);
    }

    /// Attaches counters, spans and histograms only — no rollup. Safe to
    /// re-attach to a restored core mid-flight: counters then count
    /// replayed events again (at-least-once semantics), which a rollup's
    /// exactly-once fate table could not tolerate.
    pub fn attach_counters(&self, core: &mut SimCore<'_>, scope: &str) {
        self.attach_impl(core, scope, false);
    }

    fn attach_impl(&self, core: &mut SimCore<'_>, scope: &str, rollup: bool) {
        let handle = self.clone();
        let scope = scope.to_string();
        core.attach(move |ev: &SimEvent| {
            handle.inner.borrow_mut().observe_event(&scope, ev, rollup);
        });
    }

    /// Feeds one engine event into `scope`'s counters, spans and
    /// histograms *without* an attached observer — the entry point for
    /// drivers that buffer events off-thread (the parallel fleet's
    /// [`EventRelay`](taskdrop_sim::EventRelay) hubs) and hand them over
    /// at a single-threaded epoch barrier. Equivalent to the
    /// [`Telemetry::attach_counters`] path event-for-event: feeding a
    /// relay's buffer in order produces the same pipeline state as having
    /// observed the events live, which is what keeps fleet telemetry
    /// byte-identical at any worker count. No rollup is maintained
    /// (at-least-once semantics, as with `attach_counters`).
    pub fn scope_event(&self, scope: &str, ev: &SimEvent) {
        self.inner.borrow_mut().observe_event(scope, ev, false);
    }

    /// Flattens the registry into the time series at virtual time `t`
    /// and emits the matching `sample` JSONL record.
    pub fn sample(&self, t: Tick) {
        self.inner.borrow_mut().sample(t);
    }

    /// Reads gauges off a core's **read-only** snapshot: per-machine
    /// queue depths, batch depth, resolved/total tasks, and the
    /// cache-stats counters with their derived hit rates. Never calls
    /// anything that would touch the core's policy context (estimators
    /// mutate work counters; a sampler must not).
    pub fn sample_core(&self, core: &SimCore<'_>, scope: &str) {
        let state = core.state();
        let cache = core.cache_stats();
        let mut inner = self.inner.borrow_mut();
        for m in &state.machines {
            let label = m.machine.id.to_string();
            let depth = m.pending.len() + usize::from(m.running.is_some());
            inner.registry.gauge_set(
                "queue_depth",
                &[("scope", scope), ("machine", &label)],
                depth as f64,
            );
        }
        inner.registry.gauge_set("batch_depth", &[("scope", scope)], state.batch.len() as f64);
        inner.registry.gauge_set("tasks_total", &[("scope", scope)], state.total_tasks as f64);
        inner.registry.gauge_set(
            "tasks_resolved",
            &[("scope", scope)],
            state.resolved_tasks as f64,
        );
        let scope_label = [("scope", scope)];
        inner.registry.counter_set("cache_tail_hits_total", &scope_label, cache.tail_hits);
        inner.registry.counter_set("cache_tail_misses_total", &scope_label, cache.tail_misses);
        inner.registry.counter_set("cache_conv_hits_total", &scope_label, cache.conv_hits);
        inner.registry.counter_set("cache_conv_misses_total", &scope_label, cache.conv_misses);
        let tail_lookups = cache.tail_hits + cache.tail_misses;
        if tail_lookups > 0 {
            inner.registry.gauge_set(
                "cache_tail_hit_rate",
                &scope_label,
                cache.tail_hits as f64 / tail_lookups as f64,
            );
        }
        let conv_lookups = cache.conv_hits + cache.conv_misses;
        if conv_lookups > 0 {
            inner.registry.gauge_set(
                "cache_conv_hit_rate",
                &scope_label,
                cache.conv_hits as f64 / conv_lookups as f64,
            );
        }
    }

    /// Emits one fleet epoch record: per-shard backlog gauges
    /// and cumulative admission counters, the `epoch` JSONL line, and a
    /// time-series sample at the epoch boundary.
    pub fn record_epoch(&self, epoch: &EpochRecord) {
        let mut inner = self.inner.borrow_mut();
        for shard in &epoch.shards {
            let label = [("shard", shard.shard.as_str())];
            inner.registry.gauge_set("ingress_backlog", &label, shard.backlog as f64);
            inner.registry.counter_set("admission_offered_total", &label, shard.offered);
            inner.registry.counter_set("admission_admitted_total", &label, shard.admitted);
            inner.registry.counter_set("admission_turned_away_total", &label, shard.turned_away);
            if shard.stolen_in > 0 || shard.stolen_out > 0 {
                inner.registry.counter_set("shard_stolen_in_total", &label, shard.stolen_in);
                inner.registry.counter_set("shard_stolen_out_total", &label, shard.stolen_out);
            }
        }
        inner.push_record(epoch);
        inner.sample(epoch.to);
    }

    /// Emits one shard-checkpoint record and feeds the `checkpoint_bytes`
    /// histogram — the serialization cost is only ever measured when
    /// telemetry is enabled.
    pub fn record_checkpoint(&self, shard: &str, t: Tick, bytes: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.registry.counter_add("checkpoints_total", &[("shard", shard)], 1);
        inner.registry.observe(
            "checkpoint_bytes",
            &[("shard", shard)],
            CHECKPOINT_BYTES_BUCKETS,
            bytes,
        );
        inner.push_record(&CheckpointRecord {
            record: "checkpoint".to_string(),
            shard: shard.to_string(),
            t,
            bytes,
        });
    }

    /// Emits one kill/restore record.
    pub fn record_kill_restore(
        &self,
        shard: &str,
        revived_at: Tick,
        clock: Tick,
        post_mortem_events: u64,
    ) {
        let mut inner = self.inner.borrow_mut();
        inner.registry.counter_add("kill_restores_total", &[("shard", shard)], 1);
        inner.push_record(&KillRestoreRecord {
            record: "kill_restore".to_string(),
            shard: shard.to_string(),
            revived_at,
            clock,
            post_mortem_events,
        });
    }

    /// Mirrors cumulative graph-layer rates (from `DagStats`) into
    /// counters and emits the `dag` JSONL record.
    pub fn record_dag(&self, rec: &DagRecord) {
        let mut inner = self.inner.borrow_mut();
        let scope = [("scope", rec.scope.as_str())];
        inner.registry.counter_set("dag_released_total", &scope, rec.released);
        inner.registry.counter_set("dag_merged_total", &scope, rec.merged);
        inner.push_record(rec);
    }

    /// Finishes a scope attached with [`Telemetry::attach`]: emits the
    /// `rollup` JSONL record and returns the stream-reconstructed
    /// [`TrialResult`] (byte-equal to the engine's own — the
    /// `MetricsObserver` equivalence the integration tests pin).
    ///
    /// # Errors
    ///
    /// [`SimError::NotDrained`] if tasks are still in flight.
    ///
    /// # Panics
    ///
    /// Panics if `scope` was never attached with a rollup.
    pub fn finish_scope(&self, scope: &str) -> Result<TrialResult, SimError> {
        let mut inner = self.inner.borrow_mut();
        let result = inner
            .rollups
            .get(scope)
            // lint:allow(panic-macro): documented misuse panic — finishing a scope that was never attached is a caller bug, not a runtime state
            .unwrap_or_else(|| panic!("scope {scope:?} has no rollup (use Telemetry::attach)"))
            .result()?;
        inner.push_record(&RollupRecord {
            record: "rollup".to_string(),
            scope: scope.to_string(),
            result: result.clone(),
        });
        Ok(result)
    }

    /// Collects every rollup scope (in scope order) into a
    /// [`SimReport`] — the aggregate exporter.
    ///
    /// # Errors
    ///
    /// [`SimError::NotDrained`] if any scope still has tasks in flight.
    pub fn report(
        &self,
        scenario: &str,
        level: &str,
        mapper: &str,
        dropper: &str,
    ) -> Result<SimReport, SimError> {
        let inner = self.inner.borrow();
        let trials =
            inner.rollups.values().map(MetricsObserver::result).collect::<Result<Vec<_>, _>>()?;
        Ok(SimReport {
            scenario: scenario.to_string(),
            level: level.to_string(),
            mapper: mapper.to_string(),
            dropper: dropper.to_string(),
            trials,
        })
    }

    /// The JSONL export: every emitted record, one JSON object per line,
    /// byte-identical across runs with the same seed.
    #[must_use]
    pub fn jsonl(&self) -> String {
        self.inner.borrow().jsonl.clone()
    }

    /// The Prometheus-style text snapshot of the registry's current
    /// state.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.inner.borrow().registry.render_prometheus()
    }

    /// A counter's current value (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.inner.borrow().registry.counter(name, labels)
    }

    /// A gauge's current value, if set.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.inner.borrow().registry.gauge(name, labels)
    }

    /// Time-series samples recorded so far.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.inner.borrow().registry.series().len()
    }

    /// Finished lifecycle spans emitted so far (across all scopes).
    #[must_use]
    pub fn spans_emitted(&self) -> u64 {
        self.inner.borrow().spans_emitted
    }

    /// Runs `f` over the registry (read-only escape hatch for custom
    /// exporters and assertions).
    pub fn with_registry<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.inner.borrow().registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskdrop_core::ProactiveDropper;
    use taskdrop_sched::Pam;
    use taskdrop_sim::SimConfig;
    use taskdrop_workload::{OversubscriptionLevel, Scenario, Workload};

    fn run_instrumented() -> (Telemetry, TrialResult) {
        let scenario = Scenario::specint(11);
        let level = OversubscriptionLevel::new("t", 80, 900);
        let workload = Workload::generate(&scenario, &level, 1.0, 17);
        let mapper = Pam;
        let dropper = ProactiveDropper::paper_default();
        let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
        let mut core = SimCore::new(&scenario, &workload, &mapper, &dropper, config, 17)
            .expect("valid config");
        let tel = Telemetry::new().with_sample_every(200);
        tel.attach(&mut core, "trial");
        while !core.step().is_drained() {}
        let engine = core.result().expect("drained");
        (tel, engine)
    }

    #[test]
    fn rollup_reconstructs_the_engine_result() {
        let (tel, engine) = run_instrumented();
        let rollup = tel.finish_scope("trial").expect("drained");
        assert_eq!(rollup, engine);
        let report = tel.report("specint", "t", "PAM", "Heuristic").expect("drained");
        assert_eq!(report.trials, vec![engine]);
        assert_eq!(report.label(), "PAM+Heuristic");
    }

    #[test]
    fn counters_spans_and_samples_accumulate() {
        let (tel, engine) = run_instrumented();
        let total = engine.total_tasks as u64;
        let arrived = tel.counter("sim_events_total", &[("scope", "trial"), ("kind", "arrived")]);
        assert_eq!(arrived, total);
        assert_eq!(tel.spans_emitted(), total, "every task yields exactly one span");
        assert!(tel.series_len() > 0, "auto-sampling never fired");
        let resolved: u64 = [
            "on_time",
            "on_time_approx",
            "late",
            "dropped_reactive",
            "dropped_proactive",
            "lost_to_failure",
        ]
        .iter()
        .map(|fate| tel.counter("tasks_resolved_total", &[("scope", "trial"), ("fate", fate)]))
        .sum();
        assert_eq!(resolved, total);
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let (tel, _) = run_instrumented();
        tel.finish_scope("trial").expect("drained");
        let jsonl = tel.jsonl();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let value: serde::value::Value = serde_json::from_str(line).expect("line parses");
            assert!(value.get("record").is_some(), "untagged record: {line}");
        }
    }

    #[test]
    fn prometheus_snapshot_renders() {
        let (tel, _) = run_instrumented();
        let text = tel.prometheus();
        assert!(text.contains("# TYPE sim_events_total counter"));
        assert!(text.contains("# TYPE task_turnaround_ticks histogram"));
    }
}
