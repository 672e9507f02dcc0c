//! Deterministic telemetry across all three execution layers.
//!
//! One [`Telemetry`] pipeline observes a closed-world trial, a
//! checkpointed serving fleet and a DAG coordinator — counters, lifecycle
//! spans, time-series samples, a bounded flight recorder — and exports
//! everything as JSONL plus a Prometheus-style text snapshot. Every
//! timestamp is a virtual tick: the pipeline never reads the wall clock,
//! so the JSONL written to `target/telemetry.jsonl` is byte-identical
//! across runs (CI re-parses it and checks the rollup record against
//! `target/telemetry_trial.json`).
//!
//! The rollup is not a second bookkeeping system: the stream-reconstructed
//! [`TrialResult`] is asserted equal to the engine's own — attaching
//! telemetry changes nothing, and *not* attaching costs nothing.
//!
//! ```sh
//! cargo run --release --example telemetry            # full demo scale
//! cargo run --release --example telemetry -- --quick  # seconds-scale smoke
//! ```

use taskdrop::prelude::*;
use taskdrop::workload::graphgen;

fn main() {
    let scale = taskdrop::demo::scale_from_args();
    let scenario = Scenario::specint(42);
    let dropper = ProactiveDropper::paper_default();
    let config = taskdrop::demo::scaled_config(scale);
    let tel = Telemetry::new().with_sample_every(if scale < 1.0 { 200 } else { 500 });

    // ---- part 1: closed-world trial, full instrumentation ----------------
    let tasks = ((1_200.0 * scale).round() as usize).max(60);
    let window = ((7_000.0 * scale).round() as u64).max(600);
    let level = OversubscriptionLevel::new("demo", tasks, window);
    let workload = Workload::generate(&scenario, &level, 1.0, 17);
    println!("instrumented trial on `{}`: {} tasks over {} ticks\n", scenario.name, tasks, window);

    let mut core = SimCore::new(&scenario, &workload, &taskdrop::sched::Pam, &dropper, config, 17)
        .expect("valid configuration");
    tel.attach(&mut core, "trial");
    let mut steps = 0u64;
    loop {
        let outcome = core.step();
        steps += 1;
        if steps % 64 == 0 {
            tel.sample_core(&core, "trial");
        }
        if outcome.is_drained() {
            break;
        }
    }
    tel.sample_core(&core, "trial");

    let trial = tel.finish_scope("trial").expect("drained");
    let engine = core.result().expect("drained");
    assert_eq!(trial, engine, "the telemetry rollup must equal the engine's own accounting");
    println!(
        "rollup == engine result: {:.1} % robustness | {} proactive drops | conserved {}",
        trial.robustness_pct(),
        trial.dropped_proactive,
        trial.is_conserved()
    );
    println!(
        "stream captured {} lifecycle spans, {} time-series samples; mean turnaround {} ticks",
        tel.spans_emitted(),
        tel.series_len(),
        tel.with_registry(|reg| {
            let h = reg.histogram("task_turnaround_ticks", &[("scope", "trial")]);
            h.map_or(0, |h| if h.count() == 0 { 0 } else { h.sum() / h.count() })
        }),
    );

    // ---- part 2: serving fleet with a flight recorder --------------------
    let (epoch, checkpoint_every, bursty_total, diurnal_total) =
        if scale < 1.0 { (120, 480, 220, 140) } else { (500, 2_000, 2_000, 1_200) };
    let bursty =
        TrafficSource::Bursty(BurstySource::new(21, 0.55, 0.0, 400, 300, 300, 12, bursty_total));
    let diurnal = TrafficSource::Diurnal(DiurnalSource::new(
        33,
        0.12,
        0.9,
        6 * epoch,
        400,
        12,
        diurnal_total,
    ));
    let serve_config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let mut driver =
        FleetDriver::new().with_checkpoint_every(checkpoint_every).with_telemetry(&tel);
    driver.add_shard(
        FleetShard::new(
            "flash-crowd",
            &scenario,
            &taskdrop::sched::Pam,
            &dropper,
            serve_config,
            7,
            bursty,
            AdmissionController::new(32, BackpressurePolicy::PreDrop { threshold: 0.2 }),
        )
        .expect("valid shard config"),
    );
    driver.add_shard(
        FleetShard::new(
            "steady-web",
            &scenario,
            &taskdrop::sched::Pam,
            &dropper,
            serve_config,
            8,
            diurnal,
            AdmissionController::new(24, BackpressurePolicy::ShedOldest),
        )
        .expect("valid shard config"),
    );
    driver.shard_mut(0).expect("shard 0 exists").enable_flight_recorder(48);

    for _ in 0..7 {
        driver.advance(epoch).expect("fleet epoch");
    }
    println!(
        "\nfleet at t={}: backlog flash-crowd={} steady-web={}, {} checkpoints taken",
        driver.clock(),
        tel.gauge("ingress_backlog", &[("shard", "flash-crowd")]).unwrap_or(0.0),
        tel.gauge("ingress_backlog", &[("shard", "steady-web")]).unwrap_or(0.0),
        tel.counter("checkpoints_total", &[("shard", "flash-crowd")])
            + tel.counter("checkpoints_total", &[("shard", "steady-web")]),
    );

    // Kill the instrumented shard; its flight recorder survives as the
    // post-mortem of the timeline that was destroyed.
    let revived_at = driver.kill_and_restore(0).expect("checkpoint exists by now");
    let post_mortem = driver.shards()[0].post_mortem().expect("recorder was enabled");
    println!(
        "killed `flash-crowd` at t={} (revived from t={revived_at}); post-mortem holds the\n\
         last {} events of the destroyed timeline, ending with:",
        driver.clock(),
        post_mortem.events.len(),
    );
    for ev in post_mortem.events.iter().rev().take(3).rev() {
        println!("  {ev:?}");
    }

    driver.run_until_idle(epoch, 10_000).expect("drain");
    assert!(driver.is_idle(), "fleet failed to drain");
    println!("\nfleet drained; cumulative admission verdicts from the registry:");
    for shard in ["flash-crowd", "steady-web"] {
        let label = [("shard", shard)];
        println!(
            "  {:<12} offered {:>5}  admitted {:>5}  turned away {:>4}",
            shard,
            tel.counter("admission_offered_total", &label),
            tel.counter("admission_admitted_total", &label),
            tel.counter("admission_turned_away_total", &label),
        );
    }

    // ---- part 3: DAG layer rates -----------------------------------------
    let mut dag_core = SimCore::open(&scenario, &taskdrop::sched::Pam, &dropper, serve_config, 7)
        .expect("valid configuration");
    let tap = DagTap::new();
    tap.attach(&mut dag_core);
    tel.attach_counters(&mut dag_core, "dag");
    let mut coord = DagCoordinator::new();
    let types = scenario.task_type_count() as u16;
    for bp in [
        graphgen::linear_chain(5, 0, 6, types, 2_500),
        graphgen::fan_out_fan_in(9, 50, 4, types, 2_500),
    ] {
        let graph = TaskGraph::from_blueprint(&bp).expect("generated blueprints are valid");
        coord.add_graph(&mut dag_core, graph).expect("graphs injected at the live clock");
    }
    coord.run_to_drain(&mut dag_core, &tap).expect("dag drain");
    coord.record_telemetry(&tel, "dag", dag_core.now());
    let dag_stats = coord.stats();
    println!(
        "\ndag layer: {} nodes released, {} merged, {} forfeited (cascade {})",
        tel.counter("dag_released_total", &[("scope", "dag")]),
        tel.counter("dag_merged_total", &[("scope", "dag")]),
        dag_stats.forfeited(),
        tel.counter("dag_forfeited_total", &[("scope", "dag"), ("kind", "cascade")]),
    );

    // ---- exporters --------------------------------------------------------
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/telemetry.jsonl", tel.jsonl()).expect("write JSONL export");
    std::fs::write(
        "target/telemetry_trial.json",
        serde_json::to_string(&trial).expect("TrialResult serializes"),
    )
    .expect("write trial result");
    let prom = tel.prometheus();
    println!(
        "\nwrote target/telemetry.jsonl ({} records) and target/telemetry_trial.json;\n\
         Prometheus snapshot ({} lines), head:",
        tel.jsonl().lines().count(),
        prom.lines().count(),
    );
    for line in prom.lines().take(12) {
        println!("  {line}");
    }
    println!(
        "\nEvery record above is stamped with virtual ticks only — re-running this\n\
         binary reproduces the JSONL byte for byte, and detaching the pipeline\n\
         leaves the engine's own numbers untouched."
    );
}
