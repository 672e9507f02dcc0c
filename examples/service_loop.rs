//! Checkpointed multi-shard serving with live load shedding.
//!
//! This drives the engine the way the paper's mechanism is meant to be
//! deployed: as a *service*. A [`FleetDriver`] multiplexes two tenant
//! shards against one virtual clock:
//!
//! * `flash-crowd` — a Markov-modulated **bursty** source behind a bounded
//!   ingress queue with the **probabilistic pre-drop** policy: once the
//!   queue is half full, any offer whose completion-PMF chance of success
//!   (Eq 1 + Eq 2 over the live queue tails) falls below a threshold is
//!   refused at the front door;
//! * `steady-web` — a **diurnal** sinusoidal source behind a shed-oldest
//!   ingress queue.
//!
//! The driver checkpoints every shard periodically and feeds every
//! shard's engine events to a [`Telemetry`] pipeline, whose counters this
//! example reads live. Mid-run, it *kills* the bursty shard — discarding
//! its entire live state — and revives it from the last checkpoint; the
//! driver replays the missed epochs and the shard rejoins the fleet
//! byte-identical to the state that was destroyed (verified against an
//! undisturbed control fleet at the end).
//!
//! ```sh
//! cargo run --release --example service_loop            # full demo scale
//! cargo run --release --example service_loop -- --quick  # seconds-scale smoke
//! ```

use taskdrop::prelude::*;

/// Scale-dependent knobs. `--quick` is a separately tuned small preset
/// (not a naive scale-down): backpressure only engages when bursts span
/// several epochs, so the epoch and ingress bound shrink with the load.
struct Preset {
    epoch: u64,
    checkpoint_every: u64,
    bursty_total: u64,
    bursty_ingress: usize,
    diurnal_total: u64,
    diurnal_ingress: usize,
    slack: u64,
}

fn preset() -> Preset {
    if taskdrop::demo::scale_from_args() < 1.0 {
        Preset {
            epoch: 120,
            checkpoint_every: 480,
            bursty_total: 260,
            bursty_ingress: 36,
            diurnal_total: 160,
            diurnal_ingress: 24,
            slack: 250,
        }
    } else {
        Preset {
            epoch: 500,
            checkpoint_every: 2_000,
            bursty_total: 2_400,
            bursty_ingress: 150,
            diurnal_total: 1_600,
            diurnal_ingress: 64,
            slack: 350,
        }
    }
}

/// Assembles the two-shard fleet (used for both the live and control runs).
fn fleet<'a>(
    p: &Preset,
    scenario: &'a Scenario,
    dropper: &'a taskdrop::core::ProactiveDropper,
) -> FleetDriver<'a> {
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    // A flash crowd at ~6x the cluster's effective service rate, with
    // silences short enough that the next burst lands on a still-loaded
    // cluster — exactly when the pre-drop gate should earn its keep.
    let bursty = TrafficSource::Bursty(BurstySource::new(
        21,
        0.55,
        0.0,
        400,
        300,
        p.slack,
        12,
        p.bursty_total,
    ));
    let diurnal = TrafficSource::Diurnal(DiurnalSource::new(
        33,
        0.12,
        0.9,
        6 * p.epoch,
        p.slack + 100,
        12,
        p.diurnal_total,
    ));
    let mut driver = FleetDriver::new().with_checkpoint_every(p.checkpoint_every);
    driver.add_shard(
        FleetShard::new(
            "flash-crowd",
            scenario,
            &taskdrop::sched::Pam,
            dropper,
            config,
            7,
            bursty,
            AdmissionController::new(
                p.bursty_ingress,
                BackpressurePolicy::PreDrop { threshold: 0.2 },
            ),
        )
        .expect("valid shard config"),
    );
    driver.add_shard(
        FleetShard::new(
            "steady-web",
            scenario,
            &taskdrop::sched::Pam,
            dropper,
            config,
            8,
            diurnal,
            AdmissionController::new(p.diurnal_ingress, BackpressurePolicy::ShedOldest),
        )
        .expect("valid shard config"),
    );
    driver
}

fn main() {
    let p = preset();
    let scenario = Scenario::specint(42);
    let dropper = taskdrop::core::ProactiveDropper::paper_default();

    println!(
        "two-tenant serving fleet on `{}`: epoch {}, checkpoints every {} ticks\n",
        scenario.name, p.epoch, p.checkpoint_every
    );

    // ---- the live fleet, with telemetry counting every shard's events ----
    let tel = Telemetry::new();
    let mut driver = fleet(&p, &scenario, &dropper).with_telemetry(&tel);

    // Serve 9 epochs, narrating the pressure building up.
    for round in 1..=9u64 {
        driver.advance(p.epoch).expect("fleet epoch");
        if round % 3 == 0 {
            for shard in driver.shards() {
                let stats = shard.admission().stats();
                println!(
                    "t={:>6} {:<12} offered {:>5}  admitted {:>5}  pre-dropped {:>4}  rejected {:>4}  shed {:>4}  resolved {:>5}",
                    driver.clock(),
                    shard.name(),
                    stats.offered,
                    stats.admitted,
                    stats.pre_dropped,
                    stats.rejected_full,
                    stats.shed_oldest,
                    shard.core().resolved_tasks(),
                );
            }
        }
    }
    let live_predrops = tel
        .counter("admission_dropped_total", &[("scope", "flash-crowd"), ("kind", "pre_dropped")]);
    println!("\ntelemetry counted {live_predrops} pre-drops on `flash-crowd` live so far");

    // ---- kill the bursty shard mid-flight and revive it ------------------
    let before = format!("{:?}", driver.shards()[0]);
    let revived_at = driver.kill_and_restore(0).expect("checkpoint exists by now");
    let after = format!("{:?}", driver.shards()[0]);
    assert_eq!(before, after, "catch-up replay must rebuild the exact shard state");
    println!(
        "\nkilled `flash-crowd` at t={} and revived it from the t={revived_at} checkpoint;\n\
         the driver replayed the missed epochs — shard state after catch-up matches what\n\
         was destroyed: {after}\n",
        driver.clock(),
    );

    // ---- drain both fleets and prove the kill changed nothing ------------
    driver.run_until_idle(p.epoch, 10_000).expect("drain");
    assert!(driver.is_idle(), "fleet failed to drain");

    let mut control = fleet(&p, &scenario, &dropper);
    control.run_until_idle(p.epoch, 10_000).expect("control drain");
    assert!(control.is_idle());

    println!("final per-shard outcomes (disturbed fleet == undisturbed control):");
    for (shard, control_shard) in driver.shards().iter().zip(control.shards()) {
        let result = shard.result().expect("idle implies drained");
        let control_result = control_shard.result().expect("drained");
        assert_eq!(result, control_result, "kill/restore must be invisible in the final metrics");
        assert_eq!(shard.admission().stats(), control_shard.admission().stats());
        let stats = shard.admission().stats();
        println!(
            "  {:<12} {:>5} offered | {:>5} admitted, {:>4} pre-dropped, {:>4} rejected, {:>4} shed, {:>3} expired | robustness {:>5.1} % | conserved {}",
            shard.name(),
            stats.offered,
            stats.admitted,
            stats.pre_dropped,
            stats.rejected_full,
            stats.shed_oldest,
            stats.expired,
            result.robustness_pct(),
            result.is_conserved(),
        );
    }
    let bursty_stats = driver.shards()[0].admission().stats();
    assert!(bursty_stats.pre_dropped > 0, "the bursty shard must exercise backpressure pre-drops");
    println!("\nper-shard evaluator cache performance:");
    for shard in driver.shards() {
        println!("  {:<12} {}", shard.name(), shard.core().cache_stats());
    }
    println!(
        "\nEvery refusal above happened *before* injection — the paper's completion-PMF\n\
         threshold applied at the front door — while the in-core dropper kept pruning\n\
         the machine queues behind it. Checkpoint/restore made a shard kill invisible."
    );
}
