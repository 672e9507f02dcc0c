//! Online arrivals: drive the resumable [`SimCore`] as a live system.
//!
//! The paper frames dropping as an *online* decision made at each mapping
//! event — tasks are not known up front. This example runs the engine the
//! way a production front-end would: an open-world [`SimCore`] receives
//! tasks through [`SimCore::inject`] in bursts while the trial is in
//! flight, a streaming observer prints drop decisions the moment the
//! policy makes them, and the driver advances time slice by slice with
//! [`SimCore::run_until`], peeking at queue state between slices.
//!
//! ```sh
//! cargo run --release --example online_arrivals            # full demo scale
//! cargo run --release --example online_arrivals -- --quick  # seconds-scale smoke
//! ```

use std::cell::RefCell;
use taskdrop::prelude::*;
use taskdrop::stats::{derive_seed, new_rng, PoissonProcess};

/// Live tallies kept by the streaming observer.
#[derive(Default)]
struct Tally {
    mapped: usize,
    started: usize,
    completed: usize,
    dropped_proactive: usize,
    dropped_reactive: usize,
    killed: usize,
    printed: usize,
}

fn main() -> Result<(), SimError> {
    let scale = taskdrop::demo::scale_from_args();
    let scenario = Scenario::specint(42);
    let config = taskdrop::demo::scaled_config(scale);
    let dropper = ProactiveDropper::paper_default();

    // ~2x-oversubscribed arrival stream, fed to the core in live bursts.
    let total_tasks = ((2_000.0 * scale).round() as usize).max(40);
    let window = (11_000.0 * scale).round() as u64;
    let rate = total_tasks as f64 / window as f64;
    println!(
        "open-world SimCore on `{}`: {} tasks arriving live at {:.0} tasks/s\n",
        scenario.name,
        total_tasks,
        rate * 1000.0
    );

    // The observer sees every decision as it happens. The first few drops
    // are shown verbatim; the rest only move the tallies.
    const SHOWN: usize = 10;
    let tally = RefCell::new(Tally::default());
    let mut core = SimCore::open(&scenario, &Pam, &dropper, config, 1)?;
    core.attach(|ev: &SimEvent| {
        let mut t = tally.borrow_mut();
        match *ev {
            SimEvent::Mapped { .. } => t.mapped += 1,
            SimEvent::Started { .. } => t.started += 1,
            SimEvent::Completed { .. } => t.completed += 1,
            SimEvent::Killed { task, now, .. } => {
                t.killed += 1;
                if t.printed < SHOWN {
                    t.printed += 1;
                    println!("  [{now:>6}] kill  {task}: deadline passed while running");
                }
            }
            SimEvent::Dropped { task, now, kind } => match kind {
                DropKind::Proactive => {
                    t.dropped_proactive += 1;
                    if t.printed < SHOWN {
                        t.printed += 1;
                        println!(
                            "  [{now:>6}] drop  {task}: policy sacrificed it to raise queue robustness"
                        );
                    }
                }
                DropKind::Reactive => {
                    t.dropped_reactive += 1;
                    if t.printed < SHOWN {
                        t.printed += 1;
                        println!("  [{now:>6}] drop  {task}: expired while waiting");
                    }
                }
            },
            _ => {}
        }
    });

    // Pre-draw the arrival stream (Poisson) but reveal it to the core only
    // burst by burst — the engine never sees the future.
    let mut rng = new_rng(derive_seed(7, 0xA331));
    let arrivals = PoissonProcess::new(rate).arrival_ticks(&mut rng, total_tasks);
    // Task types cycle through a seed-mixed permutation of the catalogue.
    let type_of = |i: usize| {
        ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % scenario.task_type_count()
    };
    let slack = 450u64.max(window / 20);

    let slices = 8u64;
    let mut fed = 0usize;
    for slice in 1..=slices {
        let horizon = window * slice / slices;
        while fed < total_tasks && arrivals[fed] <= horizon {
            let arrival = arrivals[fed];
            core.inject(TaskTypeId(type_of(fed) as u16), arrival, arrival + slack)?;
            fed += 1;
        }
        core.run_until(horizon);
        let st = core.state();
        let queued: usize = st.machines.iter().map(|m| m.pending.len()).sum();
        let running = st.machines.iter().filter(|m| m.running.is_some()).count();
        println!(
            "t={:>6}: injected {:>4}/{total_tasks}, resolved {:>4}, batch {:>3}, queued {queued:>2}, running {running}",
            st.now, fed, st.resolved_tasks, st.batch.len()
        );
    }

    // Poisson gaps can push the last few arrivals past `window`; feed the
    // stragglers too so the trial really carries every announced task.
    while fed < total_tasks {
        let arrival = arrivals[fed];
        core.inject(TaskTypeId(type_of(fed) as u16), arrival, arrival + slack)?;
        fed += 1;
    }

    let result = core.run_to_completion()?;
    let t = tally.borrow();
    println!("\ndrained at t={} after {} mapping events", result.makespan, result.mapping_events);
    println!(
        "observer saw: {} mapped, {} started, {} completed, {} proactive drops, {} reactive drops, {} kills",
        t.mapped, t.started, t.completed, t.dropped_proactive, t.dropped_reactive, t.killed
    );
    // (Result counts exclude the configured boundary tasks, so they can sit
    // slightly below the observer's whole-trial tallies.)
    println!(
        "result:       {:.1} % robustness | drops {} proactive / {} reactive | conserved: {}",
        result.robustness_pct(),
        result.dropped_proactive,
        result.dropped_reactive,
        result.is_conserved()
    );
    println!(
        "\nEvery number above was available *while the trial ran* — a batch\n\
         run_to_completion() call only reveals the final line."
    );
    Ok(())
}
