//! The redesign's contract: a [`SimCore`] driven through its resumable
//! stepping API produces results **byte-identical** to the legacy batch
//! `Simulation::run()`, observers see a complete and conservative event
//! stream, online injection reproduces the closed-world run when fed the
//! same tasks, and the buffering `EventRelay` hub the serving fleet runs
//! on observes exactly what the default boxed-observer hub delivers.

use std::cell::RefCell;
use std::rc::Rc;
use taskdrop::prelude::*;
use taskdrop::sim::EventRelay;
use taskdrop_model::ApproxSpec;
use taskdrop_sim::FailureSpec;

fn scenario() -> Scenario {
    Scenario::specint(0xA5)
}

fn workload(scenario: &Scenario, tasks: usize, window: u64, seed: u64) -> Workload {
    Workload::generate(scenario, &OversubscriptionLevel::new("eq", tasks, window), 1.0, seed)
}

/// Configurations covering every engine feature that could diverge.
fn configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("default", SimConfig { exclude_boundary: 10, ..SimConfig::default() }),
        (
            "no-kill",
            SimConfig {
                exclude_boundary: 0,
                kill_running_at_deadline: false,
                ..SimConfig::default()
            },
        ),
        (
            "failures",
            SimConfig {
                exclude_boundary: 0,
                failures: Some(FailureSpec { mtbf: 2_500, mttr: 600 }),
                ..SimConfig::default()
            },
        ),
        (
            "approx",
            SimConfig {
                exclude_boundary: 0,
                approx: Some(ApproxSpec::half_time()),
                ..SimConfig::default()
            },
        ),
    ]
}

fn dropper_for(config_name: &str) -> Box<dyn DropPolicy> {
    if config_name == "approx" {
        Box::new(ApproxDropper::paper_default())
    } else {
        Box::new(ProactiveDropper::paper_default())
    }
}

#[test]
fn stepped_core_is_byte_identical_to_legacy_run_across_seeds() {
    let scenario = scenario();
    for seed in [1u64, 2, 9] {
        let w = workload(&scenario, 250, 2_200, seed);
        for (name, config) in configs() {
            let dropper = dropper_for(name);
            let legacy = Simulation::new(&scenario, &w, &Pam, dropper.as_ref(), config, seed).run();
            let mut core =
                SimCore::new(&scenario, &w, &Pam, dropper.as_ref(), config, seed).unwrap();
            while let StepOutcome::Advanced { .. } = core.step() {}
            let stepped = core.result().unwrap();
            assert_eq!(legacy, stepped, "seed {seed}, config {name}");
        }
    }
}

#[test]
fn chunked_run_until_matches_one_shot_run() {
    let scenario = scenario();
    let w = workload(&scenario, 300, 2_500, 5);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let dropper = ProactiveDropper::paper_default();
    let legacy = Simulation::new(&scenario, &w, &Pam, &dropper, config, 5).run();

    let mut core = SimCore::new(&scenario, &w, &Pam, &dropper, config, 5).unwrap();
    // Drive in arbitrary-sized time slices, as a live driver would.
    let mut t = 0;
    while !core.run_until(t).is_drained() {
        t += 137;
    }
    assert_eq!(legacy, core.result().unwrap());
}

#[test]
fn event_stream_conserves_task_fates() {
    let scenario = scenario();
    for (name, config) in configs() {
        let w = workload(&scenario, 300, 2_500, 3);
        let dropper = dropper_for(name);
        let terminal_counts = std::cell::RefCell::new(vec![0usize; w.len()]);
        let event_fates = std::cell::RefCell::new(vec![None::<TaskFate>; w.len()]);
        let mut core = SimCore::new(&scenario, &w, &Pam, dropper.as_ref(), config, 3).unwrap();
        core.attach(|ev: &SimEvent| {
            if let Some((task, fate)) = ev.resolved() {
                terminal_counts.borrow_mut()[task.index()] += 1;
                event_fates.borrow_mut()[task.index()] = Some(fate);
            }
        });
        let result = core.run_to_completion();
        assert!(result.is_conserved());
        // Every task resolved exactly once, with the engine's own fate.
        for id in 0..w.len() {
            let count = terminal_counts.borrow()[id];
            assert_eq!(count, 1, "config {name}: task {id} got {count} terminal events");
            assert_eq!(
                event_fates.borrow()[id],
                core.fate(TaskId(id as u64)),
                "config {name}: event fate disagrees with engine fate for task {id}"
            );
        }
    }
}

#[test]
fn metrics_observer_reconstructs_the_trial_result_exactly() {
    let scenario = scenario();
    for (name, config) in configs() {
        let w = workload(&scenario, 250, 2_200, 7);
        let dropper = dropper_for(name);
        let metrics = MetricsObserver::new(&scenario, &config);
        let mut core = SimCore::new(&scenario, &w, &Pam, dropper.as_ref(), config, 7).unwrap();
        // Box the observer through attach and retrieve its result via a
        // shared cell: observers are owned by the core.
        let shared = std::rc::Rc::new(std::cell::RefCell::new(metrics));
        let handle = std::rc::Rc::clone(&shared);
        core.attach(move |ev: &SimEvent| handle.borrow_mut().on_event(ev));
        let engine_result = core.run_to_completion();
        let observed = shared.borrow().result().unwrap();
        assert_eq!(engine_result, observed, "config {name}: event stream lost information");
    }
}

#[test]
fn observers_do_not_change_the_outcome() {
    let scenario = scenario();
    let w = workload(&scenario, 200, 1_800, 11);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let dropper = ProactiveDropper::paper_default();
    let bare = Simulation::new(&scenario, &w, &Pam, &dropper, config, 11).run();
    let mut core = SimCore::new(&scenario, &w, &Pam, &dropper, config, 11).unwrap();
    core.attach(EventLog::new());
    core.attach(|_: &SimEvent| {});
    assert_eq!(bare, core.run_to_completion());
}

#[test]
fn injecting_the_workload_online_matches_the_closed_world_run() {
    let scenario = scenario();
    let w = workload(&scenario, 200, 1_800, 13);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let dropper = ProactiveDropper::paper_default();
    let closed = Simulation::new(&scenario, &w, &Pam, &dropper, config, 13).run();

    let mut core = SimCore::open(&scenario, &Pam, &dropper, config, 13).unwrap();
    for t in &w.tasks {
        let id = core.inject(t.type_id, t.arrival, t.deadline).unwrap();
        assert_eq!(id, t.id, "open core must assign the same dense ids");
    }
    assert_eq!(closed, core.run_to_completion());
}

#[test]
fn interleaved_injection_mid_run_still_conserves() {
    let scenario = scenario();
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let dropper = ProactiveDropper::paper_default();
    let mut core = SimCore::open(&scenario, &Pam, &dropper, config, 17).unwrap();
    // Feed tasks in bursts while the trial is in flight.
    let mut next_arrival = 0u64;
    for burst in 0..8u64 {
        for k in 0..25u64 {
            let type_id = taskdrop::model::TaskTypeId(((burst * 25 + k) % 12) as u16);
            core.inject(type_id, next_arrival + k * 3, next_arrival + k * 3 + 400).unwrap();
        }
        next_arrival += 75;
        core.run_until(next_arrival);
    }
    let result = core.run_to_completion();
    assert_eq!(result.total_tasks, 200);
    assert!(result.is_conserved());
}

/// The property the serving fleet's observation path rests on: a core on
/// an [`EventRelay`] hub, drained after every `step()`, yields exactly the
/// event sequence — step by step — that an [`EventLog`] attached to the
/// default hub sees, so feeding the drained buffer to the flight recorder
/// and telemetry at the epoch barrier observes what live observers would.
#[test]
fn relay_drained_per_step_matches_an_attached_event_log() {
    let scenario = scenario();
    for (name, config) in configs() {
        let w = workload(&scenario, 250, 2_200, 19);
        let dropper = dropper_for(name);
        let log = Rc::new(RefCell::new(EventLog::new()));
        let handle = Rc::clone(&log);
        let mut boxed = SimCore::open(&scenario, &Pam, dropper.as_ref(), config, 19).unwrap();
        boxed.attach(move |ev: &SimEvent| handle.borrow_mut().on_event(ev));
        let mut relay =
            SimCore::<EventRelay>::open_in(&scenario, &Pam, dropper.as_ref(), config, 19).unwrap();
        for t in &w.tasks {
            boxed.inject(t.type_id, t.arrival, t.deadline).unwrap();
            relay.inject(t.type_id, t.arrival, t.deadline).unwrap();
        }
        let mut seen = 0;
        loop {
            let outcome = boxed.step();
            assert_eq!(relay.step(), outcome, "config {name}: relay core diverged");
            let drained = relay.hub_mut().take();
            let log = log.borrow();
            assert_eq!(drained, &log.events[seen..], "config {name}: step ending at {outcome:?}");
            seen = log.events.len();
            if outcome.is_drained() {
                break;
            }
        }
        assert!(seen > 0, "config {name}: no events observed");
        assert_eq!(boxed.result().unwrap(), relay.result().unwrap(), "config {name}");
    }
}
