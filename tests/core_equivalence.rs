//! The engine's contract: a [`SimCore`] gives **byte-identical** results
//! whether it is stepped by hand, driven in time slices or run to
//! completion in one call; observers see a complete and conservative event
//! stream; online injection reproduces the closed-world run when fed the
//! same tasks; and the buffering `EventRelay` hub the serving fleet runs
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

/// The closed-world run to completion every other test here compares with.
fn closed_world_run(
    scenario: &Scenario,
    w: &Workload,
    dropper: &dyn DropPolicy,
    config: SimConfig,
    seed: u64,
) -> TrialResult {
    SimCore::new(scenario, w, &Pam, dropper, config, seed).unwrap().run_to_completion().unwrap()
}

#[test]
fn chunked_run_until_matches_one_shot_run() {
    let scenario = scenario();
    let dropper = ProactiveDropper::paper_default();
    for seed in [1u64, 2, 9] {
        let w = workload(&scenario, 250, 2_200, seed);
        for (name, config) in configs() {
            let one_shot = closed_world_run(&scenario, &w, &dropper, config, seed);

            let mut stepped = SimCore::new(&scenario, &w, &Pam, &dropper, config, seed).unwrap();
            while let StepOutcome::Advanced { .. } = stepped.step() {}
            assert_eq!(stepped.result().unwrap(), one_shot, "step(): seed {seed}, config {name}");

            // Drive in arbitrary-sized time slices, as a live driver would.
            let mut chunked = SimCore::new(&scenario, &w, &Pam, &dropper, config, seed).unwrap();
            let mut t = 0;
            while !chunked.run_until(t).is_drained() {
                t += 137;
            }
            assert_eq!(
                chunked.result().unwrap(),
                one_shot,
                "run_until: seed {seed}, config {name}"
            );
        }
    }
}

#[test]
fn event_stream_conserves_task_fates() {
    let scenario = scenario();
    let dropper = ProactiveDropper::paper_default();
    for (name, config) in configs() {
        let w = workload(&scenario, 300, 2_500, 3);
        let terminal_counts = std::cell::RefCell::new(vec![0usize; w.len()]);
        let event_fates = std::cell::RefCell::new(vec![None::<TaskFate>; w.len()]);
        let mut core = SimCore::new(&scenario, &w, &Pam, &dropper, config, 3).unwrap();
        core.attach(|ev: &SimEvent| {
            if let Some((task, fate)) = ev.resolved() {
                terminal_counts.borrow_mut()[task.index()] += 1;
                event_fates.borrow_mut()[task.index()] = Some(fate);
            }
        });
        let result = core.run_to_completion().unwrap();
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
    let dropper = ProactiveDropper::paper_default();
    for (name, config) in configs() {
        let w = workload(&scenario, 250, 2_200, 7);
        let metrics = MetricsObserver::new(&scenario, &config);
        let mut core = SimCore::new(&scenario, &w, &Pam, &dropper, config, 7).unwrap();
        // Box the observer through attach and retrieve its result via a
        // shared cell: observers are owned by the core.
        let shared = std::rc::Rc::new(std::cell::RefCell::new(metrics));
        let handle = std::rc::Rc::clone(&shared);
        core.attach(move |ev: &SimEvent| handle.borrow_mut().on_event(ev));
        let engine_result = core.run_to_completion().unwrap();
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
    let bare = closed_world_run(&scenario, &w, &dropper, config, 11);
    let mut core = SimCore::new(&scenario, &w, &Pam, &dropper, config, 11).unwrap();
    let mut events = Vec::new();
    core.attach(move |ev: &SimEvent| events.push(*ev));
    core.attach(|_: &SimEvent| {});
    assert_eq!(bare, core.run_to_completion().unwrap());
}

#[test]
fn injecting_the_workload_online_matches_the_closed_world_run() {
    let scenario = scenario();
    let w = workload(&scenario, 200, 1_800, 13);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
    let dropper = ProactiveDropper::paper_default();
    let closed = closed_world_run(&scenario, &w, &dropper, config, 13);

    let mut core = SimCore::open(&scenario, &Pam, &dropper, config, 13).unwrap();
    for t in &w.tasks {
        let id = core.inject(t.type_id, t.arrival, t.deadline).unwrap();
        assert_eq!(id, t.id, "open core must assign the same dense ids");
    }
    assert_eq!(closed, core.run_to_completion().unwrap());
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
    let result = core.run_to_completion().unwrap();
    assert_eq!(result.total_tasks, 200);
    assert!(result.is_conserved());
}

/// The property the serving fleet's observation path rests on: a core on
/// an [`EventRelay`] hub, drained after every `step()`, yields exactly the
/// event sequence — step by step — that an event log (a `Vec<SimEvent>`
/// filled by an observer closure) attached to the default hub sees, so
/// feeding the drained buffer to the flight recorder and telemetry at the
/// epoch barrier observes what live observers would.
#[test]
fn relay_drained_per_step_matches_an_attached_event_log() {
    let scenario = scenario();
    let dropper = ProactiveDropper::paper_default();
    for (name, config) in configs() {
        let w = workload(&scenario, 250, 2_200, 19);
        let log = Rc::new(RefCell::new(Vec::new()));
        let handle = Rc::clone(&log);
        let mut boxed = SimCore::open(&scenario, &Pam, &dropper, config, 19).unwrap();
        boxed.attach(move |ev: &SimEvent| handle.borrow_mut().push(*ev));
        let mut relay =
            SimCore::<EventRelay>::open_in(&scenario, &Pam, &dropper, config, 19).unwrap();
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
            assert_eq!(drained, &log[seen..], "config {name}: step ending at {outcome:?}");
            seen = log.len();
            if outcome.is_drained() {
                break;
            }
        }
        assert!(seen > 0, "config {name}: no events observed");
        assert_eq!(boxed.result().unwrap(), relay.result().unwrap(), "config {name}");
    }
}

/// Forwards every call to the wrapped policy but keeps the trait's default
/// `reads_pressure` (`true`), so the engine keys its keep-all verdict memo
/// on pressure, as it must for any custom policy.
struct PressureKeyed<'a>(&'a dyn DropPolicy);

impl DropPolicy for PressureKeyed<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        self.0.select_drops(queue, ctx, scratch)
    }
}

/// The engine skips a drop decision on a queue it last kept whole while
/// the decision's inputs are unchanged, and leaves pressure out of that key
/// for a policy that does not read it. Keying on pressure as well must give
/// the same trial, event for event; the pressure-blind key must reach the
/// policy strictly less often.
#[test]
fn a_pressure_blind_verdict_memo_changes_nothing_but_the_call_count() {
    let scenario = scenario();
    let heuristic = ProactiveDropper::paper_default();
    let keyed = PressureKeyed(&heuristic);
    for seed in [1u64, 2, 9] {
        let w = workload(&scenario, 250, 2_200, seed);
        for (name, config) in configs() {
            // (result, event stream, decisions that reached the policy)
            let run = |dropper: &dyn DropPolicy| {
                let log = Rc::new(RefCell::new(Vec::new()));
                let handle = Rc::clone(&log);
                let mut core = SimCore::new(&scenario, &w, &Pam, dropper, config, seed).unwrap();
                core.attach(move |ev: &SimEvent| handle.borrow_mut().push(*ev));
                let result = core.run_to_completion().unwrap();
                (result, log.take(), core.cache_stats().verdict_misses)
            };
            let (blind, blind_events, blind_calls) = run(&heuristic);
            let (pressure, pressure_events, pressure_calls) = run(&keyed);
            let at = format!("seed {seed}, config {name}");
            assert_eq!(blind, pressure, "{at}");
            assert!(blind_events == pressure_events, "{at}: event streams differ");
            assert!(blind_calls < pressure_calls, "{at}: {blind_calls} vs {pressure_calls} calls");
        }
    }
}

/// Approximate computing is the heuristic's job once `SimConfig::approx`
/// is set. These outcomes are the ones the former separate approximate
/// dropper produced on the same trials, so folding it into
/// `ProactiveDropper` changed nothing.
#[test]
fn approximate_computing_matches_the_retired_approx_dropper() {
    let scenario = scenario();
    let config = SimConfig {
        exclude_boundary: 0,
        approx: Some(ApproxSpec::half_time()),
        ..SimConfig::default()
    };
    let dropper = ProactiveDropper::paper_default();
    // (seed, on_time, on_time_approx, dropped_proactive, dropped_reactive)
    let pinned = [
        (1u64, 158, 150, 57, 35),
        (2, 167, 152, 52, 29),
        (3, 172, 154, 47, 27),
        (9, 151, 156, 63, 30),
    ];
    for (seed, on_time, on_time_approx, dropped_proactive, dropped_reactive) in pinned {
        let w = workload(&scenario, 400, 2_500, seed);
        let r = closed_world_run(&scenario, &w, &dropper, config, seed);
        assert_eq!(
            (r.on_time, r.on_time_approx, r.dropped_proactive, r.dropped_reactive),
            (on_time, on_time_approx, dropped_proactive, dropped_reactive),
            "seed {seed}"
        );
    }
}
