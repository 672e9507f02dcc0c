//! Extending the system: plug in your own mapping heuristic and dropping
//! policy.
//!
//! The simulator only knows the two traits
//! [`MappingHeuristic`](taskdrop::sched::MappingHeuristic) and
//! [`DropPolicy`](taskdrop::core::DropPolicy); everything in the paper's
//! evaluation is an implementation of one of them. This example adds
//!
//! * `RoundRobin` — a deliberately mapping-blind heuristic that deals tasks
//!   to machines in turn, ignoring the PET matrix entirely; and
//! * `PanicThreshold` — a naive dropper that discards any queued task whose
//!   chance of success falls below 5 %, with no influence-zone reasoning;
//!
//! and shows that even a blind mapper becomes competitive once the paper's
//! autonomous proactive dropper cleans up behind it.
//!
//! ```sh
//! cargo run --release --example custom_policy            # full scale
//! cargo run --release --example custom_policy -- --quick  # smoke scale
//! ```

use taskdrop::prelude::*;

/// Deals unmapped tasks to machines in round-robin order, one per free slot,
/// ignoring execution times, deadlines and chances alike.
struct RoundRobin;

impl MappingHeuristic for RoundRobin {
    fn name(&self) -> &'static str {
        "RoundRobin"
    }

    fn map(&self, input: MappingInput<'_>, _scratch: &mut PolicyCtx) -> Vec<Assignment> {
        let mut free: Vec<(usize, usize)> =
            input.machines.iter().enumerate().map(|(mi, m)| (mi, m.free_slots)).collect();
        let mut out = Vec::new();
        let mut mi = 0usize;
        for task_idx in 0..input.unmapped.len() {
            // Find the next machine with a free slot, cycling.
            let mut scanned = 0;
            while scanned < free.len() && free[mi].1 == 0 {
                mi = (mi + 1) % free.len();
                scanned += 1;
            }
            if free[mi].1 == 0 {
                break; // everything full
            }
            out.push(Assignment { task_idx, machine: input.machines[free[mi].0].machine });
            free[mi].1 -= 1;
            mi = (mi + 1) % free.len();
        }
        out
    }
}

/// Drops every queued task whose chance of success is below 5 % — no
/// influence-zone analysis, no autonomy; shown for contrast.
struct PanicThreshold;

impl DropPolicy for PanicThreshold {
    fn name(&self) -> &'static str {
        "Panic5"
    }

    fn select_drops(
        &self,
        queue: &QueueView<'_>,
        _ctx: &DropContext,
        scratch: &mut PolicyCtx,
    ) -> DropDecision {
        // The view holds the queue's Eq-1 chain inputs and evaluates the
        // keep-all chain once on first read, with the engine-provided
        // scratch: the fused evaluator's buffers persist across mapping
        // events. A queue this policy keeps whole then lends the engine
        // its tail for free.
        let links = queue.keep_all(&mut scratch.eval);
        DropDecision::drops(
            links.iter().enumerate().filter(|(_, l)| l.chance < 0.05).map(|(i, _)| i).collect(),
        )
    }

    // The 5 % cut is fixed and the decision reads no `ctx.pressure`, so a
    // queue kept whole stays kept whole however full the batch queue gets:
    // saying so lets the engine skip those repeat decisions.
    fn reads_pressure(&self) -> bool {
        false
    }
}

fn main() -> Result<(), SimError> {
    let scale = taskdrop::demo::scale_from_args();
    let scenario = Scenario::specint(0xA5);
    let level = OversubscriptionLevel::new("demo", 3_000, 16_000).scaled(scale);
    let workload = Workload::generate(&scenario, &level, 1.0, 3);
    let config = taskdrop::demo::scaled_config(scale);

    let mappers: Vec<(&str, Box<dyn MappingHeuristic>)> =
        vec![("RoundRobin (custom)", Box::new(RoundRobin)), ("PAM (paper)", Box::new(Pam))];
    let droppers: Vec<(&str, Box<dyn DropPolicy>)> = vec![
        ("ReactiveOnly", Box::new(ReactiveOnly)),
        ("Panic5 (custom)", Box::new(PanicThreshold)),
        ("Proactive (paper)", Box::new(ProactiveDropper::paper_default())),
    ];

    println!("robustness (% on time) on one {}-task workload:\n", workload.len());
    print!("{:<22}", "");
    for (dname, _) in &droppers {
        print!("{dname:>20}");
    }
    println!();
    for (mname, mapper) in &mappers {
        print!("{mname:<22}");
        for (_, dropper) in &droppers {
            let r =
                SimCore::new(&scenario, &workload, mapper.as_ref(), dropper.as_ref(), config, 1)?
                    .run_to_completion()?;
            print!("{:>19.1}%", r.robustness_pct());
        }
        println!();
    }

    println!(
        "\nThe autonomous proactive dropper lifts every mapper — even the\n\
         PET-blind RoundRobin improves substantially — and beats the naive\n\
         fixed-threshold dropper across the board. (Unlike the paper's\n\
         MSD/MM/PAM equalisation in Section V-E, a mapper that sends task\n\
         types to their slowest machines wastes capacity no dropper can\n\
         recover: dropping forgives poor *ordering*, not poor *placement*.)"
    );
    Ok(())
}
