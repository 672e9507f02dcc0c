//! Quickstart: simulate an oversubscribed heterogeneous system and see what
//! autonomous proactive task dropping buys you.
//!
//! ```sh
//! cargo run --release --example quickstart          # full demo scale
//! cargo run --release --example quickstart -- --quick  # seconds-scale smoke
//! ```

use taskdrop::prelude::*;

fn main() -> Result<(), SimError> {
    let scale = taskdrop::demo::scale_from_args();
    // The paper's main scenario: 12 SPECint task types on 8 heterogeneous
    // machines. One seed builds the whole environment: the true Gamma
    // execution-time model and the PET matrix learned from 500 samples/cell.
    let scenario = Scenario::specint(42);
    println!(
        "scenario `{}`: {} task types x {} machines (PET inconsistency {:.2})",
        scenario.name,
        scenario.task_type_count(),
        scenario.machine_count(),
        scenario.pet.inconsistency()
    );

    // A 2x-oversubscribed workload: more tasks than the machines can finish.
    let level = OversubscriptionLevel::new("demo", 4_000, 22_000).scaled(scale);
    let workload = Workload::generate(&scenario, &level, 1.0, 7);
    println!(
        "workload: {} tasks over {} ms (rate {:.0} tasks/s)\n",
        workload.len(),
        level.window,
        level.rate() * 1000.0
    );

    // Same workload, same realised execution times, two dropping policies.
    let config = taskdrop::demo::scaled_config(scale);
    let reactive = ReactiveOnly;
    let proactive = ProactiveDropper::paper_default(); // beta = 1, eta = 2

    let baseline =
        SimCore::new(&scenario, &workload, &Pam, &reactive, config, 1)?.run_to_completion()?;
    let dropping =
        SimCore::new(&scenario, &workload, &Pam, &proactive, config, 1)?.run_to_completion()?;

    for (name, r) in [("PAM + reactive only", &baseline), ("PAM + proactive dropping", &dropping)] {
        println!("{name}:");
        println!("  robustness:       {:>6.2} % of tasks completed on time", r.robustness_pct());
        println!("  late completions: {:>6}", r.late);
        println!(
            "  drops:            {:>6} reactive, {} proactive",
            r.dropped_reactive, r.dropped_proactive
        );
        println!(
            "  cost:             {:>9.4} $ ({:.4} $ per robustness point)\n",
            r.cost_dollars,
            r.cost_per_robustness()
        );
    }

    let gain = dropping.robustness_pct() - baseline.robustness_pct();
    println!("proactive dropping gained {gain:.1} robustness points on this workload");
    Ok(())
}
