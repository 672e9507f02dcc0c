//! Anatomy of a dropping decision — the paper's Figures 2 and 3, live.
//!
//! Walks through the probabilistic machinery on a hand-built machine queue:
//! deadline-aware convolution (Eq 1), chance of success (Eq 2), dependence
//! and influence zones (Fig 3), and the Eq 8 comparison the proactive
//! heuristic makes before dropping a task.
//!
//! ```sh
//! cargo run --example dropping_anatomy            # no workload: --quick is a no-op
//! ```

use taskdrop::model::queue::{chain, chance_sum, dependence_zone, influence_zone, ChainTask};
use taskdrop::prelude::*;

fn show(name: &str, pmf: &Pmf) {
    let pairs: Vec<String> = pmf.iter().map(|i| format!("P(t={}) = {:.2}", i.t, i.p)).collect();
    println!("  {name}: {}", pairs.join(", "));
}

fn main() {
    // Hand-built queues only — nothing to scale, but accept/validate the
    // common example flags so the smoke test can drive every example alike.
    let _ = taskdrop::demo::scale_from_args();
    println!("== Paper Figure 2: deadline-aware convolution ==\n");
    // Execution-time PMF of pending task i and completion PMF of task i-1,
    // exactly as printed in the paper.
    let exec = Pmf::from_impulses(vec![(1, 0.6), (2, 0.4)]).unwrap();
    let prev = Pmf::from_impulses(vec![(10, 0.6), (11, 0.3), (12, 0.05), (13, 0.05)]).unwrap();
    let deadline = 13;
    show("exec-time PMF of task i   ", &exec);
    show("completion PMF of task i-1", &prev);
    let completion = deadline_convolve(&prev, &exec, deadline);
    show("completion PMF of task i  ", &completion);
    println!(
        "  chance of success p_ij = P(C < {deadline}) = {:.2}\n",
        chance_of_success(&completion, deadline)
    );

    println!("== Paper Figure 3: dependence and influence zones ==\n");
    let queue_len = 6;
    let i = 2;
    println!("  queue of {queue_len} tasks, task at position {i}:");
    println!("  dependence zone (determines when it starts): positions {:?}", dependence_zone(i));
    println!(
        "  influence zone (benefits if it is dropped) : positions {:?}\n",
        influence_zone(i, queue_len)
    );

    println!("== Equation 8: the heuristic's drop decision ==\n");
    // A machine whose queue holds a doomed heavyweight blocking two light
    // tasks. The execution PMFs are written by hand here; the engine takes
    // them from PET cells.
    let heavy = Pmf::from_impulses(vec![(50, 0.5), (70, 0.5)]).unwrap();
    let light = Pmf::point(10);
    let base = Pmf::point(0); // idle machine
    let tasks = vec![
        ChainTask { deadline: 45, exec: &heavy }, // task A: can never finish on time
        ChainTask { deadline: 30, exec: &light }, // task B: fine if A vanishes
        ChainTask { deadline: 40, exec: &light }, // task C: likewise
    ];
    let links = chain(&base, &tasks, Compaction::None);
    for (k, l) in links.iter().enumerate() {
        println!(
            "  keep-everything chain: task {} chance = {:.2}",
            (b'A' + k as u8) as char,
            l.chance
        );
    }

    let eta = 2;
    let beta = 1.0;
    let keep: f64 = links.iter().take(eta + 1).map(|l| l.chance).sum();
    let drop = chance_sum(&base, &tasks[1..], eta, Compaction::None);
    println!("\n  Eq 8 for dropping task A (beta={beta}, eta={eta}):");
    println!("    keep-future  sum p_n (n = A..A+{eta})   = {keep:.2}");
    println!("    drop-future  sum p^(A)_n (n = B..B+{})  = {drop:.2}", eta - 1 + 1);
    println!(
        "    {drop:.2} > {beta}·{keep:.2}  ->  {}",
        if drop > beta * keep { "DROP task A" } else { "keep task A" }
    );

    let dropper = ProactiveDropper::paper_default();
    // A policy reads exactly these chain inputs.
    let queue = QueueView::new(base, tasks, Vec::new(), Compaction::None);
    let ctx = DropContext::plain(Compaction::None);
    println!("\n  ProactiveDropper agrees: {:?}", dropper.select_drops_fresh(&queue, &ctx).drops);
    println!("  (position 0 = task A is proactively dropped)");
}
