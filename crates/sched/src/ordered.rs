//! Ordering heuristics popular in homogeneous systems: FCFS, EDF, SJF.
//!
//! These sort the batch queue by a scalar key and greedily assign each task
//! to the machine with the earliest expected availability (on a homogeneous
//! system: the least-loaded machine). They are exactly the three baselines
//! of the paper's Figure 7b, and they also run on heterogeneous systems
//! (SJF then keys on the task type's mean execution time across machine
//! types).

use crate::MappingHeuristic;
use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::queue::ChainTask;
use taskdrop_model::view::{Assignment, MappingInput};

/// The sort key an [`OrderedHeuristic`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderKey {
    /// First come, first serve: ascending arrival time.
    Arrival,
    /// Earliest deadline first.
    Deadline,
    /// Shortest job first: ascending mean execution time of the task type.
    MeanExec,
}

/// Shared implementation for FCFS / EDF / SJF.
#[derive(Debug, Clone, Copy)]
pub struct OrderedHeuristic {
    key: OrderKey,
    name: &'static str,
}

/// First-come-first-serve mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

/// Earliest-deadline-first mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct Edf;

/// Shortest-job-first mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sjf;

impl OrderedHeuristic {
    /// Creates an ordering heuristic with an explicit key and display name.
    #[must_use]
    pub fn new(key: OrderKey, name: &'static str) -> Self {
        OrderedHeuristic { key, name }
    }
}

impl MappingHeuristic for OrderedHeuristic {
    fn name(&self) -> &'static str {
        self.name
    }

    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        let MappingInput { now, pet, mut machines, unmapped, compaction } = input;
        let mut order: Vec<usize> = (0..unmapped.len()).collect();
        order.sort_by(|&a, &b| {
            let ta = &unmapped[a];
            let tb = &unmapped[b];
            let ka = match self.key {
                OrderKey::Arrival => ta.arrival as f64,
                OrderKey::Deadline => ta.deadline as f64,
                OrderKey::MeanExec => pet.type_mean(ta.type_id),
            };
            let kb = match self.key {
                OrderKey::Arrival => tb.arrival as f64,
                OrderKey::Deadline => tb.deadline as f64,
                OrderKey::MeanExec => pet.type_mean(tb.type_id),
            };
            ka.total_cmp(&kb).then(ta.id.cmp(&tb.id))
        });

        let mut tail_means: Vec<f64> =
            machines.iter().map(|m| m.tail.mean().unwrap_or(now as f64)).collect();
        let mut out = Vec::new();
        let eval = &mut scratch.eval;
        for idx in order {
            let task = &unmapped[idx];
            // Earliest expected completion among machines with a free slot.
            let mut best: Option<(usize, f64)> = None;
            for (mi, m) in machines.iter().enumerate() {
                if m.free_slots == 0 {
                    continue;
                }
                let completion = tail_means[mi] + pet.mean_exec(task.type_id, m.machine_type);
                if best.is_none_or(|(_, bc)| completion < bc) {
                    best = Some((mi, completion));
                }
            }
            let Some((mi, _)) = best else { break };
            let exec = pet.pmf(task.type_id, machines[mi].machine_type);
            let step = ChainTask { deadline: task.deadline, exec };
            let (_, tail) = eval.step_from(&machines[mi].tail, step, compaction);
            tail_means[mi] = tail.mean().unwrap_or(tail_means[mi]);
            machines[mi].tail = tail;
            machines[mi].free_slots -= 1;
            out.push(Assignment { task_idx: idx, machine: machines[mi].machine });
        }
        out
    }
}

impl MappingHeuristic for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }
    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        OrderedHeuristic::new(OrderKey::Arrival, "FCFS").map(input, scratch)
    }
}

impl MappingHeuristic for Edf {
    fn name(&self) -> &'static str {
        "EDF"
    }
    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        OrderedHeuristic::new(OrderKey::Deadline, "EDF").map(input, scratch)
    }
}

impl MappingHeuristic for Sjf {
    fn name(&self) -> &'static str {
        "SJF"
    }
    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        OrderedHeuristic::new(OrderKey::MeanExec, "SJF").map(input, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{inconsistent_pet, machine, task};
    use taskdrop_model::view::MappingInput;
    use taskdrop_model::MachineId;
    use taskdrop_pmf::Compaction;

    fn input<'a>(
        pet: &'a taskdrop_model::PetMatrix,
        machines: Vec<taskdrop_model::view::MachineView>,
        unmapped: &'a [taskdrop_model::Task],
    ) -> MappingInput<'a> {
        MappingInput { now: 0, pet, machines, unmapped, compaction: Compaction::None }
    }

    #[test]
    fn fcfs_respects_arrival_order() {
        let pet = inconsistent_pet();
        // Later-arrived task listed first; single slot must go to earlier.
        let tasks = vec![task(5, 0, 100, 1000), task(2, 0, 10, 1000)];
        let asg = Fcfs.map_fresh(input(&pet, vec![machine(0, 0, 1, 0)], &tasks));
        assert_eq!(asg.len(), 1);
        assert_eq!(asg[0].task_idx, 1);
    }

    #[test]
    fn edf_picks_soonest_deadline() {
        let pet = inconsistent_pet();
        let tasks = vec![task(0, 0, 0, 900), task(1, 0, 50, 200)];
        let asg = Edf.map_fresh(input(&pet, vec![machine(0, 0, 1, 0)], &tasks));
        assert_eq!(asg[0].task_idx, 1);
    }

    #[test]
    fn sjf_picks_shortest_type() {
        let pet = inconsistent_pet(); // type means: both (10+40)/2 = 25 -- equal!
                                      // Use a PET where type means differ.
        use taskdrop_pmf::Pmf;
        let pet2 = taskdrop_model::PetMatrix::new(2, 1, vec![Pmf::point(100), Pmf::point(10)]);
        let tasks = vec![task(0, 0, 0, 10_000), task(1, 1, 0, 10_000)];
        let asg = Sjf.map_fresh(input(&pet2, vec![machine(0, 0, 1, 0)], &tasks));
        assert_eq!(asg[0].task_idx, 1, "SJF must map the short type first");
        // On the equal-mean PET, ties break by task id.
        let tasks = vec![task(7, 0, 0, 10_000), task(3, 1, 0, 10_000)];
        let asg = Sjf.map_fresh(input(&pet, vec![machine(0, 0, 1, 0)], &tasks));
        assert_eq!(asg[0].task_idx, 1);
    }

    #[test]
    fn least_loaded_machine_wins() {
        let pet = inconsistent_pet();
        // Homogeneous pair (same machine type): machine 1 frees earlier.
        let tasks = vec![task(0, 0, 0, 10_000)];
        let asg =
            Fcfs.map_fresh(input(&pet, vec![machine(0, 0, 3, 500), machine(1, 0, 3, 100)], &tasks));
        assert_eq!(asg[0].machine, MachineId(1));
    }

    #[test]
    fn fills_all_slots_then_stops() {
        let pet = inconsistent_pet();
        let tasks: Vec<_> = (0..10).map(|i| task(i, 0, i * 5, 10_000)).collect();
        let asg =
            Fcfs.map_fresh(input(&pet, vec![machine(0, 0, 2, 0), machine(1, 0, 2, 0)], &tasks));
        assert_eq!(asg.len(), 4);
    }

    #[test]
    fn heuristic_names() {
        assert_eq!(Fcfs.name(), "FCFS");
        assert_eq!(Edf.name(), "EDF");
        assert_eq!(Sjf.name(), "SJF");
    }
}
