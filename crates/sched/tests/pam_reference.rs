//! PAM against a textbook two-phase reference.
//!
//! The reference prices every task–machine pair as
//! `tail.convolve(exec).mass_before(deadline)` — no cache and no bound —
//! and applies PAM's phase-1 and phase-2 rules as `two_phase.rs` documents
//! them. `Pam.map` must return the same assignments over a sequence of
//! calls that share one `PolicyCtx`, so its `tail ⊛ exec` slots are warm,
//! cold and evicted by turns, and its bound skips whatever it can.
//!
//! Inputs cover tails that are points, empty, sub-distributions (some of
//! mass below `f64::EPSILON`), equal across machines (ties in phase 1)
//! or wider than `DENSE_SPAN_LIMIT`;
//! 0–3 free slots per machine; and 0–12 tasks with deadlines from 0 to
//! `Tick::MAX`. The cases come from a fixed-seed generator in this file:
//! 256 in builds with debug assertions (where the mapper also audits
//! every skipped price), 4 096 in release builds.

use taskdrop_model::ctx::PolicyCtx;
use taskdrop_model::view::{Assignment, MachineView, MappingInput};
use taskdrop_model::{MachineId, MachineTypeId, PetMatrix, Task, TaskId, TaskTypeId};
use taskdrop_pmf::{deadline_convolve, Compaction, Pmf, Tick, DENSE_SPAN_LIMIT};
use taskdrop_sched::{MappingHeuristic, Pam};

const CASES: u64 = if cfg!(debug_assertions) { 256 } else { 4096 };

/// SplitMix64: a fixed-seed stream of case parameters.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Four task types on three machine types, with one cell wide enough to
/// push `tail ⊛ exec` past the dense span.
fn pet() -> PetMatrix {
    let cells = |k: u64| match k % 5 {
        0 => Pmf::point(10 + k),
        1 => Pmf::from_impulses(vec![(5, 0.5), (30 + k, 0.5)]).unwrap(),
        2 => Pmf::uniform(1, 40 + k),
        3 => Pmf::from_impulses(vec![(3, 0.25), (200, 0.75)]).unwrap(),
        _ => Pmf::from_impulses(vec![(1, 0.5), (DENSE_SPAN_LIMIT + 9_000 + k, 0.5)]).unwrap(),
    };
    PetMatrix::new(4, 3, (0..12).map(cells).collect())
}

/// A machine's tail. The tiny-mass tail prices chances within
/// `f64::EPSILON` of 0, where an empty tail's 0 ties with them.
fn tail(g: &mut Gen, shared: &Pmf) -> Pmf {
    let t = g.below(300);
    match g.below(7) {
        0 => Pmf::point(t),
        1 => Pmf::empty(),
        2 => Pmf::from_impulses(vec![(t, 0.3), (t + 1 + g.below(50), 0.4)]).unwrap(),
        3 => Pmf::from_impulses(vec![(t, 0.5), (t + DENSE_SPAN_LIMIT + g.below(9), 0.5)]).unwrap(),
        4 => Pmf::uniform(t, t + g.below(30)),
        5 => Pmf::from_impulses(vec![(t, 1e-17 * (1 + g.below(30)) as f64)]).unwrap(),
        _ => shared.clone(),
    }
}

fn deadline(g: &mut Gen) -> Tick {
    match g.below(4) {
        0 => g.below(500),
        1 => g.below(200_000),
        2 => Tick::MAX - g.below(3),
        _ => 0,
    }
}

/// One mapping input: machine views and the batch queue.
fn case(
    g: &mut Gen,
    types: u64,
    previous: Option<&[MachineView]>,
) -> (Vec<MachineView>, Vec<Task>) {
    // Half the calls keep the previous call's tails, so slots stay warm.
    let machines = match previous {
        Some(prev) if g.below(2) == 0 => prev
            .iter()
            .map(|m| MachineView { free_slots: g.below(4) as usize, ..m.clone() })
            .collect(),
        _ => {
            let shared = Pmf::from_impulses(vec![(g.below(100), 0.5), (150, 0.5)]).unwrap();
            (0..1 + g.below(4))
                .map(|k| MachineView {
                    machine: MachineId(k as u16),
                    machine_type: MachineTypeId(g.below(3) as u16),
                    free_slots: g.below(4) as usize,
                    tail: tail(g, &shared),
                })
                .collect()
        }
    };
    let tasks = (0..g.below(13))
        .map(|k| Task {
            id: TaskId(k),
            type_id: TaskTypeId(g.below(types) as u16),
            arrival: 0,
            deadline: deadline(g),
        })
        .collect();
    (machines, tasks)
}

/// PAM as documented, pricing each pair with a whole convolution.
fn reference(
    pet: &PetMatrix,
    now: Tick,
    mut machines: Vec<MachineView>,
    unmapped: &[Task],
    compaction: Compaction,
) -> Vec<Assignment> {
    let mut means: Vec<f64> =
        machines.iter().map(|m| m.tail.mean().unwrap_or(now as f64)).collect();
    let mut remaining: Vec<(usize, Task)> = unmapped.iter().copied().enumerate().collect();
    let mut out = Vec::new();
    while !remaining.is_empty() && machines.iter().any(|m| m.free_slots > 0) {
        // Phase 1: each task's best machine by chance, ties within
        // f64::EPSILON broken by the lower expected completion.
        let mut pairs = Vec::new();
        for (pos, (_, task)) in remaining.iter().enumerate() {
            let mut best: Option<(usize, f64, f64)> = None;
            for (mi, m) in machines.iter().enumerate().filter(|(_, m)| m.free_slots > 0) {
                let completion = means[mi] + pet.mean_exec(task.type_id, m.machine_type);
                let exec = pet.pmf(task.type_id, m.machine_type);
                let key = -m.tail.convolve(exec).mass_before(task.deadline);
                let better = best.is_none_or(|(_, bk, bc)| {
                    key < bk - f64::EPSILON || ((key - bk).abs() <= f64::EPSILON && completion < bc)
                });
                if better {
                    best = Some((mi, key, completion));
                }
            }
            if let Some((mi, _, completion)) = best {
                pairs.push((pos, mi, completion));
            }
        }
        // Phase 2: per machine, the lowest (completion, mean execution,
        // task id); winners apply in machine order.
        let rank = |&(pos, mi, completion): &(usize, usize, f64)| {
            let task: &Task = &remaining[pos].1;
            (completion, pet.mean_exec(task.type_id, machines[mi].machine_type), task.id.0)
        };
        let mut winners: Vec<Option<(usize, usize, f64)>> = vec![None; machines.len()];
        for pair in &pairs {
            let slot = &mut winners[pair.1];
            if slot.is_none_or(|held| rank(pair) < rank(&held)) {
                *slot = Some(*pair);
            }
        }
        let mut assigned: Vec<usize> = Vec::new();
        for (mi, winner) in winners.iter().enumerate() {
            let Some((pos, _, _)) = *winner else { continue };
            let (idx, task) = remaining[pos];
            out.push(Assignment { task_idx: idx, machine: machines[mi].machine });
            let m = &mut machines[mi];
            let exec = pet.pmf(task.type_id, m.machine_type);
            m.tail = compaction.apply(&deadline_convolve(&m.tail, exec, task.deadline));
            means[mi] = m.tail.mean().unwrap_or(means[mi]);
            m.free_slots -= 1;
            assigned.push(pos);
        }
        if assigned.is_empty() {
            break;
        }
        let mut pos = 0;
        remaining.retain(|_| {
            pos += 1;
            !assigned.contains(&(pos - 1))
        });
    }
    out
}

#[test]
fn pam_matches_the_textbook_two_phase_reference() {
    let pet = pet();
    let mut g = Gen(0x5EED_0F9A_11CE);
    for case_no in 0..CASES {
        let mut ctx = PolicyCtx::new();
        let compaction = [Compaction::None, Compaction::MaxImpulses(4)][g.below(2) as usize];
        let mut previous: Option<Vec<MachineView>> = None;
        for call in 0..1 + g.below(4) {
            let (machines, tasks) = case(&mut g, pet.task_types() as u64, previous.as_deref());
            let now = g.below(50);
            let expected = reference(&pet, now, machines.clone(), &tasks, compaction);
            let input = MappingInput {
                now,
                pet: &pet,
                machines: machines.clone(),
                unmapped: &tasks,
                compaction,
            };
            assert_eq!(Pam.map(input, &mut ctx), expected, "case {case_no}, call {call}");
            previous = Some(machines);
        }
    }
}
