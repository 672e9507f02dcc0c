//! The two-phase batch mappers: MinMin, MSD and PAM.
//!
//! All three share the same skeleton (repeat until no free slot or no
//! unmapped task):
//!
//! 1. **Phase 1** — every unmapped task is provisionally paired with its
//!    best machine among those with a free slot (MinMin/MSD: minimum
//!    expected completion time; PAM: highest chance of success).
//! 2. **Phase 2** — every machine with a free slot receives, among the pairs
//!    provisionally mapped to it, the winning pair (MinMin: minimum
//!    completion; MSD: soonest deadline; PAM: minimum completion, ties by
//!    shortest expected execution).
//!
//! Losing pairs re-enter phase 1 in the next iteration against the updated
//! queue tails, exactly as the paper describes for MM/MSD. (The paper's PAM
//! prose picks one global pair per iteration; we use the same per-machine
//! phase 2 as MM — with the one-or-two free slots typical of a mapping event
//! the two formulations coincide, and this one is uniform and faster.)
//!
//! Expected completion time of a task appended to a queue is
//! `E[tail] + E[exec]`, the standard scalar approximation used by these
//! heuristics. Chance of success is exact: `P(tail ⊛ exec < deadline)`,
//! which equals the deadline-aware convolution's on-time mass because mass
//! below the deadline can only come from on-time starts.

use crate::MappingHeuristic;
use taskdrop_model::ctx::{PolicyCtx, TailCache};
use taskdrop_model::queue::{ChainEvaluator, ChainTask};
use taskdrop_model::view::{Assignment, MachineView, MappingInput};
use taskdrop_model::{PetMatrix, Task};
use taskdrop_pmf::{convolved_mass_before, running_masses, Compaction, Tick, ROUNDING_MARGIN};

/// Which two-phase heuristic to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    MinMin,
    MaxMin,
    Msd,
    Pam,
    Sufferage,
}

/// MinCompletion–MinCompletion (MinMin / MM), the classic heterogeneous
/// batch mapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMin;

/// MinCompletion–MaxCompletion (MaxMin): pairs tasks with their fastest
/// machine like MinMin, but serves the pair with the *largest* completion
/// time first, preventing long tasks from starving behind swarms of short
/// ones. Classic counterpart of MinMin in the heterogeneous-scheduling
/// literature (Ibarra & Kim lineage); not evaluated in the paper but
/// included for library completeness and the extension benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxMin;

/// MinCompletion–Soonest-Deadline (MSD).
#[derive(Debug, Clone, Copy, Default)]
pub struct Msd;

/// Pruning-Aware Mapping (PAM) with deferring disabled, as evaluated in the
/// paper. Uses the PET matrix to maximise each task's chance of success.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pam;

/// Sufferage: each task is paired with its fastest machine, but the slot
/// goes to the task that would *suffer* most if denied it — the largest gap
/// between its best and second-best expected completion times. A standard
/// strong baseline on inconsistent heterogeneity; included as an extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sufferage;

impl MappingHeuristic for MinMin {
    fn name(&self) -> &'static str {
        "MM"
    }
    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        run_two_phase(input, Kind::MinMin, scratch)
    }
}

impl MappingHeuristic for MaxMin {
    fn name(&self) -> &'static str {
        "MaxMin"
    }
    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        run_two_phase(input, Kind::MaxMin, scratch)
    }
}

impl MappingHeuristic for Msd {
    fn name(&self) -> &'static str {
        "MSD"
    }
    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        run_two_phase(input, Kind::Msd, scratch)
    }
}

impl MappingHeuristic for Sufferage {
    fn name(&self) -> &'static str {
        "Sufferage"
    }
    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        run_two_phase(input, Kind::Sufferage, scratch)
    }
}

impl MappingHeuristic for Pam {
    fn name(&self) -> &'static str {
        "PAM"
    }
    fn map(&self, input: MappingInput<'_>, scratch: &mut PolicyCtx) -> Vec<Assignment> {
        run_two_phase(input, Kind::Pam, scratch)
    }
}

/// Mutable mapper state: machine tails evolve as assignments are made.
///
/// The chain scratch and the PET×tail convolution cache are borrowed from
/// the caller's [`PolicyCtx`], so the `tail ⊛ exec` convolutions PAM
/// prices with survive *across* mapping events: when a machine's tail is
/// unchanged since the last event (its queue did not move), the cached
/// convolution is reused bit-identically instead of recomputed. Entries
/// key on the exact `(tail, exec)` inputs, so an in-call tail extension
/// (an assignment) invalidates by comparison — no explicit bookkeeping.
struct WorkState<'a> {
    pet: &'a PetMatrix,
    compaction: Compaction,
    machines: Vec<MachineView>,
    tail_means: Vec<f64>,
    /// PAM only: [`running_masses`] of each machine's tail, the input of
    /// [`WorkState::chance_ceiling`]; empty for the other kinds.
    tail_sums: Vec<Vec<f64>>,
    types: usize,
    /// Fused tail-extension scratch (one materialisation per assignment).
    eval: &'a mut ChainEvaluator,
    /// Persistent `tail ⊛ exec` cache keyed by (machine id, task type).
    cache: &'a mut TailCache,
}

impl<'a> WorkState<'a> {
    fn new(
        pet: &'a PetMatrix,
        now: Tick,
        machines: Vec<MachineView>,
        compaction: Compaction,
        kind: Kind,
        scratch: &'a mut PolicyCtx,
    ) -> Self {
        let tail_means: Vec<f64> =
            machines.iter().map(|m| m.tail.mean().unwrap_or(now as f64)).collect();
        let tail_sums = if kind == Kind::Pam {
            let sums = |m: &MachineView| {
                let mut sums = Vec::new();
                running_masses(&m.tail, &mut sums);
                sums
            };
            machines.iter().map(sums).collect()
        } else {
            Vec::new()
        };
        let PolicyCtx { eval, tails, .. } = scratch;
        WorkState {
            pet,
            compaction,
            machines,
            tail_means,
            tail_sums,
            types: pet.task_types(),
            eval,
            cache: tails,
        }
    }

    fn expected_completion(&self, mi: usize, task: &Task) -> f64 {
        self.tail_means[mi] + self.pet.mean_exec(task.type_id, self.machines[mi].machine_type)
    }

    fn chance(&mut self, mi: usize, task: &Task) -> f64 {
        let exec = self.pet.pmf(task.type_id, self.machines[mi].machine_type);
        self.cache.chance(
            self.machines[mi].machine.index(),
            task.type_id.index(),
            self.types,
            &self.machines[mi].tail,
            exec,
            task.deadline,
        )
    }

    /// [`WorkState::chance`] summed by execution tick from the tail's
    /// running masses ([`convolved_mass_before`]): within
    /// [`ROUNDING_MARGIN`] plus `f64::EPSILON` of the chance, at
    /// `O(|exec| + |tail|)` and with no cache lookup. Infinite, which
    /// bounds nothing, without the running masses.
    fn chance_ceiling(&self, mi: usize, task: &Task) -> f64 {
        let (Some(m), Some(sums)) = (self.machines.get(mi), self.tail_sums.get(mi)) else {
            return f64::INFINITY;
        };
        let exec = self.pet.pmf(task.type_id, m.machine_type);
        convolved_mass_before(&m.tail, sums, exec, task.deadline)
    }

    fn assign(&mut self, mi: usize, task: &Task) {
        let exec = self.pet.pmf(task.type_id, self.machines[mi].machine_type);
        let step = ChainTask { deadline: task.deadline, exec };
        let (_, tail) = self.eval.step_from(&self.machines[mi].tail, step, self.compaction);
        self.tail_means[mi] = tail.mean().unwrap_or(self.tail_means[mi]);
        if let Some(sums) = self.tail_sums.get_mut(mi) {
            running_masses(&tail, sums);
        }
        self.machines[mi].tail = tail;
        self.machines[mi].free_slots -= 1;
        // No cache invalidation needed: the tail just changed, so stale
        // convolution entries fail their input comparison on next lookup.
    }
}

/// A phase-1 pairing of one task with its best machine.
struct Pair {
    /// Position in `remaining`.
    pos: usize,
    mi: usize,
    completion: f64,
    /// Second-best minus best expected completion (Sufferage only; infinity
    /// when a single machine has free slots — the task has no alternative).
    sufferage: f64,
}

fn run_two_phase(input: MappingInput<'_>, kind: Kind, scratch: &mut PolicyCtx) -> Vec<Assignment> {
    let MappingInput { now, pet, machines, unmapped, compaction } = input;
    let mut state = WorkState::new(pet, now, machines, compaction, kind, scratch);
    // (original index, task) of still-unmapped tasks.
    let mut remaining: Vec<(usize, Task)> = unmapped.iter().copied().enumerate().collect();
    let mut out = Vec::new();

    loop {
        if remaining.is_empty() {
            break;
        }
        let any_free = state.machines.iter().any(|m| m.free_slots > 0);
        if !any_free {
            break;
        }

        // Phase 1: pair each task with its best free-slot machine.
        let mut pairs: Vec<Pair> = Vec::with_capacity(remaining.len());
        for (pos, (_, task)) in remaining.iter().enumerate() {
            let mut best: Option<(usize, f64, f64)> = None; // (mi, key, completion)
            let mut runner_up = f64::INFINITY; // second-best completion
            for mi in 0..state.machines.len() {
                if state.machines[mi].free_slots == 0 {
                    continue;
                }
                let completion = state.expected_completion(mi, task);
                // Lower key is better; PAM maximises chance with completion
                // as tie-breaker, folded into a lexicographic pair.
                let key = match (kind, best) {
                    (Kind::Pam, Some((_, bk, _))) if pam_cannot_win(&state, mi, task, bk) => {
                        // Neither better than the best so far nor tied
                        // with it: the not-better branch below, unpriced.
                        runner_up = runner_up.min(completion);
                        continue;
                    }
                    (Kind::Pam, _) => -state.chance(mi, task),
                    _ => completion,
                };
                let better = match best {
                    None => true,
                    Some((_, bk, bc)) => {
                        key < bk - f64::EPSILON
                            || ((key - bk).abs() <= f64::EPSILON && completion < bc)
                    }
                };
                if better {
                    if let Some((_, _, bc)) = best {
                        runner_up = runner_up.min(bc);
                    }
                    best = Some((mi, key, completion));
                } else {
                    runner_up = runner_up.min(completion);
                }
            }
            if let Some((mi, _, completion)) = best {
                let sufferage =
                    if runner_up.is_finite() { runner_up - completion } else { f64::INFINITY };
                pairs.push(Pair { pos, mi, completion, sufferage });
            }
        }
        if pairs.is_empty() {
            break;
        }

        // Phase 2: per machine, select the winning pair.
        let mut winner: Vec<Option<usize>> = vec![None; state.machines.len()];
        for (pi, pair) in pairs.iter().enumerate() {
            let current = &mut winner[pair.mi];
            let better = match *current {
                None => true,
                Some(prev_pi) => {
                    let prev = &pairs[prev_pi];
                    phase2_beats(kind, &state, &remaining, pair, prev)
                }
            };
            if better {
                *current = Some(pi);
            }
        }

        // Apply winners (machine order for determinism), then prune.
        let mut assigned_pos: Vec<usize> = Vec::new();
        for (mi, slot) in winner.iter().enumerate() {
            let Some(pi) = *slot else { continue };
            let pair = &pairs[pi];
            let (orig_idx, task) = remaining[pair.pos];
            out.push(Assignment { task_idx: orig_idx, machine: state.machines[mi].machine });
            state.assign(mi, &task);
            assigned_pos.push(pair.pos);
        }
        if assigned_pos.is_empty() {
            break;
        }
        assigned_pos.sort_unstable();
        let mut keep = Vec::with_capacity(remaining.len() - assigned_pos.len());
        let mut drop_iter = assigned_pos.iter().peekable();
        for (pos, entry) in remaining.into_iter().enumerate() {
            if drop_iter.peek() == Some(&&pos) {
                drop_iter.next();
            } else {
                keep.push(entry);
            }
        }
        remaining = keep;
    }
    out
}

/// Whether PAM's phase 1 provably keeps its best key `best_key` (the
/// negated best chance so far, in machine order) against machine `mi`.
///
/// The machine beats the best when its chance exceeds the best's by more
/// than `f64::EPSILON`, and ties within `f64::EPSILON`. Its chance is at
/// most the ceiling scaled by `1 + ROUNDING_MARGIN` plus `f64::EPSILON`
/// (see [`convolved_mass_before`]), so a ceiling that, with that margin
/// and one more `f64::EPSILON`, stays below the best cannot win or tie.
/// Skipping it leaves the best unchanged, which is why the comparison must
/// be against the best so far: the ε tie rule is not transitive.
fn pam_cannot_win(state: &WorkState<'_>, mi: usize, task: &Task, best_key: f64) -> bool {
    let ceiling = state.chance_ceiling(mi, task);
    let skip = ceiling * (1.0 + ROUNDING_MARGIN) + 2.0 * f64::EPSILON < -best_key;
    debug_assert!(
        !skip
            || state.machines.get(mi).is_some_and(|m| {
                let exec = state.pet.pmf(task.type_id, m.machine_type);
                -m.tail.convolve(exec).mass_before(task.deadline) - best_key > f64::EPSILON
            }),
        "the PAM bound skipped a price that wins or ties on machine {mi}"
    );
    skip
}

/// Phase-2 comparison: does `a` beat `b` for the same machine?
fn phase2_beats(
    kind: Kind,
    state: &WorkState<'_>,
    remaining: &[(usize, Task)],
    a: &Pair,
    b: &Pair,
) -> bool {
    let ta = &remaining[a.pos].1;
    let tb = &remaining[b.pos].1;
    let key = |pair: &Pair, t: &Task| -> (f64, f64, u64) {
        match kind {
            // MinMin: min completion, ties by task id.
            Kind::MinMin => (pair.completion, 0.0, t.id.0),
            // MaxMin: max completion (serve the longest pair first).
            Kind::MaxMin => (-pair.completion, 0.0, t.id.0),
            // MSD: soonest deadline, ties by min completion, then task id.
            Kind::Msd => (t.deadline as f64, pair.completion, t.id.0),
            // PAM: min completion, ties by shortest expected execution.
            Kind::Pam => (
                pair.completion,
                state.pet.mean_exec(t.type_id, state.machines[pair.mi].machine_type),
                t.id.0,
            ),
            // Sufferage: the task that suffers most without this slot wins;
            // ties by min completion, then task id.
            Kind::Sufferage => (-pair.sufferage, pair.completion, t.id.0),
        }
    };
    key(a, ta) < key(b, tb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{inconsistent_pet, machine, task};
    use taskdrop_model::MachineId;

    fn input<'a>(
        pet: &'a PetMatrix,
        machines: Vec<MachineView>,
        unmapped: &'a [Task],
    ) -> MappingInput<'a> {
        MappingInput { now: 0, pet, machines, unmapped, compaction: Compaction::None }
    }

    #[test]
    fn minmin_prefers_fast_machine_per_type() {
        let pet = inconsistent_pet();
        let tasks = vec![task(0, 0, 0, 1000), task(1, 1, 0, 1000)];
        let mm = MinMin;
        let asg = mm.map_fresh(input(&pet, vec![machine(0, 0, 3, 0), machine(1, 1, 3, 0)], &tasks));
        assert_eq!(asg.len(), 2);
        // Type 0 is fast (10) on machine 0; type 1 fast on machine 1.
        let m_of = |idx: usize| asg.iter().find(|a| a.task_idx == idx).unwrap().machine;
        assert_eq!(m_of(0), MachineId(0));
        assert_eq!(m_of(1), MachineId(1));
    }

    #[test]
    fn minmin_respects_free_slots() {
        let pet = inconsistent_pet();
        let tasks: Vec<_> = (0..5).map(|i| task(i, 0, 0, 1000)).collect();
        let asg =
            MinMin.map_fresh(input(&pet, vec![machine(0, 0, 2, 0), machine(1, 1, 1, 0)], &tasks));
        assert_eq!(asg.len(), 3);
        let to_m0 = asg.iter().filter(|a| a.machine == MachineId(0)).count();
        let to_m1 = asg.iter().filter(|a| a.machine == MachineId(1)).count();
        assert_eq!(to_m0, 2);
        assert_eq!(to_m1, 1);
    }

    #[test]
    fn minmin_no_duplicate_assignments() {
        let pet = inconsistent_pet();
        let tasks: Vec<_> = (0..10).map(|i| task(i, (i % 2) as u16, 0, 1000)).collect();
        let asg =
            MinMin.map_fresh(input(&pet, vec![machine(0, 0, 4, 0), machine(1, 1, 4, 0)], &tasks));
        let mut seen: Vec<usize> = asg.iter().map(|a| a.task_idx).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), asg.len());
    }

    #[test]
    fn minmin_spreads_load_as_tails_grow() {
        // All tasks type 0: machine 0 takes 10, machine 1 takes 40. With 4
        // tasks and deep queues, MinMin sends the first three to machine 0
        // (completions 10,20,30) and the fourth compares 40 vs 40 -> still
        // machine 0 or 1 depending on tie; check total mapped = 4 and at
        // least 3 go to the fast machine.
        let pet = inconsistent_pet();
        let tasks: Vec<_> = (0..4).map(|i| task(i, 0, 0, 10_000)).collect();
        let asg =
            MinMin.map_fresh(input(&pet, vec![machine(0, 0, 6, 0), machine(1, 1, 6, 0)], &tasks));
        assert_eq!(asg.len(), 4);
        let fast = asg.iter().filter(|a| a.machine == MachineId(0)).count();
        assert!(fast >= 3, "fast machine got {fast}");
    }

    #[test]
    fn msd_orders_by_deadline() {
        let pet = inconsistent_pet();
        // One slot: the sooner-deadline task must win it even though both
        // prefer machine 0.
        let tasks = vec![task(0, 0, 0, 5000), task(1, 0, 0, 50)];
        let asg = Msd.map_fresh(input(&pet, vec![machine(0, 0, 1, 0)], &tasks));
        assert_eq!(asg.len(), 1);
        assert_eq!(asg[0].task_idx, 1);
    }

    #[test]
    fn minmin_picks_min_completion_for_single_slot() {
        let pet = inconsistent_pet();
        // Type 0 completes in 10, type 1 in 40 on machine 0; MinMin gives
        // the slot to the faster task regardless of deadlines.
        let tasks = vec![task(0, 1, 0, 50), task(1, 0, 0, 5000)];
        let asg = MinMin.map_fresh(input(&pet, vec![machine(0, 0, 1, 0)], &tasks));
        assert_eq!(asg.len(), 1);
        assert_eq!(asg[0].task_idx, 1);
    }

    #[test]
    fn pam_prefers_highest_chance() {
        let pet = inconsistent_pet();
        // Machine 0 busy until 100; machine 1 free now. Task type 0 with
        // deadline 60: machine 0 gives chance 0 (start at 100), machine 1
        // gives completion 40 < 60 -> chance 1. PAM must pick machine 1 even
        // though expected completion on machine 0 (110) loses to 40 anyway;
        // sharpen by making machine 1 slower overall: tail 0 + exec 40 = 40
        // vs machine 0: 100 + 10 = 110. Chance logic and completion agree
        // here; the distinguishing case is below.
        let tasks = vec![task(0, 0, 0, 60)];
        let asg =
            Pam.map_fresh(input(&pet, vec![machine(0, 0, 1, 100), machine(1, 1, 1, 0)], &tasks));
        assert_eq!(asg[0].machine, MachineId(1));
    }

    #[test]
    fn pam_chance_beats_completion() {
        let pet = inconsistent_pet();
        // Machine 0 frees at 55, machine 1 at 0. Task type 0 deadline 70:
        //   machine 0: completes at 65 < 70 -> chance 1, completion 65.
        //   machine 1: completes at 40 < 70 -> chance 1, completion 40.
        // Equal chance; tie-break by completion -> machine 1.
        let tasks = vec![task(0, 0, 0, 70)];
        let asg =
            Pam.map_fresh(input(&pet, vec![machine(0, 0, 1, 55), machine(1, 1, 1, 0)], &tasks));
        assert_eq!(asg[0].machine, MachineId(1));

        // Now deadline 50: machine 0 chance 0 (65 >= 50), machine 1 chance 1
        // (40 < 50). PAM must pick machine 1; MinMin would also pick 1 here,
        // so flip speeds: make the chance-1 machine the *slow* one.
        //   machine 0 (type column 0, exec 10) frees at 45 -> completes 55, chance 0.
        //   machine 1 (type column 1, exec 40) frees at 0 -> completes 40, chance 1.
        // Expected completion favours machine 1 too... the real separator:
        let tasks = vec![task(0, 0, 0, 56)];
        // machine 0: completes 55 < 56 -> chance 1, completion 55.
        // machine 1: completes 40 < 56 -> chance 1, completion 40.
        // tie on chance, completion picks machine 1.
        let asg =
            Pam.map_fresh(input(&pet, vec![machine(0, 0, 1, 45), machine(1, 1, 1, 0)], &tasks));
        assert_eq!(asg[0].machine, MachineId(1));
    }

    #[test]
    fn pam_uses_probability_mass_not_means() {
        // Execution PMF with 50/50 split: mean completion equal on both
        // machines, but the deadline cuts them differently.
        use taskdrop_pmf::Pmf;
        let pet = PetMatrix::new(
            1,
            2,
            vec![
                // Machine type 0: always 30 (mean 30).
                Pmf::point(30),
                // Machine type 1: 10 or 50 (mean 30).
                Pmf::from_impulses(vec![(10, 0.5), (50, 0.5)]).unwrap(),
            ],
        );
        // Deadline 35: machine 0 chance 1.0; machine 1 chance 0.5.
        let tasks = vec![task(0, 0, 0, 35)];
        let asg =
            Pam.map_fresh(input(&pet, vec![machine(0, 0, 1, 0), machine(1, 1, 1, 0)], &tasks));
        assert_eq!(asg[0].machine, MachineId(0));
        // Deadline 15: machine 0 chance 0; machine 1 chance 0.5.
        let tasks = vec![task(0, 0, 0, 15)];
        let asg =
            Pam.map_fresh(input(&pet, vec![machine(0, 0, 1, 0), machine(1, 1, 1, 0)], &tasks));
        assert_eq!(asg[0].machine, MachineId(1));
    }

    #[test]
    fn empty_batch_maps_nothing() {
        let pet = inconsistent_pet();
        for h in [&MinMin as &dyn MappingHeuristic, &Msd, &Pam] {
            let asg = h.map_fresh(input(&pet, vec![machine(0, 0, 3, 0)], &[]));
            assert!(asg.is_empty(), "{}", h.name());
        }
    }

    #[test]
    fn no_free_slots_maps_nothing() {
        let pet = inconsistent_pet();
        let tasks = vec![task(0, 0, 0, 100)];
        for h in [&MinMin as &dyn MappingHeuristic, &Msd, &Pam] {
            let asg =
                h.map_fresh(input(&pet, vec![machine(0, 0, 0, 0), machine(1, 1, 0, 0)], &tasks));
            assert!(asg.is_empty(), "{}", h.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MinMin.name(), "MM");
        assert_eq!(MaxMin.name(), "MaxMin");
        assert_eq!(Msd.name(), "MSD");
        assert_eq!(Pam.name(), "PAM");
        assert_eq!(Sufferage.name(), "Sufferage");
    }

    #[test]
    fn maxmin_serves_long_pair_first() {
        let pet = inconsistent_pet();
        // Single slot on machine 0: type 0 completes in 10, type 1 in 40.
        // MinMin gives the slot to the short task; MaxMin to the long one.
        let tasks = vec![task(0, 0, 0, 10_000), task(1, 1, 0, 10_000)];
        let min = MinMin.map_fresh(input(&pet, vec![machine(0, 0, 1, 0)], &tasks));
        assert_eq!(min[0].task_idx, 0);
        let max = MaxMin.map_fresh(input(&pet, vec![machine(0, 0, 1, 0)], &tasks));
        assert_eq!(max[0].task_idx, 1);
    }

    #[test]
    fn sufferage_prioritises_most_penalised_task() {
        // Type 0: 10 on m0, 40 on m1 -> sufferage 30.
        // Type 1: 40 on m0... both prefer m0? type 1: 40 on m0, 10 on m1 ->
        // prefers m1. No contention. Build contention: two type-0 tasks and
        // one slot on m0 (their fast machine), plus m1 with a slot.
        //   Task A (type 0): best m0 (10), second m1 (40) -> sufferage 30.
        //   Task B (type 1): best m1 (10), second m0 (40) -> sufferage 30.
        // Add task C (type 0): also best m0 -> contends with A on m0; equal
        // sufferage, ties by completion then id -> A (lower id) wins m0.
        let pet = inconsistent_pet();
        let tasks = vec![task(0, 0, 0, 10_000), task(1, 1, 0, 10_000), task(2, 0, 0, 10_000)];
        let asg = Sufferage.map_fresh(input(
            &pet,
            vec![machine(0, 0, 1, 0), machine(1, 1, 1, 0)],
            &tasks,
        ));
        assert_eq!(asg.len(), 2);
        let m_of = |idx: usize| asg.iter().find(|a| a.task_idx == idx).map(|a| a.machine);
        assert_eq!(m_of(0), Some(MachineId(0)), "task A takes its fast machine");
        assert_eq!(m_of(1), Some(MachineId(1)), "task B takes its fast machine");
        assert_eq!(m_of(2), None, "task C is left for the next event");
    }

    #[test]
    fn sufferage_single_machine_still_assigns() {
        // With one machine there is no alternative: sufferage is infinite
        // for every task; ties resolve by completion then id.
        let pet = inconsistent_pet();
        let tasks = vec![task(3, 0, 0, 10_000), task(1, 0, 0, 10_000)];
        let asg = Sufferage.map_fresh(input(&pet, vec![machine(0, 0, 1, 0)], &tasks));
        assert_eq!(asg.len(), 1);
        assert_eq!(asg[0].task_idx, 1, "equal completion: lower id wins");
    }
}
