//! Scenario = machines + task types + truth model + learned PET matrix.

use crate::specint::{specint_mean_table, SPECINT_BENCHMARKS, SPECINT_MACHINES};
use crate::transcode::{
    transcode_mean_table, TRANSCODE_MACHINES_PER_TYPE, TRANSCODE_TASK_TYPES, TRANSCODE_VM_TYPES,
};
use rand::Rng;
use taskdrop_model::{
    Machine, MachineId, MachineType, MachineTypeId, PetMatrix, TaskType, TaskTypeId,
};
use taskdrop_pmf::{Pmf, Tick};
use taskdrop_stats::{derive_seed, new_rng, GammaSampler, Histogram, Rng64};

/// The *true* execution-time model: one Gamma distribution per
/// (task type, machine type) cell. The simulator draws actual execution
/// times from this; the scheduler only ever sees the learned [`PetMatrix`].
#[derive(Debug, Clone)]
pub struct ExecTruth {
    machine_types: usize,
    cells: Vec<GammaSampler>,
}

impl ExecTruth {
    /// The true distribution for a cell.
    #[must_use]
    pub fn sampler(&self, t: TaskTypeId, m: MachineTypeId) -> &GammaSampler {
        &self.cells[t.index() * self.machine_types + m.index()]
    }

    /// Draws an actual execution time in ticks (at least 1).
    pub fn sample(&self, t: TaskTypeId, m: MachineTypeId, rng: &mut Rng64) -> Tick {
        (self.sampler(t, m).sample(rng).round() as Tick).max(1)
    }

    /// The true mean of a cell, in ticks.
    #[must_use]
    pub fn mean(&self, t: TaskTypeId, m: MachineTypeId) -> f64 {
        self.sampler(t, m).mean()
    }
}

/// A fully-specified experimental environment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// Task types, in PET row order. `mean_exec` holds *true* means.
    pub task_types: Vec<TaskType>,
    /// Machine types, in PET column order.
    pub machine_types: Vec<MachineType>,
    /// Machine instances (possibly several per type).
    pub machines: Vec<Machine>,
    /// The true execution-time model.
    pub truth: ExecTruth,
    /// The learned PET matrix (what the scheduler believes).
    pub pet: PetMatrix,
    /// Seed the scenario was built from.
    pub seed: u64,
}

impl Scenario {
    /// The paper's main scenario: 12 SPECint task types on 8 heterogeneous
    /// machines (one per machine type).
    #[must_use]
    pub fn specint(seed: u64) -> Self {
        ScenarioBuilder::new("specint")
            .task_type_names(SPECINT_BENCHMARKS.iter().map(|s| s.to_string()))
            .machine_types(SPECINT_MACHINES.iter().map(|&(n, _, p)| (n.to_string(), p)))
            .mean_table(specint_mean_table())
            .seed(seed)
            .build()
    }

    /// The validation scenario: 4 video-transcoding task types on 4 VM
    /// types, two machines each (Figure 10).
    #[must_use]
    pub fn transcode(seed: u64) -> Self {
        ScenarioBuilder::new("transcode")
            .task_type_names(TRANSCODE_TASK_TYPES.iter().map(|s| s.to_string()))
            .machine_types(TRANSCODE_VM_TYPES.iter().map(|&(n, p)| (n.to_string(), p)))
            .mean_table(transcode_mean_table())
            .machines_per_type(TRANSCODE_MACHINES_PER_TYPE)
            .seed(seed)
            .build()
    }

    /// The homogeneous control: the 12 SPECint task types on 8 *identical*
    /// machines (Figure 7b). Per-type means match the heterogeneous
    /// scenario's row means, so workloads are comparable.
    #[must_use]
    pub fn homogeneous(seed: u64) -> Self {
        let het = specint_mean_table();
        let column: Vec<Vec<f64>> =
            het.iter().map(|row| vec![row.iter().sum::<f64>() / row.len() as f64]).collect();
        ScenarioBuilder::new("homogeneous")
            .task_type_names(SPECINT_BENCHMARKS.iter().map(|s| s.to_string()))
            .machine_types([("uniform-node".to_string(), 0.45)])
            .mean_table(column)
            .machines_per_type(8)
            .seed(seed)
            .build()
    }

    /// Number of task types.
    #[must_use]
    pub fn task_type_count(&self) -> usize {
        self.task_types.len()
    }

    /// Number of machine instances.
    #[must_use]
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Total machine-queue capacity at a given per-machine queue size,
    /// saturating at `usize::MAX`.
    #[must_use]
    pub fn capacity(&self, queue_size: usize) -> usize {
        self.machine_count().saturating_mul(queue_size)
    }

    /// Hourly price of a machine (via its type).
    #[must_use]
    pub fn price_per_hour(&self, machine: MachineId) -> f64 {
        let mt = self.machines[machine.index()].type_id;
        self.machine_types[mt.index()].price_per_hour
    }
}

/// Builder for custom scenarios (the built-ins above are thin wrappers).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    type_names: Vec<String>,
    machine_types: Vec<(String, f64)>,
    machines_per_type: usize,
    mean_table: Vec<Vec<f64>>,
    scale_range: (f64, f64),
    pet_samples: usize,
    pet_bins: usize,
    seed: u64,
}

impl ScenarioBuilder {
    /// Starts a builder; defaults follow the paper: Gamma scale uniform in
    /// `[1, 20]`, 500 samples per PET cell, one machine per machine type.
    #[must_use]
    pub fn new(name: &str) -> Self {
        ScenarioBuilder {
            name: name.to_string(),
            type_names: Vec::new(),
            machine_types: Vec::new(),
            machines_per_type: 1,
            mean_table: Vec::new(),
            scale_range: (1.0, 20.0),
            pet_samples: 500,
            pet_bins: 24,
            seed: 0,
        }
    }

    /// Sets task-type names (defines the PET row count).
    #[must_use]
    pub fn task_type_names<I: IntoIterator<Item = String>>(mut self, names: I) -> Self {
        self.type_names = names.into_iter().collect();
        self
    }

    /// Sets machine types as `(name, hourly price)` pairs (PET columns).
    #[must_use]
    pub fn machine_types<I: IntoIterator<Item = (String, f64)>>(mut self, types: I) -> Self {
        self.machine_types = types.into_iter().collect();
        self
    }

    /// Sets how many machine instances each machine type gets.
    #[must_use]
    pub fn machines_per_type(mut self, n: usize) -> Self {
        self.machines_per_type = n;
        self
    }

    /// Sets the true mean execution-time table (rows = task types).
    #[must_use]
    pub fn mean_table(mut self, table: Vec<Vec<f64>>) -> Self {
        self.mean_table = table;
        self
    }

    /// Overrides the Gamma scale-parameter range (paper: `[1, 20]`).
    #[must_use]
    pub fn scale_range(mut self, lo: f64, hi: f64) -> Self {
        self.scale_range = (lo, hi);
        self
    }

    /// Overrides the PET learning sample count (paper: 500).
    #[must_use]
    pub fn pet_samples(mut self, n: usize) -> Self {
        self.pet_samples = n;
        self
    }

    /// Overrides the PET histogram bin count.
    #[must_use]
    pub fn pet_bins(mut self, n: usize) -> Self {
        self.pet_bins = n;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the scenario: draws per-cell Gamma scales, learns the PET
    /// matrix from `pet_samples` histogram-discretised samples per cell.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are inconsistent or empty, or if
    /// `machines_per_type == 0`.
    #[must_use]
    pub fn build(self) -> Scenario {
        let t = self.type_names.len();
        let m = self.machine_types.len();
        assert!(t > 0 && m > 0, "scenario needs task types and machine types");
        assert!(self.machines_per_type > 0, "need at least one machine per type");
        assert_eq!(self.mean_table.len(), t, "mean table rows must match task types");
        for row in &self.mean_table {
            assert_eq!(row.len(), m, "mean table columns must match machine types");
        }

        // Per-cell Gamma scale parameters (paper: uniform in [1, 20]).
        let mut scale_rng = new_rng(derive_seed(self.seed, 0x5CA1E));
        let mut truth_cells = Vec::with_capacity(t * m);
        for row in &self.mean_table {
            for &mean in row {
                let scale = scale_rng.gen_range(self.scale_range.0..=self.scale_range.1);
                truth_cells.push(GammaSampler::from_mean_scale(mean, scale));
            }
        }
        let truth = ExecTruth { machine_types: m, cells: truth_cells };

        // Learn the PET: 500 samples per cell, histogram-discretised.
        let mut pet_cells = Vec::with_capacity(t * m);
        for (idx, sampler) in truth.cells.iter().enumerate() {
            let mut rng = new_rng(derive_seed(self.seed, 0x9E7 + idx as u64));
            let samples = sampler.sample_n(&mut rng, self.pet_samples);
            let hist = Histogram::from_samples(&samples, self.pet_bins);
            let pmf =
                Pmf::from_weights(hist.to_mass_pairs(1)).expect("histogram masses are positive");
            pet_cells.push(pmf);
        }
        let pet = PetMatrix::new(t, m, pet_cells);

        let task_types: Vec<TaskType> = self
            .type_names
            .iter()
            .enumerate()
            .map(|(i, name)| TaskType {
                id: TaskTypeId(i as u16),
                name: name.clone(),
                mean_exec: self.mean_table[i].iter().sum::<f64>() / m as f64,
            })
            .collect();
        let machine_types: Vec<MachineType> = self
            .machine_types
            .iter()
            .enumerate()
            .map(|(j, (name, price))| MachineType {
                id: MachineTypeId(j as u16),
                name: name.clone(),
                price_per_hour: *price,
            })
            .collect();
        let machines: Vec<Machine> = (0..m)
            .flat_map(|j| (0..self.machines_per_type).map(move |k| (j, k)))
            .enumerate()
            .map(|(id, (j, _))| Machine::new(MachineId(id as u16), MachineTypeId(j as u16)))
            .collect();

        Scenario {
            name: self.name,
            task_types,
            machine_types,
            machines,
            truth,
            pet,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specint_dimensions() {
        let s = Scenario::specint(42);
        assert_eq!(s.task_type_count(), 12);
        assert_eq!(s.machine_types.len(), 8);
        assert_eq!(s.machine_count(), 8);
        assert_eq!(s.pet.task_types(), 12);
        assert_eq!(s.pet.machine_types(), 8);
    }

    #[test]
    fn transcode_dimensions() {
        let s = Scenario::transcode(42);
        assert_eq!(s.task_type_count(), 4);
        assert_eq!(s.machine_types.len(), 4);
        assert_eq!(s.machine_count(), 8); // two per type
                                          // Machines 0,1 share type 0; 2,3 share type 1; etc.
        assert_eq!(s.machines[0].type_id, s.machines[1].type_id);
        assert_ne!(s.machines[1].type_id, s.machines[2].type_id);
    }

    #[test]
    fn homogeneous_is_single_type() {
        let s = Scenario::homogeneous(42);
        assert_eq!(s.machine_types.len(), 1);
        assert_eq!(s.machine_count(), 8);
        assert_eq!(s.pet.machine_types(), 1);
        assert_eq!(s.pet.inconsistency(), 0.0);
    }

    #[test]
    fn specint_pet_is_inconsistent() {
        let s = Scenario::specint(7);
        assert!(
            s.pet.inconsistency() > 0.15,
            "learned PET lost inconsistency: {}",
            s.pet.inconsistency()
        );
    }

    #[test]
    fn learned_means_track_truth() {
        let s = Scenario::specint(123);
        for t in 0..12u16 {
            for m in 0..8u16 {
                let truth = s.truth.mean(TaskTypeId(t), MachineTypeId(m));
                let learned = s.pet.mean_exec(TaskTypeId(t), MachineTypeId(m));
                let rel = (truth - learned).abs() / truth;
                assert!(rel < 0.15, "cell ({t},{m}): truth {truth:.1} learned {learned:.1}");
            }
        }
    }

    #[test]
    fn scenario_deterministic_under_seed() {
        let a = Scenario::specint(99);
        let b = Scenario::specint(99);
        assert_eq!(a.pet, b.pet);
        let c = Scenario::specint(100);
        assert_ne!(a.pet, c.pet);
    }

    #[test]
    fn truth_sampling_positive_and_deterministic() {
        let s = Scenario::transcode(5);
        let mut r1 = new_rng(1);
        let mut r2 = new_rng(1);
        for t in 0..4u16 {
            for m in 0..4u16 {
                let x = s.truth.sample(TaskTypeId(t), MachineTypeId(m), &mut r1);
                let y = s.truth.sample(TaskTypeId(t), MachineTypeId(m), &mut r2);
                assert_eq!(x, y);
                assert!(x >= 1);
            }
        }
    }

    #[test]
    fn price_lookup_via_type() {
        let s = Scenario::transcode(5);
        // Machines 6,7 are the GPU pair (last type), price 1.14.
        assert!((s.price_per_hour(MachineId(6)) - 1.14).abs() < 1e-12);
        assert!((s.price_per_hour(MachineId(0)) - 0.33).abs() < 1e-12);
    }
}
