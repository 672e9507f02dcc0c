//! Subtree chance-of-success estimation (the paper's Eq 2, lifted to
//! graphs).
//!
//! A single task's chance of success is the mass of its completion PMF
//! before its deadline — the best up machine's queue tail convolved with
//! the task's execution PMF, priced by [`SimCore::best_chance`] from the
//! core's persistent PET×tail cache (the convolutions the PAM mapper and
//! admission read too). A graph *node*'s output is only useful if its
//! descendants deliver too, so the graph layer prices the **subtree**:
//!
//! ```text
//! subtree(n) = own(n) × min over successors s of subtree(s)
//! ```
//!
//! the chance of the *critical path* — the weakest chain of nodes below
//! `n`. On a linear chain this is exactly the product of every node's own
//! chance (each min is over one successor). On branching graphs it is an
//! **upper bound** on the exhaustive all-descendants product: the min
//! keeps only the weakest branch and assumes the others deliver, trading
//! accuracy for independence from branch correlations (parallel branches
//! compete for the same queues, so multiplying them as if independent
//! *over*-penalises; see DESIGN.md §15 for the measured gap). Every
//! node's own chance is priced against the queues as they stand *now*,
//! with its slack as the deadline window — release times of deep
//! descendants are unknowable before their predecessors finish, so "could
//! this node make it if released into queues shaped like this?" is the
//! honest question.

use crate::graph::TaskGraph;
use taskdrop_sim::{ObserverHub, SimCore, SimError};

/// One node's own chance: released now, with its slack as the window.
fn own_chance<H: ObserverHub>(
    graph: &TaskGraph,
    node: u32,
    core: &mut SimCore<'_, H>,
) -> Result<f64, SimError> {
    let spec = graph.node(node);
    let deadline = core.now() + spec.slack;
    core.best_chance(spec.type_id, deadline)
}

/// Per-node critical-path subtree chances for the whole graph, indexed by
/// node: entry `n` is the chance that node `n` *and* its weakest
/// descendant chain all succeed, priced against `core`'s queues now.
///
/// # Errors
///
/// [`SimError::UnknownTaskType`] if a node names a task type the core's
/// scenario lacks.
pub fn subtree_chances<H: ObserverHub>(
    graph: &TaskGraph,
    core: &mut SimCore<'_, H>,
) -> Result<Vec<f64>, SimError> {
    let mut chance = vec![0.0f64; graph.len()];
    // Reverse topological order: successors are always priced first.
    for &node in graph.topo().iter().rev() {
        let own = own_chance(graph, node, core)?;
        let downstream =
            graph.succs(node).iter().map(|&s| chance[s as usize]).fold(1.0f64, f64::min);
        chance[node as usize] = own * downstream;
    }
    Ok(chance)
}

/// The exhaustive counterpart of [`subtree_chances`] for one node: the
/// product of *every* subtree node's own chance (the node itself and all
/// its descendants), as if branches were independent. Exponentially
/// pessimistic on wide graphs and O(subtree) per node — kept for
/// small-graph error measurement (DESIGN.md §15), not for the release
/// path.
///
/// # Errors
///
/// [`SimError::UnknownTaskType`] if a subtree node names a task type the
/// core's scenario lacks.
pub fn exhaustive_subtree_chance<H: ObserverHub>(
    graph: &TaskGraph,
    node: u32,
    core: &mut SimCore<'_, H>,
) -> Result<f64, SimError> {
    let mut product = own_chance(graph, node, core)?;
    for d in graph.descendants(node) {
        product *= own_chance(graph, d, core)?;
    }
    Ok(product)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskdrop_core::ReactiveOnly;
    use taskdrop_model::TaskTypeId;
    use taskdrop_sched::Pam;
    use taskdrop_sim::SimConfig;
    use taskdrop_workload::{BlueprintNode, GraphBlueprint, Scenario};

    // Slack tight enough that a single node's chance sits strictly inside
    // (0, 1) on an idle specint cluster — saturated chances would make the
    // product tests vacuous.
    fn graph(nodes: usize, edges: &[(u32, u32)]) -> TaskGraph {
        TaskGraph::from_blueprint(&GraphBlueprint {
            arrival: 0,
            nodes: vec![BlueprintNode { type_id: TaskTypeId(0), slack: 50 }; nodes],
            edges: edges.to_vec(),
        })
        .unwrap()
    }

    fn idle_core(scenario: &Scenario) -> SimCore<'_> {
        let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
        SimCore::open(scenario, &Pam, &ReactiveOnly, config, 1).unwrap()
    }

    #[test]
    fn chain_chance_is_the_full_product() {
        let s = Scenario::specint(5);
        let mut core = idle_core(&s);
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let chances = subtree_chances(&g, &mut core).unwrap();
        // All nodes share a type and slack, so own-chance is one number
        // and the root's subtree chance is own^4 — exactly the exhaustive
        // product on a linear chain.
        let own = chances[3];
        assert!(own > 0.05 && own < 0.999, "chance must not saturate: {own}");
        assert!((chances[0] - own.powi(4)).abs() < 1e-12);
        let exhaustive = exhaustive_subtree_chance(&g, 0, &mut core).unwrap();
        assert!((chances[0] - exhaustive).abs() < 1e-12);
        // Monotone along the chain: each node is easier than its ancestor.
        assert!(chances[0] < chances[1] && chances[1] < chances[2] && chances[2] < chances[3]);
    }

    #[test]
    fn branching_critical_path_upper_bounds_the_exhaustive_product() {
        let s = Scenario::specint(5);
        let mut core = idle_core(&s);
        // A 1 → 4-wide → 1 fan: the min keeps one branch, the exhaustive
        // product multiplies all four.
        let g = graph(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)]);
        let critical = subtree_chances(&g, &mut core).unwrap()[0];
        let exhaustive = exhaustive_subtree_chance(&g, 0, &mut core).unwrap();
        assert!(critical > exhaustive, "critical path ignores parallel branches");
        assert!(critical <= 1.0 && exhaustive > 0.0);
    }

    #[test]
    fn hopeless_descendant_poisons_the_root() {
        let s = Scenario::specint(5);
        let mut core = idle_core(&s);
        let mut bp = GraphBlueprint {
            arrival: 0,
            nodes: vec![BlueprintNode { type_id: TaskTypeId(0), slack: 400 }; 3],
            edges: vec![(0, 1), (1, 2)],
        };
        bp.nodes[2].slack = 1; // the sink can essentially never finish
        let g = TaskGraph::from_blueprint(&bp).unwrap();
        let chances = subtree_chances(&g, &mut core).unwrap();
        assert!(chances[2] < 0.05);
        assert!(chances[0] < 0.05, "a doomed sink makes the whole chain not worth starting");
    }
}
