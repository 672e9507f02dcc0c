//! Subtree chance-of-success estimation (the paper's Eq 2, lifted to
//! graphs).
//!
//! A single task's chance of success is the mass of its completion PMF
//! before its deadline — the best up machine's queue tail convolved with
//! the task's execution PMF, priced by [`SimCore::best_chances`] from the
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
//! honest question. A release batch prices only the released nodes and
//! their descendants, each distinct `(type, deadline)` once, in one walk
//! over the machines ([`released_subtree_chances`]).

use crate::graph::TaskGraph;
use std::collections::BTreeMap;
use taskdrop_model::TaskTypeId;
use taskdrop_pmf::Tick;
use taskdrop_sim::{ObserverHub, SimCore, SimError};

/// One node's pricing query: its type, and its slack from now as the
/// deadline (saturating at `Tick::MAX`).
fn own_query<H: ObserverHub>(
    graph: &TaskGraph,
    node: u32,
    core: &SimCore<'_, H>,
) -> (TaskTypeId, Tick) {
    let spec = graph.node(node);
    (spec.type_id, core.now().saturating_add(spec.slack))
}

/// One node's own chance: released now, with its slack as the window.
fn own_chance<H: ObserverHub>(
    graph: &TaskGraph,
    node: u32,
    core: &mut SimCore<'_, H>,
) -> Result<f64, SimError> {
    let (type_id, deadline) = own_query(graph, node, core);
    core.best_chance(type_id, deadline)
}

/// Per-node critical-path subtree chances for the whole graph, indexed by
/// node: entry `n` is the chance that node `n` *and* its weakest
/// descendant chain all succeed, priced against `core`'s queues now. The
/// whole-graph case of [`released_subtree_chances`].
///
/// # Errors
///
/// [`SimError::UnknownTaskType`] if a node names a task type the core's
/// scenario lacks.
pub fn subtree_chances<H: ObserverHub>(
    graph: &TaskGraph,
    core: &mut SimCore<'_, H>,
) -> Result<Vec<f64>, SimError> {
    let every: Vec<(&TaskGraph, u32)> = (0..graph.len() as u32).map(|node| (graph, node)).collect();
    released_subtree_chances(&every, core)
}

/// The critical-path subtree chance of each released `(graph, node)`, in
/// order, priced against `core`'s queues now: for each node, the value
/// [`subtree_chances`] gives it, bit for bit.
///
/// A subtree chance reads only the node and its descendants, so only the
/// released nodes and their descendants are priced. Equal `(type,
/// deadline)` pairs among them are priced once, and every pair in one
/// [`SimCore::best_chances`] walk over the machines. Entries that name the
/// same graph (the same `&TaskGraph`) share one fold.
///
/// # Errors
///
/// [`SimError::UnknownTaskType`] if a priced node names a task type the
/// core's scenario lacks; then nothing is priced.
///
/// # Panics
///
/// Panics if a released node is out of range for its graph.
pub fn released_subtree_chances<H: ObserverHub>(
    released: &[(&TaskGraph, u32)],
    core: &mut SimCore<'_, H>,
) -> Result<Vec<f64>, SimError> {
    let mut queries = Vec::new();
    let mut query_of = BTreeMap::new();
    // Per graph, each node's query, or `None` outside the released subtrees.
    let mut folds: Vec<(&TaskGraph, Vec<Option<usize>>)> = Vec::new();
    let mut fold_of = Vec::with_capacity(released.len());
    for &(graph, node) in released {
        let at = folds.iter().position(|(g, _)| std::ptr::eq(*g, graph)).unwrap_or_else(|| {
            folds.push((graph, vec![None; graph.len()]));
            folds.len() - 1
        });
        fold_of.push(at);
        let Some((_, own)) = folds.get_mut(at) else { continue };
        let mut stack = vec![node];
        while let Some(next) = stack.pop() {
            let query = own_query(graph, next, core);
            let Some(slot @ None) = own.get_mut(next as usize) else { continue };
            let fresh = queries.len();
            *slot = Some(*query_of.entry(query).or_insert_with(|| {
                queries.push(query);
                fresh
            }));
            stack.extend_from_slice(graph.succs(next));
        }
    }
    let prices = core.best_chances(&queries)?;
    let chances: Vec<Vec<f64>> =
        folds.iter().map(|(graph, own)| fold_subtrees(graph, own, &prices)).collect();
    Ok(released
        .iter()
        .zip(fold_of)
        .map(|(&(_, node), at)| {
            chances.get(at).and_then(|c| c.get(node as usize)).copied().unwrap_or_default()
        })
        .collect())
}

/// `subtree(n) = own(n) × min over successors s of subtree(s)` for every
/// node with a query in `own`, indexed by node (0 for the rest). Reverse
/// topological order prices successors first; a priced node's successors
/// are all priced, since the released subtrees are closed under descent.
fn fold_subtrees(graph: &TaskGraph, own: &[Option<usize>], prices: &[f64]) -> Vec<f64> {
    let mut chance = vec![0.0f64; graph.len()];
    for &node in graph.topo().iter().rev() {
        let Some(&price) = own.get(node as usize).copied().flatten().and_then(|q| prices.get(q))
        else {
            continue;
        };
        let downstream = graph
            .succs(node)
            .iter()
            .map(|&s| chance.get(s as usize).copied().unwrap_or_default())
            .fold(1.0f64, f64::min);
        if let Some(slot) = chance.get_mut(node as usize) {
            *slot = price * downstream;
        }
    }
    chance
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
