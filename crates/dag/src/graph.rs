//! Validated task graphs.
//!
//! A [`TaskGraph`] is a [`GraphBlueprint`] that survived validation:
//! every edge endpoint in range, no self-loops or duplicate edges, and —
//! certified by a Kahn peel whose order the graph keeps — acyclic. Node
//! identity is the blueprint index; adjacency is stored both ways (the
//! coordinator walks successors to release and cascade, the chance
//! estimator walks the topological order backwards).

use crate::error::DagError;
use serde::{Deserialize, Serialize};
use taskdrop_model::TaskTypeId;
use taskdrop_pmf::Tick;
use taskdrop_workload::GraphBlueprint;

/// What one graph node runs and how much time it gets from release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Task type to execute.
    pub type_id: TaskTypeId,
    /// Ticks from the node's release (all predecessors complete) to its
    /// hard deadline. Always positive.
    pub slack: Tick,
}

/// A validated, immutable dependency graph over engine task types.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskGraph {
    /// Tick at which the graph's roots become eligible for release.
    arrival: Tick,
    nodes: Vec<NodeSpec>,
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
    /// A topological order of the node indices (Kahn), recorded at
    /// validation time so consumers never re-sort.
    topo: Vec<u32>,
}

impl TaskGraph {
    /// Validates a blueprint into a graph.
    ///
    /// # Errors
    ///
    /// [`DagError::EmptyGraph`], [`DagError::NodeOutOfRange`],
    /// [`DagError::SelfLoop`], [`DagError::DuplicateEdge`],
    /// [`DagError::ZeroSlack`], or [`DagError::Cycle`].
    pub fn from_blueprint(bp: &GraphBlueprint) -> Result<Self, DagError> {
        if bp.nodes.is_empty() {
            return Err(DagError::EmptyGraph);
        }
        let n = bp.nodes.len();
        for (i, node) in bp.nodes.iter().enumerate() {
            if node.slack == 0 {
                return Err(DagError::ZeroSlack { node: i as u32 });
            }
        }
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        let mut seen = std::collections::BTreeSet::new();
        for &(p, s) in &bp.edges {
            for end in [p, s] {
                if end as usize >= n {
                    return Err(DagError::NodeOutOfRange { node: end, nodes: n });
                }
            }
            if p == s {
                return Err(DagError::SelfLoop { node: p });
            }
            if !seen.insert((p, s)) {
                return Err(DagError::DuplicateEdge { pred: p, succ: s });
            }
            succs[p as usize].push(s);
            preds[s as usize].push(p);
        }
        // Kahn's peel: certifies acyclicity and yields the stored order.
        let mut unmet: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut frontier: Vec<u32> = (0..n as u32).filter(|&i| unmet[i as usize] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut cursor = 0;
        while cursor < frontier.len() {
            let node = frontier[cursor];
            cursor += 1;
            topo.push(node);
            for &s in &succs[node as usize] {
                unmet[s as usize] -= 1;
                if unmet[s as usize] == 0 {
                    frontier.push(s);
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }
        let nodes =
            bp.nodes.iter().map(|b| NodeSpec { type_id: b.type_id, slack: b.slack }).collect();
        Ok(TaskGraph { arrival: bp.arrival, nodes, preds, succs, topo })
    }

    /// Checks a graph that did not come from
    /// [`TaskGraph::from_blueprint`], such as one parsed from a
    /// checkpoint, for what that constructor guarantees: at least one
    /// node, positive slack, adjacency in range with `preds` mirroring
    /// `succs` and no duplicate edge, and `topo` a permutation of the
    /// nodes in which every edge points forward (so no cycle either).
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        let n = self.nodes.len();
        if n == 0 {
            return Err("a graph needs at least one node");
        }
        if self.nodes.iter().any(|spec| spec.slack == 0) {
            return Err("every node needs positive slack");
        }
        if self.preds.len() != n || self.succs.len() != n || self.topo.len() != n {
            return Err("adjacency and topological order must cover every node");
        }
        let edges = |lists: &[Vec<u32>], forward: bool| {
            let mut out: Vec<(u32, u32)> = lists
                .iter()
                .zip(0u32..)
                .flat_map(|(ends, at)| {
                    ends.iter().map(move |&end| if forward { (at, end) } else { (end, at) })
                })
                .collect();
            out.sort_unstable();
            out
        };
        let succ_edges = edges(&self.succs, true);
        if succ_edges.iter().any(|&(_, s)| s as usize >= n) {
            return Err("an edge names a node out of range");
        }
        if succ_edges != edges(&self.preds, false) {
            return Err("predecessor lists must mirror successor lists");
        }
        if succ_edges.iter().zip(succ_edges.iter().skip(1)).any(|(a, b)| a == b) {
            return Err("an edge appears twice");
        }
        let mut position = vec![None; n];
        for (at, &node) in self.topo.iter().enumerate() {
            match position.get_mut(node as usize) {
                Some(slot @ None) => *slot = Some(at),
                _ => return Err("topological order must list every node once"),
            }
        }
        let forward = |&(p, s): &(u32, u32)| {
            matches!(
                (position.get(p as usize), position.get(s as usize)),
                (Some(Some(a)), Some(Some(b))) if a < b
            )
        };
        if !succ_edges.iter().all(forward) {
            return Err("every edge must point forward in topological order");
        }
        Ok(())
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true for a validated graph;
    /// kept for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Tick at which the roots become eligible for release.
    #[must_use]
    pub fn arrival(&self) -> Tick {
        self.arrival
    }

    /// The spec of node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node(&self, node: u32) -> NodeSpec {
        self.nodes[node as usize]
    }

    /// Direct predecessors of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn preds(&self, node: u32) -> &[u32] {
        &self.preds[node as usize]
    }

    /// Direct successors of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn succs(&self, node: u32) -> &[u32] {
        &self.succs[node as usize]
    }

    /// The first node's task type, in index order, that a scenario with
    /// `task_types` task types lacks.
    pub(crate) fn unknown_type(&self, task_types: usize) -> Option<TaskTypeId> {
        self.nodes.iter().map(|spec| spec.type_id).find(|t| t.index() >= task_types)
    }

    /// Nodes with no predecessors, in index order.
    #[must_use]
    pub fn roots(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32).filter(|&i| self.preds[i as usize].is_empty()).collect()
    }

    /// A topological order of the node indices.
    #[must_use]
    pub fn topo(&self) -> &[u32] {
        &self.topo
    }

    /// All proper descendants of `node` (successors, transitively), in
    /// BFS discovery order with no duplicates.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn descendants(&self, node: u32) -> Vec<u32> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: std::collections::VecDeque<u32> =
            self.succs[node as usize].iter().copied().collect();
        let mut out = Vec::new();
        while let Some(next) = queue.pop_front() {
            if seen[next as usize] {
                continue;
            }
            seen[next as usize] = true;
            out.push(next);
            queue.extend(self.succs[next as usize].iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskdrop_workload::BlueprintNode;

    fn bp(nodes: usize, edges: &[(u32, u32)]) -> GraphBlueprint {
        GraphBlueprint {
            arrival: 0,
            nodes: vec![BlueprintNode { type_id: TaskTypeId(0), slack: 100 }; nodes],
            edges: edges.to_vec(),
        }
    }

    #[test]
    fn diamond_validates_with_both_adjacencies() {
        let g = TaskGraph::from_blueprint(&bp(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])).unwrap();
        assert_eq!(g.roots(), vec![0]);
        assert_eq!(g.preds(3), &[1, 2]);
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.descendants(0), vec![1, 2, 3]);
        assert_eq!(g.descendants(3), Vec::<u32>::new());
        assert_eq!(g.topo().len(), 4);
        assert_eq!(g.topo()[0], 0);
        assert_eq!(g.topo()[3], 3);
    }

    #[test]
    fn rejects_malformed_blueprints() {
        assert_eq!(TaskGraph::from_blueprint(&bp(0, &[])).unwrap_err(), DagError::EmptyGraph);
        assert_eq!(
            TaskGraph::from_blueprint(&bp(2, &[(0, 5)])).unwrap_err(),
            DagError::NodeOutOfRange { node: 5, nodes: 2 }
        );
        assert_eq!(
            TaskGraph::from_blueprint(&bp(2, &[(1, 1)])).unwrap_err(),
            DagError::SelfLoop { node: 1 }
        );
        assert_eq!(
            TaskGraph::from_blueprint(&bp(2, &[(0, 1), (0, 1)])).unwrap_err(),
            DagError::DuplicateEdge { pred: 0, succ: 1 }
        );
        assert_eq!(
            TaskGraph::from_blueprint(&bp(3, &[(0, 1), (1, 2), (2, 0)])).unwrap_err(),
            DagError::Cycle
        );
        let mut zero = bp(1, &[]);
        zero.nodes[0].slack = 0;
        assert_eq!(TaskGraph::from_blueprint(&zero).unwrap_err(), DagError::ZeroSlack { node: 0 });
    }

    #[test]
    fn generated_blueprints_always_validate() {
        for seed in 0..20 {
            let bp = taskdrop_workload::graphgen::random_layered(seed, 0, 4, 4, 0.5, 8, (50, 200));
            let g = TaskGraph::from_blueprint(&bp).expect("generator emits valid shapes");
            assert_eq!(g.len(), bp.nodes.len());
        }
        let chain =
            TaskGraph::from_blueprint(&taskdrop_workload::graphgen::linear_chain(1, 0, 6, 4, 100))
                .unwrap();
        assert_eq!(chain.roots(), vec![0]);
        assert_eq!(chain.descendants(0).len(), 5);
    }

    #[test]
    fn graphs_roundtrip_through_serde() {
        let g = TaskGraph::from_blueprint(&bp(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: TaskGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
