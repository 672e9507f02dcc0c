//! Pricing only the released subtrees is pricing the whole graph, for the
//! released nodes.
//!
//! A release batch prices each released node's critical-path subtree
//! chance over the released nodes and their descendants alone, with every
//! distinct `(type, deadline)` priced once in one walk over the machines
//! (`released_subtree_chances`). A subtree chance reads only the node and
//! its descendants, so each released node must get the bits the
//! whole-graph fold (`subtree_chances`) gives it, and the bits of a
//! reference that prices every node of the graph with its own
//! `SimCore::best_chance` call. Graphs come from
//! `graphgen::random_layered`, released nodes are drawn at random (repeats
//! and nodes below other released nodes included), and the core is driven
//! to a random state first, machine failures on or off.

use proptest::prelude::*;
use taskdrop_core::ReactiveOnly;
use taskdrop_dag::{released_subtree_chances, subtree_chances, TaskGraph};
use taskdrop_model::TaskTypeId;
use taskdrop_sched::Pam;
use taskdrop_sim::{FailureSpec, SimConfig, SimCore};
use taskdrop_workload::{graphgen, Scenario};

/// Drives an open core through a script of arrival bursts and time
/// slices, returning it mid-flight.
fn drive<'a>(scenario: &'a Scenario, failures: bool, seed: u64, ops: &[(u8, u64)]) -> SimCore<'a> {
    static PAM: Pam = Pam;
    static DROPPER: ReactiveOnly = ReactiveOnly;
    let config = SimConfig {
        exclude_boundary: 0,
        failures: failures.then_some(FailureSpec { mtbf: 300, mttr: 200 }),
        ..SimConfig::default()
    };
    let mut core = SimCore::open(scenario, &PAM, &DROPPER, config, seed).expect("valid core");
    for &(op, val) in ops {
        if op % 3 == 0 {
            for k in 0..=(val % 5) {
                let arrival = core.now() + val % 90;
                let type_id = TaskTypeId(((val + k) % 12) as u16);
                let _ = core.inject(type_id, arrival, arrival + 40 + (val * (k + 1)) % 400);
            }
        } else {
            core.run_until(core.now() + 1 + val % 150);
        }
    }
    core
}

/// The critical-path subtree chances of every node, each node's own
/// chance priced by its own `best_chance` call.
fn priced_node_by_node(graph: &TaskGraph, core: &mut SimCore<'_>) -> Vec<f64> {
    let mut chance = vec![0.0f64; graph.len()];
    for &node in graph.topo().iter().rev() {
        let spec = graph.node(node);
        let deadline = core.now().saturating_add(spec.slack);
        let own = core.best_chance(spec.type_id, deadline).expect("known type");
        let downstream =
            graph.succs(node).iter().map(|&s| chance[s as usize]).fold(1.0f64, f64::min);
        chance[node as usize] = own * downstream;
    }
    chance
}

proptest! {
    // The default config reads PROPTEST_CASES; CI runs a deep pass.

    #[test]
    fn released_subtrees_price_like_the_whole_graph(
        seed in 0u64..1_000,
        shape in (1usize..4, 1usize..5, 1usize..4, 0.2f64..0.9),
        picks in prop::collection::vec((0usize..3, 0u32..16), 1..8),
        ops in prop::collection::vec((0u8..6, 0u64..300), 0..10),
        failure_coin in 0u8..2,
    ) {
        let (graph_count, layers, max_width, edge_prob) = shape;
        let scenario = Scenario::specint(17);
        let mut core = drive(&scenario, failure_coin == 1, seed, &ops);
        let graphs: Vec<TaskGraph> = (0..graph_count as u64)
            .map(|k| {
                let bp = graphgen::random_layered(
                    seed ^ k.wrapping_mul(0x9E37_79B9),
                    0,
                    layers,
                    max_width,
                    edge_prob,
                    12,
                    (30, 400),
                );
                TaskGraph::from_blueprint(&bp).expect("generated blueprints validate")
            })
            .collect();
        let released: Vec<(&TaskGraph, u32)> = picks
            .iter()
            .map(|&(g, node)| {
                let graph = &graphs[g % graphs.len()];
                (graph, node % graph.len() as u32)
            })
            .collect();
        let batch = released_subtree_chances(&released, &mut core).expect("known types");
        prop_assert_eq!(batch.len(), released.len());
        for (&(graph, node), chance) in released.iter().zip(&batch) {
            let whole = subtree_chances(graph, &mut core).expect("known types");
            let reference = priced_node_by_node(graph, &mut core);
            prop_assert_eq!(chance.to_bits(), whole[node as usize].to_bits(), "node {}", node);
            prop_assert_eq!(chance.to_bits(), reference[node as usize].to_bits(), "node {}", node);
        }
    }
}
