//! Pricing only the released subtrees is pricing the whole graph, for the
//! released nodes, and the pruning gate decides as the prices do.
//!
//! A release batch prices each released node's critical-path subtree
//! chance over the released nodes and their descendants alone, with every
//! distinct `(type, deadline)` priced once in one walk over the machines
//! (`released_subtree_chances`). A subtree chance reads only the node and
//! its descendants, so each released node must get the bits the
//! whole-graph fold (`subtree_chances`) gives it, and the bits of a
//! reference that prices every node of the graph with its own
//! `SimCore::best_chance` call. Pruning asks `released_below_threshold`,
//! which settles a batch from the idle machines' floor when it can, and
//! must answer exactly as the prices compared with the threshold do.
//! Graphs come from `graphgen::random_layered`, released nodes are drawn
//! at random (repeats and nodes below other released nodes included), and
//! the core is driven to a random state first, machine failures on or off.

use proptest::prelude::*;
use taskdrop_core::ReactiveOnly;
use taskdrop_dag::{
    released_below_threshold, released_subtree_chances, subtree_chances, TaskGraph,
};
use taskdrop_model::TaskTypeId;
use taskdrop_pmf::Tick;
use taskdrop_sched::Pam;
use taskdrop_sim::{FailureSpec, SimConfig, SimCore, SimError};
use taskdrop_workload::{graphgen, GraphBlueprint, Scenario};

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

/// `graph_count` `random_layered` blueprints of the drawn shape over the
/// scenario's 12 task types.
fn blueprints(seed: u64, shape: (usize, usize, usize, f64)) -> Vec<GraphBlueprint> {
    let (graph_count, layers, max_width, edge_prob) = shape;
    (0..graph_count as u64)
        .map(|k| {
            let seed = seed ^ k.wrapping_mul(0x9E37_79B9);
            graphgen::random_layered(seed, 0, layers, max_width, edge_prob, 12, (30, 400))
        })
        .collect()
}

fn graphs(blueprints: &[GraphBlueprint]) -> Vec<TaskGraph> {
    let build = |bp: &GraphBlueprint| TaskGraph::from_blueprint(bp).expect("blueprints validate");
    blueprints.iter().map(build).collect()
}

/// The released `(graph, node)` each drawn pick names.
fn released<'g>(graphs: &'g [TaskGraph], picks: &[(usize, u32)]) -> Vec<(&'g TaskGraph, u32)> {
    picks
        .iter()
        .map(|&(g, node)| {
            let graph = &graphs[g % graphs.len()];
            (graph, node % graph.len() as u32)
        })
        .collect()
}

/// A node's own chance, priced by its own `best_chance` call.
fn exact(core: &mut SimCore<'_>, type_id: TaskTypeId, deadline: Tick) -> f64 {
    core.best_chance(type_id, deadline).expect("known type")
}

/// A node's own floor, priced by its own one-query `idle_chances` call.
fn floor(core: &mut SimCore<'_>, type_id: TaskTypeId, deadline: Tick) -> f64 {
    core.idle_chances(&[(type_id, deadline)]).expect("known type")[0]
}

/// The critical-path subtree fold of every node, each node's own value
/// priced by its own `price` call.
fn folded_node_by_node(
    graph: &TaskGraph,
    core: &mut SimCore<'_>,
    price: fn(&mut SimCore<'_>, TaskTypeId, Tick) -> f64,
) -> Vec<f64> {
    let mut chance = vec![0.0f64; graph.len()];
    for &node in graph.topo().iter().rev() {
        let spec = graph.node(node);
        let own = price(core, spec.type_id, core.now().saturating_add(spec.slack));
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
        let scenario = Scenario::specint(17);
        let mut core = drive(&scenario, failure_coin == 1, seed, &ops);
        let graphs = graphs(&blueprints(seed, shape));
        let released = released(&graphs, &picks);
        let batch = released_subtree_chances(&released, &mut core).expect("known types");
        prop_assert_eq!(batch.len(), released.len());
        for (&(graph, node), chance) in released.iter().zip(&batch) {
            let whole = subtree_chances(graph, &mut core).expect("known types");
            let reference = folded_node_by_node(graph, &mut core, exact);
            prop_assert_eq!(chance.to_bits(), whole[node as usize].to_bits(), "node {}", node);
            prop_assert_eq!(chance.to_bits(), reference[node as usize].to_bits(), "node {}", node);
        }
    }

    /// `released_below_threshold` equals `released_subtree_chances(..) <
    /// threshold`, and the node-by-node reference compared the same way,
    /// element by element. The thresholds are 0, 1, a random value in
    /// [0, 1], and for each released node its exact chance, the floats
    /// either side of it and its folded floor (the reference fold of its
    /// nodes' one-query `idle_chances`). A call in which every released
    /// node's folded floor is at least the threshold prices no busy queue:
    /// no cache counter moves. A batch naming an unknown type is refused
    /// as `released_subtree_chances` refuses it, before any price.
    #[test]
    fn the_gate_makes_the_exact_pruning_decision(
        seed in 0u64..1_000,
        shape in (1usize..4, 1usize..5, 1usize..4, 0.2f64..0.9),
        picks in prop::collection::vec((0usize..3, 0u32..16), 1..8),
        ops in prop::collection::vec((0u8..6, 0u64..300), 0..10),
        failure_coin in 0u8..2,
        random_threshold in 0.0f64..=1.0,
    ) {
        let scenario = Scenario::specint(17);
        let mut core = drive(&scenario, failure_coin == 1, seed, &ops);
        let blueprints = blueprints(seed, shape);
        let graphs = graphs(&blueprints);
        let released = released(&graphs, &picks);
        let mut reference = Vec::with_capacity(released.len());
        let mut floors = Vec::with_capacity(released.len());
        for &(graph, node) in &released {
            reference.push(folded_node_by_node(graph, &mut core, exact)[node as usize]);
            floors.push(folded_node_by_node(graph, &mut core, floor)[node as usize]);
        }
        let chances = released_subtree_chances(&released, &mut core).expect("known types");
        let mut thresholds = vec![0.0, 1.0, random_threshold];
        for (&chance, &floor) in reference.iter().zip(&floors) {
            prop_assert!(floor <= chance, "floor {} above chance {}", floor, chance);
            let bits = chance.to_bits();
            thresholds.extend([
                chance,
                f64::from_bits(bits + 1),
                f64::from_bits(bits.saturating_sub(1)),
                floor,
            ]);
        }
        for threshold in thresholds {
            let before = core.cache_stats();
            let below =
                released_below_threshold(&released, threshold, &mut core).expect("known types");
            if floors.iter().all(|&floor| floor >= threshold) {
                prop_assert_eq!(core.cache_stats(), before, "a settled batch priced at {}", threshold);
            }
            let priced: Vec<bool> = chances.iter().map(|&c| c < threshold).collect();
            prop_assert_eq!(&below, &priced, "threshold {}", threshold);
            let expected: Vec<bool> = reference.iter().map(|&c| c < threshold).collect();
            prop_assert_eq!(&below, &expected, "threshold {}", threshold);
        }

        // The first released node, in a copy of its graph that gives it a
        // type the scenario lacks, joins the batch.
        let (g, node) = picks[0];
        let mut unknown = blueprints[g % blueprints.len()].clone();
        let node = node % unknown.nodes.len() as u32;
        unknown.nodes[node as usize].type_id = TaskTypeId(12);
        let unknown = TaskGraph::from_blueprint(&unknown).expect("types are not checked here");
        let mut with_unknown = released.clone();
        with_unknown.insert(with_unknown.len() / 2, (&unknown, node));
        let before = core.cache_stats();
        let refused = released_subtree_chances(&with_unknown, &mut core).err();
        prop_assert_eq!(&refused, &Some(SimError::UnknownTaskType { type_id: 12, task_types: 12 }));
        let gated = released_below_threshold(&with_unknown, random_threshold, &mut core).err();
        prop_assert_eq!(gated, refused);
        prop_assert_eq!(core.cache_stats(), before);
    }
}
