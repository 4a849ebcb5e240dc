//! Property tests for the arena/SoA storage: node ids resolve
//! in-arena, interned child slices are canonical and content-shared,
//! and the hashcons memo agrees with the arena after random
//! add/union/rebuild interleavings.

use std::collections::HashMap;

use denali_egraph::{EGraph, NodeId, SliceId};
use denali_prng::{forall, Rng};
use denali_term::{Op, Term};

/// A small random term over leaves a0..a4, unary op u, binary ops f, g.
fn random_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(4) == 0 {
        Term::leaf(format!("a{}", rng.below(5)))
    } else if rng.below(3) == 0 {
        Term::call("u", vec![random_term(rng, depth - 1)])
    } else {
        let op = if rng.next_bool() { "f" } else { "g" };
        let a = random_term(rng, depth - 1);
        let b = random_term(rng, depth - 1);
        Term::call(op, vec![a, b])
    }
}

/// Builds a random e-graph: terms added and randomly unioned, with a
/// rebuild either after every union or once at the end (both are legal
/// call patterns and must leave the same invariants).
fn random_egraph(rng: &mut Rng) -> (EGraph, Vec<Term>, Vec<denali_egraph::ClassId>) {
    let terms: Vec<Term> = (0..rng.range(1, 10)).map(|_| random_term(rng, 3)).collect();
    let mut eg = EGraph::new();
    let classes: Vec<_> = terms.iter().map(|t| eg.add_term(t).unwrap()).collect();
    let eager = rng.next_bool();
    for _ in 0..rng.below(8) {
        let i = rng.below_usize(classes.len());
        let j = rng.below_usize(classes.len());
        eg.union(classes[i], classes[j]).unwrap();
        if eager {
            eg.rebuild().unwrap();
        }
    }
    eg.rebuild().unwrap();
    (eg, terms, classes)
}

#[test]
fn node_ids_resolve_in_arena() {
    forall("node_ids_resolve_in_arena", 64, |rng| {
        let (eg, _, _) = random_egraph(rng);
        let nodes = eg.num_nodes();
        for class in eg.classes() {
            for &nid in eg.class_node_ids(class) {
                assert!(nid.index() < nodes, "class node {nid:?} out of arena");
                // Accessors resolve without panicking and agree with
                // the materialized view's shape.
                let arity = eg.node_children(nid).len();
                match eg.node_op(nid) {
                    Op::Sym(_) => {}
                    Op::Const(_) => assert_eq!(arity, 0, "constants are leaves"),
                    Op::Var(_) => panic!("pattern variable stored in the e-graph"),
                }
            }
            for &(nid, parent) in eg.class_parents(class) {
                assert!(nid.index() < nodes, "parent node {nid:?} out of arena");
                // The parent node really does use this class as a child.
                let uses = eg
                    .node_children(nid)
                    .iter()
                    .any(|&c| eg.find(c) == eg.find(class));
                assert!(uses, "parent entry {nid:?} does not use {class:?}");
                // And its recorded class resolves to a live class
                // holding the node.
                let parent = eg.find(parent);
                assert!(
                    eg.class_node_ids(parent).contains(&nid)
                        || eg
                            .class_node_ids(parent)
                            .iter()
                            .any(|&other| eg.node_op(other) == eg.node_op(nid)),
                    "parent class {parent:?} lost node {nid:?}"
                );
            }
        }
    });
}

#[test]
fn slices_are_canonical_and_shared_after_rebuild() {
    forall("slices_are_canonical_and_shared_after_rebuild", 64, |rng| {
        let (eg, _, _) = random_egraph(rng);
        // Content-addressing: across the whole graph, two class nodes
        // with identical canonical child lists share one SliceId.
        let mut by_content: HashMap<Vec<denali_egraph::ClassId>, SliceId> = HashMap::new();
        for class in eg.classes() {
            let mut seen: Vec<(Op, SliceId)> = Vec::new();
            for &nid in eg.class_node_ids(class) {
                let slice = eg.node_slice(nid);
                let children = eg.node_children(nid).to_vec();
                // Canonical: rebuild re-pointed every stored slice.
                for &c in &children {
                    assert_eq!(eg.find(c), c, "stale child after rebuild");
                }
                match by_content.get(&children) {
                    Some(&existing) => assert_eq!(
                        existing, slice,
                        "identical child lists interned as two slices"
                    ),
                    None => {
                        by_content.insert(children, slice);
                    }
                }
                // Deduplicated: no congruent duplicates in one class.
                let key = (eg.node_op(nid), slice);
                assert!(!seen.contains(&key), "duplicate node form in class");
                seen.push(key);
            }
        }
    });
}

#[test]
fn memo_and_arena_agree_after_random_mutations() {
    forall("memo_and_arena_agree_after_random_mutations", 64, |rng| {
        let (mut eg, terms, classes) = random_egraph(rng);
        // The memo answers every stored term with the class that holds
        // it (lookup is read-only and must not disturb anything).
        let generation = eg.generation();
        for (t, &c) in terms.iter().zip(&classes) {
            assert_eq!(eg.lookup_term(t), Some(eg.find(c)), "memo lost a term");
        }
        assert_eq!(eg.generation(), generation, "lookup mutated the graph");
        // Re-adding is a pure hashcons hit: no new nodes, no new
        // classes, same answers.
        let nodes = eg.num_nodes();
        let num_classes = eg.num_classes();
        for (t, &c) in terms.iter().zip(&classes) {
            let again = eg.add_term(t).unwrap();
            assert_eq!(eg.find(again), eg.find(c));
        }
        assert_eq!(eg.num_nodes(), nodes, "re-add created arena nodes");
        assert_eq!(eg.num_classes(), num_classes, "re-add created classes");
        // Every class node round-trips through the memo: adding its
        // (op, canonical children) form lands back in the same class.
        for class in eg.classes() {
            let entries: Vec<(NodeId, Op, Vec<denali_egraph::ClassId>)> = eg
                .class_node_ids(class)
                .iter()
                .map(|&nid| (nid, eg.node_op(nid), eg.node_children(nid).to_vec()))
                .collect();
            for (nid, op, children) in entries {
                let back = eg.add_node(op, &children).unwrap();
                assert_eq!(
                    eg.find(back),
                    eg.find(class),
                    "arena node {nid:?} not memoized to its class"
                );
            }
        }
    });
}

#[test]
fn memo_and_arena_agree_after_heavy_merging() {
    // Heavy merging re-points nearly every node at a freshly interned
    // canonical slice and leaves the old slices and memo keys behind.
    // This pins the contract after it: slices stay canonical and
    // content-shared, the memo still answers every term, and re-adding
    // is a pure hashcons hit.
    forall("memo_and_arena_agree_after_heavy_merging", 32, |rng| {
        let terms: Vec<Term> = (0..rng.range(12, 24))
            .map(|_| random_term(rng, 4))
            .collect();
        let mut eg = EGraph::new();
        let classes: Vec<_> = terms.iter().map(|t| eg.add_term(t).unwrap()).collect();
        // Merge every leaf into one class: congruence cascades through
        // every parent, re-pointing nearly every stored slice, so the
        // pre-merge spans go stale en masse.
        let leaves: Vec<_> = (0..5)
            .map(|i| eg.add_term(&Term::leaf(format!("a{i}"))).unwrap())
            .collect();
        for pair in leaves.windows(2) {
            eg.union(pair[0], pair[1]).unwrap();
        }
        eg.rebuild().unwrap();
        let mem = eg.memory_stats();
        assert_eq!(
            mem.total_bytes,
            mem.arena_bytes + mem.slice_bytes + mem.class_bytes + mem.memo_bytes
        );

        // Slices are canonical and content-shared.
        let mut by_content: HashMap<Vec<denali_egraph::ClassId>, SliceId> = HashMap::new();
        for class in eg.classes() {
            for &nid in eg.class_node_ids(class) {
                let slice = eg.node_slice(nid);
                let children = eg.node_children(nid).to_vec();
                for &c in &children {
                    assert_eq!(eg.find(c), c, "stale child after rebuild");
                }
                match by_content.get(&children) {
                    Some(&existing) => assert_eq!(
                        existing, slice,
                        "identical child lists interned as two slices"
                    ),
                    None => {
                        by_content.insert(children, slice);
                    }
                }
            }
        }

        // The memo still answers every term, and re-adding creates
        // nothing.
        let nodes = eg.num_nodes();
        let num_classes = eg.num_classes();
        for (t, &c) in terms.iter().zip(&classes) {
            assert_eq!(eg.lookup_term(t), Some(eg.find(c)), "memo lost a term");
            let again = eg.add_term(t).unwrap();
            assert_eq!(eg.find(again), eg.find(c));
        }
        assert_eq!(eg.num_nodes(), nodes, "re-add created arena nodes");
        assert_eq!(eg.num_classes(), num_classes, "re-add created classes");
    });
}

#[test]
fn memory_stats_are_consistent() {
    forall("memory_stats_are_consistent", 64, |rng| {
        let (eg, _, _) = random_egraph(rng);
        let mem = eg.memory_stats();
        assert_eq!(mem.nodes as usize, eg.num_nodes());
        assert_eq!(mem.classes as usize, eg.num_classes());
        assert_eq!(mem.slice_refs, mem.nodes, "one slice ref per node");
        assert!(mem.slice_entries <= mem.nodes + 1, "more slices than nodes");
        assert_eq!(
            mem.total_bytes,
            mem.arena_bytes + mem.slice_bytes + mem.class_bytes + mem.memo_bytes
        );
        assert!(mem.bytes_per_node() > 0.0);
    });
}
