//! Minimum, maximum and low-stretch spanning trees.

use crate::{EdgeId, Graph, GraphError, UnionFind};

/// A spanning tree (or forest, for disconnected inputs) of a [`Graph`].
///
/// Stores which original edge ids were selected, plus the tree itself as a
/// standalone [`Graph`] sharing the original node numbering.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    /// Edge ids (into the original graph) that form the tree.
    edge_ids: Vec<EdgeId>,
    /// Membership mask indexed by original edge id.
    in_tree: Vec<bool>,
    /// The tree as a graph over the same node set.
    tree: Graph,
}

impl SpanningTree {
    fn from_edge_ids(g: &Graph, edge_ids: Vec<EdgeId>) -> Self {
        let mut in_tree = vec![false; g.num_edges()];
        let mut tree = Graph::new(g.num_nodes());
        for &eid in &edge_ids {
            in_tree[eid] = true;
            let e = g.edges()[eid];
            tree.add_edge(e.u, e.v, e.weight)
                .expect("tree edges come from a valid graph"); // cirstag-lint: allow(no-panic-in-lib) -- tree edges are copied from a valid graph, so add_edge cannot fail
        }
        SpanningTree {
            edge_ids,
            in_tree,
            tree,
        }
    }

    /// Edge ids of the original graph included in the tree.
    #[inline]
    pub fn edge_ids(&self) -> &[EdgeId] {
        &self.edge_ids
    }

    /// Returns `true` when original edge `eid` is part of the tree.
    ///
    /// # Panics
    ///
    /// Panics if `eid` is out of bounds for the original graph.
    #[inline]
    pub fn contains_edge(&self, eid: EdgeId) -> bool {
        self.in_tree[eid]
    }

    /// The tree as a graph over the original node set.
    #[inline]
    pub fn as_graph(&self) -> &Graph {
        &self.tree
    }

    /// Number of tree edges (`|V| − #components` of the original graph).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_ids.len()
    }

    /// Total weight of the tree edges.
    pub fn total_weight(&self) -> f64 {
        self.tree.total_weight()
    }
}

fn kruskal(g: &Graph, order: &[EdgeId]) -> SpanningTree {
    let mut uf = UnionFind::new(g.num_nodes());
    let mut chosen = Vec::with_capacity(g.num_nodes().saturating_sub(1));
    for &eid in order {
        let e = g.edges()[eid];
        if uf.union(e.u, e.v) {
            chosen.push(eid);
            if chosen.len() + 1 == g.num_nodes() {
                break;
            }
        }
    }
    SpanningTree::from_edge_ids(g, chosen)
}

/// Kruskal minimum spanning tree over *resistive* lengths `1 / weight`,
/// i.e. the tree that keeps the heaviest (highest-conductance) edges.
///
/// For a disconnected graph, returns a spanning forest.
pub fn maximum_spanning_tree(g: &Graph) -> SpanningTree {
    let mut order: Vec<EdgeId> = (0..g.num_edges()).collect();
    order.sort_by(|&a, &b| g.edges()[b].weight.total_cmp(&g.edges()[a].weight));
    kruskal(g, &order)
}

/// Kruskal minimum spanning tree over edge *weights* (smallest total weight).
///
/// For a disconnected graph, returns a spanning forest.
pub fn minimum_spanning_tree(g: &Graph) -> SpanningTree {
    let mut order: Vec<EdgeId> = (0..g.num_edges()).collect();
    order.sort_by(|&a, &b| g.edges()[a].weight.total_cmp(&g.edges()[b].weight));
    kruskal(g, &order)
}

/// A practical low-stretch spanning tree heuristic.
///
/// Classic AKPW-style constructions repeatedly contract low-diameter clusters.
/// We approximate that behaviour with randomized Kruskal over perturbed
/// resistive lengths: each edge's resistance `1/w` is multiplied by a
/// deterministic pseudo-random factor in `[1, 2)` derived from `seed`, and a
/// maximum-weight (minimum-resistance) tree is extracted. The perturbation
/// breaks ties and avoids the pathological "all shortest paths through one
/// hub" trees that plain greedy Kruskal can produce on regular graphs, which
/// is what drives average stretch down in practice.
///
/// Determinism: the same `(graph, seed)` pair always yields the same tree.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] when `g` has more than one component
/// (a *spanning tree* is requested; use [`minimum_spanning_tree`] for
/// forests).
pub fn low_stretch_tree(g: &Graph, seed: u64) -> Result<SpanningTree, GraphError> {
    if !g.is_connected() {
        return Err(GraphError::Disconnected);
    }
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let x = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        1.0 + (x >> 11) as f64 / (1u64 << 53) as f64 // in [1, 2)
    };
    let perturbed: Vec<f64> = g.edges().iter().map(|e| e.resistance() * next()).collect();
    let mut order: Vec<EdgeId> = (0..g.num_edges()).collect();
    order.sort_by(|&a, &b| perturbed[a].total_cmp(&perturbed[b]));
    Ok(kruskal(g, &order))
}

/// Computes the average *stretch* of the non-tree edges of `g` with respect
/// to `tree`: for each off-tree edge `(u, v)` with resistance `r`, the
/// stretch is `(tree-path resistance between u and v) / r`. Returns `0.0`
/// when every edge is in the tree.
///
/// # Errors
///
/// Returns [`GraphError::NotATree`] when `tree` does not span `g`.
pub fn average_stretch(g: &Graph, tree: &SpanningTree) -> Result<f64, GraphError> {
    let oracle = crate::TreePathOracle::new(tree.as_graph())?;
    let mut total = 0.0;
    let mut count = 0usize;
    for (eid, e) in g.edges().iter().enumerate() {
        if tree.contains_edge(eid) {
            continue;
        }
        let tree_res = oracle.path_resistance(e.u, e.v)?;
        total += tree_res / e.resistance();
        count += 1;
    }
    Ok(if count == 0 {
        0.0
    } else {
        total / count as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn diamond() -> Graph {
        // 0-1 (w=1), 1-3 (w=1), 0-2 (w=10), 2-3 (w=10), 0-3 (w=0.1)
        Graph::from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 3, 1.0),
                (0, 2, 10.0),
                (2, 3, 10.0),
                (0, 3, 0.1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn max_tree_keeps_heavy_edges() {
        let g = diamond();
        let t = maximum_spanning_tree(&g);
        assert_eq!(t.num_edges(), 3);
        assert!(t.as_graph().edge_weight(0, 2).is_some());
        assert!(t.as_graph().edge_weight(2, 3).is_some());
        assert!(t.as_graph().edge_weight(0, 3).is_none());
        assert!(t.as_graph().is_connected());
    }

    #[test]
    fn min_tree_total_weight_is_minimal_on_triangle() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap();
        let t = minimum_spanning_tree(&g);
        assert_eq!(t.total_weight(), 3.0); // edges 1 + 2
    }

    #[test]
    fn spanning_forest_on_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let t = maximum_spanning_tree(&g);
        assert_eq!(t.num_edges(), 2);
    }

    #[test]
    fn contains_edge_mask_consistent() {
        let g = diamond();
        let t = maximum_spanning_tree(&g);
        let count = (0..g.num_edges()).filter(|&e| t.contains_edge(e)).count();
        assert_eq!(count, t.num_edges());
    }

    #[test]
    fn low_stretch_tree_is_deterministic_and_spanning() {
        let g = diamond();
        let t1 = low_stretch_tree(&g, 42).unwrap();
        let t2 = low_stretch_tree(&g, 42).unwrap();
        assert_eq!(t1.edge_ids(), t2.edge_ids());
        assert_eq!(t1.num_edges(), 3);
        assert!(t1.as_graph().is_connected());
    }

    #[test]
    fn low_stretch_tree_rejects_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(matches!(
            low_stretch_tree(&g, 0),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn average_stretch_on_cycle() {
        // Unweighted C4: the off-tree edge has tree-path resistance 3 and
        // own resistance 1, so stretch = 3.
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]).unwrap();
        let t = maximum_spanning_tree(&g);
        let s = average_stretch(&g, &t).unwrap();
        assert!((s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn low_stretch_no_worse_than_pathological_on_grid() {
        // 4x4 grid; the heuristic should produce finite average stretch
        // comparable to the plain maximum spanning tree.
        let n = 4;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let id = i * n + j;
                if j + 1 < n {
                    edges.push((id, id + 1, 1.0));
                }
                if i + 1 < n {
                    edges.push((id, id + n, 1.0));
                }
            }
        }
        let g = Graph::from_edges(n * n, &edges).unwrap();
        let lsst = low_stretch_tree(&g, 7).unwrap();
        let s = average_stretch(&g, &lsst).unwrap();
        assert!(s.is_finite() && s >= 1.0);
        assert!(s < 20.0, "stretch {s} unexpectedly large for a 4x4 grid");
    }
}
