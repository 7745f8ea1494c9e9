//! Connected components and Dijkstra shortest paths.

use crate::{Graph, GraphError, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// Labels every node with the index of its connected component.
///
/// Components are numbered `0, 1, …` in order of their smallest node id, so
/// a connected graph yields the all-zeros labelling.
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        label[s] = next;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for (v, _) in g.neighbors(u) {
                if label[v] == usize::MAX {
                    label[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    label
}

/// Result of a single-source Dijkstra run over *resistive* edge lengths
/// (`1 / weight`), so that heavy (high-conductance) edges are short.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Source node of the run.
    pub source: NodeId,
    /// `dist[v]` is the resistive shortest-path distance from the source;
    /// `f64::INFINITY` for unreachable nodes.
    pub dist: Vec<f64>,
    /// `parent[v]` is the predecessor of `v` on a shortest path, or `None`
    /// for the source and unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Reconstructs the path from the source to `target` (inclusive), or
    /// `None` when unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if target >= self.dist.len() || self.dist[target].is_infinite() {
            return None;
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are always finite here.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest paths with resistive edge lengths `1 / weight`.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] when `source` is invalid.
pub fn dijkstra(g: &Graph, source: NodeId) -> Result<ShortestPaths, GraphError> {
    if source >= g.num_nodes() {
        return Err(GraphError::NodeOutOfBounds {
            node: source,
            num_nodes: g.num_nodes(),
        });
    }
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for (v, w) in g.neighbors(u) {
            let nd = d + 1.0 / w;
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = Some(u);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    Ok(ShortestPaths {
        source,
        dist,
        parent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_labelled_in_order() {
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (3, 4, 1.0)]).unwrap();
        assert_eq!(connected_components(&g), vec![0, 0, 1, 2, 2]);
    }

    #[test]
    fn dijkstra_on_weighted_path() {
        // Weights are conductances: resistive lengths are 1, 1/2, 1/4.
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)]).unwrap();
        let sp = dijkstra(&g, 0).unwrap();
        assert!((sp.dist[3] - 1.75).abs() < 1e-12);
        assert_eq!(sp.path_to(3), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn dijkstra_prefers_heavy_shortcut() {
        // 0-1-2 with light edges vs a heavy direct edge 0-2.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]).unwrap();
        let sp = dijkstra(&g, 0).unwrap();
        assert!((sp.dist[2] - 0.1).abs() < 1e-12);
        assert_eq!(sp.path_to(2), Some(vec![0, 2]));
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0)]).unwrap();
        let sp = dijkstra(&g, 0).unwrap();
        assert!(sp.dist[2].is_infinite());
        assert_eq!(sp.path_to(2), None);
    }

    #[test]
    fn dijkstra_source_validation() {
        let g = Graph::new(2);
        assert!(dijkstra(&g, 5).is_err());
    }
}
