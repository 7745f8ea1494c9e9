//! Weighted undirected graphs, Laplacians, traversals and spanning trees.
//!
//! This crate provides the graph substrate shared by the CirSTAG manifold
//! machinery: a compact adjacency-list [`Graph`] type, combinatorial and
//! normalized Laplacian assembly, Dijkstra shortest paths, connected
//! components, a union–find, minimum/maximum spanning trees, a practical
//! low-stretch spanning-tree heuristic, and an LCA-based tree-path oracle
//! used for stretch and cycle-resistance queries.
//!
//! # Example
//!
//! ```
//! use cirstag_graph::Graph;
//!
//! # fn main() -> Result<(), cirstag_graph::GraphError> {
//! let mut g = Graph::new(3);
//! g.add_edge(0, 1, 1.0)?;
//! g.add_edge(1, 2, 2.0)?;
//! assert!(g.is_connected());
//! let lap = g.laplacian();
//! assert_eq!(lap.get(1, 1), 3.0); // degree of node 1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dot;
mod error;
mod graph;
mod laplacian;
mod spanning;
mod traversal;
mod tree;
mod unionfind;

pub use dot::{heat_colors, to_dot, DotOptions};
pub use error::GraphError;
pub use graph::{Edge, EdgeId, Graph, NodeId};
pub use spanning::{
    average_stretch, low_stretch_tree, maximum_spanning_tree, minimum_spanning_tree, SpanningTree,
};
pub use traversal::{connected_components, dijkstra, ShortestPaths};
pub use tree::TreePathOracle;
pub use unionfind::UnionFind;
