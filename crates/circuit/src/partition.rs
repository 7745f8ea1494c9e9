//! Deterministic graph partitioning and typed netlist deltas for the
//! incremental (ECO) re-analysis flow.
//!
//! An ECO edit touches a bounded region of a large design, so the pipeline
//! should only recompute the partitions that region intersects. This module
//! supplies the two circuit-side ingredients:
//!
//! * [`partition_graph`] — a seeded multi-source lockstep-BFS partitioner.
//!   Region growth is fully deterministic (seed nodes are a hashed stride
//!   over the node range, claim conflicts resolve by partition id, frontiers
//!   are kept sorted), so the same `(graph, config)` pair always yields the
//!   same [`Partitioning`]. Partition ids are kept stable across
//!   node-count-preserving edits by *persisting* the base-design assignment
//!   and reusing it for every delta, never re-partitioning the edited graph.
//! * [`NetlistDelta`] / [`apply_delta`] — a typed edit script (add / remove /
//!   rescale edges, per-node feature drift) applied to a base graph, with a
//!   conservative report of which partitions the edit touches (every
//!   partition whose owned-plus-halo subgraph can see a touched node).
//!
//! The halo ring: partition `p` analyses the subgraph induced by its owned
//! nodes plus every node within `halo_depth` hops. An edit therefore dirties
//! partition `p` exactly when some touched node lies within `halo_depth`
//! hops of a node owned by `p`.

use crate::CircuitError;
use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;
use serde::{DeError, Deserialize, Serialize, Value};

/// Smallest sensible owned-region size: the core pipeline needs at least 4
/// nodes per subgraph, and partitions below ~8 owned nodes produce manifolds
/// too small to carry any spectral signal.
pub const MIN_PARTITION_NODES: usize = 8;

/// Configuration for [`partition_graph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Number of regions to grow. Must satisfy
    /// `1 ≤ num_partitions ≤ num_nodes / MIN_PARTITION_NODES`.
    pub num_partitions: usize,
    /// Seed for the hashed seed-node placement.
    pub seed: u64,
    /// Halo ring depth in hops (`≥ 1`; ring 1 is required so every edge
    /// incident to an owned node lies inside the partition's subgraph).
    pub halo_depth: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            num_partitions: 8,
            seed: 0xEC0,
            halo_depth: 1,
        }
    }
}

impl PartitionConfig {
    /// Validates the partition count and halo depth against a node count.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidArgument`] when `num_partitions` is zero,
    /// absurd versus the node count (fewer than [`MIN_PARTITION_NODES`]
    /// nodes per partition), or `halo_depth` is zero.
    pub fn validate(&self, num_nodes: usize) -> Result<(), CircuitError> {
        if self.num_partitions == 0 {
            return Err(CircuitError::InvalidArgument {
                reason: "partitions must be at least 1".to_string(),
            });
        }
        if self.num_partitions.saturating_mul(MIN_PARTITION_NODES) > num_nodes {
            return Err(CircuitError::InvalidArgument {
                reason: format!(
                    "partitions = {} is absurd for {} nodes (need at least {} nodes per partition)",
                    self.num_partitions, num_nodes, MIN_PARTITION_NODES
                ),
            });
        }
        if self.halo_depth == 0 {
            return Err(CircuitError::InvalidArgument {
                reason: "halo depth must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// A deterministic assignment of every node to exactly one partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// Number of partitions (every id in `0..num_partitions` owns ≥ 1 node).
    pub num_partitions: usize,
    /// Halo ring depth the assignment was built for.
    pub halo_depth: usize,
    /// Seed the assignment was built with (recorded for provenance).
    pub seed: u64,
    /// `assignment[node]` is the owning partition id.
    pub assignment: Vec<u32>,
}

/// splitmix64: cheap, well-mixed hash for seed-node placement.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Grows `config.num_partitions` regions over `graph` by seeded multi-source
/// lockstep BFS.
///
/// Determinism contract: seed nodes are a fixed stride over `0..n` offset by
/// a hash of `config.seed`; each BFS round expands partitions in ascending
/// id order over sorted frontiers, so a node reachable from several regions
/// in the same round is claimed by the smallest partition id. Nodes in
/// components no seed reaches are assigned whole-component to the currently
/// smallest partition (ties to the smallest id), scanning components in
/// ascending node order.
///
/// # Errors
///
/// [`CircuitError::InvalidArgument`] on an invalid config (see
/// [`PartitionConfig::validate`]).
pub fn partition_graph(
    graph: &Graph,
    config: &PartitionConfig,
) -> Result<Partitioning, CircuitError> {
    let n = graph.num_nodes();
    config.validate(n)?;
    let p = config.num_partitions;

    const UNASSIGNED: u32 = u32::MAX;
    let mut assignment = vec![UNASSIGNED; n];
    let mut counts = vec![0usize; p];

    // Seed placement: a stride of n/p keeps seeds spread over the node-id
    // range (generator ids correlate with topological placement), and the
    // hashed offset decorrelates placements across seeds. All p seeds are
    // distinct because i * stride < n for i < p.
    let stride = n / p;
    let offset = (splitmix64(config.seed) % n as u64) as usize;
    let mut frontiers: Vec<Vec<usize>> = Vec::with_capacity(p);
    for (pid, frontier_seed) in (0..p).map(|i| (i, (offset + i * stride) % n)) {
        assignment[frontier_seed] = pid as u32;
        counts[pid] += 1;
        frontiers.push(vec![frontier_seed]);
    }

    // Lockstep rounds: every partition advances one ring per round.
    loop {
        let mut any = false;
        for pid in 0..p {
            let frontier = std::mem::take(&mut frontiers[pid]);
            let mut next = Vec::new();
            for &u in &frontier {
                for (v, _w) in graph.neighbors(u) {
                    if assignment[v] == UNASSIGNED {
                        assignment[v] = pid as u32;
                        counts[pid] += 1;
                        next.push(v);
                    }
                }
            }
            next.sort_unstable();
            any = any || !next.is_empty();
            frontiers[pid] = next;
        }
        if !any {
            break;
        }
    }

    // Components unreached by every seed: assign each whole component to the
    // currently smallest partition, keeping sizes balanced deterministically.
    let mut stack = Vec::new();
    for start in 0..n {
        if assignment[start] != UNASSIGNED {
            continue;
        }
        let target = (0..p)
            .min_by_key(|&pid| (counts[pid], pid))
            .expect("num_partitions >= 1") as u32; // cirstag-lint: allow(no-panic-in-lib) -- validate() rejects num_partitions == 0, so the range is non-empty
        stack.push(start);
        assignment[start] = target;
        counts[target as usize] += 1;
        while let Some(u) = stack.pop() {
            for (v, _w) in graph.neighbors(u) {
                if assignment[v] == UNASSIGNED {
                    assignment[v] = target;
                    counts[target as usize] += 1;
                    stack.push(v);
                }
            }
        }
    }

    Ok(Partitioning {
        num_partitions: p,
        halo_depth: config.halo_depth,
        seed: config.seed,
        assignment,
    })
}

impl Partitioning {
    /// Nodes owned by partition `pid`, ascending.
    pub fn owned_nodes(&self, pid: u32) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == pid)
            .map(|(i, _)| i)
            .collect()
    }

    /// Partitions whose owned-plus-halo subgraph contains any node of
    /// `touched` (sorted, deduplicated partition ids). BFS runs over
    /// `graph`, which must still contain every edge the delta removes —
    /// callers pass the *base* adjacency (plus added edges) so invalidation
    /// is conservative in both directions.
    pub fn touched_partitions(&self, graph: &Graph, touched: &[usize]) -> Vec<usize> {
        let n = self.assignment.len();
        let mut depth = vec![usize::MAX; n];
        let mut frontier = Vec::new();
        let mut dirty = vec![false; self.num_partitions];
        for &t in touched {
            if t < n && depth[t] == usize::MAX {
                depth[t] = 0;
                dirty[self.assignment[t] as usize] = true;
                frontier.push(t);
            }
        }
        frontier.sort_unstable();
        for ring in 1..=self.halo_depth {
            let mut next = Vec::new();
            for &u in &frontier {
                for (v, _w) in graph.neighbors(u) {
                    if depth[v] == usize::MAX {
                        depth[v] = ring;
                        dirty[self.assignment[v] as usize] = true;
                        next.push(v);
                    }
                }
            }
            next.sort_unstable();
            frontier = next;
        }
        (0..self.num_partitions).filter(|&p| dirty[p]).collect()
    }
}

/// One primitive edit in a [`NetlistDelta`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Connect `u`–`v` with `weight` (the edge must not already exist).
    AddEdge {
        /// One endpoint.
        u: usize,
        /// Other endpoint.
        v: usize,
        /// Positive, finite coupling weight.
        weight: f64,
    },
    /// Disconnect `u`–`v` (the edge must exist).
    RemoveEdge {
        /// One endpoint.
        u: usize,
        /// Other endpoint.
        v: usize,
    },
    /// Multiply the `u`–`v` weight by `factor` (the edge must exist).
    RescaleEdge {
        /// One endpoint.
        u: usize,
        /// Other endpoint.
        v: usize,
        /// Positive, finite scale factor.
        factor: f64,
    },
    /// Multiply every feature of `node` by `scale` (models drive-strength /
    /// capacitance drift on one pin).
    FeatureDrift {
        /// The drifting node.
        node: usize,
        /// Positive, finite scale factor.
        scale: f64,
    },
}

impl DeltaOp {
    fn kind(&self) -> &'static str {
        match self {
            DeltaOp::AddEdge { .. } => "add_edge",
            DeltaOp::RemoveEdge { .. } => "remove_edge",
            DeltaOp::RescaleEdge { .. } => "rescale_edge",
            DeltaOp::FeatureDrift { .. } => "feature_drift",
        }
    }

    /// Nodes this op touches, in declaration order.
    fn touched(&self) -> [Option<usize>; 2] {
        match *self {
            DeltaOp::AddEdge { u, v, .. }
            | DeltaOp::RemoveEdge { u, v }
            | DeltaOp::RescaleEdge { u, v, .. } => [Some(u), Some(v)],
            DeltaOp::FeatureDrift { node, .. } => [Some(node), None],
        }
    }
}

impl Serialize for DeltaOp {
    fn to_value(&self) -> Value {
        let mut fields = vec![("op".to_string(), Value::Str(self.kind().to_string()))];
        match *self {
            DeltaOp::AddEdge { u, v, weight } => {
                fields.push(("u".to_string(), u.to_value()));
                fields.push(("v".to_string(), v.to_value()));
                fields.push(("weight".to_string(), Value::Float(weight)));
            }
            DeltaOp::RemoveEdge { u, v } => {
                fields.push(("u".to_string(), u.to_value()));
                fields.push(("v".to_string(), v.to_value()));
            }
            DeltaOp::RescaleEdge { u, v, factor } => {
                fields.push(("u".to_string(), u.to_value()));
                fields.push(("v".to_string(), v.to_value()));
                fields.push(("factor".to_string(), Value::Float(factor)));
            }
            DeltaOp::FeatureDrift { node, scale } => {
                fields.push(("node".to_string(), node.to_value()));
                fields.push(("scale".to_string(), Value::Float(scale)));
            }
        }
        Value::Object(fields)
    }
}

impl Deserialize for DeltaOp {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind: String = v.field("op")?;
        match kind.as_str() {
            "add_edge" => Ok(DeltaOp::AddEdge {
                u: v.field("u")?,
                v: v.field("v")?,
                weight: v.field("weight")?,
            }),
            "remove_edge" => Ok(DeltaOp::RemoveEdge {
                u: v.field("u")?,
                v: v.field("v")?,
            }),
            "rescale_edge" => Ok(DeltaOp::RescaleEdge {
                u: v.field("u")?,
                v: v.field("v")?,
                factor: v.field("factor")?,
            }),
            "feature_drift" => Ok(DeltaOp::FeatureDrift {
                node: v.field("node")?,
                scale: v.field("scale")?,
            }),
            other => Err(DeError::new(format!("unknown delta op {other:?}"))),
        }
    }
}

/// A typed, ordered edit script against a base design.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetlistDelta {
    /// Edits, applied in order.
    pub ops: Vec<DeltaOp>,
}

impl Serialize for NetlistDelta {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "schema".to_string(),
                Value::Str("cirstag-delta/v1".to_string()),
            ),
            ("ops".to_string(), self.ops.to_value()),
        ])
    }
}

impl Deserialize for NetlistDelta {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let schema: String = v.field_or("schema", "cirstag-delta/v1".to_string())?;
        if schema != "cirstag-delta/v1" {
            return Err(DeError::new(format!("unsupported delta schema {schema:?}")));
        }
        Ok(NetlistDelta {
            ops: v.field("ops")?,
        })
    }
}

impl NetlistDelta {
    /// Serializes to pretty JSON (`cirstag-delta/v1`).
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidArgument`] when a float field is non-finite.
    pub fn to_json(&self) -> Result<String, CircuitError> {
        serde_json::to_string_pretty(self).map_err(|e| CircuitError::InvalidArgument {
            reason: format!("delta serialization failed: {e}"),
        })
    }

    /// Parses a `cirstag-delta/v1` JSON document.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidArgument`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, CircuitError> {
        serde_json::from_str(text).map_err(|e| CircuitError::InvalidArgument {
            reason: format!("delta deserialization failed: {e}"),
        })
    }
}

/// Result of [`apply_delta`]: the edited design plus the invalidation set.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The edited graph (same node count as the base).
    pub graph: Graph,
    /// The edited feature matrix, when a base one was supplied.
    pub features: Option<DenseMatrix>,
    /// Nodes the edit touches directly, ascending and deduplicated.
    pub touched_nodes: Vec<usize>,
    /// Partitions whose owned-plus-halo subgraph sees a touched node,
    /// ascending. A conservative over-approximation: the per-partition
    /// fingerprints are the ground truth and silently dedupe any partition
    /// listed here whose subgraph did not actually change.
    pub touched_partitions: Vec<usize>,
}

fn check_endpoints(u: usize, v: usize, n: usize) -> Result<(usize, usize), CircuitError> {
    if u >= n || v >= n {
        return Err(CircuitError::InvalidArgument {
            reason: format!("delta edge ({u}, {v}) out of bounds for {n} nodes"),
        });
    }
    if u == v {
        return Err(CircuitError::InvalidArgument {
            reason: format!("delta edge ({u}, {v}) is a self-loop"),
        });
    }
    Ok((u.min(v), u.max(v)))
}

fn check_positive(value: f64, what: &str) -> Result<(), CircuitError> {
    if !(value.is_finite() && value > 0.0) {
        return Err(CircuitError::InvalidArgument {
            reason: format!("delta {what} must be positive and finite, got {value}"),
        });
    }
    Ok(())
}

/// Applies `delta` to `base` (and optionally `features`), reporting the
/// partitions the edit invalidates under `partitioning`'s halo rule.
///
/// Node count is preserved by construction — deltas edit couplings and
/// features, never the node set — which is what keeps the persisted
/// partition ids valid for the edited design.
///
/// # Errors
///
/// [`CircuitError::InvalidArgument`] on out-of-bounds nodes, self-loops,
/// adding an existing edge, removing/rescaling a missing edge, non-positive
/// or non-finite weights and factors, a feature drift without features, or a
/// delta that disconnects every edge of the design.
pub fn apply_delta(
    base: &Graph,
    features: Option<&DenseMatrix>,
    delta: &NetlistDelta,
    partitioning: &Partitioning,
) -> Result<DeltaOutcome, CircuitError> {
    let n = base.num_nodes();
    if partitioning.assignment.len() != n {
        return Err(CircuitError::InvalidArgument {
            reason: format!(
                "partitioning covers {} nodes but the graph has {n}",
                partitioning.assignment.len()
            ),
        });
    }

    let mut edges: std::collections::BTreeMap<(usize, usize), f64> = base
        .edges()
        .iter()
        .map(|e| ((e.u.min(e.v), e.u.max(e.v)), e.weight))
        .collect();
    let mut out_features = features.cloned();
    // Extra adjacency for added edges so touched-partition BFS sees them;
    // removed edges stay visible through the base adjacency.
    let mut added: Vec<(usize, usize)> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();

    for op in &delta.ops {
        match *op {
            DeltaOp::AddEdge { u, v, weight } => {
                let key = check_endpoints(u, v, n)?;
                check_positive(weight, "edge weight")?;
                if edges.contains_key(&key) {
                    return Err(CircuitError::InvalidArgument {
                        reason: format!("delta adds edge ({u}, {v}) which already exists"),
                    });
                }
                edges.insert(key, weight);
                added.push(key);
            }
            DeltaOp::RemoveEdge { u, v } => {
                let key = check_endpoints(u, v, n)?;
                if edges.remove(&key).is_none() {
                    return Err(CircuitError::InvalidArgument {
                        reason: format!("delta removes edge ({u}, {v}) which does not exist"),
                    });
                }
            }
            DeltaOp::RescaleEdge { u, v, factor } => {
                let key = check_endpoints(u, v, n)?;
                check_positive(factor, "rescale factor")?;
                match edges.get_mut(&key) {
                    Some(w) => *w *= factor,
                    None => {
                        return Err(CircuitError::InvalidArgument {
                            reason: format!("delta rescales edge ({u}, {v}) which does not exist"),
                        })
                    }
                }
            }
            DeltaOp::FeatureDrift { node, scale } => {
                if node >= n {
                    return Err(CircuitError::InvalidArgument {
                        reason: format!("delta drifts node {node}, out of bounds for {n} nodes"),
                    });
                }
                check_positive(scale, "feature drift scale")?;
                match out_features.as_mut() {
                    Some(f) => {
                        for x in f.row_mut(node) {
                            *x *= scale;
                        }
                    }
                    None => {
                        return Err(CircuitError::InvalidArgument {
                            reason: "delta drifts features but the design has none".to_string(),
                        })
                    }
                }
            }
        }
        for t in op.touched().into_iter().flatten() {
            touched.push(t);
        }
    }

    if edges.is_empty() {
        return Err(CircuitError::InvalidArgument {
            reason: "delta removes every edge of the design".to_string(),
        });
    }
    touched.sort_unstable();
    touched.dedup();

    let edge_list: Vec<(usize, usize, f64)> = edges.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
    let graph = Graph::from_edges(n, &edge_list)?;

    // Invalidation BFS over base adjacency plus added edges.
    let union = if added.is_empty() {
        None
    } else {
        let mut u = base.clone();
        for &(a, b) in &added {
            // Parallel to an existing base edge is impossible (AddEdge
            // rejects existing keys), so add_edge only fails on the
            // endpoint/weight checks already performed above.
            u.add_edge(a, b, 1.0)?;
        }
        Some(u)
    };
    let touched_partitions =
        partitioning.touched_partitions(union.as_ref().unwrap_or(base), &touched);

    Ok(DeltaOutcome {
        graph,
        features: out_features,
        touched_nodes: touched,
        touched_partitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-D grid graph: deterministic, locally connected — a decent stand-in
    /// for placed-netlist locality.
    fn grid(side: usize) -> Graph {
        let n = side * side;
        let mut edges = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let u = r * side + c;
                if c + 1 < side {
                    edges.push((u, u + 1, 1.0));
                }
                if r + 1 < side {
                    edges.push((u, u + side, 1.0));
                }
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    fn config(p: usize) -> PartitionConfig {
        PartitionConfig {
            num_partitions: p,
            seed: 7,
            halo_depth: 1,
        }
    }

    #[test]
    fn partitioning_is_deterministic_and_total() {
        let g = grid(12);
        let a = partition_graph(&g, &config(6)).unwrap();
        let b = partition_graph(&g, &config(6)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.assignment.len(), g.num_nodes());
        for pid in 0..6 {
            assert!(
                !a.owned_nodes(pid as u32).is_empty(),
                "partition {pid} empty"
            );
        }
        let total: usize = (0..6).map(|p| a.owned_nodes(p as u32).len()).sum();
        assert_eq!(total, g.num_nodes());
    }

    #[test]
    fn different_seeds_move_regions() {
        let g = grid(12);
        let a = partition_graph(&g, &config(6)).unwrap();
        let b = partition_graph(
            &g,
            &PartitionConfig {
                seed: 8,
                ..config(6)
            },
        )
        .unwrap();
        assert_ne!(a.assignment, b.assignment);
    }

    #[test]
    fn disconnected_components_are_assigned() {
        // Two disjoint rings; seeds may all land in one of them.
        let mut edges = Vec::new();
        for i in 0..40 {
            edges.push((i, (i + 1) % 40, 1.0));
        }
        for i in 0..40 {
            edges.push((40 + i, 40 + (i + 1) % 40, 1.0));
        }
        let g = Graph::from_edges(80, &edges).unwrap();
        let p = partition_graph(&g, &config(4)).unwrap();
        assert!(p.assignment.iter().all(|&a| (a as usize) < 4));
    }

    #[test]
    fn validation_rejects_absurd_counts() {
        let g = grid(6); // 36 nodes
        assert!(matches!(
            partition_graph(&g, &config(0)),
            Err(CircuitError::InvalidArgument { .. })
        ));
        // 36 / 8 = 4 partitions max.
        assert!(partition_graph(&g, &config(4)).is_ok());
        assert!(matches!(
            partition_graph(&g, &config(5)),
            Err(CircuitError::InvalidArgument { .. })
        ));
        assert!(matches!(
            PartitionConfig {
                halo_depth: 0,
                ..config(2)
            }
            .validate(36),
            Err(CircuitError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn apply_delta_edits_weights_and_reports_partitions() {
        let g = grid(10);
        let p = partition_graph(&g, &config(4)).unwrap();
        let feats = DenseMatrix::from_rows(
            &(0..g.num_nodes())
                .map(|i| vec![i as f64, 1.0])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let delta = NetlistDelta {
            ops: vec![
                DeltaOp::RescaleEdge {
                    u: 0,
                    v: 1,
                    factor: 2.5,
                },
                DeltaOp::RemoveEdge { u: 1, v: 2 },
                DeltaOp::AddEdge {
                    u: 0,
                    v: 99,
                    weight: 0.5,
                },
                DeltaOp::FeatureDrift {
                    node: 5,
                    scale: 3.0,
                },
            ],
        };
        let out = apply_delta(&g, Some(&feats), &delta, &p).unwrap();
        assert_eq!(out.graph.num_nodes(), g.num_nodes());
        assert_eq!(out.graph.edge_weight(0, 1), Some(2.5));
        assert_eq!(out.graph.edge_weight(1, 2), None);
        assert_eq!(out.graph.edge_weight(0, 99), Some(0.5));
        let f = out.features.unwrap();
        assert_eq!(f.get(5, 0), 15.0);
        assert_eq!(f.get(5, 1), 3.0);
        assert_eq!(out.touched_nodes, vec![0, 1, 2, 5, 99]);
        for &t in &out.touched_nodes {
            assert!(
                out.touched_partitions.contains(&(p.assignment[t] as usize)),
                "owner of touched node {t} not invalidated"
            );
        }
    }

    #[test]
    fn apply_delta_rejects_bad_ops() {
        let g = grid(6);
        let p = partition_graph(&g, &config(4)).unwrap();
        let bad = |ops| apply_delta(&g, None, &NetlistDelta { ops }, &p);
        assert!(bad(vec![DeltaOp::AddEdge {
            u: 0,
            v: 1,
            weight: 1.0
        }])
        .is_err());
        assert!(bad(vec![DeltaOp::AddEdge {
            u: 0,
            v: 0,
            weight: 1.0
        }])
        .is_err());
        assert!(bad(vec![DeltaOp::AddEdge {
            u: 0,
            v: 999,
            weight: 1.0
        }])
        .is_err());
        assert!(bad(vec![DeltaOp::AddEdge {
            u: 0,
            v: 7,
            weight: -1.0
        }])
        .is_err());
        assert!(bad(vec![DeltaOp::RemoveEdge { u: 0, v: 7 }]).is_err());
        assert!(bad(vec![DeltaOp::RescaleEdge {
            u: 0,
            v: 7,
            factor: 2.0
        }])
        .is_err());
        assert!(bad(vec![DeltaOp::RescaleEdge {
            u: 0,
            v: 1,
            factor: f64::NAN
        }])
        .is_err());
        assert!(bad(vec![DeltaOp::FeatureDrift {
            node: 3,
            scale: 2.0
        }])
        .is_err());
    }

    #[test]
    fn delta_json_roundtrip() {
        let delta = NetlistDelta {
            ops: vec![
                DeltaOp::AddEdge {
                    u: 3,
                    v: 9,
                    weight: 0.25,
                },
                DeltaOp::RemoveEdge { u: 1, v: 2 },
                DeltaOp::RescaleEdge {
                    u: 0,
                    v: 1,
                    factor: 1.75,
                },
                DeltaOp::FeatureDrift {
                    node: 4,
                    scale: 0.5,
                },
            ],
        };
        let json = delta.to_json().unwrap();
        let back = NetlistDelta::from_json(&json).unwrap();
        assert_eq!(back, delta);
        assert!(NetlistDelta::from_json("nope").is_err());
        assert!(NetlistDelta::from_json(r#"{"schema": "cirstag-delta/v9", "ops": []}"#).is_err());
    }
}
