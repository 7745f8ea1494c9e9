//! Partition-scoped pipeline execution for incremental (ECO) re-analysis.
//!
//! The unit of computation here is a *partition*: the subgraph induced by a
//! partition's owned nodes plus every node within `halo_depth` hops. Each
//! partition runs the full five-stage pipeline on its subgraph — restricted
//! feature rows and output-embedding rows included — and its owned-node
//! scores are spliced into the global report. Because every sub-pipeline is
//! deterministic, a warm run (untouched partitions replaying from cache,
//! dirty partitions recomputing) is bit-identical to a cold partitioned run
//! of the same edited design: the cache is invisible in the output by
//! construction, and an over-approximated dirty set is harmless — a
//! "dirty" partition whose subgraph did not actually change fingerprints
//! identically and replays anyway.
//!
//! Per-partition subgraphs are fingerprinted as Merkle leaves
//! (`cirstag-partition-leaf/v1`: the subgraph, its global node ids, owned
//! flags, and the restricted feature/embedding rows) chained into a root
//! (`cirstag-partition-root/v1`) that identifies the whole partitioned
//! input; the root is reported so two runs can be compared at a glance.
//! Underneath, each sub-pipeline reuses the existing 128-bit stage chain
//! unchanged — partition-scoped validity is exactly stage-key validity on
//! the partition's subgraph.
//!
//! [`analyze_partitioned`] is the one entry point: a cold run passes no
//! cache, a warm run passes an [`ArtifactCache`], which concurrent runs may
//! share.

use crate::engine::fingerprint::{Fingerprint, Fingerprinter};
use crate::engine::run_pipeline;
use crate::resilience::CancelToken;
use crate::{ArtifactCache, CirStagConfig, CirStagError};
use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;
use std::time::{Duration, Instant};

/// One partition's slice of the design: its subgraph and the bookkeeping
/// needed to splice sub-pipeline results back into global coordinates.
#[derive(Debug, Clone)]
pub struct PartitionView {
    /// Partition id.
    pub id: u32,
    /// Global node ids in this view (owned plus halo), ascending; local id
    /// `i` of the subgraph is global node `nodes[i]`.
    pub nodes: Vec<usize>,
    /// `owned[i]` is `true` when `nodes[i]` is owned (not halo).
    pub owned: Vec<bool>,
    /// Number of owned nodes.
    pub owned_count: usize,
    /// The induced subgraph over `nodes`, in local ids.
    pub subgraph: Graph,
    /// Merkle leaf: fingerprint of the subgraph, node ids, owned flags and
    /// restricted feature/embedding rows.
    pub leaf: Fingerprint,
}

impl PartitionView {
    /// Number of halo (non-owned) nodes in the view.
    pub fn halo_count(&self) -> usize {
        self.nodes.len() - self.owned_count
    }
}

/// The partition-scoped decomposition of one design: per-partition views
/// plus the Merkle root chaining their leaves.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Per-partition views, in partition-id order.
    pub views: Vec<PartitionView>,
    /// Root fingerprint over every leaf (plus partition count and halo
    /// depth); identifies the whole partitioned input.
    pub root: Fingerprint,
    /// Halo ring depth the plan was built with.
    pub halo_depth: usize,
}

impl PartitionPlan {
    /// Builds the partition-scoped decomposition of `graph` under
    /// `assignment` (one owning partition id per node, ids in
    /// `0..num_partitions`).
    ///
    /// # Errors
    ///
    /// [`CirStagError::InvalidArgument`] when the assignment does not cover
    /// the graph, a partition owns no nodes, a subgraph is smaller than the
    /// pipeline's 4-node floor, `halo_depth` is zero, or the feature /
    /// embedding row counts do not match the graph.
    pub fn build(
        graph: &Graph,
        features: Option<&DenseMatrix>,
        embedding: &DenseMatrix,
        assignment: &[u32],
        num_partitions: usize,
        halo_depth: usize,
    ) -> Result<PartitionPlan, CirStagError> {
        let n = graph.num_nodes();
        if assignment.len() != n {
            return Err(CirStagError::InvalidArgument {
                reason: format!(
                    "partition assignment covers {} nodes but the graph has {n}",
                    assignment.len()
                ),
            });
        }
        if num_partitions == 0 {
            return Err(CirStagError::InvalidArgument {
                reason: "need at least one partition".to_string(),
            });
        }
        if halo_depth == 0 {
            return Err(CirStagError::InvalidArgument {
                reason: "halo depth must be at least 1".to_string(),
            });
        }
        // cirstag-lint: allow(cast-truncation) -- u32 -> usize widens losslessly on every supported target
        if let Some(&bad) = assignment.iter().find(|&&a| a as usize >= num_partitions) {
            return Err(CirStagError::InvalidArgument {
                reason: format!("assignment references partition {bad} of {num_partitions}"),
            });
        }
        if embedding.nrows() != n {
            return Err(CirStagError::InvalidArgument {
                reason: format!(
                    "output embedding has {} rows but the graph has {n} nodes",
                    embedding.nrows()
                ),
            });
        }
        if let Some(f) = features {
            if f.nrows() != n {
                return Err(CirStagError::InvalidArgument {
                    reason: format!(
                        "node features have {} rows but the graph has {n} nodes",
                        f.nrows()
                    ),
                });
            }
        }

        // Reused scratch: membership ring stamp and global→local id map.
        let mut ring = vec![usize::MAX; n];
        let mut local = vec![0u32; n];
        let mut views = Vec::with_capacity(num_partitions);
        for pid in 0..num_partitions {
            // cirstag-lint: allow(cast-truncation) -- pid < num_partitions, which the u32 assignment domain already bounds
            let pid32 = pid as u32;
            // Owned nodes seed a bounded BFS that adds the halo rings.
            let mut nodes: Vec<usize> = (0..n).filter(|&i| assignment[i] == pid32).collect();
            let owned_count = nodes.len();
            if owned_count == 0 {
                return Err(CirStagError::InvalidArgument {
                    reason: format!("partition {pid} owns no nodes"),
                });
            }
            for &u in &nodes {
                ring[u] = 0;
            }
            let mut frontier = nodes.clone();
            for depth in 1..=halo_depth {
                let mut next = Vec::new();
                for &u in &frontier {
                    for (v, _w) in graph.neighbors(u) {
                        if ring[v] == usize::MAX {
                            ring[v] = depth;
                            next.push(v);
                            nodes.push(v);
                        }
                    }
                }
                next.sort_unstable();
                frontier = next;
            }
            nodes.sort_unstable();
            if nodes.len() < 4 {
                for &u in &nodes {
                    ring[u] = usize::MAX;
                }
                return Err(CirStagError::InvalidArgument {
                    reason: format!(
                        "partition {pid} spans only {} nodes with its halo; the pipeline needs \
                         at least 4 — use fewer partitions",
                        nodes.len()
                    ),
                });
            }
            let owned: Vec<bool> = nodes.iter().map(|&g| assignment[g] == pid32).collect();
            for (li, &g) in nodes.iter().enumerate() {
                local[g] = li as u32; // cirstag-lint: allow(cast-truncation) -- li indexes a view of the pin graph, far below u32::MAX (a 2^32-node graph cannot be built in memory)
            }
            let mut edges = Vec::new();
            for (li, &gu) in nodes.iter().enumerate() {
                for (gv, w) in graph.neighbors(gu) {
                    if gv > gu && ring[gv] != usize::MAX {
                        // cirstag-lint: allow(cast-truncation) -- u32 -> usize widens losslessly on every supported target
                        edges.push((li, local[gv] as usize, w));
                    }
                }
            }
            let subgraph = Graph::from_edges(nodes.len(), &edges).map_err(|e| {
                CirStagError::InvalidArgument {
                    reason: format!("partition {pid} subgraph is malformed: {e}"),
                }
            })?;
            // Reset the ring stamps for the next partition.
            for &u in &nodes {
                ring[u] = usize::MAX;
            }

            let mut fp = Fingerprinter::new();
            fp.write_str("cirstag-partition-leaf/v1");
            fp.write_u64(u64::from(pid32));
            fp.write_usize(halo_depth);
            fp.write_usize(nodes.len());
            for (li, &g) in nodes.iter().enumerate() {
                fp.write_usize(g);
                fp.write_bool(owned[li]);
            }
            fp.write_graph(&subgraph);
            fp.write_bool(features.is_some());
            if let Some(f) = features {
                for &g in &nodes {
                    for &x in f.row(g) {
                        fp.write_f64(x);
                    }
                }
            }
            fp.write_usize(embedding.ncols());
            for &g in &nodes {
                for &x in embedding.row(g) {
                    fp.write_f64(x);
                }
            }
            let leaf = fp.finish();
            views.push(PartitionView {
                id: pid32,
                nodes,
                owned,
                owned_count,
                subgraph,
                leaf,
            });
        }

        let mut fp = Fingerprinter::new();
        fp.write_str("cirstag-partition-root/v1");
        fp.write_usize(num_partitions);
        fp.write_usize(halo_depth);
        for view in &views {
            fp.write_fingerprint(view.leaf);
        }
        Ok(PartitionPlan {
            views,
            root: fp.finish(),
            halo_depth,
        })
    }
}

/// Clamps the pipeline config to a subgraph of `m` nodes: spectral
/// dimensions and kNN degree cannot exceed what the subgraph supports. A
/// pure function of `(config, m)`, so cold and warm runs of the same
/// subgraph always agree (the clamped config feeds the stage fingerprints).
fn clamp_config(config: &CirStagConfig, m: usize) -> CirStagConfig {
    let mut cfg = *config;
    let spectral_cap = (m.saturating_sub(2) / 2).max(1);
    cfg.embedding_dim = cfg.embedding_dim.min(spectral_cap);
    cfg.num_eigenpairs = cfg.num_eigenpairs.min(spectral_cap);
    cfg.knn_k = cfg.knn_k.min(m - 1);
    cfg
}

/// Per-partition outcome of a partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionRecord {
    /// Partition id.
    pub id: u32,
    /// Owned node count.
    pub owned: usize,
    /// Halo node count.
    pub halo: usize,
    /// The partition's generalized eigenvalues (its local spectral block).
    pub eigenvalues: Vec<f64>,
    /// `true` when the partition's sub-pipeline degraded.
    pub degraded: bool,
    /// Stages replayed from cache for this partition.
    pub cache_hits: usize,
    /// Cacheable stages that computed for this partition. `> 0` means the
    /// partition was dirty (or the cache was cold).
    pub cache_misses: usize,
    /// Wall-clock time of the partition's sub-pipeline.
    pub wall: Duration,
}

/// The spliced result of a partition-scoped analysis.
#[derive(Debug, Clone)]
pub struct PartitionedReport {
    /// Global per-node stability scores (every node scored by its owner).
    pub node_scores: Vec<f64>,
    /// Global manifold edge scores, sorted by endpoint pair; each edge is
    /// scored by the partition owning its lower endpoint.
    pub edge_scores: Vec<(usize, usize, f64)>,
    /// Merkle root of the partitioned input (see [`PartitionPlan`]).
    pub root: Fingerprint,
    /// Partition count.
    pub num_partitions: usize,
    /// Halo ring depth.
    pub halo_depth: usize,
    /// `true` when any partition's sub-pipeline degraded.
    pub degraded: bool,
    /// Active worker-thread count the analysis ran with.
    pub threads: usize,
    /// Per-partition outcomes, in partition-id order.
    pub partitions: Vec<PartitionRecord>,
    /// Total wall-clock time across every partition.
    pub wall: Duration,
}

impl PartitionedReport {
    /// Node ids sorted most-unstable first.
    pub fn ranking(&self) -> Vec<usize> {
        crate::rank_descending(&self.node_scores)
    }

    /// Ids of partitions that recomputed at least one stage: the dirty set
    /// of a warm run (a cache miss on any cacheable stage), or every
    /// partition of a cache-less run (which records neither hits nor
    /// misses, so zero hits means nothing was replayed).
    pub fn recomputed(&self) -> Vec<u32> {
        self.partitions
            .iter()
            .filter(|p| p.cache_misses > 0 || p.cache_hits == 0)
            .map(|p| p.id)
            .collect()
    }

    /// Total cache hits across partitions.
    pub fn cache_hits(&self) -> usize {
        self.partitions.iter().map(|p| p.cache_hits).sum()
    }

    /// Total cache misses across partitions.
    pub fn cache_misses(&self) -> usize {
        self.partitions.iter().map(|p| p.cache_misses).sum()
    }
}

/// Runs the partition-scoped pipeline: one sub-pipeline per partition (in
/// partition-id order) spliced into a global report. Each partition's
/// owned-node scores land at their global ids, and a manifold edge is
/// emitted exactly when its lower endpoint is owned by that partition
/// (owned sets are disjoint, so every edge has at most one emitter).
///
/// `cache = None` is the cold baseline: every partition computes. With a
/// cache, partitions whose stage fingerprints match replay instead; the
/// cache may be shared with concurrent runs (the serve `delta` path).
/// `cancel`, when given, is polled at every stage boundary.
///
/// Warm-vs-cold bit-identity: with the same `(config, graph, features,
/// embedding, assignment, halo_depth)`, the report is byte-for-byte
/// identical with or without a cache and whatever subset of partitions
/// replays — sub-pipelines are deterministic and cached stage artifacts
/// replay their exact cold-run output.
///
/// # Errors
///
/// Any [`CirStagError`] a sub-pipeline raises, plus the plan-validation
/// errors of [`PartitionPlan::build`].
#[allow(clippy::too_many_arguments)]
pub fn analyze_partitioned(
    config: &CirStagConfig,
    graph: &Graph,
    features: Option<&DenseMatrix>,
    embedding: &DenseMatrix,
    assignment: &[u32],
    num_partitions: usize,
    halo_depth: usize,
    cache: Option<&ArtifactCache>,
    cancel: Option<&CancelToken>,
) -> Result<PartitionedReport, CirStagError> {
    let plan = PartitionPlan::build(
        graph,
        features,
        embedding,
        assignment,
        num_partitions,
        halo_depth,
    )?;
    let mut node_scores = vec![0.0; graph.num_nodes()];
    let mut edge_scores = Vec::new();
    let mut records = Vec::with_capacity(plan.views.len());
    let mut degraded = false;
    let mut threads = 1;
    // cirstag-lint: allow(nondeterminism) -- recompute-report wall-clock diagnostics only; excluded from the deterministic payload
    let t0 = Instant::now();
    for view in &plan.views {
        let m = view.nodes.len();
        let cfg = clamp_config(config, m);
        let sub_features = match features {
            Some(f) => Some(gather_rows(f, &view.nodes)?),
            None => None,
        };
        let sub_embedding = gather_rows(embedding, &view.nodes)?;
        let segment = format!("partition/{}", view.id);
        // cirstag-lint: allow(nondeterminism) -- recompute-report wall-clock diagnostics only; excluded from the deterministic payload
        let sub_t0 = Instant::now();
        let sub = run_pipeline(
            &cfg,
            &view.subgraph,
            sub_features.as_ref(),
            &sub_embedding,
            cache,
            cancel,
            Some(&segment),
        )?;
        // cirstag-lint: allow(nondeterminism) -- recompute-report wall-clock diagnostics only; excluded from the deterministic payload
        let sub_wall = sub_t0.elapsed();
        threads = sub.timings.threads;
        degraded = degraded || sub.degraded;
        for (li, &g) in view.nodes.iter().enumerate() {
            if view.owned[li] {
                node_scores[g] = sub.node_scores[li];
            }
        }
        for &(lu, lv, s) in &sub.edge_scores {
            if view.owned[lu] {
                edge_scores.push((view.nodes[lu], view.nodes[lv], s));
            }
        }
        records.push(PartitionRecord {
            id: view.id,
            owned: view.owned_count,
            halo: view.halo_count(),
            eigenvalues: sub.eigenvalues,
            degraded: sub.degraded,
            cache_hits: sub.timings.cache_hits,
            cache_misses: sub.timings.cache_misses,
            wall: sub_wall,
        });
    }
    edge_scores.sort_unstable_by_key(|a| (a.0, a.1));

    Ok(PartitionedReport {
        node_scores,
        edge_scores,
        root: plan.root,
        num_partitions,
        halo_depth,
        degraded,
        threads,
        partitions: records,
        // cirstag-lint: allow(nondeterminism) -- recompute-report wall-clock diagnostics only; excluded from the deterministic payload
        wall: t0.elapsed(),
    })
}

/// Gathers `rows` of `m` into a new dense matrix (the per-partition
/// restriction of a global feature/embedding matrix).
fn gather_rows(m: &DenseMatrix, rows: &[usize]) -> Result<DenseMatrix, CirStagError> {
    let mut data = Vec::with_capacity(rows.len() * m.ncols());
    for &r in rows {
        data.extend_from_slice(m.row(r));
    }
    DenseMatrix::from_vec(rows.len(), m.ncols(), data).map_err(|e| CirStagError::InvalidArgument {
        reason: format!("partition row restriction failed: {e}"),
    })
}

// ---- deterministic export --------------------------------------------------

/// One partition's deterministic summary inside an [`EcoReportExport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionExport {
    /// Partition id.
    pub id: usize,
    /// Owned node count.
    pub owned: usize,
    /// Halo node count.
    pub halo: usize,
    /// `true` when the partition's sub-pipeline degraded.
    pub degraded: bool,
    /// The partition's generalized eigenvalues.
    pub eigenvalues: Vec<f64>,
}

serde::impl_serde_struct!(PartitionExport {
    id,
    owned,
    halo,
    degraded,
    eigenvalues,
});

/// The *deterministic* payload of a partitioned analysis: everything here
/// is a pure function of the partitioned input, so a warm delta run and a
/// cold run of the same edited design serialize to byte-identical JSON.
/// Run-specific facts (timings, replayed-vs-computed, thread count) are
/// deliberately excluded — `cirstag diff` prints those to stdout instead.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoReportExport {
    /// Export schema tag (`cirstag-eco-report/v1`).
    pub schema: String,
    /// Merkle root of the partitioned input, as 32 hex digits.
    pub root: String,
    /// Partition count.
    pub num_partitions: usize,
    /// Halo ring depth.
    pub halo_depth: usize,
    /// Global per-node stability scores.
    pub node_scores: Vec<f64>,
    /// Node ids sorted most-unstable first.
    pub ranking: Vec<usize>,
    /// Global manifold edge scores `(p, q, score)`, sorted by endpoints.
    pub edge_scores: Vec<(usize, usize, f64)>,
    /// `true` when any partition degraded.
    pub degraded: bool,
    /// Per-partition summaries, in partition-id order.
    pub partitions: Vec<PartitionExport>,
}

serde::impl_serde_struct!(EcoReportExport {
    schema,
    root,
    num_partitions,
    halo_depth,
    node_scores,
    ranking,
    edge_scores,
    degraded,
    partitions,
});

impl EcoReportExport {
    /// Builds the deterministic export of `report`.
    pub fn from_report(report: &PartitionedReport) -> Self {
        EcoReportExport {
            schema: "cirstag-eco-report/v1".to_string(),
            root: report.root.hex(),
            num_partitions: report.num_partitions,
            halo_depth: report.halo_depth,
            node_scores: report.node_scores.clone(),
            ranking: report.ranking(),
            edge_scores: report.edge_scores.clone(),
            degraded: report.degraded,
            partitions: report
                .partitions
                .iter()
                .map(|p| PartitionExport {
                    id: p.id as usize, // cirstag-lint: allow(cast-truncation) -- u32 -> usize widens losslessly on every supported target
                    owned: p.owned,
                    halo: p.halo,
                    degraded: p.degraded,
                    eigenvalues: p.eigenvalues.clone(),
                })
                .collect(),
        }
    }

    /// Serializes to pretty JSON. Byte-identical across warm and cold runs
    /// of the same partitioned input.
    ///
    /// # Errors
    ///
    /// [`CirStagError::InvalidArgument`] when serialization fails (only
    /// reachable for non-finite scores).
    pub fn to_json(&self) -> Result<String, CirStagError> {
        serde_json::to_string_pretty(self).map_err(|e| CirStagError::InvalidArgument {
            reason: format!("eco report serialization failed: {e}"),
        })
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// [`CirStagError::InvalidArgument`] for malformed input.
    pub fn from_json(text: &str) -> Result<Self, CirStagError> {
        let parsed: EcoReportExport =
            serde_json::from_str(text).map_err(|e| CirStagError::InvalidArgument {
                reason: format!("eco report deserialization failed: {e}"),
            })?;
        if parsed.schema != "cirstag-eco-report/v1" {
            return Err(CirStagError::InvalidArgument {
                reason: format!("unsupported eco report schema {:?}", parsed.schema),
            });
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Four quadrants of a `side × side` grid.
    fn quadrants(side: usize) -> Vec<u32> {
        (0..side * side)
            .map(|i| {
                let (r, c) = (i / side, i % side);
                (u32::from(r >= side / 2) << 1) | u32::from(c >= side / 2)
            })
            .collect()
    }

    fn synth_embedding(n: usize, dim: usize) -> DenseMatrix {
        DenseMatrix::from_rows(
            &(0..n)
                .map(|i| {
                    (0..dim)
                        .map(|j| ((i * (j + 2)) as f64 * 0.37).sin())
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn small_config() -> CirStagConfig {
        CirStagConfig {
            embedding_dim: 6,
            knn_k: 6,
            num_eigenpairs: 4,
            ..Default::default()
        }
    }

    #[test]
    fn plan_covers_every_node_once_and_halo_is_ring() {
        let g = grid(10);
        let assignment = quadrants(10);
        let emb = synth_embedding(100, 4);
        let plan = PartitionPlan::build(&g, None, &emb, &assignment, 4, 1).unwrap();
        assert_eq!(plan.views.len(), 4);
        let owned_total: usize = plan.views.iter().map(|v| v.owned_count).sum();
        assert_eq!(owned_total, 100);
        for view in &plan.views {
            // Local ids map back to ascending global ids.
            assert!(view.nodes.windows(2).all(|w| w[0] < w[1]));
            // Subgraph edges mirror the induced global edges.
            for e in view.subgraph.edges() {
                let (gu, gv) = (view.nodes[e.u], view.nodes[e.v]);
                assert_eq!(g.edge_weight(gu, gv), Some(e.weight));
            }
        }
    }

    #[test]
    fn leaf_fingerprints_localize_edits() {
        let g = grid(10);
        let assignment = quadrants(10);
        let emb = synth_embedding(100, 4);
        let base = PartitionPlan::build(&g, None, &emb, &assignment, 4, 1).unwrap();

        // Rescale one edge deep inside quadrant 0 (nodes 0 and 1 are in the
        // top-left quadrant, away from every other quadrant's halo).
        let edited = g.map_weights(|_, e| if e.u == 0 && e.v == 1 { 2.0 } else { e.weight });
        let after = PartitionPlan::build(&edited, None, &emb, &assignment, 4, 1).unwrap();
        assert_ne!(base.root, after.root);
        let changed: Vec<u32> = base
            .views
            .iter()
            .zip(&after.views)
            .filter(|(a, b)| a.leaf != b.leaf)
            .map(|(a, _)| a.id)
            .collect();
        assert_eq!(changed, vec![0], "edit must dirty exactly quadrant 0");
    }

    #[test]
    fn warm_partitioned_run_is_bit_identical_to_cold() {
        let g = grid(10);
        let assignment = quadrants(10);
        let emb = synth_embedding(100, 4);
        let cfg = small_config();

        let run = |cache| analyze_partitioned(&cfg, &g, None, &emb, &assignment, 4, 1, cache, None);
        let cold = run(None).unwrap();
        let cache = ArtifactCache::new();
        let first = run(Some(&cache)).unwrap();
        let warm = run(Some(&cache)).unwrap();

        assert_eq!(cold.node_scores, first.node_scores);
        assert_eq!(cold.node_scores, warm.node_scores);
        assert_eq!(cold.edge_scores, warm.edge_scores);
        assert_eq!(cold.root, warm.root);
        assert!(first.partitions.iter().all(|p| p.cache_misses > 0));
        assert!(
            warm.partitions
                .iter()
                .all(|p| p.cache_misses == 0 && p.cache_hits > 0),
            "fully warm run must replay every partition"
        );
        assert!(warm.recomputed().is_empty());

        // The deterministic export is byte-identical.
        let cold_json = EcoReportExport::from_report(&cold).to_json().unwrap();
        let warm_json = EcoReportExport::from_report(&warm).to_json().unwrap();
        assert_eq!(cold_json, warm_json);
    }

    #[test]
    fn one_quadrant_edit_recomputes_only_dirty_partitions() {
        let g = grid(10);
        let assignment = quadrants(10);
        let emb = synth_embedding(100, 4);
        let cfg = small_config();

        let run = |graph: &Graph, cache| {
            analyze_partitioned(&cfg, graph, None, &emb, &assignment, 4, 1, cache, None).unwrap()
        };
        let cache = ArtifactCache::new();
        run(&g, Some(&cache));

        // Edit deep inside quadrant 0.
        let edited = g.map_weights(|_, e| if e.u == 0 && e.v == 1 { 2.0 } else { e.weight });
        let warm = run(&edited, Some(&cache));
        assert_eq!(warm.recomputed(), vec![0], "only quadrant 0 recomputes");

        // And the spliced result matches a cold run of the edited design.
        let cold = run(&edited, None);
        assert_eq!(cold.node_scores, warm.node_scores);
        assert_eq!(cold.edge_scores, warm.edge_scores);
        let cold_json = EcoReportExport::from_report(&cold).to_json().unwrap();
        let warm_json = EcoReportExport::from_report(&warm).to_json().unwrap();
        assert_eq!(cold_json, warm_json);
    }

    #[test]
    fn plan_validation_is_typed() {
        let g = grid(6);
        let emb = synth_embedding(36, 4);
        let bad_len = vec![0u32; 10];
        assert!(PartitionPlan::build(&g, None, &emb, &bad_len, 1, 1).is_err());
        let assignment = quadrants(6);
        assert!(PartitionPlan::build(&g, None, &emb, &assignment, 0, 1).is_err());
        assert!(PartitionPlan::build(&g, None, &emb, &assignment, 4, 0).is_err());
        // Partition 7 referenced but only 4 declared.
        let mut rogue = assignment.clone();
        rogue[0] = 7;
        assert!(PartitionPlan::build(&g, None, &emb, &rogue, 4, 1).is_err());
        // Partition 3 owns nothing.
        let empty3: Vec<u32> = assignment.iter().map(|&a| a.min(2)).collect();
        assert!(PartitionPlan::build(&g, None, &emb, &empty3, 4, 1).is_err());
    }

    #[test]
    fn eco_export_roundtrips() {
        let g = grid(8);
        let assignment = quadrants(8);
        let emb = synth_embedding(64, 4);
        let cfg = small_config();
        let report =
            analyze_partitioned(&cfg, &g, None, &emb, &assignment, 4, 1, None, None).unwrap();
        let export = EcoReportExport::from_report(&report);
        let json = export.to_json().unwrap();
        let back = EcoReportExport::from_json(&json).unwrap();
        assert_eq!(back, export);
        assert!(EcoReportExport::from_json("nope").is_err());
    }
}
