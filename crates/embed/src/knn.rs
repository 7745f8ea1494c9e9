//! k-nearest-neighbor graph construction over embedding rows.

use crate::EmbedError;
use cirstag_graph::Graph;
use cirstag_linalg::{par, vecops, DenseMatrix};
use std::collections::BTreeMap;

/// Neighbor-search strategy for [`knn_graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnMethod {
    /// Exact all-pairs search, `O(n²·d)`. Use for < ~3k points or in tests.
    Exact,
    /// Approximate search with a forest of random-projection trees
    /// (annoy-style splits on the direction between two random points).
    /// `O(n log n)` construction, recall controlled by `num_trees`.
    RpForest {
        /// Number of trees; more trees = higher recall.
        num_trees: usize,
        /// Maximum leaf size; candidates are leaf co-members.
        leaf_size: usize,
    },
    /// Approximate search through a deterministic HNSW index
    /// ([`crate::HnswIndex`]): `O(n log n)` construction, per-query search
    /// parallelized over the pool. The method of choice at ≥ ~50k points.
    Hnsw {
        /// Max links per node on layers ≥ 1 (layer 0 allows `2m`).
        m: usize,
        /// Beam width while inserting; higher = better graph, slower build.
        ef_construction: usize,
        /// Query beam width; the effective beam is `max(ef_search, k + 1)`.
        ef_search: usize,
    },
}

impl KnnMethod {
    /// The default HNSW configuration ([`crate::HnswParams::default`]),
    /// balancing ≥ 0.95 recall@k against build cost for circuit embeddings.
    pub fn hnsw_default() -> KnnMethod {
        let p = crate::HnswParams::default();
        KnnMethod::Hnsw {
            m: p.m,
            ef_construction: p.ef_construction,
            ef_search: p.ef_search,
        }
    }

    /// The size-tiered neighbor search for `n` points: exact search up to
    /// 3000 points, a 6-tree rp-forest (leaf size 48) up to 50,000, and
    /// [`KnnMethod::hnsw_default`] above, where the rp-forest's candidate
    /// pools thin out and HNSW is both faster to query and holds its recall.
    pub fn auto(n: usize) -> KnnMethod {
        if n > 50_000 {
            KnnMethod::hnsw_default()
        } else if n > 3000 {
            KnnMethod::RpForest {
                num_trees: 6,
                leaf_size: 48,
            }
        } else {
            KnnMethod::Exact
        }
    }
}

/// Diagnostics from an approximate neighbor search: which method ran and
/// how large the achieved per-point candidate pools were, so downstream
/// reports can distinguish approximate runs from exact ones and judge their
/// recall headroom. `None` is returned for the exact method.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnStats {
    /// Method label: `"rp-forest"` or `"hnsw"`.
    pub method: &'static str,
    /// Neighbors requested per point.
    pub requested_k: usize,
    /// Smallest candidate pool any point saw before truncation to `k`.
    pub min_candidates: usize,
    /// Mean candidate-pool size across points.
    pub mean_candidates: f64,
}

impl KnnStats {
    fn from_pools(method: &'static str, requested_k: usize, pools: &[usize]) -> KnnStats {
        let min_candidates = pools.iter().copied().min().unwrap_or(0);
        let mean_candidates = if pools.is_empty() {
            0.0
        } else {
            pools.iter().sum::<usize>() as f64 / pools.len() as f64
        };
        KnnStats {
            method,
            requested_k,
            min_candidates,
            mean_candidates,
        }
    }
}

/// Options for [`knn_graph`].
#[derive(Debug, Clone, Copy)]
pub struct KnnConfig {
    /// Search strategy.
    pub method: KnnMethod,
    /// Seed for the deterministic random-projection splits.
    pub seed: u64,
    /// Small constant added to *median-normalized* squared distances before
    /// inversion, so duplicate points get a large-but-finite weight and the
    /// weight ratio across the graph stays bounded by `~1/ε` (keeping the
    /// manifold Laplacian well-conditioned for the solvers downstream).
    pub weight_epsilon: f64,
    /// When `true` (default), a minimum-spanning backbone over component
    /// representatives is added so the resulting manifold graph is connected
    /// — required by the effective-resistance machinery downstream.
    pub ensure_connected: bool,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            method: KnnMethod::Exact,
            seed: 0x6E4E,
            weight_epsilon: 1e-3,
            ensure_connected: true,
        }
    }
}

/// Builds the symmetrized kNN graph of the rows of `points`.
///
/// Edge `(p, q)` is present when `q` is among `p`'s `k` nearest neighbors
/// *or* vice versa, with weight `w_pq = 1 / (d²_pq / d²_med + ε)`, where
/// `d²_med` is the median squared neighbor distance. Up to the global
/// `d²_med` scaling this is the inverse-squared-distance weight for which
/// the PGM gradient identity of Eq. (7), `∂F₂/∂w_pq = ‖Xᵀe_pq‖² = 1/w_pq`,
/// holds; the scaling leaves the spectral-distortion scores `η = w·R^eff`
/// and all DMD rankings unchanged while keeping the manifold Laplacian
/// well-conditioned.
///
/// # Errors
///
/// Returns [`EmbedError::InvalidArgument`] when `k == 0`, `k ≥ n`, or the
/// input contains non-finite values.
pub fn knn_graph(points: &DenseMatrix, k: usize, config: &KnnConfig) -> Result<Graph, EmbedError> {
    knn_graph_with_stats(points, k, config).map(|(g, _)| g)
}

/// [`knn_graph`] plus the approximate-search diagnostics ([`KnnStats`],
/// `None` for [`KnnMethod::Exact`]) so callers can record that a run was
/// approximate and how much candidate headroom it had.
///
/// # Errors
///
/// Same contract as [`knn_graph`].
pub fn knn_graph_with_stats(
    points: &DenseMatrix,
    k: usize,
    config: &KnnConfig,
) -> Result<(Graph, Option<KnnStats>), EmbedError> {
    let n = points.nrows();
    if n == 0 {
        return Ok((Graph::new(0), None));
    }
    if k == 0 || k >= n {
        return Err(EmbedError::InvalidArgument {
            reason: format!("k = {k} must be in 1..{n}"),
        });
    }
    if !points.all_finite() {
        return Err(EmbedError::InvalidArgument {
            reason: "points contain non-finite values".to_string(),
        });
    }
    let (neighbor_lists, stats) = match config.method {
        KnnMethod::Exact => (exact_knn(points, k), None),
        KnnMethod::RpForest {
            num_trees,
            leaf_size,
        } => {
            let (lists, pools) = rp_forest_knn(
                points,
                k,
                num_trees.max(1),
                leaf_size.max(k + 1),
                config.seed,
            );
            let stats = KnnStats::from_pools("rp-forest", k, &pools);
            (lists, Some(stats))
        }
        KnnMethod::Hnsw {
            m,
            ef_construction,
            ef_search,
        } => {
            let (lists, pools) = hnsw_knn(points, k, m, ef_construction, ef_search, config.seed)?;
            let stats = KnnStats::from_pools("hnsw", k, &pools);
            (lists, Some(stats))
        }
    };

    // Median squared neighbor distance for scale normalization.
    let mut all_d2: Vec<f64> = neighbor_lists
        .iter()
        .flat_map(|l| l.iter().map(|&(_, d2)| d2))
        .filter(|&d2| d2 > 0.0)
        .collect();
    let med = if all_d2.is_empty() {
        1.0
    } else {
        let mid = all_d2.len() / 2;
        all_d2.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        all_d2[mid]
    };
    // Symmetrize as a union, deduplicating before insertion so the
    // parallel-edge merging of `Graph` does not double weights. A `BTreeMap`
    // keyed on `(min, max)` both deduplicates and yields the edges already in
    // the deterministic lexicographic order the graph is built in.
    let mut edges: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (p, list) in neighbor_lists.iter().enumerate() {
        for &(q, d2) in list {
            let key = if p < q { (p, q) } else { (q, p) };
            // Clamp the normalized distance so the weight range stays within
            // [~1e-2, 1/ε]: enough resolution for the η ranking, bounded
            // conditioning for the solvers.
            let x = (d2 / med).min(1e2);
            let w = 1.0 / (x + config.weight_epsilon);
            edges.entry(key).or_insert(w);
        }
    }
    let mut g = Graph::new(n);
    for ((u, v), w) in edges {
        g.add_edge(u, v, w)?;
    }

    if config.ensure_connected && !g.is_connected() {
        connect_components(&mut g, points, med, config.weight_epsilon)?;
    }
    Ok((g, stats))
}

/// Points per worker chunk in the exact search; large enough to amortize the
/// scratch buffer, small enough to load-balance across threads.
const EXACT_KNN_CHUNK: usize = 16;

fn exact_knn(points: &DenseMatrix, k: usize) -> Vec<Vec<(usize, f64)>> {
    let n = points.nrows();
    // Caching the squared row norms turns every pairwise distance into a
    // single dot product via ‖p − q‖² = ‖p‖² + ‖q‖² − 2 p·q, cutting the
    // inner-loop flops by a third and skipping the per-pair difference
    // buffer. Floating-point cancellation can push the identity slightly
    // negative for near-duplicate rows, so clamp at zero.
    let norms: Vec<f64> = (0..n)
        .map(|p| vecops::dot(points.row(p), points.row(p)))
        .collect();
    let mut lists: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    // Each point's neighbor list is independent of every other point's, so
    // chunks of points fan out across the thread pool; slot `p` always holds
    // point `p`'s list, keeping the result thread-count-invariant. Chunking
    // (rather than one task per point) lets each worker reuse a single
    // length-`n` distance scratch buffer across all its queries instead of
    // allocating one per point.
    par::chunks_mut(&mut lists, EXACT_KNN_CHUNK, |chunk_idx, chunk| {
        let base = chunk_idx * EXACT_KNN_CHUNK;
        let mut dists: Vec<(usize, f64)> = Vec::with_capacity(n);
        for (offset, slot) in chunk.iter_mut().enumerate() {
            let p = base + offset;
            let rp = points.row(p);
            dists.clear();
            for q in 0..n {
                if q == p {
                    continue;
                }
                let d2 = (norms[p] + norms[q] - 2.0 * vecops::dot(rp, points.row(q))).max(0.0);
                dists.push((q, d2));
            }
            // Select the k nearest in O(n), then order just those k.
            if dists.len() > k {
                dists.select_nth_unstable_by(k - 1, |a, b| a.1.total_cmp(&b.1));
                dists.truncate(k);
            }
            dists.sort_by(|a, b| a.1.total_cmp(&b.1));
            slot.extend_from_slice(&dists);
        }
    });
    lists
}

pub(crate) struct Splitter {
    state: u64,
}

impl Splitter {
    pub(crate) fn new(seed: u64) -> Self {
        Splitter {
            state: seed ^ 0x9e37_79b9_7f4a_7c15 | 1,
        }
    }
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn pick(&mut self, n: usize) -> usize {
        // cirstag-lint: allow(cast-truncation) -- usize -> u64 is lossless on 64-bit hosts; the modulo keeps the draw in 0..n, back within usize
        (self.next_u64() % n as u64) as usize
    }
}

/// Recursively partitions `items` by annoy-style hyperplanes; leaves become
/// candidate pools.
fn rp_split(
    points: &DenseMatrix,
    items: &mut Vec<usize>,
    leaf_size: usize,
    rng: &mut Splitter,
    leaves: &mut Vec<Vec<usize>>,
    depth: usize,
) {
    if items.len() <= leaf_size || depth > 40 {
        leaves.push(std::mem::take(items));
        return;
    }
    // Direction between two random distinct points.
    let a = items[rng.pick(items.len())];
    let mut b = items[rng.pick(items.len())];
    let mut guard = 0;
    while b == a && guard < 8 {
        b = items[rng.pick(items.len())];
        guard += 1;
    }
    if a == b {
        leaves.push(std::mem::take(items));
        return;
    }
    let dir: Vec<f64> = points
        .row(a)
        .iter()
        .zip(points.row(b))
        .map(|(x, y)| x - y)
        .collect();
    let mut proj: Vec<(usize, f64)> = items
        .iter()
        .map(|&i| (i, vecops::dot(points.row(i), &dir)))
        .collect();
    proj.sort_by(|x, y| x.1.total_cmp(&y.1));
    let mid = proj.len() / 2;
    if mid == 0 || mid == proj.len() {
        leaves.push(std::mem::take(items));
        return;
    }
    let mut left: Vec<usize> = proj[..mid].iter().map(|&(i, _)| i).collect();
    let mut right: Vec<usize> = proj[mid..].iter().map(|&(i, _)| i).collect();
    items.clear();
    rp_split(points, &mut left, leaf_size, rng, leaves, depth + 1);
    rp_split(points, &mut right, leaf_size, rng, leaves, depth + 1);
}

/// Points per worker chunk in the HNSW query fan-out. Sized from `n` alone
/// (never from the thread count, which would be a determinism hazard even
/// though chunking only groups scratch reuse): large enough to amortize the
/// per-chunk scratch, small enough to load-balance.
fn hnsw_chunk_len(n: usize) -> usize {
    (n / 64).clamp(16, 4096)
}

/// Builds a deterministic HNSW index serially, then fans the per-point
/// queries out across the pool: slot `p` always holds point `p`'s list, and
/// each worker chunk reuses one [`crate::HnswScratch`], so results are
/// bit-identical at any thread count and warmed searches allocate nothing.
/// Returns the neighbor lists and the per-point achieved candidate-pool
/// sizes.
#[allow(clippy::type_complexity)]
fn hnsw_knn(
    points: &DenseMatrix,
    k: usize,
    m: usize,
    ef_construction: usize,
    ef_search: usize,
    seed: u64,
) -> Result<(Vec<Vec<(usize, f64)>>, Vec<usize>), EmbedError> {
    let n = points.nrows();
    let params = crate::HnswParams {
        m,
        ef_construction,
        ef_search,
    };
    let index = crate::HnswIndex::build(points, &params, seed)?;
    let ef = ef_search.max(k + 1);
    let chunk_len = hnsw_chunk_len(n);
    let mut slots: Vec<(Vec<(usize, f64)>, usize)> = vec![(Vec::new(), 0); n];
    par::chunks_mut(&mut slots, chunk_len, |chunk_idx, chunk| {
        let base = chunk_idx * chunk_len;
        let mut scratch = index.scratch();
        for (offset, slot) in chunk.iter_mut().enumerate() {
            let p = base + offset;
            slot.0.reserve(k);
            slot.1 = index.knn_into(points, p, k, ef, &mut scratch, &mut slot.0);
        }
    });
    Ok(slots.into_iter().unzip())
}

fn rp_forest_knn(
    points: &DenseMatrix,
    k: usize,
    num_trees: usize,
    leaf_size: usize,
    seed: u64,
) -> (Vec<Vec<(usize, f64)>>, Vec<usize>) {
    let n = points.nrows();
    // Trees are seeded independently, so they build in parallel; the leaf
    // sets are then merged serially in tree order. Per-point candidate lists
    // end up identical to the serial construction because each point's list
    // is sorted and deduplicated before ranking.
    let per_tree_leaves: Vec<Vec<Vec<usize>>> = par::map_indexed(num_trees, |t| {
        // cirstag-lint: allow(cast-truncation) -- tree index: a small loop counter, lossless usize -> u64 on 64-bit hosts
        let mut rng = Splitter::new(seed.wrapping_add(t as u64 * 0x1234_5677));
        let mut all: Vec<usize> = (0..n).collect();
        let mut leaves = Vec::new();
        rp_split(points, &mut all, leaf_size, &mut rng, &mut leaves, 0);
        leaves
    });
    let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); n];
    for leaves in per_tree_leaves {
        for leaf in leaves {
            for &i in &leaf {
                for &j in &leaf {
                    if i != j {
                        candidates[i].push(j);
                    }
                }
            }
        }
    }
    let ranked: Vec<(Vec<(usize, f64)>, usize)> = par::map_indexed(n, |p| {
        let mut cand = candidates[p].clone();
        cand.sort_unstable();
        cand.dedup();
        let pool = cand.len();
        let mut dists = rank_candidates(points, p, &cand);
        dists.truncate(k);
        (dists, pool)
    });
    ranked.into_iter().unzip()
}

/// Scores `cand` against point `p` and sorts ascending by
/// `(squared distance, id)`.
fn rank_candidates(points: &DenseMatrix, p: usize, cand: &[usize]) -> Vec<(usize, f64)> {
    let rp = points.row(p);
    let mut dists: Vec<(usize, f64)> = Vec::with_capacity(cand.len());
    let mut quads = cand.chunks_exact(4);
    for quad in &mut quads {
        let &[q0, q1, q2, q3] = quad else {
            continue; // unreachable: chunks_exact(4) yields length-4 slices
        };
        let d4 = vecops::dist2_sq4(
            rp,
            [
                points.row(q0),
                points.row(q1),
                points.row(q2),
                points.row(q3),
            ],
        );
        for (&q, &d2) in quad.iter().zip(&d4) {
            dists.push((q, d2));
        }
    }
    for &q in quads.remainder() {
        dists.push((q, vecops::dist2_sq(rp, points.row(q))));
    }
    dists.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    dists
}

/// Adds a minimum-spanning backbone over component representatives so the
/// graph becomes connected. Representatives are the first node of each
/// component; backbone edges get the usual inverse-squared-distance weight.
fn connect_components(
    g: &mut Graph,
    points: &DenseMatrix,
    med: f64,
    eps: f64,
) -> Result<(), EmbedError> {
    let labels = cirstag_graph::connected_components(g);
    let num_comps = labels.iter().copied().max().map_or(0, |m| m + 1);
    if num_comps <= 1 {
        return Ok(());
    }
    let mut reps: Vec<usize> = vec![usize::MAX; num_comps];
    for (node, &c) in labels.iter().enumerate() {
        if reps[c] == usize::MAX {
            reps[c] = node;
        }
    }
    // Prim's over the complete representative graph (num_comps is small).
    let mut in_tree = vec![false; num_comps];
    if let Some(seed_slot) = in_tree.first_mut() {
        *seed_slot = true;
    }
    for _ in 1..num_comps {
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..num_comps {
            if !in_tree[a] {
                continue;
            }
            for b in 0..num_comps {
                if in_tree[b] {
                    continue;
                }
                let d2 = vecops::dist2_sq(points.row(reps[a]), points.row(reps[b]));
                if best.is_none_or(|(_, _, bd)| d2 < bd) {
                    best = Some((a, b, d2));
                }
            }
        }
        // Prim's invariant guarantees a frontier edge exists while any
        // component is outside the tree; if that ever breaks, stop adding
        // backbone edges rather than panic mid-pipeline.
        let Some((a, b, d2)) = best else { break };
        g.add_edge(reps[a], reps[b], 1.0 / ((d2 / med).min(1e2) + eps))?;
        in_tree[b] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on a line: 0, 1, 2, ..., n-1.
    fn line_points(n: usize) -> DenseMatrix {
        DenseMatrix::from_rows(&(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn exact_knn_on_line_links_neighbors() {
        let pts = line_points(6);
        let g = knn_graph(&pts, 1, &KnnConfig::default()).unwrap();
        // Every node links to an adjacent node; union symmetrization keeps
        // the chain connected.
        assert!(g.is_connected());
        assert!(g.edge_weight(0, 1).is_some());
        assert!(g.edge_weight(0, 2).is_none());
    }

    #[test]
    fn weight_ratios_follow_inverse_squared_distance() {
        let pts = DenseMatrix::from_rows(&[vec![0.0], vec![2.0], vec![10.0]]).unwrap();
        let cfg = KnnConfig {
            weight_epsilon: 0.0,
            ensure_connected: false,
            ..KnnConfig::default()
        };
        let g = knn_graph(&pts, 1, &cfg).unwrap();
        // d²(0,1) = 4 and d²(1,2) = 64: the weight ratio must be 16
        // regardless of the median normalization.
        let ratio = g.edge_weight(0, 1).unwrap() / g.edge_weight(1, 2).unwrap();
        assert!((ratio - 16.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn duplicate_points_get_finite_weight() {
        let pts = DenseMatrix::from_rows(&[vec![1.0], vec![1.0], vec![5.0]]).unwrap();
        let g = knn_graph(&pts, 1, &KnnConfig::default()).unwrap();
        let w = g.edge_weight(0, 1).unwrap();
        // Duplicates hit the ε floor: weight ≈ 1/ε, large but bounded.
        assert!(w.is_finite() && w > 100.0);
    }

    #[test]
    fn invalid_k_rejected() {
        let pts = line_points(4);
        assert!(knn_graph(&pts, 0, &KnnConfig::default()).is_err());
        assert!(knn_graph(&pts, 4, &KnnConfig::default()).is_err());
    }

    #[test]
    fn non_finite_points_rejected() {
        let pts = DenseMatrix::from_rows(&[vec![0.0], vec![f64::NAN]]).unwrap();
        assert!(knn_graph(&pts, 1, &KnnConfig::default()).is_err());
    }

    #[test]
    fn two_clusters_connected_by_backbone() {
        // Two well-separated clusters with k=1: disconnected without the
        // backbone, connected with it.
        let mut rows = Vec::new();
        for i in 0..4 {
            rows.push(vec![i as f64 * 0.01, 0.0]);
        }
        for i in 0..4 {
            rows.push(vec![100.0 + i as f64 * 0.01, 0.0]);
        }
        let pts = DenseMatrix::from_rows(&rows).unwrap();
        let disconnected = knn_graph(
            &pts,
            1,
            &KnnConfig {
                ensure_connected: false,
                ..KnnConfig::default()
            },
        )
        .unwrap();
        assert!(!disconnected.is_connected());
        let connected = knn_graph(&pts, 1, &KnnConfig::default()).unwrap();
        assert!(connected.is_connected());
    }

    #[test]
    fn rp_forest_matches_exact_on_small_input() {
        // With enough trees on a tiny input, recall should be perfect.
        let pts = line_points(30);
        let exact = knn_graph(
            &pts,
            2,
            &KnnConfig {
                ensure_connected: false,
                ..KnnConfig::default()
            },
        )
        .unwrap();
        let approx = knn_graph(
            &pts,
            2,
            &KnnConfig {
                method: KnnMethod::RpForest {
                    num_trees: 8,
                    leaf_size: 8,
                },
                ensure_connected: false,
                ..KnnConfig::default()
            },
        )
        .unwrap();
        // Recall: fraction of exact edges recovered.
        let mut hit = 0;
        for e in exact.edges() {
            if approx.edge_weight(e.u, e.v).is_some() {
                hit += 1;
            }
        }
        let recall = hit as f64 / exact.num_edges() as f64;
        assert!(recall >= 0.9, "recall {recall}");
    }

    #[test]
    fn rp_forest_scales_and_stays_connected() {
        // 2-D grid of points; approximate kNN + backbone must be connected.
        let mut rows = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        let pts = DenseMatrix::from_rows(&rows).unwrap();
        let g = knn_graph(
            &pts,
            4,
            &KnnConfig {
                method: KnnMethod::RpForest {
                    num_trees: 6,
                    leaf_size: 16,
                },
                ..KnnConfig::default()
            },
        )
        .unwrap();
        assert!(g.is_connected());
        assert!(g.num_edges() >= 400); // at least ~kn/2 edges
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = line_points(40);
        let cfg = KnnConfig {
            method: KnnMethod::RpForest {
                num_trees: 4,
                leaf_size: 8,
            },
            ..KnnConfig::default()
        };
        let a = knn_graph(&pts, 3, &cfg).unwrap();
        let b = knn_graph(&pts, 3, &cfg).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!((ea.u, ea.v), (eb.u, eb.v));
        }
    }

    #[test]
    fn hnsw_matches_exact_on_small_input() {
        let pts = line_points(60);
        let plain = KnnConfig {
            ensure_connected: false,
            ..KnnConfig::default()
        };
        let exact = knn_graph(&pts, 2, &plain).unwrap();
        let approx = knn_graph(
            &pts,
            2,
            &KnnConfig {
                method: KnnMethod::hnsw_default(),
                ..plain
            },
        )
        .unwrap();
        let mut hit = 0;
        for e in exact.edges() {
            if approx.edge_weight(e.u, e.v).is_some() {
                hit += 1;
            }
        }
        let recall = hit as f64 / exact.num_edges() as f64;
        assert!(recall >= 0.95, "recall {recall}");
    }

    #[test]
    fn stats_identify_approximate_methods() {
        let pts = line_points(40);
        let (_, stats) = knn_graph_with_stats(&pts, 3, &KnnConfig::default()).unwrap();
        assert!(stats.is_none(), "exact search must report no stats");
        let (_, stats) = knn_graph_with_stats(
            &pts,
            3,
            &KnnConfig {
                method: KnnMethod::hnsw_default(),
                ..KnnConfig::default()
            },
        )
        .unwrap();
        let stats = stats.unwrap();
        assert_eq!(stats.method, "hnsw");
        assert_eq!(stats.requested_k, 3);
        // ef_search bounds the pool; every point must surface ≥ k candidates.
        assert!(stats.min_candidates >= 3, "{stats:?}");
        assert!(stats.mean_candidates >= stats.min_candidates as f64);
        let (_, stats) = knn_graph_with_stats(
            &pts,
            3,
            &KnnConfig {
                method: KnnMethod::RpForest {
                    num_trees: 4,
                    leaf_size: 8,
                },
                ..KnnConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stats.unwrap().method, "rp-forest");
    }

    #[test]
    fn hnsw_deterministic_given_seed() {
        let pts = line_points(80);
        let cfg = KnnConfig {
            method: KnnMethod::hnsw_default(),
            ..KnnConfig::default()
        };
        let a = knn_graph(&pts, 3, &cfg).unwrap();
        let b = knn_graph(&pts, 3, &cfg).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!((ea.u, ea.v), (eb.u, eb.v));
            assert_eq!(ea.weight.to_bits(), eb.weight.to_bits());
        }
    }

    #[test]
    fn auto_tiers_by_point_count() {
        let forest = KnnMethod::RpForest {
            num_trees: 6,
            leaf_size: 48,
        };
        assert_eq!(KnnMethod::auto(3000), KnnMethod::Exact);
        assert_eq!(KnnMethod::auto(3001), forest);
        assert_eq!(KnnMethod::auto(50_000), forest);
        assert_eq!(KnnMethod::auto(50_001), KnnMethod::hnsw_default());
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let pts = DenseMatrix::zeros(0, 0);
        let g = knn_graph(&pts, 1, &KnnConfig::default()).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }
}
