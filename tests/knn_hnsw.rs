//! HNSW neighbor-index invariants at the integration level.
//!
//! Three contracts from the approximate-NN design:
//!
//! 1. **Recall floor** — on both uniform and clustered point sets (up to
//!    2k points), the index's neighbor lists recover at least 95% of the
//!    true k-nearest neighbors at the default search beam.
//! 2. **Thread-count independence** — the Phase-2 graph built through
//!    `KnnMethod::Hnsw` is bit-identical at 1, 2 and 8 worker threads:
//!    construction is serial and the parallel query fan-out is slot-stable.
//! 3. **Warm/cold cache identity** — a full pipeline run under the HNSW
//!    backend replayed from a shared on-disk artifact cache (a stand-in for
//!    a second process) reproduces the fresh run bit for bit.
//!
//! The thread-count and cache checks share one `#[test]` because the worker
//! pool is process-global; the recall property does not depend on the pool
//! size, so it can run alongside.

use cirstag_suite::core::{ArtifactCache, CirStag, CirStagConfig};
use cirstag_suite::embed::{HnswIndex, HnswParams, KnnMethod};
use cirstag_suite::graph::Graph;
use cirstag_suite::linalg::{par, vecops, DenseMatrix};
use proptest::prelude::*;

/// Brute-force k-nearest neighbors of `q` (self excluded), ordered by
/// `(distance, id)` — the same total order the index uses.
fn exact_knn_ids(points: &DenseMatrix, q: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<(f64, usize)> = (0..points.nrows())
        .filter(|&p| p != q)
        .map(|p| (vecops::dist2_sq(points.row(q), points.row(p)), p))
        .collect();
    all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(k);
    all.into_iter().map(|(_, p)| p).collect()
}

/// Fraction of true k-nearest neighbors the index recovers across all
/// queries.
fn hnsw_recall(points: &DenseMatrix, k: usize) -> f64 {
    let params = HnswParams::default();
    let index = HnswIndex::build(points, &params, 0xACE5).expect("hnsw build");
    let mut scratch = index.scratch();
    let mut out = Vec::with_capacity(k + 1);
    let mut hits = 0usize;
    let n = points.nrows();
    for q in 0..n {
        let truth = exact_knn_ids(points, q, k);
        index.knn_into(points, q, k, params.ef_search, &mut scratch, &mut out);
        hits += truth
            .iter()
            .filter(|t| out.iter().any(|&(p, _)| p == **t))
            .count();
    }
    hits as f64 / (n * k) as f64
}

fn uniform_points(n: usize, dim: usize, seed: u64) -> DenseMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let data: Vec<f64> = (0..n * dim).map(|_| next()).collect();
    DenseMatrix::from_vec(n, dim, data).expect("points")
}

/// Points drawn around a handful of well-separated cluster centers — the
/// adversarial shape for graph-based indexes (inter-cluster hops are rare).
fn clustered_points(n: usize, dim: usize, clusters: usize, seed: u64) -> DenseMatrix {
    let centers = uniform_points(clusters, dim, seed ^ 0xC0FFEE);
    let noise = uniform_points(n, dim, seed);
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = centers.row(i % clusters);
        let w = noise.row(i);
        for d in 0..dim {
            data.push(10.0 * c[d] + 0.3 * w[d]);
        }
    }
    DenseMatrix::from_vec(n, dim, data).expect("clustered points")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn recall_floor_on_uniform_sets(
        n in 150usize..1200,
        dim in 2usize..5,
        seed in 1u64..1_000_000_000,
    ) {
        let points = uniform_points(n, dim, seed);
        let recall = hnsw_recall(&points, 10);
        prop_assert!(recall >= 0.95, "uniform recall {recall:.3} < 0.95 (n={n}, dim={dim})");
    }

    #[test]
    fn recall_floor_on_clustered_sets(
        n in 150usize..2000,
        clusters in 3usize..8,
        seed in 1u64..1_000_000_000,
    ) {
        let points = clustered_points(n, 3, clusters, seed);
        let recall = hnsw_recall(&points, 10);
        prop_assert!(
            recall >= 0.95,
            "clustered recall {recall:.3} < 0.95 (n={n}, clusters={clusters})"
        );
    }
}

fn ring_graph(n: usize) -> Graph {
    let edges: Vec<(usize, usize, f64)> = (0..n)
        .map(|i| (i, (i + 1) % n, 1.0 + (i % 3) as f64 * 0.25))
        .collect();
    Graph::from_edges(n, &edges).expect("ring")
}

fn hnsw_config(threads: usize) -> CirStagConfig {
    let mut config = CirStagConfig {
        embedding_dim: 8,
        knn_k: 6,
        num_eigenpairs: 5,
        num_threads: threads,
        ..Default::default()
    };
    config.knn.method = KnnMethod::hnsw_default();
    config
}

/// Edge list of the HNSW-built Phase-2 kNN graph as raw bits.
fn knn_edge_bits(points: &DenseMatrix, threads: usize) -> Vec<(usize, usize, u64)> {
    par::set_num_threads(threads);
    let config = hnsw_config(threads);
    let graph = cirstag_suite::embed::knn_graph(points, 6, &config.knn).expect("hnsw knn graph");
    graph
        .edges()
        .iter()
        .map(|e| (e.u, e.v, e.weight.to_bits()))
        .collect()
}

#[test]
fn hnsw_pipeline_is_thread_count_and_cache_invariant() {
    let n = 600;
    let points = uniform_points(n, 6, 0xD15C);

    // --- bit-identity across worker-pool sizes -----------------------------
    let base = knn_edge_bits(&points, 1);
    for threads in [2usize, 8] {
        let other = knn_edge_bits(&points, threads);
        assert_eq!(base, other, "HNSW graph diverged at {threads} threads");
    }
    par::set_num_threads(0);

    // --- warm/cold identity through a shared disk cache --------------------
    // Two cache instances over one directory model two processes: the first
    // populates the disk layer, the second replays from it having computed
    // nothing. Both must reproduce the uncached run exactly.
    let g = ring_graph(n);
    let emb = uniform_points(n, 6, 0xE7A9);
    let dir = std::env::temp_dir().join(format!("cirstag-hnsw-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let fresh = CirStag::new(hnsw_config(0))
        .analyze(&g, None, &emb)
        .expect("uncached run");
    let cold_cache = ArtifactCache::new().with_disk_dir(&dir);
    let cold = CirStag::new(hnsw_config(0))
        .analyze_cached(&g, None, &emb, &cold_cache, None)
        .expect("cold cached run");
    let warm_cache = ArtifactCache::new().with_disk_dir(&dir);
    let warm = CirStag::new(hnsw_config(0))
        .analyze_cached(&g, None, &emb, &warm_cache, None)
        .expect("warm cached run");
    let _ = std::fs::remove_dir_all(&dir);

    let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&fresh.node_scores), bits(&cold.node_scores));
    assert_eq!(bits(&cold.node_scores), bits(&warm.node_scores));
    assert_eq!(bits(&cold.eigenvalues), bits(&warm.eigenvalues));
    // The warm run replayed everything, so its diagnostics must carry the
    // replay markers and the same approximate-kNN bookkeeping.
    assert!(
        warm.diagnostics
            .cache
            .iter()
            .any(|r| r.status == "replayed"),
        "warm run should have replayed cached stages"
    );
    assert_eq!(
        cold.diagnostics.approx_knn.len(),
        warm.diagnostics.approx_knn.len(),
        "replayed runs must restore the approximate-kNN records"
    );
    assert!(
        cold.diagnostics
            .approx_knn
            .iter()
            .all(|r| r.method == "hnsw"),
        "both manifold stages should report the hnsw backend"
    );
}
