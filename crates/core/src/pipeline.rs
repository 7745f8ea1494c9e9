//! The three-phase CirSTAG pipeline (Algorithm 1 of the paper).
//!
//! The phases themselves are implemented as typed stages executed by the
//! [`crate::engine`] module; this module holds the public configuration,
//! report types, and the [`CirStag`] entry points ([`CirStag::analyze`]
//! and [`CirStag::analyze_cached`]; the partition-scoped
//! [`crate::analyze_partitioned`] lives in [`crate::engine::eco`]).

use crate::engine::{self, ArtifactCache};
use crate::{CancelToken, CirStagError, FailurePolicy, RunDiagnostics};
use cirstag_embed::{KnnConfig, SpectralConfig};
use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;
use cirstag_pgm::PgmConfig;
use std::time::Duration;

/// Configuration for the [`CirStag`] analyzer.
#[derive(Debug, Clone, Copy)]
pub struct CirStagConfig {
    /// Input spectral-embedding dimension `M` (Eq. 4).
    pub embedding_dim: usize,
    /// `k` for the dense kNN graphs of Phase 2.
    pub knn_k: usize,
    /// kNN construction options (method, connectivity backbone, …).
    pub knn: KnnConfig,
    /// PGM sparsification options (Phase 2).
    pub pgm: PgmConfig,
    /// Number of generalized eigenpairs `s` for the DMD subspace (Phase 3).
    pub num_eigenpairs: usize,
    /// Weight for concatenating node features onto the input embedding.
    /// The default `0.0` is the paper's Eq. 4 — structure-only input
    /// manifold; feature perturbation sensitivity enters through the GNN's
    /// output embeddings. (Empirically, letting features dominate the input
    /// manifold *degrades* the instability ranking — see EXPERIMENTS.md.)
    pub feature_weight: f64,
    /// Ablation (paper Fig. 4): skip Phase-1 dimensionality reduction and
    /// use the raw circuit graph as the input manifold.
    pub skip_dimension_reduction: bool,
    /// Ablation: keep the dense kNN graphs as manifolds (skip the PGM
    /// sparsification of Phase 2).
    pub skip_manifold_sparsification: bool,
    /// Ablation (A1): prune the kNN graphs to the same budget but with
    /// uniformly random edge selection instead of the η criterion of Eq. 8.
    pub random_prune: bool,
    /// Eigensolver options for the spectral embedding.
    pub spectral: SpectralConfig,
    /// Lanczos budget for the Phase-3 generalized eigensolver.
    pub geig_max_iter: usize,
    /// Master seed, XOR-mixed into every stochastic stage (spectral start
    /// vectors, kNN projection trees, tree/sketch randomness, Phase-3
    /// Lanczos). The default `0` leaves each sub-config's own seed in
    /// effect; any nonzero value re-randomizes the whole pipeline at once.
    pub seed: u64,
    /// Worker-thread count for the parallel execution layer (kNN queries,
    /// resistance sketching, dense matmul, DMD edge scoring). `0` (the
    /// default) uses all available cores; `1` forces serial execution;
    /// larger values may oversubscribe the machine. Results are bit-identical
    /// for every setting — parallelism never changes reduction order, and
    /// the artifact cache therefore excludes the thread count from its keys.
    pub num_threads: usize,
    /// What to do when a stage fails: fail fast ([`FailurePolicy::Strict`],
    /// the default and historical behavior) or climb the fallback ladders and
    /// finish degraded ([`FailurePolicy::BestEffort`]).
    pub policy: FailurePolicy,
}

impl Default for CirStagConfig {
    fn default() -> Self {
        CirStagConfig {
            embedding_dim: 10,
            knn_k: 10,
            knn: KnnConfig::default(),
            pgm: PgmConfig::default(),
            num_eigenpairs: 10,
            feature_weight: 0.0,
            skip_dimension_reduction: false,
            skip_manifold_sparsification: false,
            random_prune: false,
            spectral: SpectralConfig::default(),
            geig_max_iter: 80,
            seed: 0,
            num_threads: 0,
            policy: FailurePolicy::Strict,
        }
    }
}

/// Wall-clock timings of the three phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Phase 1: embeddings.
    pub phase1: Duration,
    /// Phase 2: manifold (PGM) construction.
    pub phase2: Duration,
    /// Phase 3: generalized eigenproblem + scores.
    pub phase3: Duration,
    /// Worker-thread count the analysis ran with (`1` = serial build or
    /// serial configuration).
    pub threads: usize,
    /// Stages replayed from the artifact cache (`0` for uncached runs).
    pub cache_hits: usize,
    /// Stages that had to compute (`0` for uncached runs).
    pub cache_misses: usize,
}

impl PhaseTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.phase1 + self.phase2 + self.phase3
    }

    /// Human-readable per-stage timing report, e.g.
    /// `phase1 12.3ms | phase2 45.6ms | phase3 7.8ms | total 65.7ms | 4 threads`.
    /// Cache-backed runs append `| cache 4 hits / 1 miss`.
    pub fn summary(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut s = format!(
            "phase1 {:.1}ms | phase2 {:.1}ms | phase3 {:.1}ms | total {:.1}ms | {} thread{}",
            ms(self.phase1),
            ms(self.phase2),
            ms(self.phase3),
            ms(self.total()),
            self.threads.max(1),
            if self.threads == 1 { "" } else { "s" },
        );
        if self.cache_hits + self.cache_misses > 0 {
            s.push_str(&format!(
                " | cache {} hit{} / {} miss{}",
                self.cache_hits,
                if self.cache_hits == 1 { "" } else { "s" },
                self.cache_misses,
                if self.cache_misses == 1 { "" } else { "es" },
            ));
        }
        s
    }
}

/// Output of a CirSTAG analysis.
#[derive(Debug, Clone)]
pub struct StabilityReport {
    /// Per-node stability score (Eq. 9) — larger means more unstable.
    pub node_scores: Vec<f64>,
    /// Per-edge DMD scores `(p, q, ‖V_sᵀe_pq‖²)` over the input manifold.
    pub edge_scores: Vec<(usize, usize, f64)>,
    /// The `s` largest generalized eigenvalues `ζ₁ ≥ … ≥ ζ_s` of `L_Y⁺L_X`.
    pub eigenvalues: Vec<f64>,
    /// The learned input manifold `G_X`.
    pub input_manifold: Graph,
    /// The learned output manifold `G_Y`.
    pub output_manifold: Graph,
    /// Phase timings (Fig. 5 scalability data).
    pub timings: PhaseTimings,
    /// `true` when any fallback rung fired during the analysis — the scores
    /// are usable but were produced by a degraded (retry/dense/pruned) path.
    /// Always `false` under [`FailurePolicy::Strict`], which errors instead.
    /// A cache hit replays the cold run's events, so a warm run is degraded
    /// exactly when the run that populated the cache was.
    pub degraded: bool,
    /// Fallback events and non-fatal warnings recorded during the run.
    pub diagnostics: RunDiagnostics,
}

impl StabilityReport {
    /// Node indices sorted most-unstable first.
    pub fn ranking(&self) -> Vec<usize> {
        crate::rank_descending(&self.node_scores)
    }
}

/// The CirSTAG analyzer.
///
/// Construct once with a [`CirStagConfig`] and call
/// [`CirStag::analyze`] per (graph, embedding) pair; the analyzer is
/// stateless across calls and fully deterministic in its seed.
#[derive(Debug, Clone, Default)]
pub struct CirStag {
    config: CirStagConfig,
}

impl CirStag {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: CirStagConfig) -> Self {
        CirStag { config }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &CirStagConfig {
        &self.config
    }

    /// Runs Algorithm 1.
    ///
    /// * `input_graph` — the circuit graph `G` (pins or gates as nodes).
    /// * `node_features` — optional per-node features (e.g. pin
    ///   capacitances); concatenated onto the input embedding with
    ///   [`CirStagConfig::feature_weight`].
    /// * `output_embedding` — the GNN's node embeddings `Y` (rows = nodes).
    ///
    /// # Errors
    ///
    /// - [`CirStagError::InvalidArgument`] on dimension mismatches or
    ///   degenerate sizes (fewer than 4 nodes).
    /// - Propagates failures from the embedding, PGM and eigensolver stages.
    pub fn analyze(
        &self,
        input_graph: &Graph,
        node_features: Option<&DenseMatrix>,
        output_embedding: &DenseMatrix,
    ) -> Result<StabilityReport, CirStagError> {
        engine::run_pipeline(
            &self.config,
            input_graph,
            node_features,
            output_embedding,
            None,
            None,
            None,
        )
    }

    /// Runs Algorithm 1 against an [`ArtifactCache`]: stages whose
    /// fingerprints match a cached entry replay the stored artifact and
    /// diagnostics segment instead of recomputing, bit-identically to the
    /// cold run that populated the cache. The report's
    /// [`PhaseTimings::cache_hits`]/[`PhaseTimings::cache_misses`] and
    /// [`RunDiagnostics::cache`] record what was replayed.
    ///
    /// The cache may be shared by any number of concurrent runs (the
    /// `cirstag serve` workers share one). When two runs miss the same
    /// fingerprint at once, exactly one computes while the others block and
    /// then replay its stored segment, so warm results stay bit-identical to
    /// the cold run no matter how runs interleave. A sweep over configs is
    /// a loop over this call with one cache: artifacts the varying knobs do
    /// not reach (the Phase-1 embedding and Phase-2 manifolds of a
    /// `num_eigenpairs` sweep) compute once and replay thereafter.
    ///
    /// `cancel`, when given, is polled at every stage boundary: an explicit
    /// [`CancelToken::cancel`] or an expired deadline stops the run with
    /// [`CirStagError::Cancelled`]. See [`CancelToken`] for the latency
    /// bound.
    ///
    /// # Errors
    ///
    /// Same as [`CirStag::analyze`], plus [`CirStagError::Cancelled`] when
    /// the token fires. Cache I/O never fails an analysis.
    pub fn analyze_cached(
        &self,
        input_graph: &Graph,
        node_features: Option<&DenseMatrix>,
        output_embedding: &DenseMatrix,
        cache: &ArtifactCache,
        cancel: Option<&CancelToken>,
    ) -> Result<StabilityReport, CirStagError> {
        engine::run_pipeline(
            &self.config,
            input_graph,
            node_features,
            output_embedding,
            Some(cache),
            cancel,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        Graph::from_edges(
            n,
            &(0..n).map(|i| (i, (i + 1) % n, 1.0)).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    /// An embedding that maps the ring to a circle but violently stretches a
    /// contiguous block of nodes — those nodes should score unstable.
    fn distorted_embedding(n: usize, hot: std::ops::Range<usize>) -> DenseMatrix {
        DenseMatrix::from_rows(
            &(0..n)
                .map(|i| {
                    let t = i as f64 / n as f64 * std::f64::consts::TAU;
                    let stretch = if hot.contains(&i) { 12.0 } else { 1.0 };
                    vec![stretch * t.cos(), stretch * t.sin()]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn small_config() -> CirStagConfig {
        CirStagConfig {
            embedding_dim: 4,
            knn_k: 4,
            num_eigenpairs: 3,
            feature_weight: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn report_shapes_and_finiteness() {
        let n = 30;
        let g = ring(n);
        let emb = distorted_embedding(n, 0..5);
        let report = CirStag::new(small_config())
            .analyze(&g, None, &emb)
            .unwrap();
        assert_eq!(report.node_scores.len(), n);
        assert!(report
            .node_scores
            .iter()
            .all(|s| s.is_finite() && *s >= 0.0));
        assert!(!report.edge_scores.is_empty());
        assert_eq!(report.eigenvalues.len(), 3);
        // Eigenvalues sorted descending.
        for w in report.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        // Uncached runs carry no cache bookkeeping.
        assert_eq!(report.timings.cache_hits, 0);
        assert_eq!(report.timings.cache_misses, 0);
        assert!(report.diagnostics.cache.is_empty());
    }

    #[test]
    fn distorted_region_ranks_unstable() {
        let n = 40;
        let g = ring(n);
        let emb = distorted_embedding(n, 0..6);
        let report = CirStag::new(small_config())
            .analyze(&g, None, &emb)
            .unwrap();
        let ranking = report.ranking();
        // Count how many of the 8 most-unstable nodes fall in (or adjacent
        // to) the distorted block 0..6.
        let hot: Vec<usize> = ranking[..8].to_vec();
        let in_block = hot
            .iter()
            .filter(|&&i| i <= 7 || i >= n - 2) // block plus its boundary
            .count();
        assert!(
            in_block >= 5,
            "top unstable {hot:?} not concentrated in distorted region"
        );
    }

    #[test]
    fn identity_like_embedding_is_uniform() {
        // Output embedding = the ring's own geometry → no strong distortion;
        // score spread should be modest compared to the distorted case.
        let n = 36;
        let g = ring(n);
        let clean = distorted_embedding(n, 0..0);
        let dirty = distorted_embedding(n, 0..6);
        let cs = CirStag::new(small_config());
        let rc = cs.analyze(&g, None, &clean).unwrap();
        let rd = cs.analyze(&g, None, &dirty).unwrap();
        let spread = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            let max = v.iter().fold(0.0f64, |a, &b| a.max(b));
            max / m.max(1e-12)
        };
        assert!(
            spread(&rd.node_scores) > spread(&rc.node_scores),
            "distorted embedding should concentrate scores"
        );
    }

    #[test]
    fn ablation_skip_dimension_reduction_runs() {
        let n = 30;
        let g = ring(n);
        let emb = distorted_embedding(n, 0..5);
        let cfg = CirStagConfig {
            skip_dimension_reduction: true,
            ..small_config()
        };
        let report = CirStag::new(cfg).analyze(&g, None, &emb).unwrap();
        // Input manifold is the raw graph itself.
        assert_eq!(report.input_manifold.num_edges(), g.num_edges());
    }

    #[test]
    fn ablation_skip_sparsification_keeps_dense_knn() {
        let n = 30;
        let g = ring(n);
        let emb = distorted_embedding(n, 0..5);
        let sparse = CirStag::new(small_config())
            .analyze(&g, None, &emb)
            .unwrap();
        let cfg = CirStagConfig {
            skip_manifold_sparsification: true,
            ..small_config()
        };
        let dense = CirStag::new(cfg).analyze(&g, None, &emb).unwrap();
        assert!(dense.output_manifold.num_edges() >= sparse.output_manifold.num_edges());
    }

    #[test]
    fn feature_augmentation_changes_scores() {
        let n = 30;
        let g = ring(n);
        let emb = distorted_embedding(n, 0..5);
        // A feature that singles out nodes 10..15.
        let feats = DenseMatrix::from_rows(
            &(0..n)
                .map(|i| vec![if (10..15).contains(&i) { 5.0 } else { 0.0 }])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let plain = CirStag::new(small_config())
            .analyze(&g, None, &emb)
            .unwrap();
        let cfg = CirStagConfig {
            feature_weight: 1.0,
            ..small_config()
        };
        let with_features = CirStag::new(cfg).analyze(&g, Some(&feats), &emb).unwrap();
        let diff: f64 = plain
            .node_scores
            .iter()
            .zip(&with_features.node_scores)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-9, "features had no effect");
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 24;
        let g = ring(n);
        let emb = distorted_embedding(n, 0..4);
        let cs = CirStag::new(small_config());
        let a = cs.analyze(&g, None, &emb).unwrap();
        let b = cs.analyze(&g, None, &emb).unwrap();
        assert_eq!(a.node_scores, b.node_scores);
    }

    #[test]
    fn cached_rerun_is_bit_identical_and_hits_all_stages() {
        let n = 30;
        let g = ring(n);
        let emb = distorted_embedding(n, 0..5);
        let cs = CirStag::new(small_config());
        let cold = cs.analyze(&g, None, &emb).unwrap();
        let cache = ArtifactCache::new();
        let first = cs.analyze_cached(&g, None, &emb, &cache, None).unwrap();
        assert_eq!(first.timings.cache_hits, 0);
        assert_eq!(first.timings.cache_misses, 5);
        let warm = cs.analyze_cached(&g, None, &emb, &cache, None).unwrap();
        assert_eq!(warm.timings.cache_hits, 5);
        assert_eq!(warm.timings.cache_misses, 0);
        for report in [&first, &warm] {
            assert_eq!(report.node_scores, cold.node_scores);
            assert_eq!(report.edge_scores, cold.edge_scores);
            assert_eq!(report.eigenvalues, cold.eigenvalues);
            assert_eq!(report.input_manifold, cold.input_manifold);
            assert_eq!(report.output_manifold, cold.output_manifold);
            assert_eq!(report.degraded, cold.degraded);
        }
        let records: Vec<(&str, &str)> = warm
            .diagnostics
            .cache
            .iter()
            .map(|r| (r.stage.as_str(), r.status.as_str()))
            .collect();
        assert_eq!(
            records,
            [
                ("phase1/embedding", "replayed"),
                ("phase2/manifold-input", "replayed"),
                ("phase2/manifold-output", "replayed"),
                ("phase3/geig", "replayed"),
                ("phase3/dmd", "replayed"),
            ]
        );
        assert!(warm.timings.summary().contains("cache 5 hits / 0 misses"));
    }

    #[test]
    fn sweep_over_dmd_s_replays_phase1_and_phase2() {
        let n = 30;
        let g = ring(n);
        let emb = distorted_embedding(n, 0..5);
        let configs: Vec<CirStagConfig> = [2usize, 3, 4, 5]
            .iter()
            .map(|&s| CirStagConfig {
                num_eigenpairs: s,
                ..small_config()
            })
            .collect();
        let cache = ArtifactCache::new();
        let reports: Vec<StabilityReport> = configs
            .iter()
            .map(|cfg| {
                CirStag::new(*cfg)
                    .analyze_cached(&g, None, &emb, &cache, None)
                    .unwrap()
            })
            .collect();
        assert_eq!(reports.len(), configs.len());
        // First config computes everything cacheable.
        assert_eq!(reports[0].timings.cache_misses, 5);
        // Later configs replay phase1 + both phase2 manifolds (3 hits) and
        // recompute only the Phase-3 geig/dmd stages.
        for (report, cfg) in reports.iter().zip(&configs).skip(1) {
            assert_eq!(report.timings.cache_hits, 3);
            assert_eq!(report.timings.cache_misses, 2);
            assert_eq!(report.eigenvalues.len(), cfg.num_eigenpairs);
            // Manifolds are bit-identical to the first run's.
            assert_eq!(report.input_manifold, reports[0].input_manifold);
            assert_eq!(report.output_manifold, reports[0].output_manifold);
            // ... and each sweep entry matches its own cold run bit-for-bit.
            let cold = CirStag::new(*cfg).analyze(&g, None, &emb).unwrap();
            assert_eq!(report.node_scores, cold.node_scores);
            assert_eq!(report.edge_scores, cold.edge_scores);
            assert_eq!(report.eigenvalues, cold.eigenvalues);
        }
    }

    #[test]
    fn validation_errors() {
        let g = ring(3);
        let emb = DenseMatrix::zeros(3, 2);
        assert!(CirStag::new(small_config())
            .analyze(&g, None, &emb)
            .is_err());
        let g = ring(10);
        let bad_emb = DenseMatrix::zeros(5, 2);
        assert!(CirStag::new(small_config())
            .analyze(&g, None, &bad_emb)
            .is_err());
        let emb = DenseMatrix::zeros(10, 2);
        let bad_feats = DenseMatrix::zeros(3, 1);
        assert!(CirStag::new(small_config())
            .analyze(&g, Some(&bad_feats), &emb)
            .is_err());
    }

    #[test]
    fn permutation_equivariance_of_scores() {
        // Reversing node labels of the ring + permuting embedding rows must
        // permute scores accordingly.
        let n = 20;
        let g1 = ring(n);
        // Reversed ring: node i maps to n-1-i.
        let g2 = Graph::from_edges(
            n,
            &(0..n)
                .map(|i| (n - 1 - i, n - 1 - (i + 1) % n, 1.0))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let e1 = distorted_embedding(n, 0..4);
        let e2 = DenseMatrix::from_rows(
            &(0..n)
                .map(|i| e1.row(n - 1 - i).to_vec())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let cs = CirStag::new(small_config());
        let r1 = cs.analyze(&g1, None, &e1).unwrap();
        let r2 = cs.analyze(&g2, None, &e2).unwrap();
        // The randomized stages (seeded Lanczos starts, resistance sketches,
        // tree perturbations) are not label-equivariant point-wise, but the
        // *ranking* must agree: the mapped top-quartile sets should overlap.
        let top1 = crate::top_fraction(&r1.node_scores, 0.25, None);
        let top2: Vec<usize> = crate::top_fraction(&r2.node_scores, 0.25, None)
            .into_iter()
            .map(|i| n - 1 - i)
            .collect();
        let overlap = top1.iter().filter(|i| top2.contains(i)).count();
        assert!(
            overlap * 2 >= top1.len(),
            "top sets diverge: {top1:?} vs {top2:?}"
        );
    }
}
