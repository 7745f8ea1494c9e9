//! The five pipeline stages, their cache-key fields, and the one fallback
//! ladder they share.
//!
//! Each stage reproduces the corresponding block of the historical
//! monolithic `CirStag::analyze` exactly — same ladder rungs, same event
//! stage/rung strings, same guardrails — so the engine-backed pipeline is
//! behaviorally indistinguishable from the pre-engine one. The key
//! functions declare precisely the raw data and config fields each stage
//! reads; anything not written there does not invalidate the stage's cache
//! entry. Guard and audit events timestamp relative to `phase_start`, the
//! start of the enclosing phase.

#[cfg(any(feature = "validate", debug_assertions))]
use crate::audit;
use crate::engine::cache::ScoreSet;
use crate::engine::fingerprint::Fingerprinter;
use crate::engine::millis_u64;
use crate::{
    ApproxKnnRecord, CirStagConfig, CirStagError, FailurePolicy, FallbackEvent, RunDiagnostics,
};
use cirstag_embed::{
    augment_with_features, dense_spectral_embedding, knn_graph_with_stats, spectral_embedding_ws,
    EmbedError, KnnConfig, KnnMethod, KnnStats, SpectralConfig,
};
use cirstag_graph::Graph;
use cirstag_linalg::{fail, par, DenseMatrix};
use cirstag_pgm::{learn_manifold, random_prune, PgmConfig};
use cirstag_solver::{
    generalized_eigen_dense, generalized_lanczos_ws, CgOptions, GeneralizedEigen, LaplacianSolver,
    SolverError, SolverWorkspace,
};
use std::fmt::Display;
use std::time::Instant;

/// Seed perturbation applied to re-seeded eigensolver retries so the retry
/// explores a different Krylov subspace than the failed attempt.
const RETRY_RESEED: u64 = 0x5EED_F00D;

/// Multiplier applied to the iteration budget on an eigensolver retry (the
/// "enlarged Krylov budget" rung of the Phase-1 and Phase-3 ladders).
const RETRY_ITER_FACTOR: usize = 4;

/// Folds the Phase-2 manifold-construction knobs (kNN + PGM) into `fp`.
pub(crate) fn write_phase2_cfg(cfg: &CirStagConfig, fp: &mut Fingerprinter) {
    fp.write_usize(cfg.knn_k);
    write_knn_cfg(&cfg.knn, fp);
    fp.write_bool(cfg.skip_manifold_sparsification);
    fp.write_bool(cfg.random_prune);
    write_pgm_cfg(&cfg.pgm, fp);
}

/// Folds the kNN construction options into `fp`.
fn write_knn_cfg(knn: &KnnConfig, fp: &mut Fingerprinter) {
    match knn.method {
        KnnMethod::Exact => fp.write_byte(0),
        KnnMethod::RpForest {
            num_trees,
            leaf_size,
        } => {
            fp.write_byte(1);
            fp.write_usize(num_trees);
            fp.write_usize(leaf_size);
        }
        KnnMethod::Hnsw {
            m,
            ef_construction,
            ef_search,
        } => {
            fp.write_byte(2);
            fp.write_usize(m);
            fp.write_usize(ef_construction);
            fp.write_usize(ef_search);
        }
    }
    fp.write_u64(knn.seed);
    fp.write_f64(knn.weight_epsilon);
    fp.write_bool(knn.ensure_connected);
}

/// Records an approximate-kNN diagnostic for `stage` when the search
/// reported one (exact searches report `None`). The record lands in the
/// stage's captured diagnostics segment, so cache hits replay it verbatim.
fn record_knn_stats(stage: &'static str, stats: Option<KnnStats>, diag: &mut RunDiagnostics) {
    if let Some(stats) = stats {
        diag.approx_knn.push(ApproxKnnRecord {
            stage: stage.to_string(),
            method: stats.method.to_string(),
            requested_k: stats.requested_k,
            min_candidates: stats.min_candidates,
            mean_candidates: stats.mean_candidates,
        });
    }
}

/// Folds the PGM sparsification options into `fp`.
fn write_pgm_cfg(pgm: &PgmConfig, fp: &mut Fingerprinter) {
    fp.write_f64(pgm.degree_target);
    fp.write_usize(pgm.resistance_probes);
    fp.write_f64(pgm.lrd_keep_quantile);
    fp.write_u64(pgm.seed);
}

// ---- Phase 1 --------------------------------------------------------------

/// Folds the raw data and config fields `phase1/embedding` reads into `fp`.
pub(crate) fn embedding_key(
    cfg: &CirStagConfig,
    graph: &Graph,
    features: Option<&DenseMatrix>,
    fp: &mut Fingerprinter,
) {
    fp.write_graph(graph);
    fp.write_bool(cfg.skip_dimension_reduction);
    fp.write_usize(cfg.embedding_dim);
    fp.write_usize(cfg.spectral.max_iter);
    fp.write_f64(cfg.spectral.tol);
    fp.write_u64(cfg.spectral.seed);
    let augment = cfg.feature_weight > 0.0 && features.is_some();
    fp.write_bool(augment);
    if augment {
        fp.write_f64(cfg.feature_weight);
        fp.write_opt_matrix(features);
    }
}

/// Phase 1: spectral embedding of the circuit graph (Eq. 4), feature
/// augmentation, NaN guardrail, and embedding audit. `None` hands the raw
/// circuit graph to Phase 2 as the input manifold.
pub(crate) fn embedding(
    cfg: &CirStagConfig,
    graph: &Graph,
    features: Option<&DenseMatrix>,
    diag: &mut RunDiagnostics,
    ws: &mut SolverWorkspace,
    phase_start: Instant,
) -> Result<Option<DenseMatrix>, CirStagError> {
    let n = graph.num_nodes();
    let mut input_data: Option<DenseMatrix> = if cfg.skip_dimension_reduction {
        None // raw graph becomes the manifold directly
    } else {
        let m = cfg.embedding_dim.min(n - 1).max(1);
        let retry_cfg = SpectralConfig {
            max_iter: cfg.spectral.max_iter.saturating_mul(RETRY_ITER_FACTOR),
            seed: cfg.spectral.seed ^ RETRY_RESEED,
            ..cfg.spectral
        };
        // Lanczos → re-seeded retry with an enlarged Krylov budget → dense
        // eigendecomposition → the raw circuit graph.
        let u = ladder(
            "phase1/eigs",
            &["retry", "dense", "degraded"],
            cfg.policy,
            diag,
            embed_residual,
            |rung| {
                match rung {
                    0 => spectral_embedding_ws(graph, m, &cfg.spectral, ws),
                    1 => spectral_embedding_ws(graph, m, &retry_cfg, ws),
                    _ => dense_spectral_embedding(graph, m),
                }
                .map(Some)
            },
            || {
                let warning = "phase1 spectral embedding failed on every rung; using the raw circuit graph as the input manifold";
                (None, warning.to_string())
            },
        )?;
        match (u, features) {
            (Some(u), Some(f)) if cfg.feature_weight > 0.0 => {
                Some(augment_with_features(&u, f, cfg.feature_weight)?)
            }
            (u, _) => u,
        }
    };
    // Failpoint: corrupt the inter-phase hand-off to exercise the
    // finiteness guardrail below.
    if matches!(fail::check("phase1/nan"), Some(fail::FailAction::Nan)) {
        if let Some(u) = &mut input_data {
            u.set(0, 0, f64::NAN); // cirstag-lint: allow(float-discipline) -- deliberate failpoint corruption exercising the finiteness guardrail below
        }
    }
    // Guardrail: the embedding must be finite before it seeds Phase 2.
    if input_data.as_ref().is_some_and(|u| !u.all_finite()) {
        if cfg.policy == FailurePolicy::BestEffort {
            diag.events.push(FallbackEvent {
                stage: "phase1/nan-guard".to_string(),
                rung: "degraded".to_string(),
                cause: "spectral embedding contains non-finite values".to_string(),
                residual: None,
                // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
                elapsed_ms: millis_u64(phase_start.elapsed()),
            });
            diag.warnings.push(
                "phase1 embedding was non-finite; using the raw circuit graph as the input manifold"
                    .to_string(),
            );
            input_data = None;
        } else {
            return Err(CirStagError::NonFiniteStage { stage: "phase1" });
        }
    }
    // Invariant audit (validate feature / debug builds): the embedding
    // hand-off must be finite and row-matched to the circuit graph.
    #[cfg(any(feature = "validate", debug_assertions))]
    if let Some(u) = &input_data {
        audit::enforce(
            "phase1/audit",
            audit::embedding_violations(u, n, "input embedding"),
            cfg.policy,
            diag,
            // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
            millis_u64(phase_start.elapsed()),
        )?;
    }
    Ok(input_data)
}

// ---- Phase 2 --------------------------------------------------------------

/// Phase 2a: the input manifold `G_X` — kNN over the Phase-1 embedding,
/// PGM-sparsified, or the raw circuit graph when there is no embedding.
pub(crate) fn input_manifold(
    cfg: &CirStagConfig,
    graph: &Graph,
    embedding: Option<&DenseMatrix>,
    diag: &mut RunDiagnostics,
) -> Result<Graph, CirStagError> {
    let Some(u) = embedding else {
        return Ok(graph.clone());
    };
    let k = cfg.knn_k.min(graph.num_nodes() - 1).max(1);
    let (dense, stats) = knn_graph_with_stats(u, k, &cfg.knn)?;
    record_knn_stats("phase2/manifold-input", stats, diag);
    sparsify(&dense, cfg, "phase2/pgm-input", diag)
}

/// Phase 2b: the output manifold `G_Y` — kNN over the GNN embedding,
/// PGM-sparsified — plus the combined manifold audit over `G_X` and `G_Y`
/// (which is why `G_X` is an input of this stage).
pub(crate) fn output_manifold(
    cfg: &CirStagConfig,
    output_embedding: &DenseMatrix,
    input_manifold: &Graph,
    diag: &mut RunDiagnostics,
    phase_start: Instant,
) -> Result<Graph, CirStagError> {
    let k = cfg.knn_k.min(output_embedding.nrows() - 1).max(1);
    let (dense_y, stats) = knn_graph_with_stats(output_embedding, k, &cfg.knn)?;
    record_knn_stats("phase2/manifold-output", stats, diag);
    let output_manifold = sparsify(&dense_y, cfg, "phase2/pgm-output", diag)?;
    // Invariant audit: both manifolds must carry finite positive weights
    // before their Laplacians seed the Phase-3 eigenproblem (Eq. 8 treats
    // the weights as conductances).
    #[cfg(any(feature = "validate", debug_assertions))]
    {
        let mut violations = audit::manifold_violations(input_manifold, "input manifold");
        violations.extend(audit::manifold_violations(
            &output_manifold,
            "output manifold",
        ));
        audit::enforce(
            "phase2/audit",
            violations,
            cfg.policy,
            diag,
            // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
            millis_u64(phase_start.elapsed()),
        )?;
    }
    #[cfg(not(any(feature = "validate", debug_assertions)))]
    let _ = (input_manifold, phase_start);
    Ok(output_manifold)
}

/// Applies the configured Phase-2 sparsification variant. PGM learning
/// falls back under [`FailurePolicy::BestEffort`]: PGM learning → uniform
/// random pruning → the dense kNN graph unsparsified.
fn sparsify(
    dense: &Graph,
    cfg: &CirStagConfig,
    stage: &str,
    diag: &mut RunDiagnostics,
) -> Result<Graph, CirStagError> {
    if cfg.skip_manifold_sparsification {
        return Ok(dense.clone());
    }
    if cfg.random_prune {
        return Ok(random_prune(dense, &cfg.pgm)?.graph);
    }
    ladder(
        stage,
        &["random-prune", "dense-knn"],
        cfg.policy,
        diag,
        |_| None,
        |rung| {
            if rung == 0 {
                learn_manifold(dense, &cfg.pgm)
            } else {
                random_prune(dense, &cfg.pgm)
            }
            .map(|r| r.graph)
        },
        || {
            let warning = format!(
                "{stage}: sparsification failed on every rung; keeping the dense kNN manifold"
            );
            (dense.clone(), warning)
        },
    )
}

// ---- Phase 3 --------------------------------------------------------------

/// Folds the config fields `phase3/geig` reads beyond its two input
/// manifolds into `fp`.
pub(crate) fn geig_key(cfg: &CirStagConfig, fp: &mut Fingerprinter) {
    fp.write_usize(cfg.num_eigenpairs);
    fp.write_usize(cfg.geig_max_iter);
    fp.write_u64(cfg.seed);
}

/// Phase 3a: the generalized eigensolve `L_Y⁺ L_X v = ζ v`. It assembles
/// the pencil first — `L_X`, the Laplacian audit, and the preconditioned
/// `L_Y` solver — so only a cache miss pays for it. Then it climbs the
/// eigensolver ladder, the only fallback in Phase 3: a CG failure inside
/// an `L_Y` solve fails the Lanczos rung it belongs to.
pub(crate) fn geig(
    cfg: &CirStagConfig,
    input_manifold: &Graph,
    output_manifold: &Graph,
    diag: &mut RunDiagnostics,
    ws: &mut SolverWorkspace,
    phase_start: Instant,
) -> Result<GeneralizedEigen, CirStagError> {
    let lx = input_manifold.laplacian();
    // Invariant audit: Eq. 5 requires L = Σ w_pq e_pq e_pqᵀ — well-formed
    // CSR, symmetric, and PSD (spot-checked with deterministic probes).
    #[cfg(any(feature = "validate", debug_assertions))]
    {
        let mut violations = audit::laplacian_violations(&lx, "L_X");
        violations.extend(audit::laplacian_violations(
            &output_manifold.laplacian(),
            "L_Y",
        ));
        audit::enforce(
            "phase3/audit",
            violations,
            cfg.policy,
            diag,
            // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
            millis_u64(phase_start.elapsed()),
        )?;
    }
    #[cfg(not(any(feature = "validate", debug_assertions)))]
    let _ = phase_start;
    // Ranking-grade solver options: manifold Laplacians mix weights
    // spanning ~1/ε, so the default 1e-10 tolerance is unnecessarily
    // strict for eigen-subspace estimation and can fail to converge.
    let ly_options = CgOptions {
        tol: 1e-6,
        max_iter: 10_000,
    };
    let ly = LaplacianSolver::with_tree_preconditioner(output_manifold, ly_options)?;
    let n = lx.nrows();
    let s = cfg.num_eigenpairs.min(n.saturating_sub(2)).max(1);
    let retry_iters = cfg.geig_max_iter.saturating_mul(RETRY_ITER_FACTOR);
    // Generalized Lanczos → re-seeded retry with an enlarged iteration
    // budget → dense generalized eigensolver → a zero spectrum, which
    // yields all-zero stability scores.
    ladder(
        "phase3/geig",
        &["retry", "dense", "degraded"],
        cfg.policy,
        diag,
        solver_residual,
        |rung| match rung {
            0 => generalized_lanczos_ws(&lx, &ly, s, cfg.geig_max_iter, cfg.seed, ws),
            1 => generalized_lanczos_ws(&lx, &ly, s, retry_iters, cfg.seed ^ RETRY_RESEED, ws),
            _ => generalized_eigen_dense(&lx, ly.laplacian(), s),
        },
        || {
            let zero = GeneralizedEigen {
                eigenvalues: vec![0.0; s],
                eigenvectors: DenseMatrix::zeros(n, s),
                iterations: 0,
            };
            let warning = "phase3 generalized eigensolve failed on every rung; reporting a zero spectrum and zero scores";
            (zero, warning.to_string())
        },
    )
}

/// Phase 3b: DMD edge/node scores (Eq. 9) with the finiteness guardrail.
pub(crate) fn dmd(
    cfg: &CirStagConfig,
    geig: &GeneralizedEigen,
    input_manifold: &Graph,
    diag: &mut RunDiagnostics,
    phase_start: Instant,
) -> Result<ScoreSet, CirStagError> {
    let mut eigenvalues = geig.eigenvalues.clone();
    // Failpoint: corrupt the spectrum to exercise the score guardrail.
    if matches!(fail::check("phase3/nan"), Some(fail::FailAction::Nan)) {
        if let Some(z) = eigenvalues.first_mut() {
            *z = f64::NAN; // cirstag-lint: allow(float-discipline) -- deliberate failpoint corruption exercising the score guardrail
        }
    }

    // Edge scores ‖V_sᵀe_pq‖² = Σ_i ζ_i (v_i[p] − v_i[q])² over E_X.
    // Each edge's score depends only on that edge, so the map runs across
    // the pool; the node accumulation stays serial in edge order so the
    // floating-point reduction is identical for every thread count.
    let zetas: Vec<f64> = eigenvalues.iter().map(|&z| z.max(0.0)).collect();
    let vs = &geig.eigenvectors;
    let edges = input_manifold.edges();
    let mut edge_scores: Vec<(usize, usize, f64)> = par::map_indexed(edges.len(), |eid| {
        let e = &edges[eid];
        // Row-major eigenvector storage makes both endpoint rows
        // contiguous, so the score is a fused sweep over two slices
        // instead of 2s bounds-checked `get` calls.
        let ru = vs.row(e.u);
        let rv = vs.row(e.v);
        let mut score = 0.0;
        for ((&z, &a), &b) in zetas.iter().zip(ru).zip(rv) {
            let d = a - b;
            score += z * d * d;
        }
        (e.u, e.v, score)
    });
    // Guardrail: scores must be finite before they reach the report.
    if edge_scores.iter().any(|&(_, _, s)| !s.is_finite())
        || eigenvalues.iter().any(|z| !z.is_finite())
    {
        if cfg.policy == FailurePolicy::BestEffort {
            diag.events.push(FallbackEvent {
                stage: "phase3/nan-guard".to_string(),
                rung: "degraded".to_string(),
                cause: "DMD spectrum or edge scores contain non-finite values".to_string(),
                residual: None,
                // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
                elapsed_ms: millis_u64(phase_start.elapsed()),
            });
            diag.warnings.push(
                "phase3 produced non-finite values; they were zeroed in the report".to_string(),
            );
            for (_, _, s) in edge_scores.iter_mut() {
                if !s.is_finite() {
                    *s = 0.0;
                }
            }
            for z in eigenvalues.iter_mut() {
                if !z.is_finite() {
                    *z = 0.0;
                }
            }
        } else {
            return Err(CirStagError::NonFiniteStage { stage: "phase3" });
        }
    }
    let n = input_manifold.num_nodes();
    let mut node_acc = vec![0.0f64; n];
    let mut node_count = vec![0usize; n];
    for &(u, v, score) in &edge_scores {
        node_acc[u] += score;
        node_acc[v] += score;
        node_count[u] += 1;
        node_count[v] += 1;
    }
    let node_scores: Vec<f64> = node_acc
        .iter()
        .zip(&node_count)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    Ok(ScoreSet {
        eigenvalues,
        edge_scores,
        node_scores,
    })
}

// ---- fallback ladder ------------------------------------------------------

/// Residual norm carried by an embedding-stage failure, when a finite one
/// exists (diagnostics are JSON-exported, which cannot represent infinity).
fn embed_residual(e: &EmbedError) -> Option<f64> {
    match e {
        EmbedError::Solver(err) => solver_residual(err),
        _ => None,
    }
}

/// Residual norm carried by a solver-stage failure, when a finite one exists.
fn solver_residual(e: &SolverError) -> Option<f64> {
    match e {
        SolverError::NoConvergence { residual, .. } => Some(*residual).filter(|r| r.is_finite()),
        _ => None,
    }
}

/// The fallback ladder behind `phase1/eigs`, `phase2/pgm-*` and
/// `phase3/geig`. Rung `i` runs `attempt(i)`, and the first success is
/// returned. Under [`FailurePolicy::Strict`], rung 0's error is returned
/// as is. Under [`FailurePolicy::BestEffort`], each failed rung `i` records
/// a [`FallbackEvent`] naming `next[i]`, the rung that runs in its place;
/// once the last rung has failed, `terminal` gives the value to return and
/// the warning to record.
fn ladder<T, E: Display>(
    stage: &str,
    next: &[&str],
    policy: FailurePolicy,
    diag: &mut RunDiagnostics,
    residual: fn(&E) -> Option<f64>,
    mut attempt: impl FnMut(usize) -> Result<T, E>,
    terminal: impl FnOnce() -> (T, String),
) -> Result<T, CirStagError>
where
    CirStagError: From<E>,
{
    for (i, rung) in next.iter().enumerate() {
        // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
        let t = Instant::now();
        let err = match attempt(i) {
            Ok(value) => return Ok(value),
            Err(err) if policy == FailurePolicy::Strict => return Err(err.into()),
            Err(err) => err,
        };
        diag.events.push(FallbackEvent {
            stage: stage.to_string(),
            rung: rung.to_string(),
            cause: err.to_string(),
            residual: residual(&err),
            // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
            elapsed_ms: millis_u64(t.elapsed()),
        });
    }
    let (value, warning) = terminal();
    diag.warnings.push(warning);
    Ok(value)
}
