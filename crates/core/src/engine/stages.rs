//! The concrete pipeline stages and their fallback ladders.
//!
//! Each stage reproduces the corresponding block of the historical
//! monolithic `CirStag::analyze` exactly — same ladder rungs, same event
//! stage/rung strings, same guardrails — so the engine-backed pipeline is
//! behaviorally indistinguishable from the pre-engine one. The per-stage
//! `fingerprint` implementations declare precisely the raw data and config
//! fields each stage reads; anything not written there does not invalidate
//! the stage's cache entry.

#[cfg(any(feature = "validate", debug_assertions))]
use crate::audit;
use crate::engine::cache::ScoreSet;
use crate::engine::fingerprint::Fingerprinter;
use crate::engine::{millis_u64, Artifact, PencilArtifact, Stage, StageCtx};
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
use std::time::Instant;

/// Seed perturbation applied to re-seeded eigensolver retries so the retry
/// explores a different Krylov subspace than the failed attempt.
const RETRY_RESEED: u64 = 0x5EED_F00D;

/// Fetches the `idx`-th input artifact, erroring on a wiring bug.
fn stage_input<'x>(
    inputs: &[&'x Artifact],
    idx: usize,
    stage: &'static str,
) -> Result<&'x Artifact, CirStagError> {
    inputs
        .get(idx)
        .copied()
        .ok_or_else(|| CirStagError::InvalidArgument {
            reason: format!("internal: stage {stage} is missing input artifact {idx}"),
        })
}

/// Internal wiring-bug error: a stage received the wrong artifact kind.
fn artifact_mismatch(stage: &'static str) -> CirStagError {
    CirStagError::InvalidArgument {
        reason: format!("internal: stage {stage} received a mismatched artifact kind"),
    }
}

/// Folds the Phase-2 manifold-construction knobs (kNN + PGM) into `fp`.
fn write_phase2_cfg(cfg: &CirStagConfig, fp: &mut Fingerprinter) {
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

/// Phase 1: spectral embedding of the circuit graph (Eq. 4), feature
/// augmentation, NaN guardrail, and embedding audit.
pub(crate) struct EmbeddingStage;

impl Stage for EmbeddingStage {
    fn name(&self) -> &'static str {
        "phase1/embedding"
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn fingerprint(&self, ctx: &StageCtx<'_>, fp: &mut Fingerprinter) {
        let cfg = ctx.cfg;
        fp.write_graph(ctx.graph);
        fp.write_bool(cfg.skip_dimension_reduction);
        fp.write_usize(cfg.embedding_dim);
        fp.write_usize(cfg.spectral.max_iter);
        fp.write_f64(cfg.spectral.tol);
        fp.write_u64(cfg.spectral.seed);
        let augment = cfg.feature_weight > 0.0 && ctx.features.is_some();
        fp.write_bool(augment);
        if augment {
            fp.write_f64(cfg.feature_weight);
            fp.write_opt_matrix(ctx.features);
        }
    }

    fn run(&self, ctx: &mut StageCtx<'_>, _inputs: &[&Artifact]) -> Result<Artifact, CirStagError> {
        let cfg = ctx.cfg;
        let n = ctx.n;
        let best_effort = cfg.policy == FailurePolicy::BestEffort;
        let mut input_data: Option<DenseMatrix> = if cfg.skip_dimension_reduction {
            None // raw graph becomes the manifold directly
        } else {
            let m = cfg.embedding_dim.min(n - 1).max(1);
            match phase1_embedding(ctx.graph, m, cfg, ctx.diag, ctx.ws)? {
                None => None,
                Some(u) => {
                    let u = match ctx.features {
                        Some(f) if cfg.feature_weight > 0.0 => {
                            augment_with_features(&u, f, cfg.feature_weight)?
                        }
                        _ => u,
                    };
                    Some(u)
                }
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
            if best_effort {
                ctx.diag.events.push(FallbackEvent {
                    stage: "phase1/nan-guard".to_string(),
                    rung: "degraded".to_string(),
                    cause: "spectral embedding contains non-finite values".to_string(),
                    residual: None,
                    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
                    elapsed_ms: millis_u64(ctx.phase_start.elapsed()),
                });
                ctx.diag.warnings.push(
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
                ctx.diag,
                // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
                millis_u64(ctx.phase_start.elapsed()),
            )?;
        }
        Ok(Artifact::Embedding(input_data))
    }
}

// ---- Phase 2 --------------------------------------------------------------

/// Phase 2a: the input manifold `G_X` — kNN over the Phase-1 embedding,
/// PGM-sparsified, or the raw circuit graph when there is no embedding.
pub(crate) struct InputManifoldStage;

impl Stage for InputManifoldStage {
    fn name(&self) -> &'static str {
        "phase2/manifold-input"
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn fingerprint(&self, ctx: &StageCtx<'_>, fp: &mut Fingerprinter) {
        write_phase2_cfg(ctx.cfg, fp);
    }

    fn run(&self, ctx: &mut StageCtx<'_>, inputs: &[&Artifact]) -> Result<Artifact, CirStagError> {
        let cfg = ctx.cfg;
        let embedding = match stage_input(inputs, 0, "phase2/manifold-input")? {
            Artifact::Embedding(e) => e,
            _ => return Err(artifact_mismatch("phase2/manifold-input")),
        };
        let k = cfg.knn_k.min(ctx.n - 1).max(1);
        let manifold = match embedding {
            None => ctx.graph.clone(),
            Some(u) => {
                let (dense, stats) = knn_graph_with_stats(u, k, &cfg.knn)?;
                record_knn_stats("phase2/manifold-input", stats, ctx.diag);
                sparsify_with_ladder(&dense, cfg, "phase2/pgm-input", ctx.diag)?
            }
        };
        Ok(Artifact::Manifold(manifold))
    }
}

/// Phase 2b: the output manifold `G_Y` — kNN over the GNN embedding,
/// PGM-sparsified — plus the combined manifold audit over `G_X` and `G_Y`
/// (which is why `G_X` is an input of this stage).
pub(crate) struct OutputManifoldStage;

impl Stage for OutputManifoldStage {
    fn name(&self) -> &'static str {
        "phase2/manifold-output"
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn fingerprint(&self, ctx: &StageCtx<'_>, fp: &mut Fingerprinter) {
        fp.write_matrix(ctx.output_embedding);
        write_phase2_cfg(ctx.cfg, fp);
    }

    fn run(&self, ctx: &mut StageCtx<'_>, inputs: &[&Artifact]) -> Result<Artifact, CirStagError> {
        let cfg = ctx.cfg;
        let input_manifold = match stage_input(inputs, 0, "phase2/manifold-output")? {
            Artifact::Manifold(g) => g,
            _ => return Err(artifact_mismatch("phase2/manifold-output")),
        };
        let k = cfg.knn_k.min(ctx.n - 1).max(1);
        let (dense_y, stats) = knn_graph_with_stats(ctx.output_embedding, k, &cfg.knn)?;
        record_knn_stats("phase2/manifold-output", stats, ctx.diag);
        let output_manifold = sparsify_with_ladder(&dense_y, cfg, "phase2/pgm-output", ctx.diag)?;
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
                ctx.diag,
                // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
                millis_u64(ctx.phase_start.elapsed()),
            )?;
        }
        #[cfg(not(any(feature = "validate", debug_assertions)))]
        let _ = input_manifold;
        Ok(Artifact::Manifold(output_manifold))
    }
}

// ---- Phase 3 --------------------------------------------------------------

/// Phase 3a: the Laplacian pencil `(L_X, L_Y⁺)` — `L_X` assembly, the
/// Laplacian audit, and the preconditioned `L_Y` solver. Not cacheable:
/// the solver holds preconditioner state that is cheap to rebuild and
/// expensive to serialize.
pub(crate) struct PencilStage;

impl Stage for PencilStage {
    fn name(&self) -> &'static str {
        "phase3/pencil"
    }

    fn cacheable(&self) -> bool {
        false
    }

    fn fingerprint(&self, _ctx: &StageCtx<'_>, _fp: &mut Fingerprinter) {
        // Everything this stage reads arrives through its input manifolds;
        // the solver options are fixed constants.
    }

    fn run(&self, ctx: &mut StageCtx<'_>, inputs: &[&Artifact]) -> Result<Artifact, CirStagError> {
        let cfg = ctx.cfg;
        let input_manifold = match stage_input(inputs, 0, "phase3/pencil")? {
            Artifact::Manifold(g) => g,
            _ => return Err(artifact_mismatch("phase3/pencil")),
        };
        let output_manifold = match stage_input(inputs, 1, "phase3/pencil")? {
            Artifact::Manifold(g) => g,
            _ => return Err(artifact_mismatch("phase3/pencil")),
        };
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
                ctx.diag,
                // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
                millis_u64(ctx.phase_start.elapsed()),
            )?;
        }
        // Ranking-grade solver options: manifold Laplacians mix weights
        // spanning ~1/ε, so the default 1e-10 tolerance is unnecessarily
        // strict for eigen-subspace estimation and can fail to converge.
        let ly_options = CgOptions {
            tol: 1e-6,
            max_iter: 10_000,
        };
        // Strict keeps the historical fail-fast solver; BestEffort lets the
        // inner CG escalate tree → dense instead of surfacing NoConvergence.
        let ly = if cfg.policy == FailurePolicy::BestEffort {
            LaplacianSolver::with_ladder(output_manifold, ly_options)?
        } else {
            LaplacianSolver::with_tree_preconditioner(output_manifold, ly_options)?
        };
        Ok(Artifact::Pencil(Box::new(PencilArtifact { lx, ly })))
    }
}

/// Phase 3b: the generalized eigensolve `L_Y⁺ L_X v = ζ v` with its fallback
/// ladder, surfacing the inner CG ladder's escalations.
pub(crate) struct GeigStage;

impl Stage for GeigStage {
    fn name(&self) -> &'static str {
        "phase3/geig"
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn fingerprint(&self, ctx: &StageCtx<'_>, fp: &mut Fingerprinter) {
        fp.write_usize(ctx.cfg.num_eigenpairs);
        fp.write_usize(ctx.cfg.geig_max_iter);
        fp.write_u64(ctx.cfg.seed);
    }

    fn run(&self, ctx: &mut StageCtx<'_>, inputs: &[&Artifact]) -> Result<Artifact, CirStagError> {
        let cfg = ctx.cfg;
        let pencil = match stage_input(inputs, 0, "phase3/geig")? {
            Artifact::Pencil(p) => p,
            _ => return Err(artifact_mismatch("phase3/geig")),
        };
        let s = cfg.num_eigenpairs.min(ctx.n.saturating_sub(2)).max(1);
        let geig = phase3_eigenpairs(&pencil.lx, &pencil.ly, s, ctx.n, cfg, ctx.diag, ctx.ws)?;
        // Surface the inner CG ladder's escalations.
        for ev in pencil.ly.take_events() {
            ctx.diag.events.push(FallbackEvent {
                stage: "phase3/cg".to_string(),
                rung: ev.to.name().to_string(),
                cause: ev.cause,
                residual: ev.residual.filter(|r| r.is_finite()),
                elapsed_ms: ev.elapsed_ms,
            });
        }
        Ok(Artifact::Eigen(geig))
    }
}

/// Phase 3c: DMD edge/node scores (Eq. 9) with the finiteness guardrail.
pub(crate) struct DmdStage;

impl Stage for DmdStage {
    fn name(&self) -> &'static str {
        "phase3/dmd"
    }

    fn cacheable(&self) -> bool {
        true
    }

    fn fingerprint(&self, _ctx: &StageCtx<'_>, _fp: &mut Fingerprinter) {
        // Fully determined by the eigenpairs and the input manifold, which
        // arrive as chained input artifacts.
    }

    fn run(&self, ctx: &mut StageCtx<'_>, inputs: &[&Artifact]) -> Result<Artifact, CirStagError> {
        let cfg = ctx.cfg;
        let best_effort = cfg.policy == FailurePolicy::BestEffort;
        let geig = match stage_input(inputs, 0, "phase3/dmd")? {
            Artifact::Eigen(g) => g,
            _ => return Err(artifact_mismatch("phase3/dmd")),
        };
        let input_manifold = match stage_input(inputs, 1, "phase3/dmd")? {
            Artifact::Manifold(g) => g,
            _ => return Err(artifact_mismatch("phase3/dmd")),
        };
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
            if best_effort {
                ctx.diag.events.push(FallbackEvent {
                    stage: "phase3/nan-guard".to_string(),
                    rung: "degraded".to_string(),
                    cause: "DMD spectrum or edge scores contain non-finite values".to_string(),
                    residual: None,
                    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
                    elapsed_ms: millis_u64(ctx.phase_start.elapsed()),
                });
                ctx.diag.warnings.push(
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
        let n = ctx.n;
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
        Ok(Artifact::Scores(ScoreSet {
            eigenvalues,
            edge_scores,
            node_scores,
        }))
    }
}

// ---- fallback ladders -----------------------------------------------------

/// Residual norm carried by an embedding-stage failure, when a finite one
/// exists (diagnostics are JSON-exported, which cannot represent infinity).
fn embed_residual(e: &EmbedError) -> Option<f64> {
    match e {
        EmbedError::Solver(SolverError::NoConvergence { residual, .. }) => {
            Some(*residual).filter(|r| r.is_finite())
        }
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

/// Phase-1 fallback ladder: Lanczos → re-seeded retry with an enlarged
/// Krylov budget → dense eigendecomposition → (BestEffort only) raw circuit
/// graph as the input manifold (`Ok(None)`).
fn phase1_embedding(
    g: &Graph,
    m: usize,
    cfg: &CirStagConfig,
    diag: &mut RunDiagnostics,
    ws: &mut SolverWorkspace,
) -> Result<Option<DenseMatrix>, CirStagError> {
    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t = Instant::now();
    let first = spectral_embedding_ws(g, m, &cfg.spectral, ws);
    let err = match first {
        Ok(u) => return Ok(Some(u)),
        Err(err) if cfg.policy == FailurePolicy::Strict => return Err(err.into()),
        Err(err) => err,
    };
    diag.events.push(FallbackEvent {
        stage: "phase1/eigs".to_string(),
        rung: "retry".to_string(),
        cause: err.to_string(),
        residual: embed_residual(&err),
        // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
        elapsed_ms: millis_u64(t.elapsed()),
    });
    let retry_cfg = SpectralConfig {
        max_iter: cfg
            .spectral
            .max_iter
            .saturating_mul(cfg.stage_budget.retry_iter_factor.max(1)),
        seed: cfg.spectral.seed ^ RETRY_RESEED,
        ..cfg.spectral
    };
    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t_retry = Instant::now();
    let err = match spectral_embedding_ws(g, m, &retry_cfg, ws) {
        Ok(u) => return Ok(Some(u)),
        Err(err) => err,
    };
    diag.events.push(FallbackEvent {
        stage: "phase1/eigs".to_string(),
        rung: "dense".to_string(),
        cause: err.to_string(),
        residual: embed_residual(&err),
        // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
        elapsed_ms: millis_u64(t_retry.elapsed()),
    });
    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t_dense = Instant::now();
    let err = match dense_spectral_embedding(g, m) {
        Ok(u) => return Ok(Some(u)),
        Err(err) => err,
    };
    diag.events.push(FallbackEvent {
        stage: "phase1/eigs".to_string(),
        rung: "degraded".to_string(),
        cause: err.to_string(),
        residual: embed_residual(&err),
        // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
        elapsed_ms: millis_u64(t_dense.elapsed()),
    });
    diag.warnings.push(
        "phase1 spectral embedding failed on every rung; using the raw circuit graph as the input manifold"
            .to_string(),
    );
    Ok(None)
}

/// Phase-3 fallback ladder: generalized Lanczos → re-seeded retry with an
/// enlarged iteration budget → dense generalized eigensolver → (BestEffort
/// only) a zero spectrum, which yields all-zero stability scores.
#[allow(clippy::too_many_arguments)]
fn phase3_eigenpairs(
    lx: &cirstag_linalg::CsrMatrix,
    ly_solver: &LaplacianSolver,
    s: usize,
    n: usize,
    cfg: &CirStagConfig,
    diag: &mut RunDiagnostics,
    ws: &mut SolverWorkspace,
) -> Result<GeneralizedEigen, CirStagError> {
    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t = Instant::now();
    let first = generalized_lanczos_ws(lx, ly_solver, s, cfg.geig_max_iter, cfg.seed, ws);
    let err = match first {
        Ok(geig) => return Ok(geig),
        Err(err) if cfg.policy == FailurePolicy::Strict => return Err(err.into()),
        Err(err) => err,
    };
    diag.events.push(FallbackEvent {
        stage: "phase3/geig".to_string(),
        rung: "retry".to_string(),
        cause: err.to_string(),
        residual: solver_residual(&err),
        // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
        elapsed_ms: millis_u64(t.elapsed()),
    });
    let retry_iters = cfg
        .geig_max_iter
        .saturating_mul(cfg.stage_budget.retry_iter_factor.max(1));
    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t_retry = Instant::now();
    let err =
        match generalized_lanczos_ws(lx, ly_solver, s, retry_iters, cfg.seed ^ RETRY_RESEED, ws) {
            Ok(geig) => return Ok(geig),
            Err(err) => err,
        };
    diag.events.push(FallbackEvent {
        stage: "phase3/geig".to_string(),
        rung: "dense".to_string(),
        cause: err.to_string(),
        residual: solver_residual(&err),
        // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
        elapsed_ms: millis_u64(t_retry.elapsed()),
    });
    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t_dense = Instant::now();
    let err = match generalized_eigen_dense(lx, ly_solver.laplacian(), s) {
        Ok(geig) => return Ok(geig),
        Err(err) => err,
    };
    diag.events.push(FallbackEvent {
        stage: "phase3/geig".to_string(),
        rung: "degraded".to_string(),
        cause: err.to_string(),
        residual: solver_residual(&err),
        // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
        elapsed_ms: millis_u64(t_dense.elapsed()),
    });
    diag.warnings.push(
        "phase3 generalized eigensolve failed on every rung; reporting a zero spectrum and zero scores"
            .to_string(),
    );
    Ok(GeneralizedEigen {
        eigenvalues: vec![0.0; s],
        eigenvectors: DenseMatrix::zeros(n, s),
        iterations: 0,
    })
}

/// Applies the configured Phase-2 sparsification variant, with a fallback
/// ladder under [`FailurePolicy::BestEffort`]: PGM learning → uniform random
/// pruning → the dense kNN graph unsparsified.
fn sparsify_with_ladder(
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
    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t = Instant::now();
    let err = match learn_manifold(dense, &cfg.pgm) {
        Ok(r) => return Ok(r.graph),
        Err(err) if cfg.policy == FailurePolicy::Strict => return Err(err.into()),
        Err(err) => err,
    };
    diag.events.push(FallbackEvent {
        stage: stage.to_string(),
        rung: "random-prune".to_string(),
        cause: err.to_string(),
        residual: None,
        // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
        elapsed_ms: millis_u64(t.elapsed()),
    });
    // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t_prune = Instant::now();
    let err = match random_prune(dense, &cfg.pgm) {
        Ok(r) => return Ok(r.graph),
        Err(err) => err,
    };
    diag.events.push(FallbackEvent {
        stage: stage.to_string(),
        rung: "dense-knn".to_string(),
        cause: err.to_string(),
        residual: None,
        // cirstag-lint: allow(nondeterminism) -- stage wall-clock diagnostics only; excluded from fingerprints and artifacts
        elapsed_ms: millis_u64(t_prune.elapsed()),
    });
    diag.warnings.push(format!(
        "{stage}: sparsification failed on every rung; keeping the dense kNN manifold"
    ));
    Ok(dense.clone())
}
