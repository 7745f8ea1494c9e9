//! Typed stage-graph execution engine behind [`crate::CirStag::analyze`].
//!
//! The three CirSTAG phases decompose into six typed stages (see DESIGN.md
//! §5e): `phase1/embedding` → `phase2/manifold-input` →
//! `phase2/manifold-output` → `phase3/pencil` → `phase3/geig` →
//! `phase3/dmd`. One executor applies the cross-cutting machinery — stage
//! fingerprinting, cache lookup/replay, diagnostics segment capture —
//! uniformly, while the phase driver `run_pipeline` keeps the
//! *phase-level* semantics (stall failpoints, wall-clock timing, budget
//! enforcement) exactly where the monolithic pipeline had them.
//!
//! Caching works per stage: a stage's key fingerprints its inputs
//! (Merkle-chained artifact fingerprints) plus only the config fields it
//! declares it reads, so changing a Phase-3 knob such as
//! [`crate::CirStagConfig::num_eigenpairs`] invalidates only the
//! `phase3/geig` and `phase3/dmd` keys — Phase-1/2 artifacts replay from
//! cache bit-identically. `num_threads` is excluded everywhere (results
//! are thread-count-independent), so warm hits also cross thread counts.
//! Budgets are enforced against the *actual* wall clock of each run and
//! are never cached.

pub mod cache;
pub mod eco;
pub mod fingerprint;
mod stages;

pub use cache::{ArtifactCache, CachedArtifact, CachedPayload, ScoreSet};
pub use fingerprint::{Fingerprint, Fingerprinter};

use crate::resilience::CancelToken;
use crate::{
    CirStagConfig, CirStagError, FailurePolicy, PhaseTimings, RunDiagnostics, StabilityReport,
    StageCacheRecord,
};
use cache::Lookup;
use cirstag_graph::Graph;
use cirstag_linalg::{fail, par, CsrMatrix, DenseMatrix};
use cirstag_solver::{GeneralizedEigen, LaplacianSolver, SolverWorkspace};
use std::time::{Duration, Instant};

/// Saturating millisecond conversion for diagnostics timestamps: a `u128`
/// elapsed time beyond `u64::MAX` ms clamps instead of truncating.
pub(crate) fn millis_u64(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX)
}

/// The Phase-3 Laplacian pencil: `L_X` and the preconditioned `L_Y` solver.
pub(crate) struct PencilArtifact {
    /// The input manifold's Laplacian `L_X`.
    pub lx: CsrMatrix,
    /// The output manifold's solver (applies `L_Y⁺`).
    pub ly: LaplacianSolver,
}

/// A typed value flowing along the stage graph's edges.
pub(crate) enum Artifact {
    /// Phase-1 embedding hand-off (`None` = raw-graph manifold path).
    Embedding(Option<DenseMatrix>),
    /// A Phase-2 manifold graph.
    Manifold(Graph),
    /// The Phase-3 Laplacian pencil (not cacheable; boxed — the solver's
    /// preconditioner state dwarfs every other variant).
    Pencil(Box<PencilArtifact>),
    /// Phase-3 generalized eigenpairs.
    Eigen(GeneralizedEigen),
    /// Phase-3 DMD scores.
    Scores(ScoreSet),
}

impl Artifact {
    /// The cacheable projection of this artifact, if it has one.
    fn to_payload(&self) -> Option<CachedPayload> {
        match self {
            Artifact::Embedding(e) => Some(CachedPayload::Embedding(e.clone())),
            Artifact::Manifold(g) => Some(CachedPayload::Manifold(g.clone())),
            Artifact::Eigen(geig) => Some(CachedPayload::Eigen(geig.clone())),
            Artifact::Scores(s) => Some(CachedPayload::Scores(s.clone())),
            Artifact::Pencil(_) => None,
        }
    }

    /// Rehydrates an artifact from a cached payload.
    fn from_payload(payload: CachedPayload) -> Self {
        match payload {
            CachedPayload::Embedding(e) => Artifact::Embedding(e),
            CachedPayload::Manifold(g) => Artifact::Manifold(g),
            CachedPayload::Eigen(geig) => Artifact::Eigen(geig),
            CachedPayload::Scores(s) => Artifact::Scores(s),
        }
    }
}

/// Everything a stage may read or append to while running.
pub(crate) struct StageCtx<'a> {
    /// Seed-mixed effective configuration.
    pub cfg: &'a CirStagConfig,
    /// The circuit graph `G`.
    pub graph: &'a Graph,
    /// Optional per-node features.
    pub features: Option<&'a DenseMatrix>,
    /// The GNN's output embedding `Y`.
    pub output_embedding: &'a DenseMatrix,
    /// Node count (== `graph.num_nodes()`).
    pub n: usize,
    /// Run diagnostics; stages append events/warnings here and the
    /// executor captures the appended segment for cache replay.
    pub diag: &'a mut RunDiagnostics,
    /// Shared solver scratch arena.
    pub ws: &'a mut SolverWorkspace,
    /// Start instant of the enclosing phase — guard/audit events timestamp
    /// relative to this, exactly like the monolithic pipeline did.
    pub phase_start: Instant,
}

/// One unit of pipeline work with a declared cache contract.
pub(crate) trait Stage {
    /// Stable stage name; part of the cache key and the diagnostics.
    fn name(&self) -> &'static str;
    /// Whether the stage's artifact (plus diagnostics segment) may be
    /// cached and replayed.
    fn cacheable(&self) -> bool;
    /// Folds the raw data and config fields this stage reads into `fp`.
    /// Input artifacts are chained by the executor and must not be
    /// re-declared here.
    fn fingerprint(&self, ctx: &StageCtx<'_>, fp: &mut Fingerprinter);
    /// Computes the stage's artifact, appending any fallback events,
    /// guard events, and warnings to `ctx.diag`.
    fn run(&self, ctx: &mut StageCtx<'_>, inputs: &[&Artifact]) -> Result<Artifact, CirStagError>;
}

/// Cache interaction status: the stage's stored segment was replayed.
const STATUS_REPLAYED: &str = "replayed";
/// Cache interaction status: the stage ran and its result was stored.
const STATUS_COMPUTED: &str = "computed";
/// Cache interaction status: the stage is not cacheable.
const STATUS_UNCACHED: &str = "uncached";

/// Applies the uniform cross-cutting machinery around every stage: key
/// derivation, cache lookup/replay, diagnostics segment capture, hit/miss
/// accounting, and cancellation polling.
struct Executor<'c> {
    /// The run's cache (`None` for an uncached run).
    cache: Option<&'c ArtifactCache>,
    cancel: Option<&'c CancelToken>,
    /// Partition label stamped into stored entries (`None` for whole-design
    /// runs). Metadata only: the stage key already separates segments.
    segment: Option<&'c str>,
    hits: usize,
    misses: usize,
    records: Vec<StageCacheRecord>,
}

impl<'c> Executor<'c> {
    fn new(
        cache: Option<&'c ArtifactCache>,
        cancel: Option<&'c CancelToken>,
        segment: Option<&'c str>,
    ) -> Self {
        Executor {
            cache,
            cancel,
            segment,
            hits: 0,
            misses: 0,
            records: Vec::new(),
        }
    }

    fn record(&mut self, stage: &dyn Stage, status: &str) {
        self.records.push(StageCacheRecord {
            stage: stage.name().to_string(),
            status: status.to_string(),
        });
    }

    /// Polls the token, derives the stage key, replays a cached segment on
    /// a hit, or runs the stage and captures its diagnostics segment on a
    /// miss.
    fn run_stage(
        &mut self,
        stage: &dyn Stage,
        ctx: &mut StageCtx<'_>,
        inputs: &[&Artifact],
        input_fps: &[Fingerprint],
    ) -> Result<(Artifact, Fingerprint), CirStagError> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(CirStagError::Cancelled {
                stage: stage.name(),
            });
        }
        let mut fp = Fingerprinter::new();
        fp.write_str("cirstag-stage/v1");
        fp.write_str(stage.name());
        // Run-wide knobs that change which code path produced an artifact.
        fp.write_bool(ctx.cfg.policy == FailurePolicy::BestEffort);
        fp.write_usize(ctx.cfg.stage_budget.retry_iter_factor);
        // Audits fire only in validate/debug builds and leave events in the
        // captured segment, so the build flavor is part of the key.
        fp.write_bool(cfg!(any(feature = "validate", debug_assertions)));
        for f in input_fps {
            fp.write_fingerprint(*f);
        }
        stage.fingerprint(ctx, &mut fp);
        let key = fp.finish();

        let cacheable = stage.cacheable();
        // Single-flight leadership over `key` while a cache miss computes;
        // dropped (releasing the key to waiting runs) if the stage errors.
        let mut lead = None;
        if let Some(cache) = self.cache.filter(|_| cacheable) {
            // Disk-layer quarantine events surfaced by the lookup are
            // appended *before* the segment marks below, so they are never
            // captured into (and replayed from) the stage's own segment.
            match cache.lookup_or_lead(key) {
                Lookup::Hit(hit, disk_events) => {
                    ctx.diag.events.extend(disk_events);
                    ctx.diag.events.extend(hit.events);
                    ctx.diag.warnings.extend(hit.warnings);
                    ctx.diag.approx_knn.extend(hit.knn);
                    self.hits += 1;
                    self.record(stage, STATUS_REPLAYED);
                    return Ok((Artifact::from_payload(hit.payload), key));
                }
                Lookup::Lead(guard, disk_events) => {
                    ctx.diag.events.extend(disk_events);
                    lead = Some(guard);
                }
            }
        }
        let ev_mark = ctx.diag.events.len();
        let warn_mark = ctx.diag.warnings.len();
        let knn_mark = ctx.diag.approx_knn.len();
        let artifact = stage.run(ctx, inputs)?;
        if let Some(guard) = lead {
            if let Some(payload) = artifact.to_payload() {
                guard.fulfill(CachedArtifact {
                    payload,
                    events: ctx.diag.events.get(ev_mark..).unwrap_or(&[]).to_vec(),
                    warnings: ctx.diag.warnings.get(warn_mark..).unwrap_or(&[]).to_vec(),
                    knn: ctx.diag.approx_knn.get(knn_mark..).unwrap_or(&[]).to_vec(),
                    segment: self.segment.map(str::to_string),
                });
            }
        }
        if self.cache.is_some() {
            if cacheable {
                self.misses += 1;
                self.record(stage, STATUS_COMPUTED);
            } else {
                self.record(stage, STATUS_UNCACHED);
            }
        }
        Ok((artifact, key))
    }
}

/// Enforces the per-stage wall-clock budget: a typed error under
/// [`FailurePolicy::Strict`], a recorded degradation under
/// [`FailurePolicy::BestEffort`]. Budgets meter the *actual* run and are
/// never part of a cache key or a replayed segment.
fn enforce_budget(
    stage: &'static str,
    elapsed: Duration,
    cfg: &CirStagConfig,
    diag: &mut RunDiagnostics,
) -> Result<(), CirStagError> {
    let Some(budget_ms) = cfg.stage_budget.wall_clock_ms else {
        return Ok(());
    };
    let elapsed_ms = millis_u64(elapsed);
    if elapsed_ms <= budget_ms {
        return Ok(());
    }
    if cfg.policy == FailurePolicy::BestEffort {
        diag.events.push(crate::FallbackEvent {
            stage: stage.to_string(),
            rung: "budget".to_string(),
            cause: format!(
                "stage exceeded its wall-clock budget ({elapsed_ms}ms spent, {budget_ms}ms allowed)"
            ),
            residual: None,
            elapsed_ms,
        });
        Ok(())
    } else {
        Err(CirStagError::BudgetExhausted {
            stage,
            elapsed_ms,
            budget_ms,
        })
    }
}

/// Runs the full stage graph: validation, seed mixing, the three phases
/// with their stall failpoints and budgets, and report assembly.
///
/// This is the single implementation behind [`crate::CirStag::analyze`]
/// (`cache = None`), [`crate::CirStag::analyze_cached`], and
/// [`crate::analyze_partitioned`], which runs one sub-pipeline per
/// partition and passes its label (`"partition/<id>"`) as `segment` to be
/// stamped into every artifact the run stores.
pub(crate) fn run_pipeline(
    config: &CirStagConfig,
    input_graph: &Graph,
    node_features: Option<&DenseMatrix>,
    output_embedding: &DenseMatrix,
    cache: Option<&ArtifactCache>,
    cancel: Option<&CancelToken>,
    segment: Option<&str>,
) -> Result<StabilityReport, CirStagError> {
    let n = input_graph.num_nodes();
    if n < 4 {
        return Err(CirStagError::InvalidArgument {
            reason: format!("need at least 4 nodes, got {n}"),
        });
    }
    if output_embedding.nrows() != n {
        return Err(CirStagError::InvalidArgument {
            reason: format!(
                "output embedding has {} rows but the graph has {n} nodes",
                output_embedding.nrows()
            ),
        });
    }
    if let Some(f) = node_features {
        if f.nrows() != n {
            return Err(CirStagError::InvalidArgument {
                reason: format!(
                    "node features have {} rows but the graph has {n} nodes",
                    f.nrows()
                ),
            });
        }
    }
    // Mix the master seed into every stochastic sub-stage so that varying
    // `seed` alone re-randomizes the whole pipeline.
    let mut cfg = *config;
    cfg.spectral.seed ^= cfg.seed;
    cfg.knn.seed ^= cfg.seed;
    cfg.pgm.seed ^= cfg.seed;
    let cfg = &cfg;

    // Single entry point for the parallel execution layer: every stage
    // below reads the pool size set here.
    par::set_num_threads(cfg.num_threads);
    let threads = par::current_num_threads();

    let mut diag = RunDiagnostics::default();
    // One scratch-buffer arena for the whole run: the Phase-1 Lanczos and
    // Phase-3 generalized Lanczos share length-`n` vectors, so buffers
    // warmed in Phase 1 are reused in Phase 3 instead of reallocated.
    let mut ws = SolverWorkspace::new();
    let mut exec = Executor::new(cache, cancel, segment);

    // ---- Phase 1: input/output embedding matrices -------------------
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t0 = Instant::now();
    fail::trigger("phase1/stall");
    let (embedding_art, embedding_fp) = {
        let mut ctx = StageCtx {
            cfg,
            graph: input_graph,
            features: node_features,
            output_embedding,
            n,
            diag: &mut diag,
            ws: &mut ws,
            phase_start: t0,
        };
        exec.run_stage(&stages::EmbeddingStage, &mut ctx, &[], &[])?
    };
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let phase1 = t0.elapsed();
    enforce_budget("phase1", phase1, cfg, &mut diag)?;

    // ---- Phase 2: graph-based manifolds via PGMs ---------------------
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t1 = Instant::now();
    fail::trigger("phase2/stall");
    let (input_manifold_art, input_manifold_fp, output_manifold_art, output_manifold_fp) = {
        let mut ctx = StageCtx {
            cfg,
            graph: input_graph,
            features: node_features,
            output_embedding,
            n,
            diag: &mut diag,
            ws: &mut ws,
            phase_start: t1,
        };
        let (min_art, min_fp) = exec.run_stage(
            &stages::InputManifoldStage,
            &mut ctx,
            &[&embedding_art],
            &[embedding_fp],
        )?;
        let (mout_art, mout_fp) = exec.run_stage(
            &stages::OutputManifoldStage,
            &mut ctx,
            &[&min_art],
            &[min_fp],
        )?;
        (min_art, min_fp, mout_art, mout_fp)
    };
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let phase2 = t1.elapsed();
    enforce_budget("phase2", phase2, cfg, &mut diag)?;

    // ---- Phase 3: DMD stability scores -------------------------------
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t2 = Instant::now();
    fail::trigger("phase3/stall");
    let scores_art = {
        let mut ctx = StageCtx {
            cfg,
            graph: input_graph,
            features: node_features,
            output_embedding,
            n,
            diag: &mut diag,
            ws: &mut ws,
            phase_start: t2,
        };
        let (pencil_art, pencil_fp) = exec.run_stage(
            &stages::PencilStage,
            &mut ctx,
            &[&input_manifold_art, &output_manifold_art],
            &[input_manifold_fp, output_manifold_fp],
        )?;
        let (geig_art, geig_fp) =
            exec.run_stage(&stages::GeigStage, &mut ctx, &[&pencil_art], &[pencil_fp])?;
        let (scores_art, _scores_fp) = exec.run_stage(
            &stages::DmdStage,
            &mut ctx,
            &[&geig_art, &input_manifold_art],
            &[geig_fp, input_manifold_fp],
        )?;
        scores_art
    };
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let phase3 = t2.elapsed();
    enforce_budget("phase3", phase3, cfg, &mut diag)?;

    let Artifact::Scores(scores) = scores_art else {
        return Err(CirStagError::InvalidArgument {
            reason: "internal: phase3/dmd produced a non-score artifact".to_string(),
        });
    };
    let Artifact::Manifold(input_manifold) = input_manifold_art else {
        return Err(CirStagError::InvalidArgument {
            reason: "internal: phase2/manifold-input produced a non-manifold artifact".to_string(),
        });
    };
    let Artifact::Manifold(output_manifold) = output_manifold_art else {
        return Err(CirStagError::InvalidArgument {
            reason: "internal: phase2/manifold-output produced a non-manifold artifact".to_string(),
        });
    };

    diag.cache = exec.records;
    let degraded = !diag.events.is_empty();
    Ok(StabilityReport {
        node_scores: scores.node_scores,
        edge_scores: scores.edge_scores,
        eigenvalues: scores.eigenvalues,
        input_manifold,
        output_manifold,
        timings: PhaseTimings {
            phase1,
            phase2,
            phase3,
            threads,
            cache_hits: exec.hits,
            cache_misses: exec.misses,
        },
        degraded,
        diagnostics: diag,
    })
}
