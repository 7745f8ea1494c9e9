//! Execution engine behind [`crate::CirStag::analyze`].
//!
//! Algorithm 1 is a fixed chain of five typed stages (see DESIGN.md §5e):
//! `phase1/embedding` → `phase2/manifold-input` → `phase2/manifold-output`
//! → `phase3/geig` → `phase3/dmd`. The phase driver calls each stage
//! function through one executor method, which polls cancellation, keys the
//! stage, and then either replays it from the cache or computes it and
//! stores its artifact with the diagnostics segment it emitted. The driver
//! keeps the *phase-level* semantics: stall failpoints and wall-clock
//! timing.
//!
//! Caching works per stage: a stage's key fingerprints its inputs
//! (Merkle-chained artifact fingerprints) plus only the config fields it
//! declares it reads, so changing a Phase-3 knob such as
//! [`crate::CirStagConfig::num_eigenpairs`] invalidates only the
//! `phase3/geig` and `phase3/dmd` keys — Phase-1/2 artifacts replay from
//! cache bit-identically. `num_threads` is excluded everywhere (results
//! are thread-count-independent), so warm hits also cross thread counts.

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
use cirstag_linalg::{fail, par, DenseMatrix};
use cirstag_solver::{GeneralizedEigen, SolverWorkspace};
use std::time::{Duration, Instant};

/// Saturating millisecond conversion for diagnostics timestamps: a `u128`
/// elapsed time beyond `u64::MAX` ms clamps instead of truncating.
pub(crate) fn millis_u64(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX)
}

/// A stage artifact: the typed view of one [`CachedPayload`] variant.
trait StageOutput: Clone {
    fn into_payload(self) -> CachedPayload;
    /// `None` when the payload is another stage's kind.
    fn from_payload(payload: CachedPayload) -> Option<Self>;
}

macro_rules! stage_output {
    ($($ty:ty => $variant:ident),* $(,)?) => {$(
        impl StageOutput for $ty {
            fn into_payload(self) -> CachedPayload {
                CachedPayload::$variant(self)
            }
            fn from_payload(payload: CachedPayload) -> Option<Self> {
                match payload {
                    CachedPayload::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

stage_output! {
    Option<DenseMatrix> => Embedding,
    Graph => Manifold,
    GeneralizedEigen => Eigen,
    ScoreSet => Scores,
}

/// Cache interaction status: the stage's stored segment was replayed.
const STATUS_REPLAYED: &str = "replayed";
/// Cache interaction status: the stage ran and its result was stored.
const STATUS_COMPUTED: &str = "computed";

/// Runs every stage the same way: cancellation polling, key derivation,
/// cache lookup/replay, diagnostics segment capture, and hit/miss
/// accounting.
struct Executor<'c> {
    /// The run's cache (`None` for an uncached run).
    cache: Option<&'c ArtifactCache>,
    cancel: Option<&'c CancelToken>,
    /// Partition label stamped into stored entries (`None` for whole-design
    /// runs). Metadata only: the stage key already separates segments.
    segment: Option<&'c str>,
    policy: FailurePolicy,
    hits: usize,
    misses: usize,
    records: Vec<StageCacheRecord>,
}

impl Executor<'_> {
    fn record(&mut self, stage: &str, status: &str) {
        self.records.push(StageCacheRecord {
            stage: stage.to_string(),
            status: status.to_string(),
        });
    }

    /// Polls the token and keys stage `name` from its input fingerprints and
    /// the config fields `fields` writes. Then it replays a cached segment on
    /// a hit, or runs `compute` and stores its artifact and diagnostics
    /// segment on a miss. An uncached run skips `fields`, whose raw data
    /// (graph, features, output embedding) is the costly part of a key, and
    /// returns the key prefix, which nothing looks up.
    fn stage<T: StageOutput>(
        &mut self,
        name: &'static str,
        inputs: &[Fingerprint],
        fields: impl FnOnce(&mut Fingerprinter),
        diag: &mut RunDiagnostics,
        compute: impl FnOnce(&mut RunDiagnostics) -> Result<T, CirStagError>,
    ) -> Result<(T, Fingerprint), CirStagError> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(CirStagError::Cancelled { stage: name });
        }
        let mut fp = Fingerprinter::new();
        fp.write_str("cirstag-stage/v1");
        fp.write_str(name);
        // Run-wide knob that changes which code path produced an artifact.
        fp.write_bool(self.policy == FailurePolicy::BestEffort);
        for f in inputs {
            fp.write_fingerprint(*f);
        }
        let Some(cache) = self.cache else {
            return Ok((compute(diag)?, fp.finish()));
        };
        fields(&mut fp);
        let key = fp.finish();
        // Single-flight leadership over `key` while the miss computes;
        // dropped (releasing the key to waiting runs) if the stage errors.
        // Disk-layer quarantine events surfaced by the lookup are appended
        // *before* the segment marks below, so they are never captured into
        // (and replayed from) the stage's own segment.
        let lead = match cache.lookup_or_lead(key) {
            Lookup::Hit(hit, disk_events) => {
                diag.events.extend(disk_events);
                let value =
                    T::from_payload(hit.payload).ok_or_else(|| CirStagError::InvalidArgument {
                        reason: format!("cache entry for {name} holds another stage's artifact"),
                    })?;
                diag.events.extend(hit.events);
                diag.warnings.extend(hit.warnings);
                diag.approx_knn.extend(hit.knn);
                self.hits += 1;
                self.record(name, STATUS_REPLAYED);
                return Ok((value, key));
            }
            Lookup::Lead(guard, disk_events) => {
                diag.events.extend(disk_events);
                guard
            }
        };
        let ev_mark = diag.events.len();
        let warn_mark = diag.warnings.len();
        let knn_mark = diag.approx_knn.len();
        let value = compute(diag)?;
        lead.fulfill(CachedArtifact {
            payload: value.clone().into_payload(),
            events: diag.events.get(ev_mark..).unwrap_or(&[]).to_vec(),
            warnings: diag.warnings.get(warn_mark..).unwrap_or(&[]).to_vec(),
            knn: diag.approx_knn.get(knn_mark..).unwrap_or(&[]).to_vec(),
            segment: self.segment.map(str::to_string),
        });
        self.misses += 1;
        self.record(name, STATUS_COMPUTED);
        Ok((value, key))
    }
}

/// Runs Algorithm 1: validation, seed mixing, the five stages under their
/// phases' stall failpoints, and report assembly.
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
    let mut exec = Executor {
        cache,
        cancel,
        segment,
        policy: cfg.policy,
        hits: 0,
        misses: 0,
        records: Vec::new(),
    };

    // ---- Phase 1: input/output embedding matrices -------------------
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t0 = Instant::now();
    fail::trigger("phase1/stall");
    let (embedding, embedding_fp) = exec.stage(
        "phase1/embedding",
        &[],
        |fp| stages::embedding_key(cfg, input_graph, node_features, fp),
        &mut diag,
        |diag| stages::embedding(cfg, input_graph, node_features, diag, &mut ws, t0),
    )?;
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let phase1 = t0.elapsed();

    // ---- Phase 2: graph-based manifolds via PGMs ---------------------
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t1 = Instant::now();
    fail::trigger("phase2/stall");
    let (input_manifold, input_manifold_fp) = exec.stage(
        "phase2/manifold-input",
        &[embedding_fp],
        |fp| stages::write_phase2_cfg(cfg, fp),
        &mut diag,
        |diag| stages::input_manifold(cfg, input_graph, embedding.as_ref(), diag),
    )?;
    let (output_manifold, output_manifold_fp) = exec.stage(
        "phase2/manifold-output",
        &[input_manifold_fp],
        |fp| {
            fp.write_matrix(output_embedding);
            stages::write_phase2_cfg(cfg, fp);
        },
        &mut diag,
        |diag| stages::output_manifold(cfg, output_embedding, &input_manifold, diag, t1),
    )?;
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let phase2 = t1.elapsed();

    // ---- Phase 3: DMD stability scores -------------------------------
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let t2 = Instant::now();
    fail::trigger("phase3/stall");
    let (geig, geig_fp) = exec.stage(
        "phase3/geig",
        &[input_manifold_fp, output_manifold_fp],
        |fp| stages::geig_key(cfg, fp),
        &mut diag,
        |diag| stages::geig(cfg, &input_manifold, &output_manifold, diag, &mut ws, t2),
    )?;
    let (scores, _) = exec.stage(
        "phase3/dmd",
        &[geig_fp, input_manifold_fp],
        |_| {},
        &mut diag,
        |diag| stages::dmd(cfg, &geig, &input_manifold, diag, t2),
    )?;
    // cirstag-lint: allow(nondeterminism) -- phase wall-clock diagnostics only; excluded from fingerprints and artifacts
    let phase3 = t2.elapsed();

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
