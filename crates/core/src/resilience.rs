//! Failure policies, cancellation, and run diagnostics for the pipeline.
//!
//! The pipeline wraps every phase in a *fallback ladder*: when a numerical
//! stage fails, progressively more robust (and more expensive) strategies are
//! tried before giving up. What happens when even the last rung fails is
//! governed by the [`FailurePolicy`]:
//!
//! - [`FailurePolicy::Strict`] — the historical behavior: no fallbacks, the
//!   first failure surfaces as a typed [`crate::CirStagError`].
//! - [`FailurePolicy::BestEffort`] — climb the ladders, record every rung in
//!   the report's [`RunDiagnostics`], and finish with
//!   `report.degraded == true` whenever any fallback fired.

use serde::{impl_serde_struct, DeError, Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the pipeline does when a stage fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Fail fast: the first stage failure is returned as a typed error and
    /// no fallback rungs run. This is the default and the pre-resilience
    /// behavior of the pipeline.
    #[default]
    Strict,
    /// Degrade gracefully: climb each stage's fallback ladder, record every
    /// escalation, and complete the analysis with `degraded = true` instead
    /// of erroring whenever a usable (if approximate) result exists.
    BestEffort,
}

/// Cooperative cancellation handle for an in-flight analysis.
///
/// The engine polls the token before each of its five stages: a run whose
/// token is cancelled — explicitly via [`CancelToken::cancel`] or implicitly
/// by an expired deadline — stops at the next stage boundary with
/// [`crate::CirStagError::Cancelled`] instead of finishing. The token is
/// cheaply cloneable and thread-safe, so a server can hand one clone to the
/// worker running the pipeline and keep another to enforce per-request
/// deadlines or shutdown from outside.
///
/// Cancellation granularity is the stage: a stage that has already started
/// runs to completion (the numeric kernels are not interruptible), so the
/// latency of a cancel is bounded by the longest single stage.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires until [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally fires once `deadline` (measured from now)
    /// has elapsed.
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                // cirstag-lint: allow(nondeterminism) -- deadline bookkeeping for cancel; never flows into result data
                deadline: Instant::now().checked_add(deadline),
            }),
        }
    }

    /// Requests cancellation; every clone of the token observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called or the deadline
    /// has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            // cirstag-lint: allow(nondeterminism) -- deadline bookkeeping for cancel; never flows into result data
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// One fallback-ladder escalation recorded during an analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackEvent {
    /// Pipeline stage the event belongs to (e.g. `"phase1/eigs"`,
    /// `"phase2/pgm-input"`, `"phase3/geig"`).
    pub stage: String,
    /// The ladder rung that ran as a consequence (e.g. `"retry"`,
    /// `"dense"`, `"degraded"`).
    pub rung: String,
    /// Human-readable cause: the error message of the rung that failed.
    pub cause: String,
    /// Residual norm at the point of failure, when the failure reported one.
    pub residual: Option<f64>,
    /// Wall-clock milliseconds spent in the failing attempt.
    pub elapsed_ms: u64,
}

impl_serde_struct!(FallbackEvent {
    stage,
    rung,
    cause,
    residual,
    elapsed_ms,
});

/// One stage's interaction with the artifact cache during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCacheRecord {
    /// Engine stage name (e.g. `"phase1/embedding"`, `"phase3/geig"`).
    pub stage: String,
    /// What happened: `"replayed"` (cache hit — the stored artifact and
    /// diagnostics segment were reused) or `"computed"` (cache miss — the
    /// stage ran and its result was stored).
    pub status: String,
}

impl_serde_struct!(StageCacheRecord { stage, status });

/// One manifold stage's approximate-neighbor-search diagnostics: which
/// method built the kNN graph and how much candidate headroom each point
/// had. Recorded only for approximate methods ([`KnnMethod::RpForest`] /
/// [`KnnMethod::Hnsw`]), so a report that carries any of these is
/// distinguishable from an exact run. Like [`StageCacheRecord`] this is
/// bookkeeping, not a degradation: it never flips `report.degraded`.
///
/// [`KnnMethod::RpForest`]: cirstag_embed::KnnMethod::RpForest
/// [`KnnMethod::Hnsw`]: cirstag_embed::KnnMethod::Hnsw
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxKnnRecord {
    /// Engine stage that ran the search (`"phase2/manifold-input"` or
    /// `"phase2/manifold-output"`).
    pub stage: String,
    /// Method label: `"rp-forest"` or `"hnsw"`.
    pub method: String,
    /// Neighbors requested per point.
    pub requested_k: usize,
    /// Smallest candidate pool any point saw before truncation to `k` —
    /// the recall-critical worst case.
    pub min_candidates: usize,
    /// Mean candidate-pool size across points.
    pub mean_candidates: f64,
}

impl_serde_struct!(ApproxKnnRecord {
    stage,
    method,
    requested_k,
    min_candidates,
    mean_candidates,
});

/// Diagnostics accumulated over one analysis run: every fallback escalation
/// plus non-fatal warnings (e.g. clamped preconditioner diagonals).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDiagnostics {
    /// Fallback-ladder escalations, in the order they fired.
    pub events: Vec<FallbackEvent>,
    /// Non-fatal warnings, in the order they were raised.
    pub warnings: Vec<String>,
    /// Per-stage artifact-cache status, in execution order. Empty for
    /// uncached runs ([`crate::CirStag::analyze`]); populated by
    /// [`crate::CirStag::analyze_cached`].
    pub cache: Vec<StageCacheRecord>,
    /// Approximate-kNN diagnostics, one per manifold stage that used an
    /// approximate method; empty when Phase 2 searched exactly.
    pub approx_knn: Vec<ApproxKnnRecord>,
}

// Manual impls (rather than `impl_serde_struct!`) so diagnostics written
// before the `cache`/`approx_knn` fields existed keep parsing, with the
// fields defaulted.
impl Serialize for RunDiagnostics {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("events".to_string(), self.events.to_value()),
            ("warnings".to_string(), self.warnings.to_value()),
            ("cache".to_string(), self.cache.to_value()),
            ("approx_knn".to_string(), self.approx_knn.to_value()),
        ])
    }
}

impl Deserialize for RunDiagnostics {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::new("expected object for RunDiagnostics"));
        }
        Ok(RunDiagnostics {
            events: v.field("events")?,
            warnings: v.field("warnings")?,
            cache: v.field_or("cache", Vec::new())?,
            approx_knn: v.field_or("approx_knn", Vec::new())?,
        })
    }
}

impl RunDiagnostics {
    /// `true` when no fallback fired and no warning was recorded. Cache and
    /// approximate-kNN records are bookkeeping, not degradations, and do
    /// not count (an approximate method is a configuration choice, not a
    /// failure — flipping `degraded` for every HNSW run would turn the
    /// intended production configuration into a permanent exit code 2).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.warnings.is_empty()
    }

    /// One-line human-readable summary, e.g.
    /// `2 fallback events (phase1/eigs→retry, phase3/geig→dense), 1 warning`.
    pub fn summary(&self) -> String {
        let replayed = self.cache.iter().filter(|r| r.status == "replayed").count();
        if self.is_empty() && replayed == 0 && self.approx_knn.is_empty() {
            return "clean run".to_string();
        }
        let mut parts = Vec::new();
        if self.is_empty() && (replayed > 0 || !self.approx_knn.is_empty()) {
            parts.push("clean run".to_string());
        }
        if !self.events.is_empty() {
            let steps: Vec<String> = self
                .events
                .iter()
                .map(|e| format!("{}\u{2192}{}", e.stage, e.rung))
                .collect();
            parts.push(format!(
                "{} fallback event{} ({})",
                self.events.len(),
                if self.events.len() == 1 { "" } else { "s" },
                steps.join(", ")
            ));
        }
        if !self.warnings.is_empty() {
            parts.push(format!(
                "{} warning{}",
                self.warnings.len(),
                if self.warnings.len() == 1 { "" } else { "s" }
            ));
        }
        if replayed > 0 {
            parts.push(format!(
                "{replayed} stage{} replayed from cache",
                if replayed == 1 { "" } else { "s" }
            ));
        }
        if !self.approx_knn.is_empty() {
            let methods: Vec<&str> = self.approx_knn.iter().map(|r| r.method.as_str()).collect();
            parts.push(format!(
                "{} approximate-kNN stage{} ({})",
                self.approx_knn.len(),
                if self.approx_knn.len() == 1 { "" } else { "s" },
                methods.join(", ")
            ));
        }
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_fires_on_cancel_and_deadline() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());

        let d = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(d.is_cancelled());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        far.cancel();
        assert!(
            far.is_cancelled(),
            "an explicit cancel beats a far deadline"
        );
    }

    #[test]
    fn policy_defaults_to_strict() {
        assert_eq!(FailurePolicy::default(), FailurePolicy::Strict);
    }

    #[test]
    fn diagnostics_summary_reads_well() {
        let mut d = RunDiagnostics::default();
        assert_eq!(d.summary(), "clean run");
        d.events.push(FallbackEvent {
            stage: "phase1/eigs".to_string(),
            rung: "retry".to_string(),
            cause: "no convergence".to_string(),
            residual: Some(0.5),
            elapsed_ms: 12,
        });
        d.warnings.push("clamped diagonal".to_string());
        let s = d.summary();
        assert!(s.contains("1 fallback event"), "{s}");
        assert!(s.contains("phase1/eigs"), "{s}");
        assert!(s.contains("1 warning"), "{s}");
    }

    #[test]
    fn fallback_event_serde_roundtrip() {
        let e = FallbackEvent {
            stage: "phase3/geig".to_string(),
            rung: "dense".to_string(),
            cause: "failpoint".to_string(),
            residual: None,
            elapsed_ms: 7,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: FallbackEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
