//! JSON export of stability reports for downstream tooling.

use crate::{
    ApproxKnnRecord, CirStagError, FallbackEvent, RunDiagnostics, StabilityReport, StageCacheRecord,
};
use serde::{DeError, Deserialize, Serialize, Value};

/// Serializable form of a [`StabilityReport`] (scores, rankings and run
/// metadata — the manifold graphs are omitted as they are cheap to
/// recompute and large to store).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportExport {
    /// Per-node stability score (Eq. 9).
    pub node_scores: Vec<f64>,
    /// Node ids sorted most-unstable first.
    pub ranking: Vec<usize>,
    /// Per-edge DMD scores over the input manifold as `(p, q, score)`.
    pub edge_scores: Vec<(usize, usize, f64)>,
    /// The generalized eigenvalues `ζ₁ ≥ … ≥ ζ_s`.
    pub eigenvalues: Vec<f64>,
    /// Phase wall-clock times in seconds `(phase1, phase2, phase3)`.
    pub phase_seconds: (f64, f64, f64),
    /// Active worker-thread count the analysis ran with (`1` = serial).
    pub threads: usize,
    /// `true` when any fallback rung fired during the analysis.
    pub degraded: bool,
    /// Non-fatal warnings raised during the run.
    pub warnings: Vec<String>,
    /// Fallback-ladder escalations, in the order they fired.
    pub fallback_events: Vec<FallbackEvent>,
    /// Stages replayed from the artifact cache (`0` for uncached runs).
    pub cache_hits: usize,
    /// Stages that had to compute (`0` for uncached runs).
    pub cache_misses: usize,
    /// Cache status of each of the five engine stages, `"replayed"` or
    /// `"computed"`, in execution order (empty for uncached runs).
    pub stage_cache: Vec<StageCacheRecord>,
    /// Approximate-kNN diagnostics, one per manifold stage that used an
    /// approximate method (empty for exact runs).
    pub approx_knn: Vec<ApproxKnnRecord>,
}

// Manual impls (rather than `impl_serde_struct!`) so fields added after the
// initial release (`threads`, the resilience trio) default sensibly when
// parsing reports written by older versions.
impl Serialize for ReportExport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("node_scores".to_string(), self.node_scores.to_value()),
            ("ranking".to_string(), self.ranking.to_value()),
            ("edge_scores".to_string(), self.edge_scores.to_value()),
            ("eigenvalues".to_string(), self.eigenvalues.to_value()),
            ("phase_seconds".to_string(), self.phase_seconds.to_value()),
            ("threads".to_string(), self.threads.to_value()),
            ("degraded".to_string(), self.degraded.to_value()),
            ("warnings".to_string(), self.warnings.to_value()),
            (
                "fallback_events".to_string(),
                self.fallback_events.to_value(),
            ),
            ("cache_hits".to_string(), self.cache_hits.to_value()),
            ("cache_misses".to_string(), self.cache_misses.to_value()),
            ("stage_cache".to_string(), self.stage_cache.to_value()),
            ("approx_knn".to_string(), self.approx_knn.to_value()),
        ])
    }
}

impl Deserialize for ReportExport {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::new("expected object for ReportExport"));
        }
        Ok(ReportExport {
            node_scores: v.field("node_scores")?,
            ranking: v.field("ranking")?,
            edge_scores: v.field("edge_scores")?,
            eigenvalues: v.field("eigenvalues")?,
            phase_seconds: v.field("phase_seconds")?,
            threads: v.field_or("threads", 1)?,
            degraded: v.field_or("degraded", false)?,
            warnings: v.field_or("warnings", Vec::new())?,
            fallback_events: v.field_or("fallback_events", Vec::new())?,
            cache_hits: v.field_or("cache_hits", 0)?,
            cache_misses: v.field_or("cache_misses", 0)?,
            stage_cache: v.field_or("stage_cache", Vec::new())?,
            approx_knn: v.field_or("approx_knn", Vec::new())?,
        })
    }
}

impl ReportExport {
    /// Builds the export form of a report.
    pub fn from_report(report: &StabilityReport) -> Self {
        ReportExport {
            node_scores: report.node_scores.clone(),
            ranking: report.ranking(),
            edge_scores: report.edge_scores.clone(),
            eigenvalues: report.eigenvalues.clone(),
            phase_seconds: (
                report.timings.phase1.as_secs_f64(),
                report.timings.phase2.as_secs_f64(),
                report.timings.phase3.as_secs_f64(),
            ),
            threads: report.timings.threads,
            degraded: report.degraded,
            warnings: report.diagnostics.warnings.clone(),
            fallback_events: report.diagnostics.events.clone(),
            cache_hits: report.timings.cache_hits,
            cache_misses: report.timings.cache_misses,
            stage_cache: report.diagnostics.cache.clone(),
            approx_knn: report.diagnostics.approx_knn.clone(),
        }
    }

    /// Reassembles the diagnostics carried by this export.
    pub fn diagnostics(&self) -> RunDiagnostics {
        RunDiagnostics {
            events: self.fallback_events.clone(),
            warnings: self.warnings.clone(),
            cache: self.stage_cache.clone(),
            approx_knn: self.approx_knn.clone(),
        }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CirStagError::InvalidArgument`] when serialization fails
    /// (unreachable for finite scores).
    pub fn to_json(&self) -> Result<String, CirStagError> {
        serde_json::to_string_pretty(self).map_err(|e| CirStagError::InvalidArgument {
            reason: format!("report serialization failed: {e}"),
        })
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CirStagError::InvalidArgument`] for malformed input.
    pub fn from_json(text: &str) -> Result<Self, CirStagError> {
        serde_json::from_str(text).map_err(|e| CirStagError::InvalidArgument {
            reason: format!("report deserialization failed: {e}"),
        })
    }
}

impl StabilityReport {
    /// Convenience: export this report straight to JSON.
    ///
    /// # Errors
    ///
    /// Same as [`ReportExport::to_json`].
    pub fn to_json(&self) -> Result<String, CirStagError> {
        ReportExport::from_report(self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CirStag, CirStagConfig};
    use cirstag_graph::Graph;
    use cirstag_linalg::DenseMatrix;

    fn sample_report() -> StabilityReport {
        let n = 16;
        let g = Graph::from_edges(
            n,
            &(0..n).map(|i| (i, (i + 1) % n, 1.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let emb = DenseMatrix::from_rows(
            &(0..n)
                .map(|i| {
                    let t = i as f64 / n as f64 * std::f64::consts::TAU;
                    vec![t.cos(), t.sin()]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        CirStag::new(CirStagConfig {
            embedding_dim: 4,
            knn_k: 4,
            num_eigenpairs: 3,
            ..Default::default()
        })
        .analyze(&g, None, &emb)
        .unwrap()
    }

    #[test]
    fn json_roundtrip() {
        let report = sample_report();
        let json = report.to_json().unwrap();
        let parsed = ReportExport::from_json(&json).unwrap();
        assert_eq!(parsed.node_scores, report.node_scores);
        assert_eq!(parsed.ranking, report.ranking());
        assert_eq!(parsed.eigenvalues, report.eigenvalues);
        assert_eq!(parsed.edge_scores.len(), report.edge_scores.len());
    }

    #[test]
    fn ranking_is_embedded_consistently() {
        let report = sample_report();
        let export = ReportExport::from_report(&report);
        for w in export.ranking.windows(2) {
            assert!(export.node_scores[w[0]] >= export.node_scores[w[1]]);
        }
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(ReportExport::from_json("nope").is_err());
    }

    #[test]
    fn pre_resilience_json_still_parses() {
        // A report written before the degraded/warnings/fallback_events
        // fields existed must keep parsing, with the new fields defaulted.
        let old = r#"{
            "node_scores": [0.5, 0.25],
            "ranking": [0, 1],
            "edge_scores": [[0, 1, 0.75]],
            "eigenvalues": [1.5],
            "phase_seconds": [0.1, 0.2, 0.3],
            "threads": 2
        }"#;
        let parsed = ReportExport::from_json(old).unwrap();
        assert_eq!(parsed.node_scores, vec![0.5, 0.25]);
        assert!(!parsed.degraded);
        assert!(parsed.warnings.is_empty());
        assert!(parsed.fallback_events.is_empty());
        assert!(parsed.diagnostics().is_empty());
    }

    #[test]
    fn degraded_report_roundtrips_diagnostics() {
        let report = sample_report();
        let mut export = ReportExport::from_report(&report);
        export.degraded = true;
        export.warnings.push("clamped diagonal".to_string());
        export.fallback_events.push(FallbackEvent {
            stage: "phase3/geig".to_string(),
            rung: "dense".to_string(),
            cause: "no convergence".to_string(),
            residual: Some(1e-3),
            elapsed_ms: 42,
        });
        let json = export.to_json().unwrap();
        let back = ReportExport::from_json(&json).unwrap();
        assert!(back.degraded);
        assert_eq!(back.warnings, export.warnings);
        assert_eq!(back.fallback_events, export.fallback_events);
        assert_eq!(back.diagnostics().summary(), export.diagnostics().summary());
    }
}
