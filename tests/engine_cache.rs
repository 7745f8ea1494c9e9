//! Property-based correctness of the per-stage artifact cache: for any
//! graph and any pair of configs differing only in Phase-3 fields, an
//! incremental re-run (Phase-1/2 artifacts replayed from cache) must be
//! bit-identical to a cold run of the same config — scores, eigenvalues,
//! manifolds, degraded flag, and the fallback-event sequence (compared
//! without `elapsed_ms`, the one field that legitimately re-times).
//!
//! The whole property lives in a single `#[test]` because the worker-thread
//! count is process-global: the property primes the cache at one thread
//! count and replays at another, which also pins that cache keys exclude
//! `num_threads` (results are thread-count independent).

use cirstag_suite::core::{
    ArtifactCache, CirStag, CirStagConfig, FailurePolicy, FallbackEvent, StabilityReport,
};
use cirstag_suite::graph::Graph;
use cirstag_suite::linalg::DenseMatrix;
use proptest::prelude::*;

/// Random connected graph: a ring plus random chords, 10–32 nodes.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (
        10usize..32,
        proptest::collection::vec((0usize..1000, 0usize..1000, 0.2f64..5.0), 0..20),
    )
        .prop_map(|(n, chords)| {
            let mut edges: Vec<(usize, usize, f64)> =
                (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
            for (a, b, w) in chords {
                let u = a % n;
                let v = b % n;
                if u != v {
                    edges.push((u, v, w));
                }
            }
            Graph::from_edges(n, &edges).expect("valid edges")
        })
}

/// Deterministic synthetic GNN output embedding.
fn synth_embedding(n: usize, dim: usize, scale: f64) -> DenseMatrix {
    DenseMatrix::from_rows(
        &(0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| (scale * (i * (j + 2)) as f64 * 0.37).sin())
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>(),
    )
    .expect("well-formed rows")
}

/// Events without their wall-clock field, which re-times on every run.
fn event_shapes(events: &[FallbackEvent]) -> Vec<(String, String, String, Option<u64>)> {
    events
        .iter()
        .map(|e| {
            (
                e.stage.clone(),
                e.rung.clone(),
                e.cause.clone(),
                e.residual.map(f64::to_bits),
            )
        })
        .collect()
}

fn assert_bit_identical(cold: &StabilityReport, warm: &StabilityReport) {
    assert_eq!(cold.node_scores, warm.node_scores, "node scores diverge");
    assert_eq!(cold.edge_scores, warm.edge_scores, "edge scores diverge");
    assert_eq!(cold.eigenvalues, warm.eigenvalues, "eigenvalues diverge");
    assert_eq!(
        cold.input_manifold, warm.input_manifold,
        "input manifold diverges"
    );
    assert_eq!(
        cold.output_manifold, warm.output_manifold,
        "output manifold diverges"
    );
    assert_eq!(cold.degraded, warm.degraded, "degraded flag diverges");
    assert_eq!(
        event_shapes(&cold.diagnostics.events),
        event_shapes(&warm.diagnostics.events),
        "fallback events diverge"
    );
    assert_eq!(
        cold.diagnostics.warnings, warm.diagnostics.warnings,
        "warnings diverge"
    );
}

/// Two tenants racing on the same fingerprint through one shared
/// [`ArtifactCache`] must deduplicate single-flight: each cacheable
/// stage is computed exactly once across both runs (5 misses total), the
/// other run replays it (5 hits total), and both reports are bit-identical
/// to a cold, uncached run.
#[test]
fn shared_cache_concurrent_tenants_compute_once_and_replay_identically() {
    let n = 24;
    let mut edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
    edges.push((0, 12, 2.0));
    edges.push((3, 17, 0.7));
    edges.push((8, 21, 1.4));
    let g = std::sync::Arc::new(cirstag_suite::graph::Graph::from_edges(n, &edges).expect("graph"));
    let emb = std::sync::Arc::new(synth_embedding(n, 4, 1.3));
    let config = CirStagConfig {
        embedding_dim: 4,
        knn_k: 4,
        num_eigenpairs: 3,
        num_threads: 1,
        ..Default::default()
    };

    let cold = CirStag::new(config)
        .analyze(&g, None, &emb)
        .expect("cold reference run");

    let shared = std::sync::Arc::new(ArtifactCache::new());
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let g = std::sync::Arc::clone(&g);
        let emb = std::sync::Arc::clone(&emb);
        let shared = std::sync::Arc::clone(&shared);
        let barrier = std::sync::Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            CirStag::new(config)
                .analyze_cached(&g, None, &emb, &shared, None)
                .expect("shared run")
        }));
    }
    let reports: Vec<StabilityReport> = handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread"))
        .collect();

    let hits: usize = reports.iter().map(|r| r.timings.cache_hits).sum();
    let misses: usize = reports.iter().map(|r| r.timings.cache_misses).sum();
    assert_eq!(misses, 5, "each cacheable stage computed exactly once");
    assert_eq!(hits, 5, "the other tenant replayed every cacheable stage");
    for r in &reports {
        assert_bit_identical(&cold, r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_rerun_is_bit_identical_to_cold(
        g in arb_connected_graph(),
        scale in 0.5f64..3.0,
        s_first in 1usize..5,
        s_second in 1usize..5,
        geig_iter in 60usize..160,
        best_effort in (0usize..2).prop_map(|b| b == 1),
        use_features in (0usize..2).prop_map(|b| b == 1),
    ) {
        let n = g.num_nodes();
        let emb = synth_embedding(n, 3, scale);
        let features = synth_embedding(n, 2, scale + 0.25);
        let feats = if use_features { Some(&features) } else { None };
        let base = CirStagConfig {
            embedding_dim: 5,
            knn_k: 4,
            num_eigenpairs: s_first,
            feature_weight: if use_features { 0.5 } else { 0.0 },
            num_threads: 1,
            policy: if best_effort {
                FailurePolicy::BestEffort
            } else {
                FailurePolicy::Strict
            },
            ..Default::default()
        };
        // Second config differs ONLY in Phase-3 fields (plus the thread
        // count, which cache keys deliberately exclude).
        let second = CirStagConfig {
            num_eigenpairs: s_second,
            geig_max_iter: geig_iter,
            num_threads: 4,
            ..base
        };

        // Reference: cold, uncached runs of both configs.
        let cold_first = CirStag::new(base).analyze(&g, feats, &emb).expect("cold first");
        let cold_second = CirStag::new(second).analyze(&g, feats, &emb).expect("cold second");

        // Incremental: prime a disk-backed cache with the first config,
        // then re-run with the second — Phase 1/2 must replay from cache.
        let disk = std::env::temp_dir().join(format!(
            "cirstag_engine_cache_{n}_{}_{s_first}_{s_second}_{geig_iter}_{best_effort}_{use_features}",
            scale.to_bits()
        ));
        std::fs::remove_dir_all(&disk).ok();
        let cache = ArtifactCache::new().with_disk_dir(&disk);

        let warm_first = CirStag::new(base)
            .analyze_cached(&g, feats, &emb, &cache, None)
            .expect("warm first");
        prop_assert_eq!(warm_first.timings.cache_hits, 0, "first cached run is all misses");
        prop_assert_eq!(warm_first.timings.cache_misses, 5);
        assert_bit_identical(&cold_first, &warm_first);

        let warm_second = CirStag::new(second)
            .analyze_cached(&g, feats, &emb, &cache, None)
            .expect("warm second");
        // Phase-1 embedding and both Phase-2 manifolds replay; the Phase-3
        // geig + dmd stages recompute (unless both configs coincide).
        prop_assert!(
            warm_second.timings.cache_hits >= 3,
            "expected >= 3 hits, got {} ({} misses)",
            warm_second.timings.cache_hits,
            warm_second.timings.cache_misses
        );
        assert_bit_identical(&cold_second, &warm_second);

        // A second replay of the same config hits every cacheable stage,
        // even through a fresh cache restored from the disk layer alone.
        let fresh = ArtifactCache::new().with_disk_dir(&disk);
        let replayed = CirStag::new(second)
            .analyze_cached(&g, feats, &emb, &fresh, None)
            .expect("disk replay");
        prop_assert_eq!(replayed.timings.cache_hits, 5, "disk layer misses");
        prop_assert_eq!(replayed.timings.cache_misses, 0);
        assert_bit_identical(&cold_second, &replayed);

        std::fs::remove_dir_all(&disk).ok();
    }
}
