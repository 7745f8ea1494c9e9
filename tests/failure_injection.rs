//! Failure-injection integration tests: malformed, degenerate and adversarial
//! inputs must surface as typed errors (or well-defined fallbacks), never as
//! panics, hangs or silent garbage.

use cirstag_suite::circuit::{parse_netlist, CellLibrary};
use cirstag_suite::core::{CirStag, CirStagConfig, CirStagError};
use cirstag_suite::embed::{knn_graph, spectral_embedding, KnnConfig, SpectralConfig};
use cirstag_suite::gnn::{Activation, GnnModel, GraphContext, LayerSpec, TrainConfig};
use cirstag_suite::graph::Graph;
use cirstag_suite::linalg::DenseMatrix;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The failpoint registry (`failpoints` feature) is process-global and the
/// pipeline consults it on every run, so every test in this file holds this
/// lock: a failpoint armed in the `failpoints` module never fires inside a
/// test running beside it.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn ring(n: usize) -> Graph {
    Graph::from_edges(
        n,
        &(0..n).map(|i| (i, (i + 1) % n, 1.0)).collect::<Vec<_>>(),
    )
    .unwrap()
}

#[test]
fn nan_embedding_is_rejected_not_propagated() {
    let _s = serial();
    let g = ring(10);
    let mut emb = DenseMatrix::zeros(10, 2);
    emb.set(3, 1, f64::NAN);
    let err = CirStag::new(CirStagConfig::default())
        .analyze(&g, None, &emb)
        .unwrap_err();
    assert!(matches!(err, CirStagError::Embed(_)), "got {err:?}");
}

#[test]
fn constant_embedding_still_produces_finite_scores() {
    let _s = serial();
    // A GNN that collapses every node to the same point: kNN distances all
    // hit the ε floor; the pipeline must survive and return finite scores.
    let g = ring(12);
    let emb = DenseMatrix::from_vec(12, 3, vec![1.0; 36]).unwrap();
    let report = CirStag::new(CirStagConfig {
        embedding_dim: 4,
        knn_k: 4,
        num_eigenpairs: 3,
        ..Default::default()
    })
    .analyze(&g, None, &emb)
    .unwrap();
    assert!(report.node_scores.iter().all(|s| s.is_finite()));
}

#[test]
fn adversarial_embedding_with_extreme_outlier() {
    let _s = serial();
    // One node mapped astronomically far away must not destabilize the rest.
    let n = 16;
    let g = ring(n);
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64 * std::f64::consts::TAU;
            vec![t.cos(), t.sin()]
        })
        .collect();
    rows[5] = vec![1e12, -1e12];
    let emb = DenseMatrix::from_rows(&rows).unwrap();
    let report = CirStag::new(CirStagConfig {
        embedding_dim: 4,
        knn_k: 4,
        num_eigenpairs: 3,
        ..Default::default()
    })
    .analyze(&g, None, &emb)
    .unwrap();
    assert!(report.node_scores.iter().all(|s| s.is_finite()));
    // The outlier should rank among the most unstable nodes.
    let ranking = report.ranking();
    let pos = ranking.iter().position(|&i| i == 5).unwrap();
    assert!(pos < n / 2, "outlier ranked only {pos}");
}

#[test]
fn disconnected_input_graph_is_a_typed_error() {
    let _s = serial();
    let g = Graph::from_edges(8, &[(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0), (6, 7, 1.0)]).unwrap();
    let emb = DenseMatrix::zeros(8, 2);
    // Spectral embedding itself works on disconnected graphs, but Phase 3
    // needs a connected output manifold; the kNN backbone provides it, so
    // the *input-graph* disconnection only matters for skip_dimension_reduction.
    let err = CirStag::new(CirStagConfig {
        skip_dimension_reduction: true,
        embedding_dim: 3,
        knn_k: 3,
        num_eigenpairs: 2,
        ..Default::default()
    })
    .analyze(&g, None, &emb);
    // Either a clean error (preferred) or finite scores are acceptable; a
    // panic or NaN is not. With a constant zero embedding, the output kNN
    // manifold is connected via the backbone, so the L_X side decides.
    if let Ok(report) = err {
        assert!(report.node_scores.iter().all(|s| s.is_finite()));
    }
}

#[test]
fn truncated_netlist_file_fails_with_line_info() {
    let _s = serial();
    let lib = CellLibrary::standard();
    let text = ".model broken\n.inputs a b\n.gate NAND2 a b"; // missing output + .end
    let err = parse_netlist(text, &lib).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 3"), "unhelpful message: {msg}");
}

#[test]
fn gnn_divergence_is_reported_not_propagated_as_nan() {
    let _s = serial();
    // An absurd learning rate should either diverge (typed error) or still
    // yield finite parameters — never silently produce NaN predictions.
    let g = ring(8);
    let ctx = GraphContext::new(&g);
    let x =
        DenseMatrix::from_rows(&(0..8).map(|i| vec![i as f64 * 1e3]).collect::<Vec<_>>()).unwrap();
    let y = x.clone();
    let mut model = GnnModel::new(
        1,
        &[
            LayerSpec::Gcn {
                dim: 8,
                activation: Activation::Relu,
            },
            LayerSpec::Linear {
                dim: 1,
                activation: Activation::Identity,
            },
        ],
        1,
    )
    .unwrap();
    let result = model.fit_regression(
        &ctx,
        &x,
        &y,
        None,
        &TrainConfig {
            epochs: 50,
            learning_rate: 1e6,
            weight_decay: 0.0,
            clip_norm: 0.0,
            ..TrainConfig::default()
        },
    );
    match result {
        Err(e) => assert!(e.to_string().contains("diverged")),
        Ok(_) => {
            let pred = model.forward(&ctx, &x, false).unwrap();
            assert!(pred.all_finite(), "silent NaN predictions");
        }
    }
}

#[test]
fn knn_with_excessive_k_is_rejected() {
    let _s = serial();
    let pts = DenseMatrix::zeros(5, 2);
    assert!(knn_graph(&pts, 5, &KnnConfig::default()).is_err());
    assert!(knn_graph(&pts, 0, &KnnConfig::default()).is_err());
}

#[test]
fn spectral_embedding_on_single_edge_graph() {
    let _s = serial();
    // Degenerate two-node graph: the embedding must still be well defined.
    let g = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
    let u = spectral_embedding(&g, 1, &SpectralConfig::default()).unwrap();
    assert_eq!(u.shape(), (2, 1));
    assert!(u.all_finite());
}

#[test]
fn best_effort_without_failures_matches_strict_bitwise() {
    let _s = serial();
    // The BestEffort policy must be a pure superset: when nothing fails, it
    // takes exactly the same numeric path as Strict (bit-identical scores)
    // and reports a clean run.
    use cirstag_suite::core::FailurePolicy;
    let n = 24;
    let g = ring(n);
    let emb = DenseMatrix::from_rows(
        &(0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![t.cos(), t.sin()]
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let base = CirStagConfig {
        embedding_dim: 4,
        knn_k: 4,
        num_eigenpairs: 3,
        ..Default::default()
    };
    let strict = CirStag::new(base).analyze(&g, None, &emb).unwrap();
    let best_effort = CirStag::new(CirStagConfig {
        policy: FailurePolicy::BestEffort,
        ..base
    })
    .analyze(&g, None, &emb)
    .unwrap();
    assert_eq!(strict.node_scores, best_effort.node_scores);
    assert_eq!(strict.eigenvalues, best_effort.eigenvalues);
    assert!(!best_effort.degraded);
    assert!(best_effort.diagnostics.is_empty());
}

#[test]
fn zero_feature_weight_ignores_feature_garbage() {
    let _s = serial();
    // With feature_weight = 0 the pipeline must not even look at feature
    // values — huge magnitudes are fine.
    let n = 12;
    let g = ring(n);
    let emb = DenseMatrix::from_rows(
        &(0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![t.cos(), t.sin()]
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let garbage = DenseMatrix::from_vec(n, 1, vec![1e30; n]).unwrap();
    let cfg = CirStagConfig {
        embedding_dim: 4,
        knn_k: 4,
        num_eigenpairs: 3,
        feature_weight: 0.0,
        ..Default::default()
    };
    let with = CirStag::new(cfg).analyze(&g, Some(&garbage), &emb).unwrap();
    let without = CirStag::new(cfg).analyze(&g, None, &emb).unwrap();
    assert_eq!(with.node_scores, without.node_scores);
}

/// Deterministic failpoint-driven tests: one per fallback-ladder rung.
///
/// The failpoint registry is process-global, so every test here takes the
/// file's lock (see [`serial`]), starts from a disarmed registry, and
/// disarms again on drop (even when the test panics).
#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use cirstag_suite::core::failpoint as fp;
    use cirstag_suite::core::{
        ArtifactCache, CancelToken, FailurePolicy, ReportExport, StabilityReport, StageBudget,
    };
    use cirstag_suite::solver::{CgOptions, LadderRung, LaplacianSolver};
    use std::sync::{mpsc, Arc, MutexGuard};
    use std::time::Duration;

    struct Serial {
        _guard: MutexGuard<'static, ()>,
    }

    impl Drop for Serial {
        fn drop(&mut self) {
            fp::reset();
        }
    }

    fn serial() -> Serial {
        let guard = super::serial();
        fp::reset();
        Serial { _guard: guard }
    }

    fn grid(side: usize) -> Graph {
        let n = side * side;
        let mut edges = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
                if c + 1 < side {
                    edges.push((i, i + 1, 1.0));
                }
                if r + 1 < side {
                    edges.push((i, i + side, 1.0));
                }
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    fn circle_embedding(n: usize) -> DenseMatrix {
        DenseMatrix::from_rows(
            &(0..n)
                .map(|i| {
                    let t = i as f64 / n as f64 * std::f64::consts::TAU;
                    vec![t.cos(), t.sin(), (2.0 * t).sin()]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn cfg(policy: FailurePolicy) -> CirStagConfig {
        CirStagConfig {
            embedding_dim: 4,
            knn_k: 4,
            num_eigenpairs: 3,
            policy,
            ..Default::default()
        }
    }

    /// Rung names of every fallback event recorded for `stage`, in order.
    fn rungs_for<'a>(report: &'a StabilityReport, stage: &str) -> Vec<&'a str> {
        report
            .diagnostics
            .events
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.rung.as_str())
            .collect()
    }

    fn assert_finite(report: &StabilityReport) {
        assert!(
            report.node_scores.iter().all(|s| s.is_finite()),
            "non-finite node scores"
        );
        assert!(
            report.eigenvalues.iter().all(|z| z.is_finite()),
            "non-finite eigenvalues"
        );
    }

    // ---- Phase 1 ladder --------------------------------------------------

    #[test]
    fn lanczos_retry_rung_rescues_phase1() {
        let _s = serial();
        fp::arm("solver/lanczos", fp::FailAction::Error, 1);
        let g = ring(20);
        let report = CirStag::new(cfg(FailurePolicy::BestEffort))
            .analyze(&g, None, &circle_embedding(20))
            .unwrap();
        assert!(report.degraded);
        assert_eq!(rungs_for(&report, "phase1/eigs"), vec!["retry"]);
        assert_finite(&report);
    }

    #[test]
    fn dense_symeig_rung_rescues_phase1() {
        let _s = serial();
        // First attempt AND the re-seeded retry both fail -> dense fallback.
        fp::arm("solver/lanczos", fp::FailAction::Error, 2);
        let g = ring(20);
        let report = CirStag::new(cfg(FailurePolicy::BestEffort))
            .analyze(&g, None, &circle_embedding(20))
            .unwrap();
        assert!(report.degraded);
        assert_eq!(rungs_for(&report, "phase1/eigs"), vec!["retry", "dense"]);
        assert_finite(&report);
    }

    #[test]
    fn strict_policy_fails_fast_on_phase1_eigensolve() {
        let _s = serial();
        fp::arm("solver/lanczos", fp::FailAction::Error, 1);
        let g = ring(20);
        let err = CirStag::new(cfg(FailurePolicy::Strict))
            .analyze(&g, None, &circle_embedding(20))
            .unwrap_err();
        assert!(matches!(err, CirStagError::Embed(_)), "got {err:?}");
        // Strict means fail-fast: the failpoint fired once, no retry.
        assert_eq!(fp::hits("solver/lanczos"), 1);
    }

    // ---- CG ladder (Tree -> Dense) ------------------------------------------

    #[test]
    fn cg_ladder_escalates_rung_by_rung_to_dense() {
        let _s = serial();
        let g = ring(12);
        let solver = LaplacianSolver::with_ladder(&g, CgOptions::default()).unwrap();
        // One CG failure steps Tree -> Dense.
        fp::arm("solver/cg", fp::FailAction::Error, 1);
        let mut b = vec![0.0; 12];
        b[0] = 1.0;
        b[5] = -1.0;
        let x = solver.solve(&b).unwrap();
        assert_eq!(solver.current_rung(), LadderRung::Dense);
        let events = solver.take_events();
        let path: Vec<_> = events.iter().map(|e| e.to.name()).collect();
        assert_eq!(path, vec!["dense"]);
        assert_eq!(events[0].from, LadderRung::Tree);
        // The dense rung must still solve the (centered) system accurately.
        let lap = g.laplacian();
        let lx = lap.mul_vec(&x);
        for i in 0..12 {
            assert!(
                (lx[i] - b[i]).abs() < 1e-6,
                "residual at {i}: {}",
                lx[i] - b[i]
            );
        }
        // Escalation is sticky: the next solve stays on Dense, no new events.
        let _ = solver.solve(&b).unwrap();
        assert!(solver.take_events().is_empty());
        assert_eq!(solver.current_rung(), LadderRung::Dense);
    }

    #[test]
    fn block_column_failpoint_escalates_without_poisoning_converged_columns() {
        let _s = serial();
        let g = grid(5);
        let n = g.num_nodes();
        // One RHS column per probe edge: b = e_u − e_v.
        let probes: Vec<(usize, usize)> = g.edges().iter().take(3).map(|e| (e.u, e.v)).collect();
        let mut b = DenseMatrix::zeros(n, probes.len());
        for (j, &(u, v)) in probes.iter().enumerate() {
            b.set(u, j, 1.0);
            b.set(v, j, -1.0);
        }

        // Reference: the same panel through an unpoisoned escalating solver.
        let clean_solver = LaplacianSolver::with_ladder(&g, CgOptions::default()).unwrap();
        let clean = clean_solver.solve_block(&b).unwrap();
        assert!(
            clean_solver.take_events().is_empty(),
            "clean run must not escalate"
        );

        // Poisoned: the failpoint freezes the lowest-indexed live column
        // before round 0, so it exhausts the tree rung while the other
        // columns converge normally and are frozen into the result.
        fp::arm("solver/cg-block-column", fp::FailAction::Error, 1);
        let solver = LaplacianSolver::with_ladder(&g, CgOptions::default()).unwrap();
        let x = solver.solve_block(&b).unwrap();
        let events = solver.take_events();
        assert_eq!(events.len(), 1, "exactly one escalation: {events:?}");
        assert_eq!(events[0].to, LadderRung::Dense);
        assert!(
            events[0].cause.contains("block"),
            "cause names the block solver: {}",
            events[0].cause
        );

        // The columns that converged on the first rung were never retried:
        // bit-identical to the clean run.
        for j in 1..probes.len() {
            for i in 0..n {
                assert_eq!(
                    x.get(i, j).to_bits(),
                    clean.get(i, j).to_bits(),
                    "converged column {j} was poisoned at row {i}"
                );
            }
        }
        // The failed column was re-solved on the dense rung: different float
        // path, but still an accurate solution of the same system.
        for i in 0..n {
            assert!(x.get(i, 0).is_finite());
            assert!(
                (x.get(i, 0) - clean.get(i, 0)).abs() < 1e-6,
                "retried column drifted at row {i}: {} vs {}",
                x.get(i, 0),
                clean.get(i, 0)
            );
        }
    }

    #[test]
    fn pipeline_reports_phase3_cg_escalation() {
        let _s = serial();
        // With sparsification skipped, the only CG user is the Phase-3
        // generalized eigensolver's inner L_Y solve.
        fp::arm("solver/cg", fp::FailAction::Error, 1);
        let g = ring(20);
        let report = CirStag::new(CirStagConfig {
            skip_manifold_sparsification: true,
            ..cfg(FailurePolicy::BestEffort)
        })
        .analyze(&g, None, &circle_embedding(20))
        .unwrap();
        assert!(report.degraded);
        assert_eq!(rungs_for(&report, "phase3/cg"), vec!["dense"]);
        assert_finite(&report);
    }

    // ---- Phase 2 ladder --------------------------------------------------

    #[test]
    fn phase2_pgm_ladder_falls_back_to_random_prune() {
        let _s = serial();
        // The first CG solve of the run happens inside the input-side PGM
        // resistance sketch; failing it degrades that stage to random pruning.
        fp::arm("solver/cg", fp::FailAction::Error, 1);
        let g = ring(20);
        let report = CirStag::new(cfg(FailurePolicy::BestEffort))
            .analyze(&g, None, &circle_embedding(20))
            .unwrap();
        assert!(report.degraded);
        assert_eq!(rungs_for(&report, "phase2/pgm-input"), vec!["random-prune"]);
        assert!(rungs_for(&report, "phase2/pgm-output").is_empty());
        assert_finite(&report);
    }

    // ---- Phase 3 ladder --------------------------------------------------

    #[test]
    fn geig_dense_rung_rescues_phase3() {
        let _s = serial();
        fp::arm_always("solver/geig", fp::FailAction::Error);
        let g = ring(20);
        let report = CirStag::new(cfg(FailurePolicy::BestEffort))
            .analyze(&g, None, &circle_embedding(20))
            .unwrap();
        assert!(report.degraded);
        assert_eq!(rungs_for(&report, "phase3/geig"), vec!["retry", "dense"]);
        assert_finite(&report);
        // The dense generalized eigensolver produced a real spectrum, not the
        // zero-spectrum terminal rung.
        assert!(report.eigenvalues[0] > 0.0);
    }

    #[test]
    fn strict_policy_fails_fast_on_phase3_eigensolve() {
        let _s = serial();
        fp::arm("solver/geig", fp::FailAction::Error, 1);
        let g = ring(20);
        let err = CirStag::new(cfg(FailurePolicy::Strict))
            .analyze(&g, None, &circle_embedding(20))
            .unwrap_err();
        assert!(matches!(err, CirStagError::Solver(_)), "got {err:?}");
        assert_eq!(fp::hits("solver/geig"), 1);
    }

    /// A stage error in a cached run must release its single-flight key and
    /// keep the stages that finished before it: the rerun on the same cache
    /// replays Phase 1/2 (3 hits), computes only Phase 3's geig and dmd
    /// (2 misses), and matches an uncached run bit for bit.
    #[test]
    fn failed_cached_run_releases_its_key_and_keeps_finished_stages() {
        let _s = serial();
        let g = ring(20);
        let emb = circle_embedding(20);
        let analyzer = CirStag::new(cfg(FailurePolicy::Strict));
        let cache = Arc::new(ArtifactCache::new());
        fp::arm("solver/geig", fp::FailAction::Error, 1);
        let err = analyzer
            .analyze_cached(&g, None, &emb, &cache, None)
            .unwrap_err();
        assert!(matches!(err, CirStagError::Solver(_)), "got {err:?}");
        assert_eq!(fp::hits("solver/geig"), 1);

        // A leaked in-flight key would block the rerun forever, so it runs
        // on its own thread and a timeout fails the test instead of hanging.
        let (tx, rx) = mpsc::channel();
        let rerun_thread = {
            let (analyzer, g, emb, cache) =
                (analyzer.clone(), g.clone(), emb.clone(), Arc::clone(&cache));
            std::thread::spawn(move || {
                let _ = tx.send(analyzer.analyze_cached(&g, None, &emb, &cache, None));
            })
        };
        let rerun = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("rerun blocked: the failed run leaked its in-flight key")
            .expect("rerun succeeds once the failpoint is spent");
        rerun_thread.join().expect("rerun thread panicked");
        assert_eq!(rerun.timings.cache_hits, 3);
        assert_eq!(rerun.timings.cache_misses, 2);
        assert_bit_identical(&rerun, &analyzer.analyze(&g, None, &emb).unwrap());
    }

    /// A deadline that expires inside a phase stops the run at the next
    /// stage boundary, and the stage that finished before it stays cached:
    /// the rerun on the same cache replays Phase 1 (1 hit), computes the
    /// other four stages (4 misses), and matches an uncached run bit for bit.
    #[test]
    fn deadline_cancels_at_the_next_stage_boundary() {
        let _s = serial();
        let g = ring(20);
        let emb = circle_embedding(20);
        let analyzer = CirStag::new(cfg(FailurePolicy::Strict));
        let cache = ArtifactCache::new();
        fp::arm("phase2/stall", fp::FailAction::StallMs(600), 1);
        let deadline = CancelToken::with_deadline(Duration::from_millis(200));
        let err = analyzer
            .analyze_cached(&g, None, &emb, &cache, Some(&deadline))
            .unwrap_err();
        assert!(
            matches!(
                err,
                CirStagError::Cancelled {
                    stage: "phase2/manifold-input"
                }
            ),
            "got {err:?}"
        );

        let rerun = analyzer
            .analyze_cached(&g, None, &emb, &cache, None)
            .unwrap();
        assert_eq!(rerun.timings.cache_hits, 1);
        assert_eq!(rerun.timings.cache_misses, 4);
        assert_bit_identical(&rerun, &analyzer.analyze(&g, None, &emb).unwrap());
    }

    /// Every result bit of `a` equals `b`'s (timings and cache records aside).
    fn assert_bit_identical(a: &StabilityReport, b: &StabilityReport) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.node_scores), bits(&b.node_scores));
        assert_eq!(bits(&a.eigenvalues), bits(&b.eigenvalues));
        assert_eq!(a.edge_scores, b.edge_scores);
        assert_eq!(a.input_manifold, b.input_manifold);
        assert_eq!(a.output_manifold, b.output_manifold);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.diagnostics.events, b.diagnostics.events);
        assert_eq!(a.diagnostics.warnings, b.diagnostics.warnings);
    }

    // ---- NaN sentinels between phases ------------------------------------

    #[test]
    fn phase1_nan_guard_both_policies() {
        let _s = serial();
        let g = ring(20);
        let emb = circle_embedding(20);
        fp::arm("phase1/nan", fp::FailAction::Nan, 1);
        let err = CirStag::new(cfg(FailurePolicy::Strict))
            .analyze(&g, None, &emb)
            .unwrap_err();
        assert!(
            matches!(err, CirStagError::NonFiniteStage { stage: "phase1" }),
            "got {err:?}"
        );

        fp::reset();
        fp::arm("phase1/nan", fp::FailAction::Nan, 1);
        let report = CirStag::new(cfg(FailurePolicy::BestEffort))
            .analyze(&g, None, &emb)
            .unwrap();
        assert!(report.degraded);
        assert_eq!(rungs_for(&report, "phase1/nan-guard"), vec!["degraded"]);
        assert!(!report.diagnostics.warnings.is_empty());
        assert_finite(&report);
    }

    #[test]
    fn phase3_nan_guard_both_policies() {
        let _s = serial();
        let g = ring(20);
        let emb = circle_embedding(20);
        fp::arm("phase3/nan", fp::FailAction::Nan, 1);
        let err = CirStag::new(cfg(FailurePolicy::Strict))
            .analyze(&g, None, &emb)
            .unwrap_err();
        assert!(
            matches!(err, CirStagError::NonFiniteStage { stage: "phase3" }),
            "got {err:?}"
        );

        fp::reset();
        fp::arm("phase3/nan", fp::FailAction::Nan, 1);
        let report = CirStag::new(cfg(FailurePolicy::BestEffort))
            .analyze(&g, None, &emb)
            .unwrap();
        assert!(report.degraded);
        assert_eq!(rungs_for(&report, "phase3/nan-guard"), vec!["degraded"]);
        assert_finite(&report);
    }

    // ---- Stage budgets ---------------------------------------------------

    #[test]
    fn stage_budget_exhaustion_both_policies() {
        let _s = serial();
        let g = ring(16);
        let emb = circle_embedding(16);
        let with_budget = |policy| CirStagConfig {
            stage_budget: StageBudget {
                wall_clock_ms: Some(150),
            },
            ..cfg(policy)
        };
        fp::arm("phase2/stall", fp::FailAction::StallMs(600), 1);
        let err = CirStag::new(with_budget(FailurePolicy::Strict))
            .analyze(&g, None, &emb)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CirStagError::BudgetExhausted {
                    stage: "phase2",
                    ..
                }
            ),
            "got {err:?}"
        );

        fp::reset();
        fp::arm("phase2/stall", fp::FailAction::StallMs(600), 1);
        let report = CirStag::new(with_budget(FailurePolicy::BestEffort))
            .analyze(&g, None, &emb)
            .unwrap();
        assert!(report.degraded);
        assert_eq!(rungs_for(&report, "phase2"), vec!["budget"]);
        assert_finite(&report);
    }

    // ---- Full injection (acceptance) -------------------------------------

    #[test]
    fn full_injection_best_effort_still_scores() {
        let _s = serial();
        for g in [ring(24), grid(5)] {
            fp::reset();
            fp::arm_always("solver/lanczos", fp::FailAction::Error);
            fp::arm_always("solver/geig", fp::FailAction::Error);
            fp::arm_always("solver/cg", fp::FailAction::Error);
            let n = g.num_nodes();
            let report = CirStag::new(cfg(FailurePolicy::BestEffort))
                .analyze(&g, None, &circle_embedding(n))
                .unwrap();
            assert!(report.degraded);
            assert_finite(&report);
            for stage in [
                "phase1/eigs",
                "phase2/pgm-input",
                "phase2/pgm-output",
                "phase3/geig",
            ] {
                assert!(
                    report.diagnostics.events.iter().any(|e| e.stage == stage),
                    "no fallback event for {stage}: {:?}",
                    report.diagnostics.events
                );
            }
            assert_ne!(report.diagnostics.summary(), "clean run");
            // The degraded report survives the JSON roundtrip intact.
            let json = report.to_json().unwrap();
            let parsed = ReportExport::from_json(&json).unwrap();
            assert!(parsed.degraded);
            assert_eq!(
                parsed.fallback_events.len(),
                report.diagnostics.events.len()
            );
            assert_eq!(parsed.warnings, report.diagnostics.warnings);
        }
    }

    #[test]
    fn full_injection_strict_is_a_typed_error() {
        let _s = serial();
        fp::arm_always("solver/lanczos", fp::FailAction::Error);
        fp::arm_always("solver/geig", fp::FailAction::Error);
        fp::arm_always("solver/cg", fp::FailAction::Error);
        let g = ring(24);
        let err = CirStag::new(cfg(FailurePolicy::Strict))
            .analyze(&g, None, &circle_embedding(24))
            .unwrap_err();
        // Strict surfaces the first failure (the Phase-1 eigensolve) as a
        // typed error rather than attempting any fallback.
        assert!(matches!(err, CirStagError::Embed(_)), "got {err:?}");
    }
}
