//! Golden report digests: every result bit of a [`StabilityReport`] —
//! eigenvalues, node scores, edge scores, both manifolds' edges and weights,
//! the degraded flag and the fallback-event sequence — hashed and pinned.
//!
//! Two fixed generator designs (60 and 150 gates) run under the CLI
//! `analyze` configuration (`embedding_dim 16`, `num_eigenpairs 25`,
//! `knn_k 10`, one worker thread), each once per failure policy. Both
//! policies solve `L_Y` through the same fail-fast tree-preconditioned CG
//! (`LaplacianSolver::with_tree_preconditioner`), and no fallback rung fires
//! on these designs, so each design pins one digest for both policies.
//! A fixed synthetic embedding stands in for the trained GNN, so nothing
//! trains in a debug test and the digest depends on the analysis alone.
//!
//! A kernel change that claims to be bit-identical must leave these values
//! unchanged. A change that moves results on purpose re-pins them: the
//! failure message lists every case's actual digest. The values are pinned
//! on x86_64 Linux; the pipeline's transcendental functions come from the
//! platform's libm, so other targets may differ.

use cirstag_suite::circuit::{
    extract_features, generate_circuit, CellLibrary, FeatureConfig, GeneratorConfig, TimingGraph,
};
use cirstag_suite::core::{CirStag, CirStagConfig, FailurePolicy, StabilityReport};
use cirstag_suite::graph::Graph;
use cirstag_suite::linalg::DenseMatrix;

/// `(gates, policy, expected digest)`.
const GOLDEN: [(usize, FailurePolicy, &str); 4] = [
    (60, FailurePolicy::Strict, "1cd8b370a82507bc"),
    (60, FailurePolicy::BestEffort, "1cd8b370a82507bc"),
    (150, FailurePolicy::Strict, "e1bc8feafb9a3624"),
    (150, FailurePolicy::BestEffort, "e1bc8feafb9a3624"),
];

/// Columns of the synthetic embedding.
const EMBEDDING_COLS: usize = 8;

/// 64-bit FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, word: usize) {
        self.u64(word as u64);
    }

    fn f64s(&mut self, values: &[f64]) {
        self.usize(values.len());
        for v in values {
            self.u64(v.to_bits());
        }
    }

    fn text(&mut self, s: &str) {
        self.usize(s.len());
        for byte in s.bytes() {
            self.u64(u64::from(byte));
        }
    }

    fn graph(&mut self, g: &Graph) {
        self.usize(g.num_nodes());
        self.usize(g.num_edges());
        for e in g.edges() {
            self.usize(e.u);
            self.usize(e.v);
            self.u64(e.weight.to_bits());
        }
    }
}

/// The digest of everything a report computes (its timings and the events'
/// wall-clock field excluded).
fn report_digest(report: &StabilityReport) -> String {
    let mut d = Digest::new();
    d.f64s(&report.eigenvalues);
    d.f64s(&report.node_scores);
    d.usize(report.edge_scores.len());
    for &(u, v, s) in &report.edge_scores {
        d.usize(u);
        d.usize(v);
        d.u64(s.to_bits());
    }
    d.graph(&report.input_manifold);
    d.graph(&report.output_manifold);
    d.u64(u64::from(report.degraded));
    d.usize(report.diagnostics.events.len());
    for e in &report.diagnostics.events {
        d.text(&e.stage);
        d.text(&e.rung);
        d.text(&e.cause);
        d.u64(e.residual.map_or(u64::MAX, f64::to_bits));
    }
    d.usize(report.diagnostics.warnings.len());
    for w in &report.diagnostics.warnings {
        d.text(w);
    }
    format!("{:016x}", d.0)
}

/// A pin graph and its features for the fixed design of `gates` gates.
fn design(gates: usize) -> (Graph, DenseMatrix) {
    let library = CellLibrary::standard();
    let netlist = generate_circuit(
        &library,
        &GeneratorConfig {
            num_gates: gates,
            ..Default::default()
        },
        0xD16E_5700 + gates as u64,
    )
    .expect("generator design");
    let timing = TimingGraph::new(&netlist, &library).expect("timing graph");
    let graph = timing.to_undirected_graph().expect("pin graph");
    let features = extract_features(
        &timing,
        &netlist,
        &library,
        &timing.pin_caps(),
        &FeatureConfig::default(),
    )
    .expect("features");
    (graph, features)
}

/// Deterministic stand-in for the GNN embedding: SplitMix64 draws mapped to
/// `[-1, 1)` with integer arithmetic and one exact scaling, so the values
/// are the same bits on every platform.
fn synthetic_embedding(n: usize) -> DenseMatrix {
    let mut state = 0x005E_ED0F_E4B3_D1E5_u64;
    let data = (0..n * EMBEDDING_COLS)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect();
    DenseMatrix::from_vec(n, EMBEDDING_COLS, data).expect("embedding shape")
}

/// The CLI `analyze` configuration on one worker thread.
fn cli_config(policy: FailurePolicy) -> CirStagConfig {
    CirStagConfig {
        embedding_dim: 16,
        num_eigenpairs: 25,
        knn_k: 10,
        num_threads: 1,
        policy,
        ..Default::default()
    }
}

#[test]
fn reports_match_golden_digests() {
    let mut mismatches = Vec::new();
    let mut actual = Vec::new();
    for gates in [60, 150] {
        let (graph, features) = design(gates);
        let embedding = synthetic_embedding(graph.num_nodes());
        for policy in [FailurePolicy::Strict, FailurePolicy::BestEffort] {
            let report = CirStag::new(cli_config(policy))
                .analyze(&graph, Some(&features), &embedding)
                .unwrap_or_else(|e| panic!("{gates} gates, {policy:?}: {e}"));
            let digest = report_digest(&report);
            let expected = GOLDEN
                .iter()
                .find(|(g, p, _)| *g == gates && *p == policy)
                .map(|&(_, _, hex)| hex)
                .expect("every case has a golden value");
            if digest != expected {
                mismatches.push(format!("{gates} gates {policy:?}: expected {expected}"));
            }
            actual.push(format!(
                "    ({gates}, FailurePolicy::{policy:?}, \"{digest}\"),"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "report digests moved ({}); actual values:\n{}",
        mismatches.join("; "),
        actual.join("\n")
    );
}
