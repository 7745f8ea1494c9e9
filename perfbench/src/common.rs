//! Pieces shared by the workloads: the result accumulator, the design
//! preparation path and the CLI's analysis configuration.

use crate::trace;
use cirstag::{CirStagConfig, FailurePolicy};
use cirstag_circuit::{
    extract_features, parse_netlist, CellLibrary, FeatureConfig, StaEngine, TimingGraph,
};
use cirstag_embed::KnnMethod;
use cirstag_gnn::{Activation, GnnModel, GraphContext, LayerSpec, TrainConfig};
use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// GNN training epochs for every prepared design. Lower than the CLI's
/// default of 200 to keep set-up short; the pipeline's cost does not depend
/// on how well the GNN fits.
pub const EPOCHS: usize = 40;

/// Worker threads of every analysis the benchmark runs. On the 2-core
/// reference host a 2-thread pool made repeated cold analyses of one
/// 1.3k-pin design take 1.44–2.34 s, against 1.32–1.49 s on one thread, so
/// the benchmark pins one thread and makes no thread-scaling claim.
pub const THREADS: usize = 1;

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics: name → (value, unit).
    pub e2e: BTreeMap<String, (f64, &'static str)>,
    /// Per-layer metrics from the traced run: name → (value, unit).
    pub layer: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted (analyses, diffs, requests, output checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.insert(name.to_string(), (value, unit));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.insert(name.to_string(), (value, unit));
    }

    /// Counts one operation; a failure also leaves a note.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Counts a failed operation from an error.
    pub fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.op(false, || format!("{what}: {err}"));
    }
}

/// A design ready for analysis: the circuit graph, its pin features and the
/// trained GNN's node embeddings.
pub struct Prepared {
    /// Undirected pin graph.
    pub graph: Graph,
    /// Per-pin features.
    pub features: DenseMatrix,
    /// GNN output embedding.
    pub embedding: DenseMatrix,
    /// Wall time of parse + STA graph + feature extraction, seconds.
    pub prepare_s: f64,
    /// Wall time of GNN training + embedding extraction, seconds.
    pub train_s: f64,
}

/// Parses `netlist_text`, builds the timing graph, extracts features and
/// trains the timing GNN exactly as `cirstag analyze` does (same
/// architecture, seed and optimiser).
///
/// # Errors
///
/// Any circuit or GNN error, as text.
pub fn prepare(library: &CellLibrary, netlist_text: &str) -> Result<Prepared, String> {
    let t = Instant::now();
    let (prepared, _) = trace::span("circuit.prepare", || {
        let netlist = parse_netlist(netlist_text, library).map_err(|e| e.to_string())?;
        let timing = TimingGraph::new(&netlist, library).map_err(|e| e.to_string())?;
        let graph = timing.to_undirected_graph().map_err(|e| e.to_string())?;
        let caps = timing.pin_caps();
        let features =
            extract_features(&timing, &netlist, library, &caps, &FeatureConfig::default())
                .map_err(|e| e.to_string())?;
        Ok::<_, String>((timing, graph, features))
    });
    let (timing, graph, features) = prepared?;
    let prepare_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (embedding, _) = trace::span("gnn.train", || train(&timing, &graph, &features));
    let embedding = embedding?;
    Ok(Prepared {
        graph,
        features,
        embedding,
        prepare_s,
        train_s: t.elapsed().as_secs_f64(),
    })
}

/// The CLI's timing GNN: regress normalised STA arrival times, return the
/// penultimate-layer embeddings.
fn train(
    timing: &TimingGraph,
    graph: &Graph,
    features: &DenseMatrix,
) -> Result<DenseMatrix, String> {
    let arcs: Vec<(usize, usize)> = timing.arcs().iter().map(|&(f, t, _)| (f, t)).collect();
    let ctx = GraphContext::with_dag(graph, &arcs).map_err(|e| e.to_string())?;
    let engine = StaEngine::new(timing);
    let critical = engine.critical_arrival().max(1e-12);
    let targets = DenseMatrix::from_rows(
        &engine
            .arrival_times()
            .iter()
            .map(|&a| vec![a / critical])
            .collect::<Vec<_>>(),
    )
    .map_err(|e| e.to_string())?;
    let relu = Activation::Relu;
    let mut model = GnnModel::new(
        features.ncols(),
        &[
            LayerSpec::Linear {
                dim: 32,
                activation: relu,
            },
            LayerSpec::DagProp {
                dim: 32,
                activation: relu,
            },
            LayerSpec::Linear {
                dim: 16,
                activation: relu,
            },
            LayerSpec::Linear {
                dim: 1,
                activation: Activation::Identity,
            },
        ],
        0xC11,
    )
    .map_err(|e| e.to_string())?;
    let config = TrainConfig {
        epochs: EPOCHS,
        learning_rate: 8e-3,
        weight_decay: 1e-5,
        clip_norm: 5.0,
        ..TrainConfig::default()
    };
    model
        .fit_regression(&ctx, features, &targets, None, &config)
        .map_err(|e| e.to_string())?;
    model.embeddings(&ctx, features).map_err(|e| e.to_string())
}

/// The `cirstag analyze` configuration for a design of `nodes` pins:
/// `embedding_dim 16`, `num_eigenpairs 25`, `knn_k 10`, strict policy, and
/// `--knn auto` (exact search up to 3000 pins, an rp-forest above), on
/// [`THREADS`] threads.
pub fn cli_config(nodes: usize) -> CirStagConfig {
    let mut config = CirStagConfig {
        embedding_dim: 16,
        num_eigenpairs: 25,
        knn_k: 10,
        num_threads: THREADS,
        policy: FailurePolicy::Strict,
        ..Default::default()
    };
    if nodes > 3000 {
        config.knn.method = KnnMethod::RpForest {
            num_trees: 6,
            leaf_size: 48,
        };
    }
    config
}

/// How much work a scenario segment does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// The workload's own scenario: keep going until this much time has
    /// passed (at least one operation).
    Time(Duration),
    /// A cross-scenario segment: a fixed number of operations, so its
    /// sample count, and with it its tail percentile, is the same every run.
    Ops(usize),
}

impl Budget {
    /// Whether a scenario that has been busy for `busy` and has completed
    /// `done` operations should stop.
    pub fn spent(self, busy: Duration, done: usize) -> bool {
        match self {
            Budget::Time(d) => done > 0 && busy >= d,
            Budget::Ops(n) => done >= n,
        }
    }

    /// Share of the budget used, in `[0, 1]`.
    pub fn progress(self, busy: Duration, done: usize) -> f64 {
        let share = match self {
            Budget::Time(d) => busy.as_secs_f64() / d.as_secs_f64().max(1e-9),
            Budget::Ops(0) => 1.0,
            Budget::Ops(n) => done as f64 / n as f64,
        };
        share.min(1.0)
    }
}

/// One scenario of a workload, advanced one operation at a time. The host
/// the benchmark was tuned on slows down for tens of seconds at a time, so
/// a workload spreads the short segments of the other scenarios across its
/// own run instead of timing each in one burst. Time budgets count only the
/// time a scenario spends in its own steps.
pub trait Scenario {
    /// Runs the next operation; `false` once the budget is spent.
    fn step(&mut self, out: &mut Outcome) -> bool;
    /// Share of the work done, in `[0, 1]`.
    fn progress(&self) -> f64;
    /// Records the scenario's metrics and runs its once-per-run checks.
    fn finish(&mut self, out: &mut Outcome);
}

/// Milliseconds in a `Duration`, as a float.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
