//! Prepared-design store: parse + STA + GNN training, cached per netlist.
//!
//! Preparing a design (netlist parse → timing graph → GNN training) is the
//! expensive, analysis-independent prefix of every `analyze`/`sweep`
//! request. The store memoizes the result keyed by a fingerprint of the
//! netlist text and the training epochs, with single-flight deduplication:
//! when concurrent requests miss the same key, one worker trains while the
//! rest block and then share the [`std::sync::Arc`]. Training is seeded
//! (fixed model seed, deterministic STA targets), so every tenant sees the
//! same embedding regardless of arrival order.
//!
//! [`train_timing_gnn`] and [`analysis_config`] are also what `cirstag
//! analyze` runs, so the CLI and the daemon score a netlist identically.

use crate::ServeError;
use cirstag::{CirStagConfig, FailurePolicy, Fingerprint, Fingerprinter};
use cirstag_circuit::{
    extract_features, parse_netlist, CellLibrary, FeatureConfig, Netlist, StaEngine, TimingGraph,
};
use cirstag_embed::KnnMethod;
use cirstag_gnn::{r2_score, Activation, GnnModel, GraphContext, LayerSpec, TrainConfig};
use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A fully prepared design, ready for repeated stability analyses.
#[derive(Debug)]
pub struct PreparedDesign {
    /// Design name from the netlist header.
    pub name: String,
    /// The undirected pin graph `G`.
    pub graph: Graph,
    /// Per-pin features (the pipeline's input-side augmentation).
    pub features: DenseMatrix,
    /// The trained GNN's node embeddings `Y` (the output-side data).
    pub embedding: DenseMatrix,
    /// Training fit quality (R² of normalized arrival-time regression).
    pub r2: f64,
}

struct StoreState {
    ready: BTreeMap<Fingerprint, Arc<PreparedDesign>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Fingerprint>,
    in_flight: BTreeSet<Fingerprint>,
}

/// Concurrency-safe, bounded cache of [`PreparedDesign`]s.
pub struct DesignStore {
    state: Mutex<StoreState>,
    done: Condvar,
    capacity: usize,
}

/// Removes the in-flight mark when a build errors or panics, so waiting
/// tenants retry instead of deadlocking.
struct BuildGuard<'a> {
    store: &'a DesignStore,
    key: Fingerprint,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        self.store.lock().in_flight.remove(&self.key);
        self.store.done.notify_all();
    }
}

impl DesignStore {
    /// A store retaining at most `capacity` prepared designs (FIFO
    /// eviction).
    pub fn new(capacity: usize) -> Self {
        DesignStore {
            state: Mutex::new(StoreState {
                ready: BTreeMap::new(),
                order: VecDeque::new(),
                in_flight: BTreeSet::new(),
            }),
            done: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of designs currently prepared.
    pub fn len(&self) -> usize {
        self.lock().ready.len()
    }

    /// `true` when no design is prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the prepared design for `netlist_text`, building (and
    /// caching) it on first use. Concurrent misses on the same key build
    /// once: the losers block until the winner publishes or fails.
    ///
    /// # Errors
    ///
    /// [`ServeError::Design`] when parsing, timing analysis, or GNN
    /// training fails.
    pub fn get_or_build(
        &self,
        netlist_text: &str,
        epochs: usize,
    ) -> Result<Arc<PreparedDesign>, ServeError> {
        let key = design_key(netlist_text, epochs);
        {
            let mut s = self.lock();
            loop {
                if let Some(d) = s.ready.get(&key) {
                    return Ok(Arc::clone(d));
                }
                if !s.in_flight.contains(&key) {
                    s.in_flight.insert(key);
                    break;
                }
                s = self.done.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let guard = BuildGuard { store: self, key };
        let design = Arc::new(build_design(netlist_text, epochs)?);
        {
            let mut s = self.lock();
            s.ready.insert(key, Arc::clone(&design));
            s.order.push_back(key);
            while s.ready.len() > self.capacity {
                if let Some(oldest) = s.order.pop_front() {
                    s.ready.remove(&oldest);
                } else {
                    break;
                }
            }
        }
        drop(guard); // clears in-flight and wakes waiters
        Ok(design)
    }
}

/// Cache key: netlist text + training epochs (the only build inputs).
fn design_key(netlist_text: &str, epochs: usize) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.write_str("cirstag-design/v1");
    fp.write_str(netlist_text);
    fp.write_usize(epochs);
    fp.finish()
}

/// Parse → STA → GNN training: the CLI's `analyze` preamble on netlist text.
fn build_design(netlist_text: &str, epochs: usize) -> Result<PreparedDesign, ServeError> {
    let library = CellLibrary::standard();
    let netlist = parse_netlist(netlist_text, &library).map_err(design_error)?;
    let timing = TimingGraph::new(&netlist, &library).map_err(design_error)?;
    let graph = timing.to_undirected_graph().map_err(design_error)?;
    let TrainedGnn {
        features,
        embedding,
        r2,
    } = train_timing_gnn(&timing, &netlist, &library, &graph, epochs)?;
    Ok(PreparedDesign {
        name: netlist.name.clone(),
        graph,
        features,
        embedding,
        r2,
    })
}

fn design_error(e: impl std::fmt::Display) -> ServeError {
    ServeError::Design {
        reason: e.to_string(),
    }
}

/// What training the timing GNN on a design yields.
#[derive(Debug)]
pub struct TrainedGnn {
    /// Per-pin features (the pipeline's input-side augmentation).
    pub features: DenseMatrix,
    /// The trained GNN's node embeddings `Y` (the output-side data).
    pub embedding: DenseMatrix,
    /// Training fit quality (R² of normalized arrival-time regression).
    pub r2: f64,
}

/// Trains the timing GNN that both `cirstag analyze` and the daemon run on
/// a design: pin features regressed onto STA arrival times normalized by the
/// critical arrival, through Linear 32 → DagProp 32 → Linear 16 → Linear 1
/// (seed `0xC11`) with Adam at 8e-3, weight decay 1e-5 and gradient clip 5.
///
/// # Errors
///
/// [`ServeError::Design`] when feature extraction or training fails.
pub fn train_timing_gnn(
    timing: &TimingGraph,
    netlist: &Netlist,
    library: &CellLibrary,
    graph: &Graph,
    epochs: usize,
) -> Result<TrainedGnn, ServeError> {
    let arcs: Vec<(usize, usize)> = timing.arcs().iter().map(|&(f, t, _)| (f, t)).collect();
    let ctx = GraphContext::with_dag(graph, &arcs).map_err(design_error)?;
    let features = extract_features(
        timing,
        netlist,
        library,
        &timing.pin_caps(),
        &FeatureConfig::default(),
    )
    .map_err(design_error)?;
    let engine = StaEngine::new(timing);
    let critical = engine.critical_arrival().max(1e-12);
    let targets = DenseMatrix::from_rows(
        &engine
            .arrival_times()
            .iter()
            .map(|&a| vec![a / critical])
            .collect::<Vec<_>>(),
    )
    .map_err(design_error)?;
    let mut model = GnnModel::new(
        features.ncols(),
        &[
            LayerSpec::Linear {
                dim: 32,
                activation: Activation::Relu,
            },
            LayerSpec::DagProp {
                dim: 32,
                activation: Activation::Relu,
            },
            LayerSpec::Linear {
                dim: 16,
                activation: Activation::Relu,
            },
            LayerSpec::Linear {
                dim: 1,
                activation: Activation::Identity,
            },
        ],
        0xC11,
    )
    .map_err(design_error)?;
    model
        .fit_regression(
            &ctx,
            &features,
            &targets,
            None,
            &TrainConfig {
                epochs,
                learning_rate: 8e-3,
                weight_decay: 1e-5,
                clip_norm: 5.0,
                ..TrainConfig::default()
            },
        )
        .map_err(design_error)?;
    let pred = model
        .forward(&ctx, &features, false)
        .map_err(design_error)?;
    let r2 = r2_score(&pred, &targets);
    let embedding = model.embeddings(&ctx, &features).map_err(design_error)?;
    Ok(TrainedGnn {
        features,
        embedding,
        r2,
    })
}

/// The analysis configuration that both `cirstag analyze` and the daemon
/// start from: 16 spectral dimensions, 25 eigenpairs, `k = 10` neighbours
/// chosen by [`KnnMethod::auto`] for a `num_nodes`-pin design, `threads`
/// workers and the Strict or BestEffort failure policy.
pub fn analysis_config(num_nodes: usize, threads: usize, best_effort: bool) -> CirStagConfig {
    let mut config = CirStagConfig {
        embedding_dim: 16,
        num_eigenpairs: 25,
        knn_k: 10,
        num_threads: threads,
        policy: if best_effort {
            FailurePolicy::BestEffort
        } else {
            FailurePolicy::Strict
        },
        ..Default::default()
    };
    config.knn.method = KnnMethod::auto(num_nodes);
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirstag_circuit::{generate_circuit, write_netlist, GeneratorConfig};

    fn tiny_netlist() -> String {
        let library = CellLibrary::standard();
        let netlist = generate_circuit(
            &library,
            &GeneratorConfig {
                num_gates: 30,
                ..Default::default()
            },
            7,
        )
        .unwrap();
        write_netlist(&netlist, &library)
    }

    #[test]
    fn build_error_is_typed_and_store_stays_usable() {
        let store = DesignStore::new(2);
        let err = store.get_or_build("this is not a netlist", 5).unwrap_err();
        assert!(matches!(err, ServeError::Design { .. }));
        // The failed key must not be stuck in-flight.
        let err2 = store.get_or_build("this is not a netlist", 5).unwrap_err();
        assert!(matches!(err2, ServeError::Design { .. }));
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_misses_build_once_and_share() {
        let text = tiny_netlist();
        let store = std::sync::Arc::new(DesignStore::new(2));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let store = std::sync::Arc::clone(&store);
            let text = text.clone();
            handles.push(std::thread::spawn(move || {
                store.get_or_build(&text, 8).unwrap()
            }));
        }
        let designs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(store.len(), 1, "one cache entry for one netlist");
        // Everyone shares the same allocation — training ran once.
        for d in &designs {
            assert!(std::sync::Arc::ptr_eq(d, &designs[0]));
            assert_eq!(d.graph.num_nodes(), d.embedding.nrows());
        }
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let store = DesignStore::new(1);
        let a = tiny_netlist();
        store.get_or_build(&a, 4).unwrap();
        store.get_or_build(&a, 5).unwrap(); // different epochs → different key
        assert_eq!(store.len(), 1, "capacity 1 evicts the older entry");
    }
}
