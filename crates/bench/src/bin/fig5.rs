//! Regenerates Fig. 5: CirSTAG runtime across the nine benchmarks.
//!
//! The GNN is used untrained here (runtime is independent of weight values),
//! so the numbers isolate the CirSTAG pipeline itself. A log–log regression
//! of total time against |V| + |E| checks the near-linear claim.
//!
//! Usage: `cargo run -p cirstag-bench --release --bin fig5 [-- --quick]`

use cirstag::{CirStag, CirStagConfig};
use cirstag_circuit::{
    benchmark_suite, extract_features, generate_circuit, CellLibrary, FeatureConfig,
    GeneratorConfig, TimingGraph,
};
use cirstag_embed::KnnMethod;
use cirstag_gnn::{Activation, GnnModel, GraphContext, LayerSpec};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let suite = benchmark_suite();
    let specs: Vec<_> = if quick {
        suite.into_iter().take(5).collect()
    } else {
        suite
    };
    let library = CellLibrary::standard();

    println!("\nFig. 5 reproduction — CirSTAG runtime vs problem size\n");
    println!(
        "{:>12} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "|V|", "|E|", "phase1", "phase2", "phase3", "total"
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for spec in &specs {
        let netlist = generate_circuit(
            &library,
            &GeneratorConfig {
                num_gates: spec.num_gates,
                ..Default::default()
            },
            spec.seed,
        )
        .expect("generate");
        let timing = TimingGraph::new(&netlist, &library).expect("timing graph");
        let graph = timing.to_undirected_graph().expect("pin graph");
        let arcs: Vec<(usize, usize)> = timing.arcs().iter().map(|&(f, t, _)| (f, t)).collect();
        let ctx = GraphContext::with_dag(&graph, &arcs).expect("context");
        let features = extract_features(
            &timing,
            &netlist,
            &library,
            &timing.pin_caps(),
            &FeatureConfig::default(),
        )
        .expect("features");
        // Untrained model — embeddings only need to exist for timing runs.
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
            1,
        )
        .expect("model");
        let embedding = model.embeddings(&ctx, &features).expect("embedding");

        let n = graph.num_nodes();
        let mut cfg = CirStagConfig {
            embedding_dim: 16,
            num_eigenpairs: 25,
            knn_k: 10,
            feature_weight: 0.0,
            ..Default::default()
        };
        cfg.knn.method = KnnMethod::auto(n);
        let report = CirStag::new(cfg)
            .analyze(&graph, Some(&features), &embedding)
            .expect("cirstag");
        let t = report.timings;
        println!(
            "{:>12} {:>9} {:>9} {:>9.2}s {:>9.2}s {:>9.2}s {:>9.2}s",
            spec.name,
            n,
            graph.num_edges(),
            t.phase1.as_secs_f64(),
            t.phase2.as_secs_f64(),
            t.phase3.as_secs_f64(),
            t.total().as_secs_f64()
        );
        xs.push(((n + graph.num_edges()) as f64).ln());
        ys.push(t.total().as_secs_f64().max(1e-6).ln());
    }
    // Least-squares slope in log–log space.
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let slope: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.iter().map(|x| (x - mx) * (x - mx)).sum::<f64>();
    println!("\nlog–log scaling exponent: {slope:.2} (near-linear claim: ≈ 1; paper Fig. 5)");
    println!(
        "shape check: exponent within [0.6, 1.6]: {}",
        if (0.6..=1.6).contains(&slope) {
            "PASS"
        } else {
            "FAIL"
        }
    );
}
