//! ECO contract: incremental partition-scoped re-analysis is bit-identical
//! to throwing the edited design at a cold full run.
//!
//! A ~10k-pin generated circuit is partitioned once; proptest then drives
//! random sequences of 1–8 small deltas (edge adds/removes/rescales,
//! per-pin feature drift) through the warm cache — recomputing only the
//! dirty partitions and their halo — and the final warm report must match
//! a cache-less `analyze_partitioned` on the edited design bit for bit. Each step
//! samples a thread count from {1, 2, 8} (fingerprints exclude the thread
//! count, so warm hits survive the changes), each case samples the failure
//! policy, and the disk-cache round-trip is replayed through a fresh
//! in-memory cache at the end of every case. The whole check lives in one
//! `#[test]` because the worker-thread count is process-global.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use cirstag_suite::circuit::{
    apply_delta, extract_features, generate_circuit, partition_graph, CellLibrary, DeltaOp,
    FeatureConfig, GeneratorConfig, NetlistDelta, PartitionConfig, Partitioning, TimingGraph,
};
use cirstag_suite::core::{
    analyze_partitioned, ArtifactCache, CirStagConfig, FailurePolicy, PartitionedReport,
};
use cirstag_suite::graph::Graph;
use cirstag_suite::linalg::DenseMatrix;
use proptest::prelude::*;

const NUM_PARTITIONS: usize = 8;
const HALO_DEPTH: usize = 1;

/// Base design shared by every proptest case: the graph, its feature
/// matrix, a synthetic (GNN-free, deterministic) embedding, and the fixed
/// partitioning that every delta replays against.
struct Base {
    graph: Graph,
    features: DenseMatrix,
    embedding: DenseMatrix,
    partitioning: Partitioning,
    /// Undirected edge list of the base graph (u < v), for delta sampling.
    edges: Vec<(usize, usize)>,
}

static BASE: OnceLock<Base> = OnceLock::new();

/// `cargo test` runs this suite unoptimized; keep the debug design large
/// enough to exercise real partitions but small enough to finish. Release
/// runs (`cargo test --release`) use the full ~10k-pin design the ECO flow
/// is specified against.
fn base_gates() -> usize {
    if cfg!(debug_assertions) {
        400
    } else {
        3200
    }
}

fn base() -> &'static Base {
    BASE.get_or_init(|| {
        let library = CellLibrary::standard();
        let netlist = generate_circuit(
            &library,
            &GeneratorConfig {
                num_gates: base_gates(),
                ..Default::default()
            },
            0xEC0D,
        )
        .expect("generate base circuit");
        let timing = TimingGraph::new(&netlist, &library).expect("timing graph");
        let graph = timing.to_undirected_graph().expect("undirected graph");
        let features = extract_features(
            &timing,
            &netlist,
            &library,
            &timing.pin_caps(),
            &FeatureConfig::default(),
        )
        .expect("features");
        let n = graph.num_nodes();
        let embedding = synth_embedding(n, 6);
        let partitioning = partition_graph(
            &graph,
            &PartitionConfig {
                num_partitions: NUM_PARTITIONS,
                halo_depth: HALO_DEPTH,
                ..Default::default()
            },
        )
        .expect("partition base graph");
        let edges = graph
            .edges()
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v)))
            .collect();
        Base {
            graph,
            features,
            embedding,
            partitioning,
            edges,
        }
    })
}

/// Deterministic stand-in for the trained embedding (the ECO layer treats
/// the embedding as a fixed input; see the fixed-base contract in DESIGN.md).
fn synth_embedding(n: usize, dim: usize) -> DenseMatrix {
    DenseMatrix::from_rows(
        &(0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * (j + 2)) as f64 * 0.37).sin())
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>(),
    )
    .expect("synthetic embedding")
}

fn config(threads: usize, policy: FailurePolicy) -> CirStagConfig {
    CirStagConfig {
        embedding_dim: 6,
        knn_k: 6,
        num_eigenpairs: 4,
        num_threads: threads,
        policy,
        ..Default::default()
    }
}

/// Raw sampled edit: mapped onto a concrete [`DeltaOp`] against the
/// *current* graph state, so every op in the sequence is valid by
/// construction (removals only target edges a previous step added — the
/// base circuit's own edges may be bridges, and disconnecting the design
/// is a different contract than an ECO edit).
#[derive(Debug, Clone, Copy)]
struct RawEdit {
    kind: u8,
    a: usize,
    b: usize,
    scale_milli: u32,
}

fn concrete_op(raw: RawEdit, graph: &Graph, added: &mut Vec<(usize, usize)>) -> DeltaOp {
    let n = graph.num_nodes();
    let u = raw.a % n;
    let v = raw.b % n;
    let scale = 0.5 + f64::from(raw.scale_milli % 2000) / 1000.0; // (0.5, 2.5)
    match raw.kind % 4 {
        0 if u != v && graph.edge_weight(u, v).is_none() => {
            let (u, v) = (u.min(v), u.max(v));
            added.push((u, v));
            DeltaOp::AddEdge {
                u,
                v,
                weight: scale,
            }
        }
        1 if !added.is_empty() => {
            let (u, v) = added.swap_remove(raw.a % added.len());
            DeltaOp::RemoveEdge { u, v }
        }
        2 => {
            let base = base();
            let (u, v) = base.edges[raw.a % base.edges.len()];
            // The edge survives every edit in this suite (removals only
            // target added edges), so rescaling it is always valid.
            DeltaOp::RescaleEdge {
                u,
                v,
                factor: scale,
            }
        }
        _ => DeltaOp::FeatureDrift { node: u, scale },
    }
}

fn assert_bit_identical(warm: &PartitionedReport, cold: &PartitionedReport) {
    assert_eq!(warm.root, cold.root, "merkle roots diverge");
    assert_eq!(warm.degraded, cold.degraded);
    assert_eq!(warm.num_partitions, cold.num_partitions);
    assert_eq!(warm.node_scores.len(), cold.node_scores.len());
    for (i, (a, b)) in warm
        .node_scores
        .iter()
        .zip(cold.node_scores.iter())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "node {i} score diverges");
    }
    assert_eq!(warm.edge_scores.len(), cold.edge_scores.len());
    for ((au, av, aw), (bu, bv, bw)) in warm.edge_scores.iter().zip(cold.edge_scores.iter()) {
        assert_eq!((au, av), (bu, bv), "edge identity diverges");
        assert_eq!(aw.to_bits(), bw.to_bits(), "edge {au}-{av} score diverges");
    }
}

/// Bitmask of policies proptest happened to sample; the test tops up any
/// policy the sampler missed with a deterministic extra case so both
/// Strict and BestEffort are always exercised.
static POLICIES_SEEN: AtomicU8 = AtomicU8::new(0);

/// One ECO episode: apply `raw_edits` one delta at a time against the warm
/// cache, then check the final warm report against a cold run of the final
/// edited design, and replay the final design from disk through a fresh
/// in-memory cache.
fn run_episode(raw_edits: &[RawEdit], thread_seq: &[usize], best_effort: bool) {
    let base = base();
    let policy = if best_effort {
        FailurePolicy::BestEffort
    } else {
        FailurePolicy::Strict
    };
    POLICIES_SEEN.fetch_or(1 << u8::from(best_effort), Ordering::Relaxed);

    let disk = tempdir(best_effort, raw_edits.len());
    let cache = ArtifactCache::new().with_disk_dir(&disk);
    let assignment = &base.partitioning.assignment;

    // Prime the cache on the unedited base design.
    let mut threads = thread_seq.iter().copied().cycle();
    let mut graph = base.graph.clone();
    let mut features = base.features.clone();
    let prime = analyze_partitioned(
        &config(threads.next().unwrap_or(1), policy),
        &graph,
        Some(&features),
        &base.embedding,
        assignment,
        NUM_PARTITIONS,
        HALO_DEPTH,
        Some(&cache),
        None,
    )
    .expect("prime run on the base design");
    assert_eq!(prime.node_scores.len(), graph.num_nodes());

    let mut added: Vec<(usize, usize)> = Vec::new();
    let mut last_threads = 1;
    let mut warm = prime;
    for &raw in raw_edits {
        let delta = NetlistDelta {
            ops: vec![concrete_op(raw, &graph, &mut added)],
        };
        let outcome = apply_delta(&graph, Some(&features), &delta, &base.partitioning)
            .expect("sampled delta applies");
        assert!(
            !outcome.touched_partitions.is_empty(),
            "every op touches at least one partition"
        );
        graph = outcome.graph;
        features = outcome.features.expect("features survive the delta");
        last_threads = threads.next().unwrap_or(1);
        warm = analyze_partitioned(
            &config(last_threads, policy),
            &graph,
            Some(&features),
            &base.embedding,
            assignment,
            NUM_PARTITIONS,
            HALO_DEPTH,
            Some(&cache),
            None,
        )
        .expect("warm incremental run");
        // Clean partitions replay from cache. `touched_partitions` is the
        // conservative halo-rule over-approximation and the per-partition
        // fingerprints are the ground truth, so recomputed ⊆ touched.
        let recomputed = warm.recomputed();
        assert!(
            recomputed.len() < NUM_PARTITIONS || outcome.touched_partitions.len() == NUM_PARTITIONS,
            "a single small delta recomputed every partition: {recomputed:?}"
        );
        for &p in &recomputed {
            assert!(
                outcome.touched_partitions.contains(&(p as usize)),
                "partition {p} recomputed outside the touched set {:?}",
                outcome.touched_partitions
            );
        }
    }

    // Ground truth: a cold, cache-less run of the edited design at a
    // different thread count than the last warm step.
    let cold_threads = if last_threads == 1 { 2 } else { 1 };
    let cold = analyze_partitioned(
        &config(cold_threads, policy),
        &graph,
        Some(&features),
        &base.embedding,
        assignment,
        NUM_PARTITIONS,
        HALO_DEPTH,
        None,
        None,
    )
    .expect("cold run on the edited design");
    assert_bit_identical(&warm, &cold);
    assert_eq!(cold.recomputed().len(), NUM_PARTITIONS);

    // Disk round-trip: a fresh in-memory cache over the same directory
    // replays the final design without recomputing anything.
    let rehydrated = ArtifactCache::new().with_disk_dir(&disk);
    let replay = analyze_partitioned(
        &config(last_threads, policy),
        &graph,
        Some(&features),
        &base.embedding,
        assignment,
        NUM_PARTITIONS,
        HALO_DEPTH,
        Some(&rehydrated),
        None,
    )
    .expect("disk replay of the final design");
    assert_bit_identical(&replay, &cold);
    assert!(
        replay.recomputed().is_empty(),
        "disk replay recomputed {:?}",
        replay.recomputed()
    );

    std::fs::remove_dir_all(&disk).ok();
}

fn tempdir(best_effort: bool, len: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cirstag_eco_delta_{}_{}_{}",
        std::process::id(),
        best_effort,
        len
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create eco scratch dir");
    dir
}

fn arb_raw_edit() -> impl Strategy<Value = RawEdit> {
    (0usize..4, 0usize..1_000_000, 0usize..1_000_000, 0u32..4000).prop_map(|(kind, a, b, s)| {
        RawEdit {
            kind: kind as u8,
            a,
            b,
            scale_milli: s,
        }
    })
}

#[test]
fn random_delta_sequences_match_cold_runs() {
    proptest::run_cases(
        ProptestConfig::with_cases(3),
        "random_delta_sequences_match_cold_runs",
        |rng| {
            let raw_edits = proptest::collection::vec(arb_raw_edit(), 1usize..9).generate(rng);
            let thread_seq =
                proptest::collection::vec((0usize..3).prop_map(|i| [1usize, 2, 8][i]), 1usize..5)
                    .generate(rng);
            let best_effort = (0usize..2).prop_map(|b| b == 1).generate(rng);
            run_episode(&raw_edits, &thread_seq, best_effort);
        },
    );

    // Top up whichever policy the sampler missed: both sides of the
    // Strict/BestEffort contract must run every time.
    let seen = POLICIES_SEEN.load(Ordering::Relaxed);
    let fixed = [RawEdit {
        kind: 2,
        a: 17,
        b: 3,
        scale_milli: 1500,
    }];
    if seen & 0b01 == 0 {
        run_episode(&fixed, &[8, 1], false);
    }
    if seen & 0b10 == 0 {
        run_episode(&fixed, &[2], true);
    }
}
