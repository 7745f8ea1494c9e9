//! Seed → input generation. Everything the program under test receives —
//! netlists, ECO deltas and serve requests — is a pure function of the
//! workload seed, so a seed names one exact input set.
//!
//! The designs themselves are fixed per workload (the generator seeds below
//! are constants): analysis time varies by ±20% between same-size designs,
//! which would drown the run-to-run signal. The workload seed varies what a
//! user varies between runs on one design: the order of the edit stream and
//! of the request stream, the feature drifts and the sweep sizes' order.
//! The edge rescales themselves come from a fixed set too, because one
//! edit's cost depends on its edge.

use cirstag_circuit::{
    generate_circuit, CellLibrary, DeltaOp, GeneratorConfig, Netlist, NetlistDelta, Partitioning,
};
use cirstag_graph::Graph;

/// SplitMix64: a tiny, dependency-free generator whose stream is fixed by
/// its seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream label, so the streams of
    /// one seed (deltas, requests, corners) are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Stream labels for [`Rng::new`].
const STREAM_ECO: u64 = 2;
const STREAM_SERVE: u64 = 3;
const STREAM_SWEEP: u64 = 4;
const STREAM_DELTA: u64 = 5;
/// Generator seed of the fixed edit sets (the ECO stream's edge rescales,
/// the serve mix's deltas); the workload seed only orders them.
const FIXED_EDITS: u64 = 0x5E2D_E17A;

/// The fixed design of `gates` gates used by every run of a workload.
///
/// # Errors
///
/// Propagates generator failures (none for positive gate counts).
pub fn design(library: &CellLibrary, gates: usize) -> Result<Netlist, String> {
    generate_circuit(
        library,
        &GeneratorConfig {
            num_gates: gates,
            ..Default::default()
        },
        0xC1257A6 + gates as u64,
    )
    .map_err(|e| e.to_string())
}

/// What an ECO delta is expected to do to the partitioned analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A `rescale_edge` inside one partition: dirties at least that
    /// partition.
    Edit,
    /// A `feature_drift`: with the default `feature_weight = 0` no stage
    /// fingerprint reads features, so every partition replays.
    Drift,
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i + 1));
    }
}

/// One round of a seeded ECO stream: single-op deltas against the base.
pub type EcoRound = Vec<(NetlistDelta, EditKind)>;

/// A seeded ECO stream of `rounds` rounds. Each round edits every
/// partition exactly once, in seeded order, by rescaling one edge whose
/// endpoints it owns; a feature drift follows every second edit. Every
/// round therefore has the same make-up (two thirds edits), so runs with
/// different seeds time the same mix of regions. The edges and factors of
/// each round are the same for every seed: an edit's cost depends on its
/// edge (whether the rescale changes the partition's manifolds), and with
/// seeded edges the 16-edit segment's median spread by up to 0.30 over
/// five seeds.
pub fn eco_deltas(
    graph: &Graph,
    partitioning: &Partitioning,
    rounds: usize,
    seed: u64,
) -> Vec<EcoRound> {
    let mut rng = Rng::new(seed, STREAM_ECO);
    let mut fixed = Rng::new(FIXED_EDITS, STREAM_ECO);
    let parts = partitioning.num_partitions;
    let mut by_part: Vec<Vec<(usize, usize)>> = vec![Vec::new(); parts];
    for e in graph.edges() {
        let (pu, pv) = (
            partitioning.assignment[e.u] as usize,
            partitioning.assignment[e.v] as usize,
        );
        if pu == pv {
            by_part[pu].push((e.u, e.v));
        }
    }
    let editable: Vec<usize> = (0..parts).filter(|&p| !by_part[p].is_empty()).collect();
    (0..rounds)
        .map(|_| {
            let mut edits: Vec<NetlistDelta> = editable
                .iter()
                .map(|&p| {
                    let (u, v) = by_part[p][fixed.range(0, by_part[p].len())];
                    let factor = 1.5 + 1.5 * fixed.unit();
                    NetlistDelta {
                        ops: vec![DeltaOp::RescaleEdge { u, v, factor }],
                    }
                })
                .collect();
            shuffle(&mut edits, &mut rng);
            let mut round = Vec::new();
            for (i, edit) in edits.into_iter().enumerate() {
                round.push((edit, EditKind::Edit));
                if i % 2 == 1 {
                    let node = rng.range(0, graph.num_nodes());
                    let scale = 1.01 + 0.04 * rng.unit();
                    let ops = vec![DeltaOp::FeatureDrift { node, scale }];
                    round.push((NetlistDelta { ops }, EditKind::Drift));
                }
            }
            round
        })
        .collect()
}

/// One request of the `serve_mixed` traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOp {
    /// A whole-design `analyze`.
    Analyze,
    /// A `sweep` over one DMD subspace size.
    Sweep(usize),
    /// A `delta` request carrying one edge rescale (`cirstag-delta/v1`).
    Delta(NetlistDelta),
}

impl ServeOp {
    /// The protocol verb name.
    pub fn verb(&self) -> &'static str {
        match self {
            ServeOp::Analyze => "analyze",
            ServeOp::Sweep(_) => "sweep",
            ServeOp::Delta(_) => "delta",
        }
    }
}

/// Requests per block of the serve mix.
pub const SERVE_BLOCK: usize = 10;

/// The seeded request stream of client `client` of `clients`, in blocks of
/// [`SERVE_BLOCK`]: with `mixed`, each block holds exactly 8 `analyze`, 1
/// `sweep` and 1 `delta` (one `rescale_edge`), in seeded order.
/// Fixing each block's make-up keeps the mix at 80/10/10 in every run
/// instead of only on average. The sweeps' `s` values walk one seeded
/// permutation of `2..40`, interleaved across the clients, so every run
/// asks for the same number of distinct `s` (each new one is a geig and a
/// DMD computed and two cache entries stored) before any repeats. The
/// deltas walk a seeded permutation of the fixed set [`serve_deltas`] the
/// same way. Without `mixed`, every request is a warm `analyze`.
pub fn serve_ops(
    graph: &Graph,
    blocks: usize,
    seed: u64,
    (client, clients): (u64, u64),
    mixed: bool,
) -> Vec<Vec<ServeOp>> {
    let mut rng = Rng::new(
        seed ^ client.wrapping_mul(0xD1B5_4A32_D192_ED03),
        STREAM_SERVE,
    );
    let mut sweeps: Vec<usize> = (2..40).collect();
    shuffle(&mut sweeps, &mut Rng::new(seed, STREAM_SWEEP));
    let mut deltas = serve_deltas(graph, blocks * clients as usize);
    shuffle(&mut deltas, &mut Rng::new(seed, STREAM_DELTA));
    (0..blocks)
        .map(|b| {
            if !mixed {
                return vec![ServeOp::Analyze; SERVE_BLOCK];
            }
            let mut block = vec![ServeOp::Analyze; SERVE_BLOCK - 2];
            let turn = b * clients as usize + client as usize;
            block.push(ServeOp::Sweep(sweeps[turn % sweeps.len()]));
            block.push(ServeOp::Delta(deltas[turn].clone()));
            shuffle(&mut block, &mut rng);
            block
        })
        .collect()
}

/// The `count` edge rescales the serve mix's `delta` requests carry, drawn
/// from a fixed stream: the seed only orders them. One delta's cost ranges
/// from a few milliseconds (the edit leaves the partition's manifolds as
/// they were and its stages replay) to 1.5 s, and the tail percentile sits
/// among the slowest deltas, so a seeded set moved `serve_tail_ms` with
/// the number of slow edits it happened to draw.
fn serve_deltas(graph: &Graph, count: usize) -> Vec<NetlistDelta> {
    let mut rng = Rng::new(FIXED_EDITS, STREAM_DELTA);
    let edges = graph.edges();
    (0..count)
        .map(|_| {
            let e = &edges[rng.range(0, edges.len())];
            let factor = 1.5 + 1.5 * rng.unit();
            NetlistDelta {
                ops: vec![DeltaOp::RescaleEdge {
                    u: e.u,
                    v: e.v,
                    factor,
                }],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirstag_circuit::{partition_graph, PartitionConfig, TimingGraph};

    fn base() -> Graph {
        let library = CellLibrary::standard();
        let netlist = design(&library, 120).unwrap();
        let timing = TimingGraph::new(&netlist, &library).unwrap();
        timing.to_undirected_graph().unwrap()
    }

    #[test]
    fn rng_streams_are_fixed_by_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
        assert!((0..1000).all(|_| (3..9).contains(&r.range(3, 9))));
    }

    #[test]
    fn designs_are_deterministic() {
        let library = CellLibrary::standard();
        let text =
            |gates| cirstag_circuit::write_netlist(&design(&library, gates).unwrap(), &library);
        assert_eq!(text(120), text(120));
        assert_ne!(text(120), text(121));
    }

    #[test]
    fn eco_stream_is_deterministic_and_valid() {
        let graph = base();
        let cfg = PartitionConfig {
            num_partitions: 4,
            ..PartitionConfig::default()
        };
        let parts = partition_graph(&graph, &cfg).unwrap();
        let a = eco_deltas(&graph, &parts, 3, 9);
        assert_eq!(a, eco_deltas(&graph, &parts, 3, 9));
        let b = eco_deltas(&graph, &parts, 3, 10);
        assert_ne!(a, b);
        assert_eq!(a.len(), 3);
        // Each round rescales the same edges for every seed, in seeded order.
        let edits = |round: &EcoRound| -> Vec<String> {
            let mut e: Vec<String> = round
                .iter()
                .filter(|(_, k)| *k == EditKind::Edit)
                .map(|(d, _)| format!("{d:?}"))
                .collect();
            e.sort();
            e
        };
        assert!(a.iter().zip(&b).all(|(x, y)| edits(x) == edits(y)));
        for round in &a {
            // Four edits, one per partition, and a drift after every second.
            let kinds: Vec<EditKind> = round.iter().map(|(_, k)| *k).collect();
            use EditKind::{Drift as D, Edit as E};
            assert_eq!(kinds, [E, E, D, E, E, D]);
            let mut touched: Vec<u32> = round
                .iter()
                .filter_map(|(d, _)| match d.ops[0] {
                    DeltaOp::RescaleEdge { u, .. } => Some(parts.assignment[u]),
                    _ => None,
                })
                .collect();
            touched.sort_unstable();
            assert_eq!(touched, [0, 1, 2, 3]);
        }
        for (delta, kind) in a.iter().flatten() {
            // Every delta applies cleanly to the base design.
            let outcome = cirstag_circuit::apply_delta(&graph, None, delta, &parts);
            match kind {
                EditKind::Edit => {
                    let out = outcome.unwrap();
                    assert!(!out.touched_partitions.is_empty());
                }
                // Drifts need a feature matrix; here only their shape matters.
                EditKind::Drift => assert!(matches!(delta.ops[0], DeltaOp::FeatureDrift { .. })),
            }
        }
    }

    #[test]
    fn serve_stream_is_deterministic_with_the_stated_mix() {
        let graph = base();
        let a = serve_ops(&graph, 50, 3, (0, 2), true);
        assert_eq!(a, serve_ops(&graph, 50, 3, (0, 2), true));
        let b = serve_ops(&graph, 50, 3, (1, 2), true);
        assert_ne!(a, b);
        assert_ne!(a, serve_ops(&graph, 50, 4, (0, 2), true));
        // The two clients' first 19 sweeps together cover all 38 sizes.
        let sizes = |stream: &[Vec<ServeOp>]| -> Vec<usize> {
            stream
                .iter()
                .take(19)
                .flatten()
                .filter_map(|op| match op {
                    ServeOp::Sweep(s) => Some(*s),
                    _ => None,
                })
                .collect()
        };
        let mut all = [sizes(&a), sizes(&b)].concat();
        all.sort_unstable();
        assert_eq!(all, (2..40).collect::<Vec<_>>());
        let warm = serve_ops(&graph, 3, 3, (0, 2), false);
        assert!(warm.iter().flatten().all(|op| *op == ServeOp::Analyze));
        assert_eq!(warm.iter().flatten().count(), 3 * SERVE_BLOCK);
        for block in &a {
            let count = |verb: &str| block.iter().filter(|op| op.verb() == verb).count();
            assert_eq!(
                (count("analyze"), count("sweep"), count("delta")),
                (8, 1, 1)
            );
        }
        // Every seed sends the same deltas; the seed only orders them.
        let deltas = |seed| -> Vec<String> {
            let mut d: Vec<String> = [(0, 2), (1, 2)]
                .into_iter()
                .flat_map(|c| serve_ops(&graph, 50, seed, c, true))
                .flatten()
                .filter(|op| op.verb() == "delta")
                .map(|op| format!("{op:?}"))
                .collect();
            d.sort();
            d
        };
        assert_eq!(deltas(3).len(), 100);
        assert_eq!(deltas(3), deltas(4));
        // The order within blocks is seeded, not fixed.
        assert!(a.iter().any(|b| b[0] != ServeOp::Analyze));
        assert!(a.iter().flatten().all(|op| match op {
            ServeOp::Sweep(s) => (2..40).contains(s),
            _ => true,
        }));
    }
}
