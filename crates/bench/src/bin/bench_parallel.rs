//! Emits `BENCH_parallel.json`: wall time of the parallelized kernels at one
//! thread versus all cores, as `{stage, n, threads, wall_ms}` records.
//!
//! The workload sizes are chosen so every kernel is comfortably above its
//! serial-fallback threshold; on a single-core host the two timings should
//! be close (the delta is pool fan-out overhead), while on an N-core host
//! the parallel rows should approach an N× improvement for the
//! embarrassingly parallel stages.
//!
//! Usage:
//!
//! - `cargo run -p cirstag-bench --release --bin bench_parallel [-- out.json]`
//!   runs the suite and (over)writes the JSON snapshot.
//! - `cargo run -p cirstag-bench --release --bin bench_parallel -- --gate
//!   [baseline.json]` runs the suite fresh and compares it against the
//!   committed snapshot instead of writing: any stage slower than
//!   `1.25 × baseline + 0.5 ms` is a regression and the process exits
//!   nonzero. Stages missing from the baseline (newly added benchmarks) are
//!   reported and skipped.

use std::time::Instant;

use cirstag::{ArtifactCache, CirStag, CirStagConfig};
use cirstag_embed::{knn_graph, HnswIndex, HnswParams, KnnConfig};
use cirstag_graph::Graph;
use cirstag_linalg::{par, vecops, DenseMatrix};
use cirstag_solver::{LaplacianSolver, ResistanceEstimator};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct BenchRecord {
    stage: String,
    n: usize,
    threads: usize,
    wall_ms: f64,
}

serde::impl_serde_struct!(BenchRecord {
    stage,
    n,
    threads,
    wall_ms
});

/// Regression gate: fail when `fresh > RATIO × base + SLACK_MS`. The
/// multiplicative term absorbs proportional noise, the additive term keeps
/// sub-millisecond stages from tripping on scheduler jitter.
const GATE_RATIO: f64 = 1.25;
const GATE_SLACK_MS: f64 = 0.5;

fn grid(side: usize) -> Graph {
    let mut edges = Vec::new();
    for i in 0..side {
        for j in 0..side {
            let id = i * side + j;
            if j + 1 < side {
                edges.push((id, id + 1, 1.0 + ((id * 7) % 5) as f64));
            }
            if i + 1 < side {
                edges.push((id, id + side, 1.0));
            }
        }
    }
    Graph::from_edges(side * side, &edges).expect("grid")
}

fn random_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.random_range(-1.0f64..1.0))
        .collect();
    DenseMatrix::from_vec(rows, cols, data).expect("sized")
}

/// Sketch-style probe panel: each column is a Rademacher combination of
/// edge-incidence vectors, the exact RHS shape the resistance estimator
/// streams through the block solver.
fn rademacher_probe_panel(g: &Graph, width: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_nodes();
    let mut panel = DenseMatrix::zeros(n, width);
    let data = panel.as_mut_slice();
    for j in 0..width {
        for e in g.edges() {
            let sign = if rng.random_range(0.0f64..1.0) < 0.5 {
                1.0
            } else {
                -1.0
            };
            let s = sign * e.weight.sqrt();
            data[e.u * width + j] += s;
            data[e.v * width + j] -= s;
        }
    }
    panel
}

/// Builds an HNSW index over `points` and answers every point's
/// k-nearest-neighbor query through it, returning the combined wall time in
/// milliseconds. Mirrors the Phase-2 `KnnMethod::Hnsw` code path: serial
/// deterministic construction, then chunk-parallel search with one scratch
/// arena per chunk.
fn hnsw_build_search_ms(points: &DenseMatrix, params: &HnswParams, k: usize) -> f64 {
    let n = points.nrows();
    let chunk_len = (n / 64).clamp(16, 4096);
    let t = Instant::now();
    let index = HnswIndex::build(points, params, 0xC1A5).expect("hnsw build");
    let mut slots: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    par::chunks_mut(&mut slots, chunk_len, |chunk_idx, chunk| {
        let base = chunk_idx * chunk_len;
        let mut scratch = index.scratch();
        for (offset, slot) in chunk.iter_mut().enumerate() {
            index.knn_into(
                points,
                base + offset,
                k,
                params.ef_search,
                &mut scratch,
                slot,
            );
        }
    });
    std::hint::black_box(&slots);
    t.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`reps` wall time in milliseconds (minimum filters scheduler
/// noise better than the mean for short single-shot kernels).
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Compares fresh records against the committed baseline. Records are
/// matched by stage name *positionally* (the snapshot holds one serial and
/// one all-cores row per stage, which coincide on a single-core host), so
/// the i-th fresh row of a stage gates against the i-th baseline row.
/// Returns `true` when no stage regressed.
fn gate_against(baseline_path: &str, fresh: &[BenchRecord]) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench gate: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let base: Vec<BenchRecord> = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench gate: cannot parse baseline {baseline_path}: {e}");
            return false;
        }
    };
    println!(
        "\nbench gate vs {baseline_path} (regression = fresh > {GATE_RATIO}x base + {GATE_SLACK_MS}ms)"
    );
    println!(
        "{:>28} {:>12} {:>12} {:>12}  verdict",
        "stage", "base", "fresh", "limit"
    );
    let mut ok = true;
    for (idx, rec) in fresh.iter().enumerate() {
        // Position of this record among fresh rows sharing its stage name.
        let position = fresh[..idx].iter().filter(|r| r.stage == rec.stage).count();
        let Some(base_rec) = base.iter().filter(|r| r.stage == rec.stage).nth(position) else {
            println!(
                "{:>28} {:>12} {:>10.2}ms {:>12}  skipped (not in baseline)",
                rec.stage, "-", rec.wall_ms, "-"
            );
            continue;
        };
        let limit = base_rec.wall_ms * GATE_RATIO + GATE_SLACK_MS;
        let regressed = rec.wall_ms > limit;
        if regressed {
            ok = false;
        }
        println!(
            "{:>28} {:>10.2}ms {:>10.2}ms {:>10.2}ms  {}",
            rec.stage,
            base_rec.wall_ms,
            rec.wall_ms,
            limit,
            if regressed { "REGRESSED" } else { "ok" }
        );
    }
    ok
}

fn main() {
    let mut gate = false;
    let mut path_arg: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--gate" {
            gate = true;
        } else {
            path_arg = Some(arg);
        }
    }
    let snapshot_path = path_arg.unwrap_or_else(|| "BENCH_parallel.json".to_string());
    par::set_num_threads(0);
    let all_cores = par::current_num_threads();
    let reps = 3;
    let mut records: Vec<BenchRecord> = Vec::new();

    println!("kernel timings, 1 thread vs {all_cores} (best of {reps})\n");
    println!(
        "{:>28} {:>8} {:>12} {:>12} {:>9}",
        "stage", "n", "1-thread", "all-cores", "speedup"
    );

    let mut run = |stage: &str, n: usize, f: &mut dyn FnMut()| {
        par::set_num_threads(1);
        let serial_ms = time_ms(reps, &mut *f);
        par::set_num_threads(0);
        let parallel_ms = time_ms(reps, &mut *f);
        println!(
            "{:>28} {:>8} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            stage,
            n,
            serial_ms,
            parallel_ms,
            serial_ms / parallel_ms
        );
        for (threads, wall_ms) in [(1usize, serial_ms), (all_cores, parallel_ms)] {
            records.push(BenchRecord {
                stage: stage.to_string(),
                n,
                threads,
                wall_ms,
            });
        }
    };

    let a = random_dense(512, 512, 11);
    let m = random_dense(512, 512, 12);
    run("matmul_512", 512, &mut || {
        std::hint::black_box(a.matmul(&m).expect("matmul"));
    });

    let u = random_dense(1600, 8, 13);
    run("knn_exact", 1600, &mut || {
        std::hint::black_box(knn_graph(&u, 8, &KnnConfig::default()).expect("knn"));
    });

    // kNN distance inner loop: the batched four-candidate squared-distance
    // kernel (AVX2 under `--features simd`, bit-identical scalar otherwise),
    // driven the way the candidate-ranking path drives it — parallel over
    // queries, four distances per call.
    let qpts = random_dense(20_000, 16, 19);
    let dist_cand = [qpts.row(0), qpts.row(1), qpts.row(2), qpts.row(3)];
    run("knn_dist", 20_000, &mut || {
        std::hint::black_box(par::map_indexed(20_000, |i| {
            let d = vecops::dist2_sq4(qpts.row(i), dist_cand);
            d[0] + d[1] + d[2] + d[3]
        }));
    });

    let g32 = grid(32);
    run("resistance_sketch_64probes", g32.num_nodes(), &mut || {
        std::hint::black_box(ResistanceEstimator::sketched(&g32, 64, 3).expect("sketch"));
    });

    // Isolates the blocked multi-RHS solver from the sketch bookkeeping:
    // a prebuilt Laplacian solver advancing 64 probe columns in lockstep.
    let block_solver = LaplacianSolver::new(&g32).expect("laplacian solver");
    let probe_panel = rademacher_probe_panel(&g32, 64, 15);
    run("resistance_block_64probes", g32.num_nodes(), &mut || {
        std::hint::black_box(block_solver.solve_block(&probe_panel).expect("block solve"));
    });

    let g64 = grid(64);

    // CSR × dense-panel kernel on its own: the traversal-amortized SpMM the
    // block solver and the sketch both sit on.
    let lap64 = g64.laplacian();

    // CSR × vector kernel on its own: the spmv under the Lanczos iteration.
    // The workload sits above the spmv parallel threshold so the chunked
    // path runs; built with `--features simd` this row also exercises the
    // AVX2 4-row fast path, which is bit-identical to the scalar kernel, so
    // gating against a scalar baseline stays apples-to-apples.
    let spmv_x: Vec<f64> = random_dense(g64.num_nodes(), 1, 18).as_slice().to_vec();
    let mut spmv_y = vec![0.0; g64.num_nodes()];
    run("spmv_grid64", g64.num_nodes(), &mut || {
        lap64.mul_vec_into(&spmv_x, &mut spmv_y);
        std::hint::black_box(&spmv_y);
    });
    let spmm_x = random_dense(g64.num_nodes(), 64, 16);
    let mut spmm_out = DenseMatrix::zeros(g64.num_nodes(), 64);
    run("spmm_panel", g64.num_nodes(), &mut || {
        lap64.mul_dense_into(&spmm_x, &mut spmm_out).expect("spmm");
        std::hint::black_box(&spmm_out);
    });

    let edges = g64.edges();
    let s = 16;
    let vs = random_dense(g64.num_nodes(), s, 14);
    let zetas: Vec<f64> = (0..s).map(|i| 1.0 / (1.0 + i as f64)).collect();
    run("dmd_edge_scores", edges.len(), &mut || {
        std::hint::black_box(par::map_indexed(edges.len(), |eid| {
            let e = &edges[eid];
            let ru = vs.row(e.u);
            let rv = vs.row(e.v);
            let mut score = 0.0;
            for ((&z, &x), &y) in zetas.iter().zip(ru).zip(rv) {
                let d = x - y;
                score += z * d * d;
            }
            (e.u, e.v, score)
        }));
    });

    // Approximate-neighbor scaling ladder: HNSW build plus a full
    // self-query pass at 10k and 100k points (serial vs all-cores, one shot
    // each — construction dominates and best-of-reps would triple the
    // runtime), then a single all-cores shot at one million points, the
    // stress-suite pin count. Sub-quadratic scaling shows up as the
    // 10k→100k total staying well under the ~100× a quadratic backend pays
    // for 10× the points.
    let hnsw_params = HnswParams {
        m: 8,
        ef_construction: 48,
        ef_search: 32,
    };
    let p10k = random_dense(10_000, 8, 23);
    let p100k = random_dense(100_000, 8, 24);
    let mut hnsw_totals = Vec::new();
    for (stage, points) in [("knn_hnsw_10k", &p10k), ("knn_hnsw_100k", &p100k)] {
        par::set_num_threads(1);
        let serial_ms = hnsw_build_search_ms(points, &hnsw_params, 8);
        par::set_num_threads(0);
        let parallel_ms = hnsw_build_search_ms(points, &hnsw_params, 8);
        println!(
            "{:>28} {:>8} {:>10.2}ms {:>10.2}ms {:>8.2}x  (build + search)",
            stage,
            points.nrows(),
            serial_ms,
            parallel_ms,
            serial_ms / parallel_ms
        );
        for (threads, wall_ms) in [(1usize, serial_ms), (all_cores, parallel_ms)] {
            records.push(BenchRecord {
                stage: stage.to_string(),
                n: points.nrows(),
                threads,
                wall_ms,
            });
        }
        hnsw_totals.push(parallel_ms);
    }
    let hnsw_ratio = hnsw_totals[1] / hnsw_totals[0];
    println!(
        "{:>28} 10k → 100k all-cores scaling {hnsw_ratio:.1}x (quadratic would pay ~100x)",
        "knn_hnsw_scaling"
    );
    assert!(
        hnsw_ratio < 40.0,
        "HNSW 10k→100k scaled {hnsw_ratio:.1}x — the index is no longer sub-quadratic"
    );
    if !gate {
        // The million-point row documents that Phase-2 neighbor search now
        // completes at stress-suite scale; it is skipped under `--gate` to
        // keep the opt-in regression check fast (missing fresh rows are
        // simply not compared).
        let p1m = random_dense(1 << 20, 8, 25);
        let wall_ms = hnsw_build_search_ms(&p1m, &hnsw_params, 8);
        println!(
            "{:>28} {:>8} {:>21} {:>10.2}ms  (build + search, all cores)",
            "knn_hnsw_1m",
            p1m.nrows(),
            "",
            wall_ms
        );
        records.push(BenchRecord {
            stage: "knn_hnsw_1m".to_string(),
            n: p1m.nrows(),
            threads: all_cores,
            wall_ms,
        });
    }

    // End-to-end incremental re-run: a `num_eigenpairs` sweep where the
    // cold row runs every config through the full pipeline and the warm row
    // shares one artifact cache, replaying the Phase-1/2 stages. Both rows
    // use all cores; the comparison is cached-vs-uncached, not thread count,
    // so the two records carry the same `threads` value.
    let gsweep = grid(30);
    let sweep_emb = random_dense(gsweep.num_nodes(), 8, 17);
    let sweep_cfgs: Vec<CirStagConfig> = (0..8)
        .map(|i| CirStagConfig {
            embedding_dim: 12,
            knn_k: 8,
            num_eigenpairs: 3 + 2 * i,
            num_threads: 0,
            ..CirStagConfig::default()
        })
        .collect();
    let cold_ms = time_ms(1, || {
        for cfg in &sweep_cfgs {
            std::hint::black_box(
                CirStag::new(*cfg)
                    .analyze(&gsweep, None, &sweep_emb)
                    .expect("cold sweep"),
            );
        }
    });
    let warm_ms = time_ms(1, || {
        let cache = ArtifactCache::new();
        for cfg in &sweep_cfgs {
            std::hint::black_box(
                CirStag::new(*cfg)
                    .analyze_cached(&gsweep, None, &sweep_emb, &cache, None)
                    .expect("warm sweep"),
            );
        }
    });
    println!(
        "{:>28} {:>8} {:>10.2}ms {:>10.2}ms {:>8.2}x  (cold vs cached sweep, {} configs)",
        "sweep_warm_vs_cold",
        gsweep.num_nodes(),
        cold_ms,
        warm_ms,
        cold_ms / warm_ms,
        sweep_cfgs.len()
    );
    for wall_ms in [cold_ms, warm_ms] {
        records.push(BenchRecord {
            stage: "sweep_warm_vs_cold".to_string(),
            n: gsweep.num_nodes(),
            threads: all_cores,
            wall_ms,
        });
    }

    // ECO incremental re-analysis: a 10k-node design partitioned into 8
    // regions, one edge rescaled deep inside one partition. The cold row
    // re-runs every partition of the edited design from scratch; the warm
    // row replays the untouched partitions from a cache primed on the base
    // design and recomputes only the dirty region (plus halo viewers). Both
    // rows run on one core — the speedup is cache locality, not threads.
    {
        use cirstag::analyze_partitioned;
        use cirstag_circuit::{apply_delta, partition_graph, DeltaOp, NetlistDelta};

        let geco = grid(100);
        let eco_n = geco.num_nodes();
        let eco_emb = random_dense(eco_n, 6, 31);
        let eco_cfg = CirStagConfig {
            embedding_dim: 6,
            knn_k: 8,
            num_eigenpairs: 4,
            num_threads: 1,
            ..CirStagConfig::default()
        };
        let partitioning = partition_graph(&geco, &cirstag_circuit::PartitionConfig::default())
            .expect("partition bench grid");
        let num_partitions = partitioning.num_partitions;
        let halo_depth = partitioning.halo_depth;
        let delta = NetlistDelta {
            ops: vec![DeltaOp::RescaleEdge {
                u: 0,
                v: 1,
                factor: 1.3,
            }],
        };
        let outcome = apply_delta(&geco, None, &delta, &partitioning).expect("apply bench delta");
        let eco_run = |graph: &Graph, cache: Option<&ArtifactCache>| {
            analyze_partitioned(
                &eco_cfg,
                graph,
                None,
                &eco_emb,
                &partitioning.assignment,
                num_partitions,
                halo_depth,
                cache,
                None,
            )
        };
        let eco_cache = ArtifactCache::new();
        std::hint::black_box(eco_run(&geco, Some(&eco_cache)).expect("prime eco cache"));
        let eco_cold_ms = time_ms(1, || {
            std::hint::black_box(eco_run(&outcome.graph, None).expect("cold eco run"));
        });
        let mut eco_recomputed = 0;
        let eco_warm_ms = time_ms(1, || {
            let report = eco_run(&outcome.graph, Some(&eco_cache)).expect("warm eco delta run");
            eco_recomputed = report.recomputed().len();
            std::hint::black_box(report);
        });
        println!(
            "{:>28} {:>8} {:>10.2}ms {:>10.2}ms {:>8.2}x  (cold vs delta, {eco_recomputed}/{num_partitions} partitions recomputed)",
            "eco_delta", eco_n, eco_cold_ms, eco_warm_ms, eco_cold_ms / eco_warm_ms
        );
        assert!(
            eco_recomputed < num_partitions,
            "a one-edge delta recomputed every partition"
        );
        for wall_ms in [eco_cold_ms, eco_warm_ms] {
            records.push(BenchRecord {
                stage: "eco_delta".to_string(),
                n: eco_n,
                threads: 1,
                wall_ms,
            });
        }
    }

    // Resident-daemon answer latency: an in-process `cirstag serve` driven
    // by the load generator at full client concurrency, all tenants sharing
    // one artifact cache and one prepared design. The records capture the
    // p50/p99 of per-request answer latency (not a kernel wall time), and
    // the run doubles as a robustness check: every request must come back
    // with a typed response and the daemon must drain cleanly.
    let serve_requests = 1000;
    let serve_clients = 32;
    let serve_workers = all_cores.clamp(2, 8);
    let netlist_text = {
        use cirstag_circuit::{generate_circuit, write_netlist, CellLibrary, GeneratorConfig};
        let library = CellLibrary::standard();
        let netlist = generate_circuit(
            &library,
            &GeneratorConfig {
                num_gates: 40,
                ..Default::default()
            },
            21,
        )
        .expect("generate bench netlist");
        write_netlist(&netlist, &library)
    };
    let server = cirstag_serve::Server::bind(&cirstag_serve::ServeConfig {
        workers: serve_workers,
        queue_capacity: 256,
        downgrade_high: 192,
        downgrade_low: 64,
        ..Default::default()
    })
    .expect("bind serve");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || {
        server.run(&mut std::io::sink()).expect("serve run");
    });
    let load = cirstag_serve::run_load(&cirstag_serve::LoadConfig {
        addr,
        requests: serve_requests,
        clients: serve_clients,
        netlist: netlist_text,
        epochs: 12,
        shutdown: true,
        ..Default::default()
    })
    .expect("load run");
    daemon.join().expect("serve thread");
    assert!(
        load.fully_answered(),
        "daemon dropped requests: {}",
        load.summary()
    );
    println!(
        "{:>28} {:>8} p50 {:>8.2}ms p99 {:>8.2}ms  ({} ok, {} shed, {} timeout; {} clients)",
        "serve_analyze",
        serve_requests,
        load.p50_ms,
        load.p99_ms,
        load.ok,
        load.shed,
        load.timeouts,
        serve_clients
    );
    for (stage, wall_ms) in [
        ("serve_analyze_p50", load.p50_ms),
        ("serve_analyze_p99", load.p99_ms),
    ] {
        records.push(BenchRecord {
            stage: stage.to_string(),
            n: serve_requests,
            threads: serve_workers,
            wall_ms,
        });
    }

    if gate {
        if !gate_against(&snapshot_path, &records) {
            eprintln!("\nbench gate: performance regression detected");
            std::process::exit(1);
        }
        println!("\nbench gate: all stages within budget");
    } else {
        let json = serde_json::to_string_pretty(&records).expect("serialize");
        std::fs::write(&snapshot_path, json).expect("write BENCH_parallel.json");
        println!("\nwrote {snapshot_path} ({} records)", records.len());
    }
}
