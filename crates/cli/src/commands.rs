//! Subcommand implementations.

use crate::args::{KnnChoice, USAGE};
use crate::{CliError, Command};
use cirstag::{
    analyze_partitioned, ArtifactCache, CirStag, CirStagConfig, EcoReportExport, FailurePolicy,
    PartitionedReport, ReportExport,
};
use cirstag_circuit::{
    apply_delta, extract_features, generate_circuit, parse_netlist, partition_graph, write_netlist,
    CellLibrary, FeatureConfig, GeneratorConfig, Netlist, NetlistDelta, PartitionConfig, PinRole,
    StaEngine, TimingGraph,
};
use cirstag_embed::KnnMethod;
use cirstag_gnn::{r2_score, Activation, GnnModel, GraphContext, LayerSpec, TrainConfig};
use cirstag_graph::{heat_colors, to_dot, DotOptions, Graph};
use cirstag_linalg::DenseMatrix;

/// Outcome of a successfully completed command, used to pick the process
/// exit code: `0` for [`RunStatus::Clean`], `2` for [`RunStatus::Degraded`]
/// (errors exit `1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The command completed with no fallback degradation.
    Clean,
    /// An analysis completed under the best-effort policy, but one or more
    /// fallback rungs fired; the scores are usable but approximate.
    Degraded,
}

/// Runs a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on I/O, parse or analysis failures; the message is
/// meant for direct display.
pub fn run(command: &Command, out: &mut dyn std::io::Write) -> Result<RunStatus, CliError> {
    match command {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(RunStatus::Clean)
        }
        Command::Generate {
            gates,
            seed,
            out: path,
        } => generate(*gates, *seed, path, out).map(|()| RunStatus::Clean),
        Command::Sta { netlist } => sta(netlist, out).map(|()| RunStatus::Clean),
        Command::Analyze {
            netlist,
            out: report_path,
            epochs,
            top,
            threads,
            best_effort,
            cache_dir,
            knn,
            partitions,
        } => analyze(
            netlist,
            report_path.as_deref(),
            *epochs,
            *top,
            *threads,
            *best_effort,
            cache_dir.as_deref(),
            *knn,
            *partitions,
            out,
        ),
        Command::Diff {
            workspace,
            edited,
            delta,
            out: report_path,
            threads,
            best_effort,
            cold,
        } => diff(
            workspace,
            edited.as_deref(),
            delta.as_deref(),
            report_path.as_deref(),
            *threads,
            *best_effort,
            *cold,
            out,
        ),
        Command::Sweep {
            netlist,
            dmd_s,
            out: report_path,
            epochs,
            threads,
            best_effort,
            cache_dir,
            knn,
        } => sweep(
            netlist,
            dmd_s,
            report_path.as_deref(),
            *epochs,
            *threads,
            *best_effort,
            cache_dir.as_deref(),
            *knn,
            out,
        ),
        Command::Dot { netlist, scores } => {
            dot(netlist, scores.as_deref(), out).map(|()| RunStatus::Clean)
        }
        Command::Serve {
            addr,
            workers,
            queue,
            deadline_ms,
            best_effort,
            cache_dir,
            port_file,
        } => serve(
            addr,
            *workers,
            *queue,
            *deadline_ms,
            *best_effort,
            cache_dir.as_deref(),
            port_file.as_deref(),
            out,
        ),
        Command::Load {
            netlist,
            addr,
            requests,
            clients,
            epochs,
            deadline_ms,
            best_effort,
            shutdown,
        } => drive_load(
            netlist,
            addr,
            *requests,
            *clients,
            *epochs,
            *deadline_ms,
            *best_effort,
            *shutdown,
            out,
        ),
    }
}

fn load(path: &str) -> Result<(CellLibrary, Netlist), CliError> {
    let library = CellLibrary::standard();
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
    let netlist = parse_netlist(&text, &library)?;
    Ok((library, netlist))
}

fn generate(
    gates: usize,
    seed: u64,
    path: &str,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let library = CellLibrary::standard();
    let netlist = generate_circuit(
        &library,
        &GeneratorConfig {
            num_gates: gates,
            ..Default::default()
        },
        seed,
    )?;
    std::fs::write(path, write_netlist(&netlist, &library))
        .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "wrote {path}: {} gates, {} nets, {} primary inputs, {} primary outputs",
        netlist.num_cells(),
        netlist.num_nets(),
        netlist.primary_inputs.len(),
        netlist.primary_outputs.len()
    )?;
    Ok(())
}

fn sta(path: &str, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (library, netlist) = load(path)?;
    let timing = TimingGraph::new(&netlist, &library)?;
    let engine = StaEngine::new(&timing);
    writeln!(
        out,
        "design {}: {} pins, {} arcs",
        netlist.name,
        timing.num_pins(),
        timing.num_arcs()
    )?;
    writeln!(out, "critical arrival: {:.4} ns", engine.critical_arrival())?;
    // Worst five endpoints.
    let mut pos: Vec<usize> = timing.po_pins().to_vec();
    pos.sort_by(|&a, &b| {
        engine
            .arrival(b)
            .partial_cmp(&engine.arrival(a))
            .expect("finite arrivals")
    });
    writeln!(out, "worst endpoints:")?;
    for &po in pos.iter().take(5) {
        let net = timing.pin(po).net;
        writeln!(
            out,
            "  {:<16} arrival {:.4} ns",
            netlist.nets[net].name,
            engine.arrival(po)
        )?;
    }
    Ok(())
}

/// Trains the timing GNN on the pin graph and returns the node features and
/// the model's node embeddings (the pipeline's output-side data).
fn train_gnn(
    timing: &TimingGraph,
    netlist: &Netlist,
    library: &CellLibrary,
    graph: &Graph,
    epochs: usize,
    out: &mut dyn std::io::Write,
) -> Result<(DenseMatrix, DenseMatrix), CliError> {
    let arcs: Vec<(usize, usize)> = timing.arcs().iter().map(|&(f, t, _)| (f, t)).collect();
    let ctx = GraphContext::with_dag(graph, &arcs)?;
    let features = extract_features(
        timing,
        netlist,
        library,
        &timing.pin_caps(),
        &FeatureConfig::default(),
    )?;
    let engine = StaEngine::new(timing);
    let critical = engine.critical_arrival().max(1e-12);
    let targets = DenseMatrix::from_rows(
        &engine
            .arrival_times()
            .iter()
            .map(|&a| vec![a / critical])
            .collect::<Vec<_>>(),
    )?;
    writeln!(
        out,
        "training timing GNN ({epochs} epochs) on {} pins…",
        timing.num_pins()
    )?;
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
    )?;
    model.fit_regression(
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
    )?;
    let pred = model.forward(&ctx, &features, false)?;
    writeln!(out, "GNN R² = {:.4}", r2_score(&pred, &targets))?;
    let embedding = model.embeddings(&ctx, &features)?;
    Ok((features, embedding))
}

/// The CLI's pipeline configuration for a given design size and policy.
fn base_config(graph: &Graph, threads: usize, best_effort: bool, knn: KnnChoice) -> CirStagConfig {
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
    config.knn.method = match knn {
        KnnChoice::Exact => KnnMethod::Exact,
        KnnChoice::RpForest => KnnMethod::RpForest {
            num_trees: 6,
            leaf_size: 48,
        },
        KnnChoice::Hnsw => KnnMethod::hnsw_default(),
        KnnChoice::Auto => KnnMethod::auto(graph.num_nodes()),
    };
    config
}

#[allow(clippy::too_many_arguments)]
fn analyze(
    path: &str,
    report_path: Option<&str>,
    epochs: usize,
    top: f64,
    threads: usize,
    best_effort: bool,
    cache_dir: Option<&str>,
    knn: KnnChoice,
    partitions: Option<usize>,
    out: &mut dyn std::io::Write,
) -> Result<RunStatus, CliError> {
    let (library, netlist) = load(path)?;
    let timing = TimingGraph::new(&netlist, &library)?;
    let graph = timing.to_undirected_graph()?;
    if let Some(num_partitions) = partitions {
        let workspace = cache_dir.ok_or_else(|| {
            CliError::new(
                "--partitions needs --cache-dir DIR: the directory becomes the \
                 ECO workspace that `cirstag diff` replays",
            )
        })?;
        let pconfig = PartitionConfig {
            num_partitions,
            ..PartitionConfig::default()
        };
        pconfig.validate(graph.num_nodes())?;
        let (features, embedding) = train_gnn(&timing, &netlist, &library, &graph, epochs, out)?;
        let config = base_config(&graph, threads, best_effort, knn);
        let partitioning = partition_graph(&graph, &pconfig)?;
        let cache = ArtifactCache::new().with_disk_dir(workspace);
        let report = analyze_partitioned(
            &config,
            &graph,
            Some(&features),
            &embedding,
            &partitioning.assignment,
            partitioning.num_partitions,
            partitioning.halo_depth,
            Some(&cache),
            None,
        )?;
        writeln!(
            out,
            "partitioned into {} regions (halo depth {}), root {}",
            report.num_partitions,
            report.halo_depth,
            report.root.hex()
        )?;
        write_partition_table(&report, out)?;
        let manifest = EcoManifest {
            schema: ECO_MANIFEST_SCHEMA.to_string(),
            num_partitions: partitioning.num_partitions,
            halo_depth: partitioning.halo_depth,
            seed: partitioning.seed,
            epochs,
            knn: knn.token().to_string(),
            best_effort,
            assignment: partitioning
                .assignment
                .iter()
                .map(|&p| p as usize)
                .collect(),
            netlist: write_netlist(&netlist, &library),
            feature_cols: features.ncols(),
            features: features.as_slice().to_vec(),
            embedding_cols: embedding.ncols(),
            embedding: embedding.as_slice().to_vec(),
        };
        let manifest_path = std::path::Path::new(workspace).join(ECO_MANIFEST_FILE);
        std::fs::write(&manifest_path, manifest.to_json()?)
            .map_err(|e| CliError::new(format!("cannot write {}: {e}", manifest_path.display())))?;
        writeln!(out, "eco workspace written to {workspace}")?;
        write_unstable_pins(&timing, &netlist, &report.node_scores, top, out)?;
        if let Some(rp) = report_path {
            std::fs::write(rp, EcoReportExport::from_report(&report).to_json()?)
                .map_err(|e| CliError::new(format!("cannot write {rp}: {e}")))?;
            writeln!(out, "\neco report written to {rp}")?;
        }
        return if report.degraded {
            writeln!(out, "\nanalysis completed DEGRADED (see partition table)")?;
            Ok(RunStatus::Degraded)
        } else {
            Ok(RunStatus::Clean)
        };
    }
    let (features, embedding) = train_gnn(&timing, &netlist, &library, &graph, epochs, out)?;
    let config = base_config(&graph, threads, best_effort, knn);
    let report = match cache_dir {
        None => CirStag::new(config).analyze(&graph, Some(&features), &embedding)?,
        Some(dir) => {
            let cache = ArtifactCache::new().with_disk_dir(dir);
            CirStag::new(config).analyze_cached(
                &graph,
                Some(&features),
                &embedding,
                &cache,
                None,
            )?
        }
    };
    writeln!(out, "stage timings: {}", report.timings.summary())?;
    if report.degraded || !report.diagnostics.is_empty() {
        writeln!(out, "run diagnostics: {}", report.diagnostics.summary())?;
        for w in &report.diagnostics.warnings {
            writeln!(out, "  warning: {w}")?;
        }
    }
    write_unstable_pins(&timing, &netlist, &report.node_scores, top, out)?;
    if let Some(rp) = report_path {
        std::fs::write(rp, report.to_json()?)
            .map_err(|e| CliError::new(format!("cannot write {rp}: {e}")))?;
        writeln!(out, "\nfull report written to {rp}")?;
    }
    if report.degraded {
        writeln!(out, "\nanalysis completed DEGRADED (see diagnostics above)")?;
        Ok(RunStatus::Degraded)
    } else {
        Ok(RunStatus::Clean)
    }
}

/// Lists the `top` fraction of unstable pins (capacitive, non-output) with
/// their driving nets.
fn write_unstable_pins(
    timing: &TimingGraph,
    netlist: &Netlist,
    node_scores: &[f64],
    top: f64,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let eligible: Vec<bool> = (0..timing.num_pins())
        .map(|p| timing.pin(p).capacitance > 0.0 && timing.pin(p).role != PinRole::PrimaryOutput)
        .collect();
    let unstable = cirstag::top_fraction(node_scores, top, Some(&eligible));
    writeln!(
        out,
        "\nmost unstable {:.0}% of pins ({} pins):",
        top * 100.0,
        unstable.len()
    )?;
    for &p in unstable.iter().take(15) {
        let info = timing.pin(p);
        writeln!(
            out,
            "  pin {:<7} net {:<16} score {:.4e}",
            p, netlist.nets[info.net].name, node_scores[p]
        )?;
    }
    if unstable.len() > 15 {
        writeln!(out, "  … ({} more)", unstable.len() - 15)?;
    }
    Ok(())
}

/// Per-partition recompute table for partitioned runs: which regions
/// replayed from the segmented cache and which were recomputed.
fn write_partition_table(
    report: &PartitionedReport,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    writeln!(out, "  part  owned   halo   hits  miss  wall")?;
    for r in &report.partitions {
        writeln!(
            out,
            "  {:<5} {:<7} {:<6} {:<5} {:<5} {:.1} ms{}",
            r.id,
            r.owned,
            r.halo,
            r.cache_hits,
            r.cache_misses,
            r.wall.as_secs_f64() * 1e3,
            if r.degraded { "  [degraded]" } else { "" }
        )?;
    }
    writeln!(
        out,
        "  total: {} stage hits, {} recomputed, wall {:.1} ms",
        report.cache_hits(),
        report.cache_misses(),
        report.wall.as_secs_f64() * 1e3
    )?;
    Ok(())
}

/// File name of the ECO workspace manifest inside the cache directory.
const ECO_MANIFEST_FILE: &str = "eco_manifest.json";
/// Schema tag of the ECO workspace manifest.
const ECO_MANIFEST_SCHEMA: &str = "cirstag-eco/v1";

/// Everything `cirstag diff` needs to re-score an edited design against an
/// ECO workspace: the partitioning inputs, the analyze-time configuration
/// knobs that feed stage fingerprints, and the bit-exact base feature and
/// embedding matrices. The GNN is trained once, when the workspace is
/// created; delta runs reuse its stored output so untouched partitions
/// replay from the segmented cache.
struct EcoManifest {
    schema: String,
    num_partitions: usize,
    halo_depth: usize,
    seed: u64,
    epochs: usize,
    knn: String,
    best_effort: bool,
    assignment: Vec<usize>,
    netlist: String,
    feature_cols: usize,
    features: Vec<f64>,
    embedding_cols: usize,
    embedding: Vec<f64>,
}

serde::impl_serde_struct!(EcoManifest {
    schema,
    num_partitions,
    halo_depth,
    seed,
    epochs,
    knn,
    best_effort,
    assignment,
    netlist,
    feature_cols,
    features,
    embedding_cols,
    embedding,
});

impl EcoManifest {
    fn to_json(&self) -> Result<String, CliError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| CliError::new(format!("manifest serialization failed: {e}")))
    }

    fn from_json(text: &str) -> Result<Self, CliError> {
        let manifest: EcoManifest = serde_json::from_str(text)
            .map_err(|e| CliError::new(format!("malformed eco manifest: {e}")))?;
        if manifest.schema != ECO_MANIFEST_SCHEMA {
            return Err(CliError::new(format!(
                "unsupported eco manifest schema {:?} (expected {ECO_MANIFEST_SCHEMA:?})",
                manifest.schema
            )));
        }
        Ok(manifest)
    }
}

/// Rebuilds a row-major matrix persisted in the manifest.
fn matrix_from_flat(cols: usize, data: &[f64], what: &str) -> Result<DenseMatrix, CliError> {
    if cols == 0 || !data.len().is_multiple_of(cols) {
        return Err(CliError::new(format!(
            "eco manifest {what} matrix is malformed ({} values over {cols} columns)",
            data.len()
        )));
    }
    Ok(DenseMatrix::from_vec(
        data.len() / cols,
        cols,
        data.to_vec(),
    )?)
}

/// Incremental ECO re-analysis: re-scores an edited design against the
/// workspace written by `analyze --partitions`, recomputing only partitions
/// whose Merkle leaves changed (plus halo invalidation) and replaying the
/// rest from the segmented artifact cache. `--cold` recomputes everything
/// instead and must produce a byte-identical report file.
#[allow(clippy::too_many_arguments)]
fn diff(
    workspace: &str,
    edited: Option<&str>,
    delta: Option<&str>,
    report_path: Option<&str>,
    threads: usize,
    best_effort: Option<bool>,
    cold: bool,
    out: &mut dyn std::io::Write,
) -> Result<RunStatus, CliError> {
    let manifest_path = std::path::Path::new(workspace).join(ECO_MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest_path).map_err(|e| {
        CliError::new(format!(
            "{workspace} is not an ECO workspace ({}: {e}); run \
             `cirstag analyze <netlist> --partitions N --cache-dir {workspace}` first",
            manifest_path.display()
        ))
    })?;
    let manifest = EcoManifest::from_json(&text)?;
    let library = CellLibrary::standard();
    let base_netlist = parse_netlist(&manifest.netlist, &library)?;
    let base_timing = TimingGraph::new(&base_netlist, &library)?;
    let base_graph = base_timing.to_undirected_graph()?;
    let n = base_graph.num_nodes();
    let base_features = matrix_from_flat(manifest.feature_cols, &manifest.features, "feature")?;
    let embedding = matrix_from_flat(manifest.embedding_cols, &manifest.embedding, "embedding")?;
    if base_features.nrows() != n || embedding.nrows() != n || manifest.assignment.len() != n {
        return Err(CliError::new(format!(
            "eco manifest is inconsistent: {n} pins vs {} feature rows, {} embedding rows, \
             {} assignments",
            base_features.nrows(),
            embedding.nrows(),
            manifest.assignment.len()
        )));
    }
    // Re-derive the partitioning from the recorded config; a mismatch with
    // the stored assignment means the workspace was built from a different
    // base design than the manifest claims.
    let pconfig = PartitionConfig {
        num_partitions: manifest.num_partitions,
        seed: manifest.seed,
        halo_depth: manifest.halo_depth,
    };
    pconfig.validate(n)?;
    let partitioning = partition_graph(&base_graph, &pconfig)?;
    let stored: Vec<u32> = manifest.assignment.iter().map(|&p| p as u32).collect();
    if partitioning.assignment != stored {
        return Err(CliError::new(
            "eco manifest is inconsistent: the stored partition assignment does not match \
             the recorded base design",
        ));
    }
    let (graph, features) = match (edited, delta) {
        (Some(path), None) => {
            let (_, netlist) = load(path)?;
            let timing = TimingGraph::new(&netlist, &library)?;
            let graph = timing.to_undirected_graph()?;
            if graph.num_nodes() != n {
                return Err(CliError::new(format!(
                    "edited design has {} pins but the workspace base has {n}; incremental \
                     re-analysis needs node-count-preserving edits (re-run analyze --partitions \
                     for structural changes)",
                    graph.num_nodes()
                )));
            }
            let features = extract_features(
                &timing,
                &netlist,
                &library,
                &timing.pin_caps(),
                &FeatureConfig::default(),
            )?;
            writeln!(out, "edited netlist {path}: fingerprints decide dirtiness")?;
            (graph, features)
        }
        (None, Some(path)) => {
            let ops_text = std::fs::read_to_string(path)
                .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
            let netlist_delta = NetlistDelta::from_json(&ops_text)?;
            let outcome = apply_delta(
                &base_graph,
                Some(&base_features),
                &netlist_delta,
                &partitioning,
            )?;
            writeln!(
                out,
                "delta {path}: {} ops touch {} pins in partitions {:?}",
                netlist_delta.ops.len(),
                outcome.touched_nodes.len(),
                outcome.touched_partitions
            )?;
            let features = outcome
                .features
                .ok_or_else(|| CliError::new("delta application dropped the feature matrix"))?;
            (outcome.graph, features)
        }
        // The parser enforces exactly one edit source.
        _ => unreachable!("diff needs exactly one of --edited/--delta"),
    };
    let knn = KnnChoice::parse(&manifest.knn)?;
    let config = base_config(
        &graph,
        threads,
        best_effort.unwrap_or(manifest.best_effort),
        knn,
    );
    let cache = (!cold).then(|| ArtifactCache::new().with_disk_dir(workspace));
    let report = analyze_partitioned(
        &config,
        &graph,
        Some(&features),
        &embedding,
        &partitioning.assignment,
        partitioning.num_partitions,
        partitioning.halo_depth,
        cache.as_ref(),
        None,
    )?;
    writeln!(out, "root {}", report.root.hex())?;
    write_partition_table(&report, out)?;
    let recomputed = report.recomputed();
    writeln!(
        out,
        "recomputed {} of {} partitions: {recomputed:?}",
        recomputed.len(),
        report.num_partitions
    )?;
    // Parseable by scripts (ci.sh computes the warm/cold speedup from it).
    writeln!(out, "diff wall: {} ms", report.wall.as_millis())?;
    if let Some(rp) = report_path {
        std::fs::write(rp, EcoReportExport::from_report(&report).to_json()?)
            .map_err(|e| CliError::new(format!("cannot write {rp}: {e}")))?;
        writeln!(out, "eco report written to {rp}")?;
    }
    if report.degraded {
        writeln!(out, "re-analysis completed DEGRADED (see partition table)")?;
        Ok(RunStatus::Degraded)
    } else {
        Ok(RunStatus::Clean)
    }
}

#[allow(clippy::too_many_arguments)]
fn sweep(
    path: &str,
    dmd_s: &[usize],
    report_path: Option<&str>,
    epochs: usize,
    threads: usize,
    best_effort: bool,
    cache_dir: Option<&str>,
    knn: KnnChoice,
    out: &mut dyn std::io::Write,
) -> Result<RunStatus, CliError> {
    let (library, netlist) = load(path)?;
    let timing = TimingGraph::new(&netlist, &library)?;
    let graph = timing.to_undirected_graph()?;
    let (features, embedding) = train_gnn(&timing, &netlist, &library, &graph, epochs, out)?;
    let configs: Vec<CirStagConfig> = dmd_s
        .iter()
        .map(|&s| CirStagConfig {
            num_eigenpairs: s,
            ..base_config(&graph, threads, best_effort, knn)
        })
        .collect();
    let mut cache = ArtifactCache::new();
    if let Some(dir) = cache_dir {
        cache = cache.with_disk_dir(dir);
    }
    let reports = configs
        .iter()
        .map(|config| {
            CirStag::new(*config).analyze_cached(&graph, Some(&features), &embedding, &cache, None)
        })
        .collect::<Result<Vec<_>, _>>()?;
    writeln!(
        out,
        "\nsweep over DMD subspace size s ({} configs):",
        configs.len()
    )?;
    let mut degraded_any = false;
    for (cfg, report) in configs.iter().zip(&reports) {
        degraded_any |= report.degraded;
        writeln!(
            out,
            "  s={:<4} ζ₁ {:.4e}  {}{}",
            cfg.num_eigenpairs,
            report.eigenvalues.first().copied().unwrap_or(0.0),
            report.timings.summary(),
            if report.degraded { "  [degraded]" } else { "" }
        )?;
    }
    if let Some(rp) = report_path {
        let mut parts = Vec::with_capacity(reports.len());
        for report in &reports {
            parts.push(report.to_json()?);
        }
        let json = format!("[\n{}\n]", parts.join(",\n"));
        std::fs::write(rp, json).map_err(|e| CliError::new(format!("cannot write {rp}: {e}")))?;
        writeln!(out, "\n{} reports written to {rp}", reports.len())?;
    }
    if degraded_any {
        writeln!(out, "\nsweep completed DEGRADED (see diagnostics above)")?;
        Ok(RunStatus::Degraded)
    } else {
        Ok(RunStatus::Clean)
    }
}

/// Runs the resident daemon until a `shutdown` request arrives. The overload
/// gate's hysteresis band is derived from the queue bound: engage at 3/4,
/// release at 1/4.
#[allow(clippy::too_many_arguments)]
fn serve(
    addr: &str,
    workers: usize,
    queue: usize,
    deadline_ms: Option<u64>,
    best_effort: bool,
    cache_dir: Option<&str>,
    port_file: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<RunStatus, CliError> {
    let config = cirstag_serve::ServeConfig {
        addr: addr.to_string(),
        workers,
        queue_capacity: queue,
        downgrade_high: (queue * 3 / 4).max(1),
        downgrade_low: queue / 4,
        default_deadline_ms: deadline_ms,
        best_effort,
        cache_dir: cache_dir.map(str::to_string),
        port_file: port_file.map(str::to_string),
        ..Default::default()
    };
    let server = cirstag_serve::Server::bind(&config).map_err(|e| CliError::new(e.to_string()))?;
    server.run(out).map_err(|e| CliError::new(e.to_string()))?;
    Ok(RunStatus::Clean)
}

/// Drives a daemon with the load generator and prints the outcome. Exits
/// clean only when every request got a typed answer and none failed with a
/// server-side error; shed and timed-out requests are expected under
/// pressure and exit [`RunStatus::Degraded`] instead.
#[allow(clippy::too_many_arguments)]
fn drive_load(
    netlist_path: &str,
    addr: &str,
    requests: usize,
    clients: usize,
    epochs: usize,
    deadline_ms: Option<u64>,
    best_effort: bool,
    shutdown: bool,
    out: &mut dyn std::io::Write,
) -> Result<RunStatus, CliError> {
    let netlist = std::fs::read_to_string(netlist_path)
        .map_err(|e| CliError::new(format!("cannot read {netlist_path}: {e}")))?;
    let report = cirstag_serve::run_load(&cirstag_serve::LoadConfig {
        addr: addr.to_string(),
        requests,
        clients,
        netlist,
        epochs,
        deadline_ms,
        best_effort: if best_effort { Some(true) } else { None },
        shutdown,
    })
    .map_err(|e| CliError::new(e.to_string()))?;
    writeln!(out, "load against {addr} with {clients} clients:")?;
    writeln!(out, "  {}", report.summary())?;
    if report.transport_errors > 0 {
        return Err(CliError::new(format!(
            "{} requests got no response (dropped connections)",
            report.transport_errors
        )));
    }
    if report.failed > 0 {
        writeln!(out, "load completed with {} failed requests", report.failed)?;
        return Ok(RunStatus::Degraded);
    }
    if report.shed + report.timeouts > 0 {
        writeln!(
            out,
            "load completed under pressure: {} shed, {} timed out (all answered)",
            report.shed, report.timeouts
        )?;
        return Ok(RunStatus::Degraded);
    }
    writeln!(out, "all {} requests served", report.ok)?;
    Ok(RunStatus::Clean)
}

fn dot(
    path: &str,
    scores_path: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let (library, netlist) = load(path)?;
    let timing = TimingGraph::new(&netlist, &library)?;
    let graph = timing.to_undirected_graph()?;
    let node_colors = match scores_path {
        None => None,
        Some(sp) => {
            let text = std::fs::read_to_string(sp)
                .map_err(|e| CliError::new(format!("cannot read {sp}: {e}")))?;
            let report = ReportExport::from_json(&text)?;
            if report.node_scores.len() != graph.num_nodes() {
                return Err(CliError::new(format!(
                    "report covers {} nodes but the design has {}",
                    report.node_scores.len(),
                    graph.num_nodes()
                )));
            }
            Some(heat_colors(&report.node_scores))
        }
    };
    let text = to_dot(
        &graph,
        &DotOptions {
            name: netlist.name.clone(),
            node_colors,
            ..Default::default()
        },
    );
    out.write_all(text.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(cmd: &Command) -> Result<String, CliError> {
        let mut buf = Vec::new();
        run(cmd, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let text = run_to_string(&Command::Help).unwrap();
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn generate_sta_dot_roundtrip() {
        let dir = std::env::temp_dir().join("cirstag_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.cir");
        let path_str = path.to_str().unwrap().to_string();
        let gen_out = run_to_string(&Command::Generate {
            gates: 40,
            seed: 3,
            out: path_str.clone(),
        })
        .unwrap();
        assert!(gen_out.contains("40 gates"));

        let sta_out = run_to_string(&Command::Sta {
            netlist: path_str.clone(),
        })
        .unwrap();
        assert!(sta_out.contains("critical arrival"));

        let dot_out = run_to_string(&Command::Dot {
            netlist: path_str,
            scores: None,
        })
        .unwrap();
        assert!(dot_out.contains("graph"));
        assert!(dot_out.contains("--"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reports_cleanly() {
        let err = run_to_string(&Command::Sta {
            netlist: "/nonexistent/x.cir".to_string(),
        })
        .unwrap_err();
        assert!(err.message.contains("cannot read"));
    }

    #[test]
    fn analyze_small_design_end_to_end() {
        let dir = std::env::temp_dir().join("cirstag_cli_analyze");
        std::fs::create_dir_all(&dir).unwrap();
        let cir = dir.join("a.cir");
        let json = dir.join("a.json");
        run_to_string(&Command::Generate {
            gates: 60,
            seed: 5,
            out: cir.to_str().unwrap().to_string(),
        })
        .unwrap();
        let text = run_to_string(&Command::Analyze {
            netlist: cir.to_str().unwrap().to_string(),
            out: Some(json.to_str().unwrap().to_string()),
            epochs: 60,
            top: 0.10,
            threads: 2,
            best_effort: false,
            cache_dir: None,
            knn: KnnChoice::Auto,
            partitions: None,
        })
        .unwrap();
        assert!(text.contains("most unstable"));
        assert!(text.contains("stage timings"));
        let report = ReportExport::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert!(!report.node_scores.is_empty());
        // Heat-mapped DOT from the saved report.
        let dot_text = run_to_string(&Command::Dot {
            netlist: cir.to_str().unwrap().to_string(),
            scores: Some(json.to_str().unwrap().to_string()),
        })
        .unwrap();
        assert!(dot_text.contains("fillcolor"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("cirstag_cli_serve");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cir = dir.join("d.cir");
        let pf = dir.join("port");
        run_to_string(&Command::Generate {
            gates: 30,
            seed: 9,
            out: cir.to_str().unwrap().to_string(),
        })
        .unwrap();
        let serve_cmd = Command::Serve {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue: 16,
            deadline_ms: None,
            best_effort: false,
            cache_dir: None,
            port_file: Some(pf.to_str().unwrap().to_string()),
        };
        let daemon = std::thread::spawn(move || run_to_string(&serve_cmd));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&pf) {
                if !text.trim().is_empty() {
                    break text.trim().to_string();
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "port file never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let text = run_to_string(&Command::Load {
            netlist: cir.to_str().unwrap().to_string(),
            addr,
            requests: 8,
            clients: 2,
            epochs: 6,
            deadline_ms: None,
            best_effort: false,
            shutdown: true,
        })
        .unwrap();
        assert!(text.contains("all 8 requests served"), "{text}");
        let serve_out = daemon.join().unwrap().unwrap();
        assert!(serve_out.contains("listening on"), "{serve_out}");
        assert!(serve_out.contains("drained"), "{serve_out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partitioned_analyze_and_diff_roundtrip() {
        use cirstag_circuit::DeltaOp;
        let dir = std::env::temp_dir().join("cirstag_cli_eco");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cir = dir.join("e.cir");
        let ws = dir.join("ws");
        run_to_string(&Command::Generate {
            gates: 60,
            seed: 5,
            out: cir.to_str().unwrap().to_string(),
        })
        .unwrap();
        let text = run_to_string(&Command::Analyze {
            netlist: cir.to_str().unwrap().to_string(),
            out: None,
            epochs: 40,
            top: 0.10,
            threads: 1,
            best_effort: false,
            cache_dir: Some(ws.to_str().unwrap().to_string()),
            knn: KnnChoice::Auto,
            partitions: Some(4),
        })
        .unwrap();
        assert!(text.contains("partitioned into 4 regions"), "{text}");
        assert!(text.contains("eco workspace written"), "{text}");
        assert!(ws.join(ECO_MANIFEST_FILE).is_file());

        // A capacitance drift on one pin: a one-partition edit (plus halo).
        let delta = NetlistDelta {
            ops: vec![DeltaOp::FeatureDrift {
                node: 0,
                scale: 1.02,
            }],
        };
        let delta_path = dir.join("drift.json");
        std::fs::write(&delta_path, delta.to_json().unwrap()).unwrap();

        let warm_json = dir.join("warm.json");
        let warm = run_to_string(&Command::Diff {
            workspace: ws.to_str().unwrap().to_string(),
            edited: None,
            delta: Some(delta_path.to_str().unwrap().to_string()),
            out: Some(warm_json.to_str().unwrap().to_string()),
            threads: 1,
            best_effort: None,
            cold: false,
        })
        .unwrap();
        assert!(warm.contains("diff wall:"), "{warm}");
        assert!(warm.contains(" of 4 partitions"), "{warm}");
        assert!(
            !warm.contains("recomputed 4 of 4"),
            "a one-pin drift must replay at least one partition from cache:\n{warm}"
        );

        // The cold reference recomputes everything yet must serialize the
        // exact same deterministic payload.
        let cold_json = dir.join("cold.json");
        let cold = run_to_string(&Command::Diff {
            workspace: ws.to_str().unwrap().to_string(),
            edited: None,
            delta: Some(delta_path.to_str().unwrap().to_string()),
            out: Some(cold_json.to_str().unwrap().to_string()),
            threads: 1,
            best_effort: None,
            cold: true,
        })
        .unwrap();
        assert!(cold.contains("recomputed 4 of 4"), "{cold}");
        assert_eq!(
            std::fs::read(&warm_json).unwrap(),
            std::fs::read(&cold_json).unwrap(),
            "warm delta payload must be byte-identical to the cold reference"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partitioned_analyze_validates_inputs() {
        let dir = std::env::temp_dir().join("cirstag_cli_eco_validate");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cir = dir.join("v.cir");
        run_to_string(&Command::Generate {
            gates: 40,
            seed: 11,
            out: cir.to_str().unwrap().to_string(),
        })
        .unwrap();
        let base = Command::Analyze {
            netlist: cir.to_str().unwrap().to_string(),
            out: None,
            epochs: 10,
            top: 0.10,
            threads: 1,
            best_effort: false,
            cache_dir: Some(dir.join("ws").to_str().unwrap().to_string()),
            knn: KnnChoice::Auto,
            partitions: Some(0),
        };
        let err = run_to_string(&base).unwrap_err();
        assert!(err.message.contains("at least 1"), "{}", err.message);
        let absurd = match &base {
            Command::Analyze { .. } => {
                let mut cmd = base.clone();
                if let Command::Analyze { partitions, .. } = &mut cmd {
                    *partitions = Some(1_000_000);
                }
                cmd
            }
            other => panic!("unexpected {other:?}"),
        };
        let err = run_to_string(&absurd).unwrap_err();
        assert!(err.message.contains("absurd"), "{}", err.message);
        // The workspace is where diff replays from, so it is mandatory.
        let mut no_ws = base.clone();
        if let Command::Analyze {
            cache_dir,
            partitions,
            ..
        } = &mut no_ws
        {
            *cache_dir = None;
            *partitions = Some(2);
        }
        let err = run_to_string(&no_ws).unwrap_err();
        assert!(err.message.contains("--cache-dir"), "{}", err.message);
        // And a directory without a manifest is not a workspace.
        let err = run_to_string(&Command::Diff {
            workspace: dir.join("nowhere").to_str().unwrap().to_string(),
            edited: None,
            delta: Some("unused.json".to_string()),
            out: None,
            threads: 1,
            best_effort: None,
            cold: false,
        })
        .unwrap_err();
        assert!(
            err.message.contains("not an ECO workspace"),
            "{}",
            err.message
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_replays_cached_phases_and_persists_reports() {
        let dir = std::env::temp_dir().join("cirstag_cli_sweep");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cir = dir.join("s.cir");
        let json = dir.join("sweep.json");
        let cache = dir.join("cache");
        run_to_string(&Command::Generate {
            gates: 60,
            seed: 5,
            out: cir.to_str().unwrap().to_string(),
        })
        .unwrap();
        let text = run_to_string(&Command::Sweep {
            netlist: cir.to_str().unwrap().to_string(),
            dmd_s: vec![3, 5, 8],
            out: Some(json.to_str().unwrap().to_string()),
            epochs: 40,
            threads: 1,
            best_effort: false,
            cache_dir: Some(cache.to_str().unwrap().to_string()),
            knn: KnnChoice::Auto,
        })
        .unwrap();
        assert!(text.contains("sweep over DMD subspace size"));
        // The second and third configs differ only in Phase 3, so their
        // summaries must report cache hits from the replayed Phase-1/2.
        assert!(text.contains("cache"), "{text}");
        assert!(text.contains("3 reports written"), "{text}");
        // The on-disk layer must hold at least the cacheable stages.
        assert!(std::fs::read_dir(&cache).unwrap().count() >= 3);
        // The report file is a JSON array of per-config exports.
        let body = std::fs::read_to_string(&json).unwrap();
        assert!(body.trim_start().starts_with('['));
        assert!(body.contains("cache_hits"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
