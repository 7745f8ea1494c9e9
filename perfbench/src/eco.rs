//! The ECO diff stream: a fresh partitioned workspace built through the
//! CLI's `analyze --partitions`, then a seeded stream of `diff` calls, each
//! against the base design.

use crate::common::{ms, Outcome, Scenario, EPOCHS, THREADS};
use crate::inputs::{design, eco_deltas, EcoRound, EditKind};
use crate::stats::{median, HitRatio};
use crate::trace;
use cirstag_circuit::{
    apply_delta, extract_features, parse_netlist, partition_graph, write_netlist, CellLibrary,
    DeltaOp, FeatureConfig, NetlistDelta, PartitionConfig, Partitioning, TimingGraph,
};
use cirstag_cli::{Command, KnnChoice};
use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Gates and partitions of the ECO workspace every workload diffs against
/// (~1k pins, the served design's size and partition count). A full-size
/// (1200-gate, 3.8k-pin) workspace would need a workload of its own, and
/// the acceptance protocol's time limit, shared by every workload's runs,
/// has no room for a third: such runs took 33–57 s each.
pub const SIZE: (usize, usize) = (300, 8);

/// A built ECO workspace and the base design the deltas are drawn from.
pub struct Workspace {
    dir: PathBuf,
    graph: Graph,
    features: DenseMatrix,
    partitioning: Partitioning,
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Runs one CLI command, capturing its output text.
fn cli(command: &Command) -> Result<String, String> {
    let mut buf = Vec::new();
    let (status, _) = trace::span("cli.run", || cirstag_cli::run(command, &mut buf));
    status.map_err(|e| e.to_string())?;
    String::from_utf8(buf).map_err(|e| e.to_string())
}

/// Builds a fresh workspace in `dir` (set-up).
///
/// # Errors
///
/// Generation, I/O or analysis failures, as text.
pub fn setup(
    library: &CellLibrary,
    (gates, partitions): (usize, usize),
    dir: &Path,
) -> Result<Workspace, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let text = write_netlist(&design(library, gates)?, library);
    let netlist_path = dir.join("base.cir");
    std::fs::write(&netlist_path, &text).map_err(|e| e.to_string())?;
    let ws = dir.join("workspace");
    cli(&Command::Analyze {
        netlist: path_str(&netlist_path),
        out: None,
        epochs: EPOCHS,
        top: 0.1,
        threads: THREADS,
        best_effort: false,
        cache_dir: Some(path_str(&ws)),
        knn: KnnChoice::Auto,
        partitions: Some(partitions),
    })?;
    let netlist = parse_netlist(&text, library).map_err(|e| e.to_string())?;
    let timing = TimingGraph::new(&netlist, library).map_err(|e| e.to_string())?;
    let graph = timing.to_undirected_graph().map_err(|e| e.to_string())?;
    let features = extract_features(
        &timing,
        &netlist,
        library,
        &timing.pin_caps(),
        &FeatureConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let partitioning =
        partition_graph(&graph, &partition_config(partitions)).map_err(|e| e.to_string())?;
    Ok(Workspace {
        dir: ws,
        graph,
        features,
        partitioning,
    })
}

/// The partitioning `cirstag analyze --partitions N` records.
fn partition_config(num_partitions: usize) -> PartitionConfig {
    PartitionConfig {
        num_partitions,
        ..PartitionConfig::default()
    }
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What `cirstag diff` printed about one run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DiffSummary {
    hits: u64,
    misses: u64,
    wall_ms: f64,
    recomputed: usize,
}

/// Parses the partition table's `total:` line and the `recomputed` line.
fn parse_summary(text: &str) -> Option<DiffSummary> {
    let total: Vec<&str> = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("total:"))?
        .split_whitespace()
        .collect();
    // "{hits} stage hits, {misses} recomputed, wall {ms} ms"
    let recomputed = text
        .lines()
        .find_map(|l| l.strip_prefix("recomputed "))?
        .split_whitespace()
        .next()?;
    Some(DiffSummary {
        hits: total.first()?.parse().ok()?,
        misses: total.get(3)?.parse().ok()?,
        wall_ms: total.get(6)?.parse().ok()?,
        recomputed: recomputed.parse().ok()?,
    })
}

/// The ECO scenario: the seeded diff stream, one `diff` per step, in a
/// fixed number of whole rounds (so every run times each partition equally
/// often). It records `eco_edit_ms` and `eco_replay_ms`, then
/// (outside timing) checks that a fresh edit's warm, partially recomputed
/// report is byte-identical to its `--cold` report.
pub struct EcoStream<'a> {
    ws: &'a Workspace,
    stream: Vec<EcoRound>,
    scratch: PathBuf,
    round: usize,
    next: usize,
    edits: Vec<f64>,
    replays: Vec<f64>,
    overhead: Vec<f64>,
    eco_walls: Vec<f64>,
    recomputed: Vec<f64>,
    written: u64,
    cache: HitRatio,
}

impl<'a> EcoStream<'a> {
    /// The stream of `rounds` rounds for `seed` against `ws`.
    ///
    /// # Errors
    ///
    /// When the delta directory cannot be created.
    pub fn new(ws: &'a Workspace, seed: u64, rounds: usize) -> Result<Self, String> {
        let scratch = ws.dir.with_file_name("deltas");
        std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
        Ok(EcoStream {
            ws,
            stream: eco_deltas(&ws.graph, &ws.partitioning, rounds, seed),
            scratch,
            round: 0,
            next: 0,
            edits: Vec::new(),
            replays: Vec::new(),
            overhead: Vec::new(),
            eco_walls: Vec::new(),
            recomputed: Vec::new(),
            written: 0,
            cache: HitRatio::default(),
        })
    }

    fn diff(&self, delta_path: &Path, report: Option<&Path>, cold: bool) -> Command {
        Command::Diff {
            workspace: path_str(&self.ws.dir),
            edited: None,
            delta: Some(path_str(delta_path)),
            out: report.map(path_str),
            threads: THREADS,
            best_effort: None,
            cold,
        }
    }

    /// Diffs an edit the stream never sent, so the warm run recomputes its
    /// partition and splices the cached rest, then diffs it `--cold`.
    /// Returns whether the two reports are byte-identical; an error when
    /// the warm diff recomputed nothing.
    fn check_warm_against_cold(&self) -> Result<bool, String> {
        // The stream draws factors from [1.5, 3); 3.5 keys a new entry.
        let Some(DeltaOp::RescaleEdge { u, v, .. }) = self
            .stream
            .iter()
            .flatten()
            .find_map(|(d, kind)| (*kind == EditKind::Edit).then(|| d.ops[0].clone()))
        else {
            return Err("the stream holds no edit".into());
        };
        let delta = NetlistDelta {
            ops: vec![DeltaOp::RescaleEdge { u, v, factor: 3.5 }],
        };
        let path = self.scratch.join("check.json");
        let json = delta.to_json().map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| e.to_string())?;
        let warm = self.scratch.join("warm.json");
        let cold = self.scratch.join("cold.json");
        let text = cli(&self.diff(&path, Some(&warm), false))?;
        match parse_summary(&text) {
            Some(s) if s.recomputed >= 1 => {}
            _ => return Err("the warm check diff recomputed no partition".into()),
        }
        cli(&self.diff(&path, Some(&cold), true))?;
        let read = |p: &Path| std::fs::read(p).map_err(|e| e.to_string());
        Ok(read(&warm)? == read(&cold)?)
    }

    /// Runs one diff and files its outcome.
    fn run_diff(&mut self, path: PathBuf, kind: EditKind, out: &mut Outcome) {
        let before = dir_bytes(&self.ws.dir);
        let t = Instant::now();
        let result = cli(&self.diff(&path, None, false));
        let wall = ms(t.elapsed());
        self.written += dir_bytes(&self.ws.dir).saturating_sub(before);
        let summary = match result.map(|text| parse_summary(&text)) {
            Ok(Some(s)) => s,
            Ok(None) => return out.op(false, || "diff output lacks its partition summary".into()),
            Err(e) => return out.fail("diff", e),
        };
        // A drift must replay everything; an in-partition rescale must
        // recompute at least its own partition.
        let expected = match kind {
            EditKind::Edit => summary.recomputed >= 1,
            EditKind::Drift => summary.recomputed == 0 && summary.misses == 0,
        };
        out.op(expected, || {
            format!("{kind:?} diff recomputed {} partitions", summary.recomputed)
        });
        self.cache.add(summary.hits, summary.misses);
        self.overhead.push(wall - summary.wall_ms);
        if summary.recomputed > 0 {
            self.edits.push(wall);
            self.eco_walls.push(summary.wall_ms);
            self.recomputed.push(summary.recomputed as f64);
        } else {
            self.replays.push(wall);
        }
    }
}

impl Scenario for EcoStream<'_> {
    fn step(&mut self, out: &mut Outcome) -> bool {
        if self.round >= self.stream.len() {
            return false;
        }
        let (r, j) = (self.round, self.next);
        let (delta, kind) = &self.stream[r][j];
        let kind = *kind;
        let path = self.scratch.join(format!("delta-{r}-{j}.json"));
        match delta
            .to_json()
            .map_err(|e| e.to_string())
            .and_then(|json| std::fs::write(&path, json).map_err(|e| e.to_string()))
        {
            Ok(()) => self.run_diff(path, kind, out),
            Err(e) => out.fail("write delta", e),
        }
        self.next += 1;
        if self.next == self.stream[r].len() {
            self.next = 0;
            self.round += 1;
        }
        true
    }

    fn progress(&self) -> f64 {
        let Some(len) = self.stream.first().map(Vec::len) else {
            return 1.0;
        };
        let rounds = self.round as f64 + self.next as f64 / len as f64;
        rounds / self.stream.len() as f64
    }

    fn finish(&mut self, out: &mut Outcome) {
        out.e2e("eco_edit_ms", median(&self.edits), "ms");
        out.e2e("eco_replay_ms", median(&self.replays), "ms");
        out.notes.push(format!(
            "eco: {} edit diffs, {} replay diffs, cache {} hits / {} misses",
            self.edits.len(),
            self.replays.len(),
            self.cache.hits,
            self.cache.misses
        ));
        match self.check_warm_against_cold() {
            Ok(same) => out.op(same, || {
                "warm diff report differs from its --cold report".into()
            }),
            Err(e) => out.fail("warm/cold diff check", e),
        }
        if trace::enabled() {
            out.layer("core.eco_wall_ms", median(&self.eco_walls), "ms");
            out.layer(
                "core.recomputed_partitions",
                median(&self.recomputed),
                "count",
            );
            out.layer("core.cache_hit_ratio", self.cache.ratio(), "1");
            out.layer("core.cache_hits", self.cache.hits as f64, "count");
            out.layer("core.cache_misses", self.cache.misses as f64, "count");
            out.layer("core.disk_bytes_written", self.written as f64, "bytes");
            out.layer("cli.diff_overhead_ms", median(&self.overhead), "ms");
            layer_probes(self.ws, &self.stream, out);
        }
    }
}

/// Repetitions of the ECO layer probes.
const PROBE_REPS: usize = 5;

/// Times the layers a diff goes through that the CLI does not report:
/// manifest parsing, re-partitioning and delta application.
fn layer_probes(ws: &Workspace, stream: &[EcoRound], out: &mut Outcome) {
    let stream: Vec<_> = stream.iter().flatten().collect();
    let manifest = match std::fs::read_to_string(ws.dir.join("eco_manifest.json")) {
        Ok(m) => m,
        Err(e) => return out.fail("read manifest", e),
    };
    let timed = |name: &'static str, f: &mut dyn FnMut() -> bool| {
        let mut walls = Vec::new();
        for _ in 0..PROBE_REPS {
            let t = Instant::now();
            let (ok, _) = trace::span(name, &mut *f);
            walls.push(ms(t.elapsed()));
            if !ok {
                return None;
            }
        }
        Some(median(&walls))
    };
    let parse = timed("cli.manifest_parse", &mut || {
        serde_json::parse_value(&manifest).is_ok()
    });
    let config = partition_config(ws.partitioning.num_partitions);
    let partition = timed("circuit.partition", &mut || {
        partition_graph(&ws.graph, &config).is_ok()
    });
    let mut next = 0;
    let apply = timed("circuit.apply_delta", &mut || {
        next += 1;
        let (delta, _) = &stream[next % stream.len()];
        apply_delta(&ws.graph, Some(&ws.features), delta, &ws.partitioning).is_ok()
    });
    for (name, value) in [
        ("cli.manifest_parse_ms", parse),
        ("circuit.partition_ms", partition),
        ("circuit.apply_delta_ms", apply),
    ] {
        match value {
            Some(v) => out.layer(name, v, "ms"),
            None => out.fail(name, "probe call failed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_diff_summary() {
        let text = "root abc\n  part  owned   halo   hits  miss  wall\n  \
                    0     10      2      5     0     1.0 ms\n  \
                    total: 35 stage hits, 5 recomputed, wall 812.4 ms\n\
                    recomputed 1 of 8 partitions: [3]\ndiff wall: 812 ms\n";
        assert_eq!(
            parse_summary(text),
            Some(DiffSummary {
                hits: 35,
                misses: 5,
                wall_ms: 812.4,
                recomputed: 1
            })
        );
        assert_eq!(parse_summary("no table"), None);
    }
}
