//! The cold analysis ladder: one cold `CirStag::analyze` per rung, using the
//! CLI's `analyze` configuration. The traced run also replays the engine's
//! call sequence through the layers' public functions, asserts that the
//! replay reproduces the report bit for bit, and runs the solver kernel
//! probes.

use crate::common::{cli_config, ms, prepare, Budget, Outcome, Prepared, Scenario};
use crate::inputs::{design, Rng};
use crate::stats::{loglog_slope, median, quartiles};
use crate::trace;
use cirstag::{CirStag, StabilityReport};
use cirstag_circuit::{write_netlist, CellLibrary};
use cirstag_embed::{knn_graph_with_stats, spectral_embedding_ws};
use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;
use cirstag_pgm::learn_manifold;
use cirstag_solver::{
    conjugate_gradient_block_into, generalized_lanczos_ws, CgOptions, CsrOperator, LaplacianSolver,
    ResistanceEstimator, SolverWorkspace, TreePreconditioner,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Gate counts of the full ladder (~1.0k / 1.9k / 3.8k pins). It crosses
/// the CLI's exact → rp-forest kNN switch at 3000 pins. A 3000-gate
/// (9.6k-pin) top rung takes 16–25 s on the reference host, too long to
/// time more than once per run, and one sample spread by 20–28% (IQR over
/// median) between runs.
pub const FULL: &[usize] = &[300, 600, 1200];
/// Gate counts of the short ladder `serve_mixed` runs (~0.2k–0.5k pins).
/// Its top rung stays small so the acceptance protocol's runs fit their
/// time limit on a slow host: seven passes with a 200-gate top took 7–13 s.
pub const LITE: &[usize] = &[50, 100, 150];
/// Passes every ladder makes at least, so a pass the host left undisturbed
/// is likely among them.
const MIN_PASSES: usize = 3;

/// Probe panel width of the solver kernel probes.
const PROBE_COLUMNS: usize = 32;
/// Repetitions of the block-solve and sketch kernel probes.
const PROBE_REPS: usize = 7;
/// Tolerance of the probe solves (the sketch's and the pencil's).
const PROBE_CG: CgOptions = CgOptions {
    tol: 1e-6,
    max_iter: 10_000,
};

/// The replay's layer spans, with the per-layer metric each one reports
/// (name, scale from seconds, unit). Together with `core.self_s` they add
/// up to `trace.analyze_s`.
const REPLAY_LAYERS: [(&str, &str, f64, &str); 5] = [
    ("embed.spectral", "embed.spectral_s", 1.0, "s"),
    ("embed.knn", "embed.knn_s", 1.0, "s"),
    ("pgm.learn_manifold", "pgm.learn_manifold_s", 1.0, "s"),
    ("solver.pencil", "solver.pencil_ms", 1e3, "ms"),
    ("solver.geig", "solver.geig_s", 1.0, "s"),
];

/// Per-pass samples of the largest rung in the traced run: name → one
/// value per pass.
type PassSamples = BTreeMap<&'static str, Vec<f64>>;

/// Generates and prepares every rung (set-up). The ladder is a fixed set of
/// designs, like the paper's Fig. 5 suite: the seed does not enter, because
/// any change to a design or its features moves the eigensolvers' iteration
/// counts and, with them, analysis time by 15–20%.
///
/// # Errors
///
/// Generation, parsing or training failures, as text.
pub fn setup(library: &CellLibrary, rungs: &[usize]) -> Result<Vec<Prepared>, String> {
    rungs
        .iter()
        .map(|&gates| prepare(library, &write_netlist(&design(library, gates)?, library)))
        .collect()
}

/// The ladder scenario: passes over the rungs (the smallest twice), one
/// cold analysis per step, until `budget` is spent and at least
/// [`MIN_PASSES`] passes are done. It records `analyze_s` (the largest
/// rung's fastest pass) and `scaling_exponent` (log–log slope of each
/// rung's fastest pass against |V|+|E|). Every pass does the same work, so
/// the fastest is the one the host disturbed least. The host slows single
/// analyses by 20–70% for seconds at a time, most often the short ones at
/// the bottom of the ladder, and a slope through per-rung medians of three
/// passes tilted with them: over 24 three-pass windows of four long runs
/// its spread (IQR over median) was 0.18, against 0.08 through the
/// per-rung minima.
///
/// When tracing, the first pass also replays and probes every rung, and
/// every pass replays the largest rung right after analysing it, so its
/// layer times are medians over the same passes as `trace.analyze_s`, the
/// largest rung's median pass.
pub struct Ladder<'a> {
    rungs: &'a [Prepared],
    budget: Budget,
    busy: Duration,
    walls: Vec<Vec<f64>>,
    pass: usize,
    next: usize,
    traced: PassSamples,
}

impl<'a> Ladder<'a> {
    /// Steps in one pass: every rung once, then the smallest again. The
    /// smallest rung's analyses are the shortest, so a burst of host load
    /// slows them the most (0.9–1.6 s for one ~1.0 s analysis within a
    /// run), and the exponent leans on its fastest pass.
    fn steps_per_pass(&self) -> usize {
        self.rungs.len() + 1
    }

    /// A ladder over prepared `rungs`.
    pub fn new(rungs: &'a [Prepared], budget: Budget) -> Self {
        Ladder {
            rungs,
            budget,
            busy: Duration::ZERO,
            walls: vec![Vec::new(); rungs.len()],
            pass: 0,
            next: 0,
            traced: PassSamples::new(),
        }
    }
}

impl Scenario for Ladder<'_> {
    fn step(&mut self, out: &mut Outcome) -> bool {
        if self.next == 0 && self.pass >= MIN_PASSES && self.budget.spent(self.busy, self.pass) {
            return false;
        }
        let step_start = Instant::now();
        // The last step of a pass analyses the smallest rung again.
        let i = if self.next < self.rungs.len() { self.next } else { 0 };
        let rung = &self.rungs[i];
        let config = cli_config(rung.graph.num_nodes());
        let t = Instant::now();
        let (report, _) = trace::span("core.analyze", || {
            CirStag::new(config).analyze(&rung.graph, Some(&rung.features), &rung.embedding)
        });
        let wall = t.elapsed().as_secs_f64();
        match report {
            Ok(report) => {
                self.walls[i].push(wall);
                check_report(&report, rung.graph.num_nodes(), out);
                let largest = i + 1 == self.rungs.len();
                let first = self.pass == 0 && self.next == i;
                if trace::enabled() && (first || largest) {
                    let traced = largest.then_some(&mut self.traced);
                    replay_and_probe(rung, &report, i, first, traced, out);
                }
            }
            Err(e) => out.fail("cold analyze", e),
        }
        self.next = (self.next + 1) % self.steps_per_pass();
        if self.next == 0 {
            self.pass += 1;
        }
        self.busy += step_start.elapsed();
        true
    }

    fn progress(&self) -> f64 {
        let per_pass = self.steps_per_pass();
        let done = self.pass * per_pass + self.next;
        match self.budget {
            Budget::Ops(n) => (done as f64 / (n.max(MIN_PASSES) * per_pass) as f64).min(1.0),
            Budget::Time(_) => {
                let passes = done as f64 / (MIN_PASSES * per_pass) as f64;
                passes
                    .min(1.0)
                    .min(self.budget.progress(self.busy, self.pass))
            }
        }
    }

    fn finish(&mut self, out: &mut Outcome) {
        let sizes: Vec<f64> = self
            .rungs
            .iter()
            .map(|r| (r.graph.num_nodes() + r.graph.num_edges()) as f64)
            .collect();
        let medians: Vec<f64> = self.walls.iter().map(|w| median(w)).collect();
        let fastest: Vec<f64> = self
            .walls
            .iter()
            .map(|w| w.iter().copied().fold(f64::NAN, f64::min))
            .collect();
        let largest = medians.last().copied().unwrap_or(f64::NAN);
        out.e2e("analyze_s", fastest.last().copied().unwrap_or(f64::NAN), "s");
        out.e2e("scaling_exponent", loglog_slope(&sizes, &fastest), "1");
        let rows: Vec<String> = sizes
            .iter()
            .zip(medians.iter().zip(&fastest))
            .map(|(s, (m, f))| format!("|V|+|E|={s} {m:.3}s (fastest {f:.3}s)"))
            .collect();
        out.notes.push(format!(
            "ladder: {} passes; median analyze {}",
            self.pass,
            rows.join(", ")
        ));
        if trace::enabled() {
            out.layer("trace.analyze_s", largest, "s");
            let pass_median = |name: &str| self.traced.get(name).map_or(f64::NAN, |v| median(v));
            let mut layers = 0.0;
            for (span, metric, scale, unit) in REPLAY_LAYERS {
                let secs = pass_median(span);
                layers += secs;
                out.layer(metric, secs * scale, unit);
            }
            out.layer("core.self_s", largest - layers, "s");
            for name in [
                "core.phase1_s",
                "core.phase2_s",
                "core.phase3_s",
                "core.replay_s",
            ] {
                out.layer(name, pass_median(name), "s");
            }
        }
    }
}

/// Output checks on one report: not degraded, finite scores, eigenvalues
/// sorted descending.
fn check_report(report: &StabilityReport, n: usize, out: &mut Outcome) {
    let finite = report.node_scores.len() == n
        && report.node_scores.iter().all(|s| s.is_finite())
        && report.edge_scores.iter().all(|e| e.2.is_finite());
    let sorted = report.eigenvalues.windows(2).all(|w| w[0] >= w[1]);
    out.op(
        !report.degraded && finite && sorted && !report.eigenvalues.is_empty(),
        || {
            format!(
                "report check on {n} pins: degraded={} finite={finite} sorted={sorted}",
                report.degraded
            )
        },
    );
}

/// Calls `f` inside a span named `name` and turns the layer's error into
/// text.
fn call<R, E: std::fmt::Display>(
    name: &'static str,
    f: impl FnOnce() -> Result<R, E>,
) -> Result<R, String> {
    trace::span(name, f).0.map_err(|e| e.to_string())
}

/// What the replay of one rung produced.
struct Replay {
    dense_y: Graph,
    knn_candidates: f64,
    kept_by_eta: usize,
    edges_after: usize,
    geig_iters: usize,
}

/// Replays the engine's call sequence for one rung through public
/// functions: `spectral_embedding_ws` → `knn_graph_with_stats` ×2 →
/// `learn_manifold` ×2 → `with_tree_preconditioner` →
/// `generalized_lanczos_ws`, checking the manifolds and eigenvalues against
/// the engine's report bit for bit.
fn replay(rung: &Prepared, report: &StabilityReport) -> Result<(Replay, bool), String> {
    let g = &rung.graph;
    let n = g.num_nodes();
    let cfg = cli_config(n);
    let mut ws = SolverWorkspace::new();
    let m = cfg.embedding_dim.min(n - 1).max(1);
    let k = cfg.knn_k.min(n - 1).max(1);
    let u = call("embed.spectral", || {
        spectral_embedding_ws(g, m, &cfg.spectral, &mut ws)
    })?;
    let (dense_x, stats_x) = call("embed.knn", || knn_graph_with_stats(&u, k, &cfg.knn))?;
    let gx = call("pgm.learn_manifold", || learn_manifold(&dense_x, &cfg.pgm))?;
    let (dense_y, stats_y) = call("embed.knn", || {
        knn_graph_with_stats(&rung.embedding, k, &cfg.knn)
    })?;
    let gy = call("pgm.learn_manifold", || learn_manifold(&dense_y, &cfg.pgm))?;
    // The engine's pencil stage: L_X assembly plus the preconditioned L_Y
    // solver, at the pencil's fixed ranking-grade tolerance.
    let (lx, ly) = call("solver.pencil", || {
        let lx = gx.graph.laplacian();
        LaplacianSolver::with_tree_preconditioner(&gy.graph, PROBE_CG).map(|ly| (lx, ly))
    })?;
    let s = cfg.num_eigenpairs.min(n.saturating_sub(2)).max(1);
    let geig = call("solver.geig", || {
        generalized_lanczos_ws(&lx, &ly, s, cfg.geig_max_iter, cfg.seed, &mut ws)
    })?;
    let same_bits = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let identical = gx.graph == report.input_manifold
        && gy.graph == report.output_manifold
        && same_bits(&geig.eigenvalues, &report.eigenvalues);
    // Exact search considers every other point a candidate.
    let candidates =
        |s: Option<cirstag_embed::KnnStats>| s.map_or((n - 1) as f64, |s| s.mean_candidates);
    Ok((
        Replay {
            dense_y,
            knn_candidates: (candidates(stats_x) + candidates(stats_y)) / 2.0,
            kept_by_eta: gx.stats.kept_by_eta + gy.stats.kept_by_eta,
            edges_after: gx.stats.edges_after + gy.stats.edges_after,
            geig_iters: geig.iterations,
        },
        identical,
    ))
}

/// Replays one rung and checks it against the report. On the first pass it
/// also runs the per-rung solver probes; for the largest rung (`traced`) it
/// files the replay's layer times and the report's phase times as one more
/// pass sample.
fn replay_and_probe(
    rung: &Prepared,
    report: &StabilityReport,
    index: usize,
    first_pass: bool,
    traced: Option<&mut PassSamples>,
    out: &mut Outcome,
) {
    let (replayed, root) = trace::span("bench.replay", || replay(rung, report));
    let (rep, identical) = match replayed {
        Ok(r) => r,
        Err(e) => {
            out.fail("replay", e);
            return;
        }
    };
    out.op(identical, || {
        format!(
            "replay of the {}-pin rung does not reproduce the report bit for bit",
            rung.graph.num_nodes()
        )
    });
    if first_pass {
        let (iters, block_ms) = match block_probe(&rep.dense_y) {
            Ok(v) => v,
            Err(e) => {
                out.fail("block CG probe", e);
                return;
            }
        };
        let mean_iters = iters.iter().sum::<usize>() as f64 / iters.len().max(1) as f64;
        out.layer(
            &format!("solver.cg_iters_per_column.mean.r{index}"),
            mean_iters,
            "count",
        );
        out.layer(
            &format!("solver.cg_iters_per_column.max.r{index}"),
            iters.iter().copied().max().unwrap_or(0) as f64,
            "count",
        );
        if index == 0 {
            kernel_probes(&rep.dense_y, block_ms, out);
        }
    }
    let Some(samples) = traced else {
        return;
    };
    let spans = trace::spans();
    let layer = trace::self_seconds(&trace::subtree(&spans, root));
    let replay_wall = spans
        .iter()
        .find(|s| s.id == root)
        .map_or(f64::NAN, trace::Span::secs);
    let timings = &report.timings;
    for (name, secs) in REPLAY_LAYERS
        .iter()
        .map(|&(span, ..)| (span, layer.get(span).copied().unwrap_or(0.0)))
        .chain([
            ("core.phase1_s", timings.phase1.as_secs_f64()),
            ("core.phase2_s", timings.phase2.as_secs_f64()),
            ("core.phase3_s", timings.phase3.as_secs_f64()),
            ("core.replay_s", replay_wall),
        ])
    {
        samples.entry(name).or_default().push(secs);
    }
    if !first_pass {
        return;
    }
    out.layer("embed.knn_mean_candidates", rep.knn_candidates, "count");
    out.layer("pgm.kept_by_eta", rep.kept_by_eta as f64, "count");
    out.layer("pgm.edges_after", rep.edges_after as f64, "count");
    out.layer("solver.geig_iters", rep.geig_iters as f64, "count");
    // The η sketch on its own, at the pipeline's probe count: a kernel
    // probe outside the replay sum.
    let t = Instant::now();
    match ResistanceEstimator::sketched(&rep.dense_y, 48, 0x5A65 ^ 0xE7A) {
        Ok(_) => out.layer("solver.sketch_s", t.elapsed().as_secs_f64(), "s"),
        Err(e) => out.fail("sketch probe", e),
    }
}

/// A Rademacher probe panel `Bᵀ W^{1/2} Q` over the edges of `g`, the same
/// construction the resistance sketch solves against.
fn probe_panel(g: &Graph, columns: usize) -> DenseMatrix {
    let mut rng = Rng::new(0xB10C, 0);
    let mut panel = DenseMatrix::zeros(g.num_nodes(), columns);
    let data = panel.as_mut_slice();
    for j in 0..columns {
        for e in g.edges() {
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            let s = sign * e.weight.sqrt();
            data[e.u * columns + j] += s;
            data[e.v * columns + j] -= s;
        }
    }
    panel
}

/// One block-CG solve of a 32-column probe panel with the tree
/// preconditioner: per-column iteration counts and the solve's wall time in
/// milliseconds (preconditioner construction excluded).
fn block_probe(g: &Graph) -> Result<(Vec<usize>, f64), String> {
    let lap = g.laplacian();
    let op = CsrOperator::new(&lap);
    let pre = TreePreconditioner::new(g, 0x7e3).map_err(|e| e.to_string())?;
    let panel = probe_panel(g, PROBE_COLUMNS);
    let mut x = DenseMatrix::zeros(g.num_nodes(), PROBE_COLUMNS);
    let mut stats = Vec::new();
    let mut ws = SolverWorkspace::new();
    let t = Instant::now();
    conjugate_gradient_block_into(&op, &panel, &pre, PROBE_CG, &mut x, &mut stats, &mut ws)
        .map_err(|e| e.to_string())?;
    let wall = ms(t.elapsed());
    if stats.iter().any(|s| !s.converged) {
        return Err("a probe column did not converge".to_string());
    }
    Ok((stats.iter().map(|s| s.iterations).collect(), wall))
}

/// Settles the block-solve vs sketch comparison: both at one graph (the
/// smallest rung's dense kNN graph) and one probe count (32), each repeated
/// and reported as a median with its interquartile range.
fn kernel_probes(g: &Graph, first_block_ms: f64, out: &mut Outcome) {
    let mut block = vec![first_block_ms];
    let mut sketch = Vec::new();
    for _ in 0..PROBE_REPS {
        if block.len() < PROBE_REPS {
            match block_probe(g) {
                Ok((_, wall)) => block.push(wall),
                Err(e) => return out.fail("block CG probe", e),
            }
        }
        let t = Instant::now();
        match ResistanceEstimator::sketched(g, PROBE_COLUMNS, 0xB10C) {
            Ok(_) => sketch.push(ms(t.elapsed())),
            Err(e) => return out.fail("sketch probe", e),
        }
    }
    let iqr = |v: &[f64]| quartiles(v).map_or(f64::NAN, |(q1, q3)| q3 - q1);
    out.layer("solver.block_solve_ms", median(&block), "ms");
    out.layer("solver.block_solve_iqr_ms", iqr(&block), "ms");
    out.layer("solver.sketch_probe_ms", median(&sketch), "ms");
    out.layer("solver.sketch_probe_iqr_ms", iqr(&sketch), "ms");
}
