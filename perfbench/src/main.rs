//! `cirstag-perfbench`: the CirSTAG benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_ladder --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload runs its own scenario at full size (the cold ladder for
//! `--seconds`, or the fixed serve mix), plus fixed segments of the other
//! scenarios spread across its run (a short ladder or short warm traffic,
//! and the ECO diff stream), so every end-to-end metric is measured in
//! every workload. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The process exits nonzero when an
//! output check fails. See `perfbench/README.md`.

mod calibrate;
mod common;
mod eco;
mod inputs;
mod ladder;
mod serve;
mod stats;
mod trace;

use calibrate::Calibration;
use cirstag_circuit::CellLibrary;
use common::{Budget, Outcome, Scenario};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["cold_ladder", "serve_mixed"];

/// Passes of the short ladder in `serve_mixed` (statistics as in
/// `ladder::Ladder`). With three, the median of its largest rung spread by
/// 0.33–0.41 (IQR over median) over ten runs.
const LADDER_SEGMENT: Budget = Budget::Ops(7);
/// Rounds of the ECO stream in every workload (each round: one edit per
/// partition plus a drift after every second edit).
const ECO_ROUNDS: usize = 3;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("scaling_exponent", "1"),
    ("eco_edit_ms", "ms"),
    ("eco_replay_ms", "ms"),
    ("serve_p50_ms", "ms"),
    ("serve_tail_ms", "ms"),
    ("serve_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with their units.
const PER_LAYER: [(&str, &str); 66] = [
    ("circuit.prepare_ms", "ms"),
    ("circuit.partition_ms", "ms"),
    ("circuit.apply_delta_ms", "ms"),
    ("gnn.train_s", "s"),
    ("embed.spectral_s", "s"),
    ("embed.knn_s", "s"),
    ("embed.knn_mean_candidates", "count"),
    ("pgm.learn_manifold_s", "s"),
    ("pgm.kept_by_eta", "count"),
    ("pgm.edges_after", "count"),
    ("solver.sketch_s", "s"),
    ("solver.cg_iters_per_column.mean.r0", "count"),
    ("solver.cg_iters_per_column.mean.r1", "count"),
    ("solver.cg_iters_per_column.mean.r2", "count"),
    ("solver.cg_iters_per_column.max.r0", "count"),
    ("solver.cg_iters_per_column.max.r1", "count"),
    ("solver.cg_iters_per_column.max.r2", "count"),
    ("solver.block_solve_ms", "ms"),
    ("solver.block_solve_iqr_ms", "ms"),
    ("solver.sketch_probe_ms", "ms"),
    ("solver.sketch_probe_iqr_ms", "ms"),
    ("solver.pencil_ms", "ms"),
    ("solver.geig_s", "s"),
    ("solver.geig_iters", "count"),
    ("core.phase1_s", "s"),
    ("core.phase2_s", "s"),
    ("core.phase3_s", "s"),
    ("core.self_s", "s"),
    ("core.replay_s", "s"),
    ("core.eco_wall_ms", "ms"),
    ("core.recomputed_partitions", "count"),
    ("core.cache_hit_ratio", "1"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.disk_bytes_written", "bytes"),
    ("cli.manifest_parse_ms", "ms"),
    ("cli.diff_overhead_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.handle_ms.analyze", "ms"),
    ("serve.handle_ms.sweep", "ms"),
    ("serve.handle_ms.delta", "ms"),
    ("serve.frame_ms", "ms"),
    ("serve.cache_hit_ratio", "1"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("trace.analyze_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.span_ns", "ns"),
    ("host.kernel_ms", "ms"),
    ("host.speed_factor", "1"),
    ("host.kernel_q1_ms", "ms"),
    ("host.quiet_speed_factor", "1"),
    ("host.set_up_kernel_ms", "ms"),
    ("host.pair_kernel_ms", "ms"),
    ("host.pair_speed_factor", "1"),
    ("host.serve_speed_factor", "1"),
    ("measured.setup_s", "s"),
    ("measured.analyze_s", "s"),
    ("measured.eco_edit_ms", "ms"),
    ("measured.eco_replay_ms", "ms"),
    ("measured.serve_p50_ms", "ms"),
    ("measured.serve_tail_ms", "ms"),
    ("measured.serve_rps", "req/s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sets up and runs one workload: its own scenario (the full ladder for
/// `seconds`, or the serve mix), the other scenarios as fixed segments.
fn run_workload(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let library = CellLibrary::standard();
    let seed = args.seed;
    let ladder_own = args.workload == "cold_ladder";
    let (rungs, ladder_budget) = if ladder_own {
        let own = Budget::Time(Duration::from_secs(args.seconds));
        (ladder::FULL, own)
    } else {
        (ladder::LITE, LADDER_SEGMENT)
    };
    // Kernel samples sit between the timed parts, never inside them.
    let mut cal = Calibration::new();
    cal.sample_set_up();
    let t = Instant::now();
    let prepared = ladder::setup(&library, rungs)?;
    let mut setup = t.elapsed();
    cal.sample_set_up();
    let t = Instant::now();
    let workspace = eco::setup(&library, eco::SIZE, &work.join("eco"))?;
    setup += t.elapsed();
    cal.sample_set_up();
    let t = Instant::now();
    let daemon = serve::setup(&library)?;
    setup += t.elapsed();
    cal.sample_set_up();
    out.e2e("setup_s", setup.as_secs_f64(), "s");
    if trace::enabled() {
        let total = |f: fn(&common::Prepared) -> f64| prepared.iter().map(f).sum::<f64>();
        out.layer("circuit.prepare_ms", total(|p| p.prepare_s) * 1e3, "ms");
        out.layer("gnn.train_s", total(|p| p.train_s), "s");
    }
    {
        let mut ladder = ladder::Ladder::new(&prepared, ladder_budget);
        let mut eco = eco::EcoStream::new(&workspace, seed, ECO_ROUNDS)?;
        // The ladder workload's serve segment sends warm `analyze` requests
        // only: in a short run of the 80/10/10 mix the tail percentile sits
        // on the boundary between the few slow `sweep`/`delta` answers and
        // the fast ones, where it jumps between runs.
        let mut traffic = serve::Traffic::new(&daemon, seed, !ladder_own)?;
        let mut scenarios: [&mut dyn Scenario; 3] = [&mut ladder, &mut eco, &mut traffic];
        let own = if ladder_own { 0 } else { 2 };
        // After each step of the workload's own scenario, bring the other
        // two up to the same share of their (fixed) work.
        loop {
            let more = scenarios[own].step(out);
            cal.sample();
            let target = if more { scenarios[own].progress() } else { 1.0 };
            for (i, s) in scenarios.iter_mut().enumerate() {
                while i != own && s.progress() < target && s.step(out) {
                    cal.sample();
                }
            }
            if !more {
                break;
            }
        }
        for s in scenarios.iter_mut() {
            s.finish(out);
        }
    }
    daemon.stop(out);
    normalize(out, &cal);
    Ok(())
}

/// End-to-end metrics reported scaled to the reference host's speed, with
/// the kernel samples that track them (see `calibrate.rs`). The compute
/// times run on one thread of this process; set-up is scaled by the samples
/// around it, because the host's speed at the start of a run often differs
/// from its median over the run. `analyze_s` is a fastest pass, so it is
/// scaled by the kernel's lower quartile, the host's speed in its quieter
/// moments of the run: over five runs per workload its spread was
/// 0.03–0.06 that way, against 0.04–0.21 for a median pass scaled by the
/// kernel's median. The serve metrics come from client and daemon threads
/// that run one or two requests at a time, and are scaled by both kernels
/// (`Calibration::serve_factor`). `scaling_exponent` (a ratio within one
/// run) and `peak_rss_mb` are not times and stay as measured.
const SCALED: [(&str, Factor); 7] = [
    ("setup_s", Factor::SetUp),
    ("analyze_s", Factor::Quiet),
    ("eco_edit_ms", Factor::Single),
    ("eco_replay_ms", Factor::Single),
    ("serve_p50_ms", Factor::Serve),
    ("serve_tail_ms", Factor::Serve),
    ("serve_rps", Factor::Serve),
];

/// Which calibration kernel a scaled metric follows.
#[derive(Clone, Copy)]
enum Factor {
    SetUp,
    Single,
    Quiet,
    Serve,
}

/// Scales the [`SCALED`] metrics by the run's host-speed factors: a time
/// is multiplied by its factor, a rate divided. Their measured values stay
/// on the `# measured` lines and, in the traced run, in the `measured.*`
/// per-layer metrics.
fn normalize(out: &mut Outcome, cal: &Calibration) {
    let (set_up, single, pair) = (cal.set_up_factor(), cal.factor(), cal.pair_factor());
    for (name, which) in SCALED {
        let Some((value, unit)) = out.e2e.get_mut(name) else {
            continue;
        };
        out.notes.push(format!("measured {name} = {value} {unit}"));
        if trace::enabled() {
            out.layer
                .insert(format!("measured.{name}"), (*value, *unit));
        }
        let factor = match which {
            Factor::SetUp => set_up,
            Factor::Single => single,
            Factor::Quiet => cal.quiet_factor(),
            Factor::Serve => cal.serve_factor(),
        };
        if *unit == "req/s" {
            *value /= factor;
        } else {
            *value *= factor;
        }
    }
    out.notes.push(format!(
        "host speed: kernel median {:.3} ms (reference {} ms, factor {:.4}; lower quartile \
         {:.3} ms, reference {} ms, factor {:.4}; set-up {:.3} ms, factor {:.4}), two-thread \
         median {:.3} ms (reference {} ms, factor {:.4}); serve factor {:.4}; over {} samples",
        cal.median_ms(),
        calibrate::REFERENCE_MS,
        single,
        cal.quiet_ms(),
        calibrate::REFERENCE_QUIET_MS,
        cal.quiet_factor(),
        cal.set_up_median_ms(),
        set_up,
        cal.pair_median_ms(),
        calibrate::REFERENCE_PAIR_MS,
        pair,
        cal.serve_factor(),
        cal.count(),
    ));
    if trace::enabled() {
        out.layer("host.kernel_ms", cal.median_ms(), "ms");
        out.layer("host.speed_factor", single, "1");
        out.layer("host.kernel_q1_ms", cal.quiet_ms(), "ms");
        out.layer("host.quiet_speed_factor", cal.quiet_factor(), "1");
        out.layer("host.set_up_kernel_ms", cal.set_up_median_ms(), "ms");
        out.layer("host.pair_kernel_ms", cal.pair_median_ms(), "ms");
        out.layer("host.pair_speed_factor", pair, "1");
        out.layer("host.serve_speed_factor", cal.serve_factor(), "1");
    }
}

/// Measures the recorder's own cost and writes the spans out.
fn finish_trace(args: &Args, out: &mut Outcome) {
    let spans = trace::spans();
    let dir = PathBuf::from("perfbench/.traces");
    let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| trace::write_jsonl(&path, &spans)) {
        out.fail("write trace", e);
    }
    const PROBES: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..PROBES {
        std::hint::black_box(trace::span("trace.probe", || ()));
    }
    let per_span = t.elapsed().as_secs_f64() / f64::from(PROBES);
    out.layer("trace.spans", spans.len() as f64, "count");
    out.layer("trace.span_ns", per_span * 1e9, "ns");
    out.layer("trace.overhead_s", per_span * spans.len() as f64, "s");
    out.notes.push(format!(
        "trace: {} spans written to {}",
        spans.len(),
        path.display()
    ));
}

/// Formats one metric value; non-finite values become JSON `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cirstag-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    // GNN training runs on the same pool before any analysis sets it.
    cirstag_linalg::par::set_num_threads(common::THREADS);
    let work = PathBuf::from("perfbench/.work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let mut out = Outcome::default();
    if let Err(e) = run_workload(&args, &work, &mut out) {
        eprintln!("cirstag-perfbench: set-up failed: {e}");
        drop(std::fs::remove_dir_all(&work));
        return ExitCode::FAILURE;
    }
    drop(std::fs::remove_dir_all(&work));
    out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    if args.trace {
        finish_trace(&args, &mut out);
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in expected {
        let found = if args.trace { &out.layer } else { &out.e2e };
        if found.get(name).is_none_or(|m| m.1 != unit) {
            out.fail(name, format!("not measured in {unit}"));
        }
    }
    let metrics = if args.trace { &out.layer } else { &out.e2e };
    let bad: Vec<&String> = metrics
        .iter()
        .filter(|(_, v)| !v.0.is_finite())
        .map(|(k, _)| k)
        .collect();
    let correct = out.failed == 0 && bad.is_empty();

    println!(
        "# host_cores {} | worker threads {} per analysis; serve: 2 workers, 2 clients | features \
         default (parallel on, simd off) | {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        common::THREADS,
        env!("PERFBENCH_RUSTC"),
    );
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for name in &bad {
        println!("# FAILED: {name} is not a finite number");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# error_rate {error_rate} ({} failed / {} attempted)",
        out.failed, out.attempted
    );
    for (name, (value, unit)) in &out.e2e {
        println!("# {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `(name, unit)` of every metric in one `BENCHMARK.json` section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = serde_json::parse_value(&text).unwrap();
        let Some(Value::Array(items)) = json.get(section) else {
            panic!("{section} missing");
        };
        items
            .iter()
            .map(|m| (m.field("name").unwrap(), m.field("unit").unwrap()))
            .collect()
    }

    fn listed(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), listed(&END_TO_END));
        assert_eq!(declared("per_layer"), listed(&PER_LAYER));
    }
}
