//! Hand-rolled argument parsing.

use crate::CliError;

/// Neighbor-search backend selected on the command line.
///
/// `Auto` picks the backend by design size ([`cirstag_embed::KnnMethod::auto`]:
/// exact up to 3000 pins, rp-forest up to 50,000, HNSW above); the other
/// variants force one backend with its default parameters regardless of
/// circuit size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KnnChoice {
    /// Pick per circuit size (default).
    #[default]
    Auto,
    /// Exhaustive O(n²) search.
    Exact,
    /// Random-projection forest.
    RpForest,
    /// Hierarchical navigable small-world index.
    Hnsw,
}

impl KnnChoice {
    /// The command-line token for this backend; `parse(token())` round-trips.
    /// The ECO workspace manifest persists this so `cirstag diff` rebuilds
    /// the exact analyze-time configuration.
    pub fn token(self) -> &'static str {
        match self {
            KnnChoice::Auto => "auto",
            KnnChoice::Exact => "exact",
            KnnChoice::RpForest => "rp-forest",
            KnnChoice::Hnsw => "hnsw",
        }
    }

    pub(crate) fn parse(s: &str) -> Result<KnnChoice, CliError> {
        match s {
            "auto" => Ok(KnnChoice::Auto),
            "exact" => Ok(KnnChoice::Exact),
            "rp-forest" => Ok(KnnChoice::RpForest),
            "hnsw" => Ok(KnnChoice::Hnsw),
            _ => Err(CliError::new(
                "--knn expects one of auto, exact, rp-forest, hnsw",
            )),
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `cirstag generate --gates N [--seed S] <out.cir>`
    Generate {
        /// Gate count.
        gates: usize,
        /// Generator seed.
        seed: u64,
        /// Output netlist path.
        out: String,
    },
    /// `cirstag sta <netlist>`
    Sta {
        /// Netlist path.
        netlist: String,
    },
    /// `cirstag analyze <netlist> [--out report.json] [--epochs N] [--top F]
    /// [--threads T] [--strict|--best-effort] [--cache-dir DIR]
    /// [--partitions N]`
    Analyze {
        /// Netlist path.
        netlist: String,
        /// Optional JSON report destination.
        out: Option<String>,
        /// GNN training epochs.
        epochs: usize,
        /// Fraction reported as "most unstable".
        top: f64,
        /// Worker threads for the analysis pipeline (`0` = all cores).
        threads: usize,
        /// Run the pipeline under the best-effort failure policy: climb the
        /// fallback ladders and finish degraded (exit code 2) instead of
        /// failing on the first stage error.
        best_effort: bool,
        /// Optional on-disk artifact-cache directory; repeated runs with the
        /// same inputs and config replay cached stage artifacts from here.
        cache_dir: Option<String>,
        /// Neighbor-search backend for the Phase-2 manifold graphs.
        knn: KnnChoice,
        /// Partition the design into this many regions and run the
        /// partition-scoped pipeline, writing an ECO workspace (manifest +
        /// segmented artifact cache) that `cirstag diff` replays. Requires
        /// `--cache-dir`; the count is validated against the design size.
        partitions: Option<usize>,
    },
    /// `cirstag diff --workspace DIR (--edited edited.cir | --delta ops.json)
    /// [--out report.json] [--threads T] [--strict|--best-effort] [--cold]`
    Diff {
        /// ECO workspace directory written by `analyze --partitions`.
        workspace: String,
        /// Edited netlist path (must preserve the pin count).
        edited: Option<String>,
        /// Netlist-delta ops file (`cirstag-delta/v1` JSON).
        delta: Option<String>,
        /// Optional JSON destination for the deterministic ECO report.
        out: Option<String>,
        /// Worker threads for the analysis pipeline (`0` = all cores).
        threads: usize,
        /// Failure-policy override; `None` inherits the workspace policy.
        best_effort: Option<bool>,
        /// Ignore the segmented disk cache and recompute every partition
        /// (reference run for bit-identity and speedup checks).
        cold: bool,
    },
    /// `cirstag sweep <netlist> [--dmd-s LIST] [--out reports.json]
    /// [--epochs N] [--threads T] [--strict|--best-effort] [--cache-dir DIR]
    /// [--knn METHOD]`
    Sweep {
        /// Netlist path.
        netlist: String,
        /// `num_eigenpairs` (DMD subspace size `s`) values to sweep.
        dmd_s: Vec<usize>,
        /// Optional JSON destination for the array of reports.
        out: Option<String>,
        /// GNN training epochs.
        epochs: usize,
        /// Worker threads for the analysis pipeline (`0` = all cores).
        threads: usize,
        /// Best-effort failure policy (see `analyze`).
        best_effort: bool,
        /// Optional on-disk artifact-cache directory shared across the sweep.
        cache_dir: Option<String>,
        /// Neighbor-search backend for the Phase-2 manifold graphs.
        knn: KnnChoice,
    },
    /// `cirstag dot <netlist> [--scores report.json]`
    Dot {
        /// Netlist path.
        netlist: String,
        /// Optional JSON report whose scores drive the heat map.
        scores: Option<String>,
    },
    /// `cirstag serve [--addr HOST:PORT] [--workers N] [--queue N]
    /// [--deadline-ms MS] [--strict|--best-effort] [--cache-dir DIR]
    /// [--port-file PATH]`
    Serve {
        /// Listen address; port `0` picks an ephemeral port.
        addr: String,
        /// Worker threads executing admitted analyses.
        workers: usize,
        /// Admission-queue capacity; deeper backlogs are shed with `503`.
        queue: usize,
        /// Default per-request deadline for requests without one.
        deadline_ms: Option<u64>,
        /// Base failure policy for requests without a `best_effort` field.
        best_effort: bool,
        /// Optional on-disk artifact-cache directory shared by all tenants.
        cache_dir: Option<String>,
        /// Write the bound address here after startup (ephemeral-port
        /// discovery for scripts).
        port_file: Option<String>,
    },
    /// `cirstag load <netlist> --addr HOST:PORT [--requests N] [--clients N]
    /// [--epochs N] [--deadline-ms MS] [--best-effort] [--shutdown]`
    Load {
        /// Netlist sent with every `analyze` request.
        netlist: String,
        /// Daemon address to drive.
        addr: String,
        /// Total requests across all clients.
        requests: usize,
        /// Concurrent client connections.
        clients: usize,
        /// GNN training epochs requested per analysis.
        epochs: usize,
        /// Per-request deadline.
        deadline_ms: Option<u64>,
        /// Request the best-effort failure policy.
        best_effort: bool,
        /// Send a graceful `shutdown` to the daemon after the run.
        shutdown: bool,
    },
    /// `cirstag help` or `--help`.
    Help,
}

/// Usage text shown by `help` and on parse errors.
pub const USAGE: &str = "\
cirstag — circuit stability analysis on graph-based manifolds

USAGE:
  cirstag generate --gates N [--seed S] <out.cir>   write a synthetic benchmark
  cirstag sta <netlist>                             pre-routing timing report
  cirstag analyze <netlist> [--out report.json]     CirSTAG stability scores
                            [--epochs N] [--top F]
                            [--threads T]           (0 = all cores; results
                                                     are thread-count independent)
                            [--strict]              fail on the first stage error
                                                     (default)
                            [--best-effort]         degrade through fallback
                                                     ladders instead of failing;
                                                     exits 2 when degraded
                            [--cache-dir DIR]       persist stage artifacts and
                                                     replay them on re-runs
                            [--knn METHOD]          Phase-2 neighbor search:
                                                     auto (default: exact up to
                                                     3000 pins, rp-forest up to
                                                     50000, hnsw above), exact,
                                                     rp-forest, or hnsw
                            [--partitions N]        partition-scoped run; writes
                                                     an ECO workspace (requires
                                                     --cache-dir) for diff
  cirstag diff --workspace DIR                      incremental ECO re-analysis:
               (--edited e.cir | --delta ops.json)  re-score an edited design,
               [--out report.json] [--threads T]    recomputing only dirty
               [--strict|--best-effort] [--cold]    partitions (+halo) against
                                                    the workspace cache; --cold
                                                    recomputes everything as a
                                                    bit-identity reference
  cirstag sweep <netlist> [--dmd-s 5,10,15,20,25]   analyze once per DMD
                          [--out reports.json]      subspace size s, replaying
                          [--epochs N] [--threads T] cached Phase-1/2 artifacts
                          [--strict|--best-effort]  across configs
                          [--cache-dir DIR] [--knn METHOD]
  cirstag dot <netlist> [--scores report.json]      Graphviz DOT of the pin graph
  cirstag serve [--addr 127.0.0.1:0] [--workers N]  resident analysis daemon
                [--queue N] [--deadline-ms MS]      speaking NDJSON over TCP
                [--strict|--best-effort]            (verbs: analyze, sweep, delta,
                [--cache-dir DIR]                   health, stats, shutdown);
                [--port-file PATH]                  sheds load past the queue
                                                    bound, respawns panicked
                                                    workers
  cirstag load <netlist> --addr HOST:PORT           drive a daemon and report
                [--requests N] [--clients N]        the answer mix and latency
                [--epochs N] [--deadline-ms MS]     percentiles; --shutdown
                [--best-effort] [--shutdown]        stops the daemon afterwards
  cirstag help                                      this message
";

/// Parses `args` (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a usage hint for unknown subcommands, missing
/// values or unparsable numbers.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    let rest: Vec<&String> = it.collect();
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let mut gates = None;
            let mut seed = 1u64;
            let mut out = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--gates" => {
                        gates =
                            Some(value(&rest, &mut i, "--gates")?.parse().map_err(|_| {
                                CliError::new("--gates expects a positive integer")
                            })?);
                    }
                    "--seed" => {
                        seed = value(&rest, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| CliError::new("--seed expects an integer"))?;
                    }
                    other if !other.starts_with("--") => {
                        out = Some(other.to_string());
                    }
                    other => return Err(CliError::new(format!("unknown flag {other}\n{USAGE}"))),
                }
                i += 1;
            }
            Ok(Command::Generate {
                gates: gates
                    .ok_or_else(|| CliError::new(format!("--gates is required\n{USAGE}")))?,
                seed,
                out: out
                    .ok_or_else(|| CliError::new(format!("output path is required\n{USAGE}")))?,
            })
        }
        "sta" => {
            let netlist = rest
                .first()
                .ok_or_else(|| CliError::new(format!("netlist path is required\n{USAGE}")))?;
            Ok(Command::Sta {
                netlist: netlist.to_string(),
            })
        }
        "analyze" => {
            let mut netlist = None;
            let mut out = None;
            let mut epochs = 200usize;
            let mut top = 0.10f64;
            let mut threads = 0usize;
            let mut best_effort = false;
            let mut cache_dir = None;
            let mut knn = KnnChoice::Auto;
            let mut partitions = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--out" => out = Some(value(&rest, &mut i, "--out")?.to_string()),
                    "--strict" => best_effort = false,
                    "--best-effort" => best_effort = true,
                    "--cache-dir" => {
                        cache_dir = Some(value(&rest, &mut i, "--cache-dir")?.to_string());
                    }
                    "--knn" => knn = KnnChoice::parse(value(&rest, &mut i, "--knn")?)?,
                    "--threads" => {
                        threads = value(&rest, &mut i, "--threads")?
                            .parse()
                            .map_err(|_| CliError::new("--threads expects an integer"))?;
                    }
                    "--epochs" => {
                        epochs = value(&rest, &mut i, "--epochs")?
                            .parse()
                            .map_err(|_| CliError::new("--epochs expects an integer"))?;
                    }
                    "--partitions" => {
                        // `0` and absurd counts pass the parser; the command
                        // layer validates them against the design size so the
                        // error can be typed by the partitioner itself.
                        partitions = Some(
                            value(&rest, &mut i, "--partitions")?
                                .parse()
                                .map_err(|_| CliError::new("--partitions expects an integer"))?,
                        );
                    }
                    "--top" => {
                        top = value(&rest, &mut i, "--top")?
                            .parse()
                            .map_err(|_| CliError::new("--top expects a fraction in (0, 1]"))?;
                        if !(top > 0.0 && top <= 1.0) {
                            return Err(CliError::new("--top must lie in (0, 1]"));
                        }
                    }
                    other if !other.starts_with("--") => netlist = Some(other.to_string()),
                    other => return Err(CliError::new(format!("unknown flag {other}\n{USAGE}"))),
                }
                i += 1;
            }
            Ok(Command::Analyze {
                netlist: netlist
                    .ok_or_else(|| CliError::new(format!("netlist path is required\n{USAGE}")))?,
                out,
                epochs,
                top,
                threads,
                best_effort,
                cache_dir,
                knn,
                partitions,
            })
        }
        "diff" => {
            let mut workspace = None;
            let mut edited = None;
            let mut delta = None;
            let mut out = None;
            let mut threads = 0usize;
            let mut best_effort = None;
            let mut cold = false;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--workspace" => {
                        workspace = Some(value(&rest, &mut i, "--workspace")?.to_string());
                    }
                    "--edited" => edited = Some(value(&rest, &mut i, "--edited")?.to_string()),
                    "--delta" => delta = Some(value(&rest, &mut i, "--delta")?.to_string()),
                    "--out" => out = Some(value(&rest, &mut i, "--out")?.to_string()),
                    "--strict" => best_effort = Some(false),
                    "--best-effort" => best_effort = Some(true),
                    "--cold" => cold = true,
                    "--threads" => {
                        threads = value(&rest, &mut i, "--threads")?
                            .parse()
                            .map_err(|_| CliError::new("--threads expects an integer"))?;
                    }
                    other => return Err(CliError::new(format!("unknown flag {other}\n{USAGE}"))),
                }
                i += 1;
            }
            if edited.is_some() == delta.is_some() {
                return Err(CliError::new(format!(
                    "diff needs exactly one edit source: --edited <netlist> or --delta <ops.json>\n{USAGE}"
                )));
            }
            Ok(Command::Diff {
                workspace: workspace
                    .ok_or_else(|| CliError::new(format!("--workspace is required\n{USAGE}")))?,
                edited,
                delta,
                out,
                threads,
                best_effort,
                cold,
            })
        }
        "sweep" => {
            let mut netlist = None;
            let mut out = None;
            let mut epochs = 200usize;
            let mut threads = 0usize;
            let mut best_effort = false;
            let mut cache_dir = None;
            let mut knn = KnnChoice::Auto;
            let mut dmd_s: Vec<usize> = vec![5, 10, 15, 20, 25];
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--out" => out = Some(value(&rest, &mut i, "--out")?.to_string()),
                    "--strict" => best_effort = false,
                    "--best-effort" => best_effort = true,
                    "--cache-dir" => {
                        cache_dir = Some(value(&rest, &mut i, "--cache-dir")?.to_string());
                    }
                    "--knn" => knn = KnnChoice::parse(value(&rest, &mut i, "--knn")?)?,
                    "--threads" => {
                        threads = value(&rest, &mut i, "--threads")?
                            .parse()
                            .map_err(|_| CliError::new("--threads expects an integer"))?;
                    }
                    "--epochs" => {
                        epochs = value(&rest, &mut i, "--epochs")?
                            .parse()
                            .map_err(|_| CliError::new("--epochs expects an integer"))?;
                    }
                    "--dmd-s" => {
                        dmd_s = value(&rest, &mut i, "--dmd-s")?
                            .split(',')
                            .map(|t| t.trim().parse::<usize>())
                            .collect::<Result<Vec<usize>, _>>()
                            .map_err(|_| {
                                CliError::new(
                                    "--dmd-s expects a comma-separated list of positive integers",
                                )
                            })?;
                        if dmd_s.is_empty() || dmd_s.contains(&0) {
                            return Err(CliError::new("--dmd-s values must be positive integers"));
                        }
                    }
                    other if !other.starts_with("--") => netlist = Some(other.to_string()),
                    other => return Err(CliError::new(format!("unknown flag {other}\n{USAGE}"))),
                }
                i += 1;
            }
            Ok(Command::Sweep {
                netlist: netlist
                    .ok_or_else(|| CliError::new(format!("netlist path is required\n{USAGE}")))?,
                dmd_s,
                out,
                epochs,
                threads,
                best_effort,
                cache_dir,
                knn,
            })
        }
        "dot" => {
            let mut netlist = None;
            let mut scores = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--scores" => scores = Some(value(&rest, &mut i, "--scores")?.to_string()),
                    other if !other.starts_with("--") => netlist = Some(other.to_string()),
                    other => return Err(CliError::new(format!("unknown flag {other}\n{USAGE}"))),
                }
                i += 1;
            }
            Ok(Command::Dot {
                netlist: netlist
                    .ok_or_else(|| CliError::new(format!("netlist path is required\n{USAGE}")))?,
                scores,
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:0".to_string();
            let mut workers = 4usize;
            let mut queue = 64usize;
            let mut deadline_ms = None;
            let mut best_effort = false;
            let mut cache_dir = None;
            let mut port_file = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--addr" => addr = value(&rest, &mut i, "--addr")?.to_string(),
                    "--strict" => best_effort = false,
                    "--best-effort" => best_effort = true,
                    "--cache-dir" => {
                        cache_dir = Some(value(&rest, &mut i, "--cache-dir")?.to_string());
                    }
                    "--port-file" => {
                        port_file = Some(value(&rest, &mut i, "--port-file")?.to_string());
                    }
                    "--workers" => {
                        workers = value(&rest, &mut i, "--workers")?
                            .parse()
                            .map_err(|_| CliError::new("--workers expects a positive integer"))?;
                        if workers == 0 {
                            return Err(CliError::new("--workers must be at least 1"));
                        }
                    }
                    "--queue" => {
                        queue = value(&rest, &mut i, "--queue")?
                            .parse()
                            .map_err(|_| CliError::new("--queue expects a positive integer"))?;
                        if queue == 0 {
                            return Err(CliError::new("--queue must be at least 1"));
                        }
                    }
                    "--deadline-ms" => {
                        deadline_ms = Some(
                            value(&rest, &mut i, "--deadline-ms")?
                                .parse()
                                .map_err(|_| CliError::new("--deadline-ms expects an integer"))?,
                        );
                    }
                    other => return Err(CliError::new(format!("unknown flag {other}\n{USAGE}"))),
                }
                i += 1;
            }
            Ok(Command::Serve {
                addr,
                workers,
                queue,
                deadline_ms,
                best_effort,
                cache_dir,
                port_file,
            })
        }
        "load" => {
            let mut netlist = None;
            let mut addr = None;
            let mut requests = 50usize;
            let mut clients = 8usize;
            let mut epochs = 40usize;
            let mut deadline_ms = None;
            let mut best_effort = false;
            let mut shutdown = false;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--addr" => addr = Some(value(&rest, &mut i, "--addr")?.to_string()),
                    "--best-effort" => best_effort = true,
                    "--shutdown" => shutdown = true,
                    "--requests" => {
                        requests = value(&rest, &mut i, "--requests")?
                            .parse()
                            .map_err(|_| CliError::new("--requests expects a positive integer"))?;
                    }
                    "--clients" => {
                        clients = value(&rest, &mut i, "--clients")?
                            .parse()
                            .map_err(|_| CliError::new("--clients expects a positive integer"))?;
                        if clients == 0 {
                            return Err(CliError::new("--clients must be at least 1"));
                        }
                    }
                    "--epochs" => {
                        epochs = value(&rest, &mut i, "--epochs")?
                            .parse()
                            .map_err(|_| CliError::new("--epochs expects an integer"))?;
                    }
                    "--deadline-ms" => {
                        deadline_ms = Some(
                            value(&rest, &mut i, "--deadline-ms")?
                                .parse()
                                .map_err(|_| CliError::new("--deadline-ms expects an integer"))?,
                        );
                    }
                    other if !other.starts_with("--") => netlist = Some(other.to_string()),
                    other => return Err(CliError::new(format!("unknown flag {other}\n{USAGE}"))),
                }
                i += 1;
            }
            Ok(Command::Load {
                netlist: netlist
                    .ok_or_else(|| CliError::new(format!("netlist path is required\n{USAGE}")))?,
                addr: addr.ok_or_else(|| CliError::new(format!("--addr is required\n{USAGE}")))?,
                requests,
                clients,
                epochs,
                deadline_ms,
                best_effort,
                shutdown,
            })
        }
        other => Err(CliError::new(format!(
            "unknown subcommand {other}\n{USAGE}"
        ))),
    }
}

fn value<'a>(rest: &'a [&'a String], i: &mut usize, flag: &str) -> Result<&'a str, CliError> {
    *i += 1;
    rest.get(*i)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::new(format!("{flag} expects a value")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse_args(&strs(&[
            "generate", "--gates", "500", "--seed", "7", "o.cir",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                gates: 500,
                seed: 7,
                out: "o.cir".to_string()
            }
        );
    }

    #[test]
    fn generate_requires_gates_and_out() {
        assert!(parse_args(&strs(&["generate", "o.cir"])).is_err());
        assert!(parse_args(&strs(&["generate", "--gates", "10"])).is_err());
    }

    #[test]
    fn parses_analyze_with_defaults() {
        let cmd = parse_args(&strs(&["analyze", "d.cir"])).unwrap();
        match cmd {
            Command::Analyze {
                netlist,
                out,
                epochs,
                top,
                threads,
                best_effort,
                cache_dir,
                knn,
                partitions,
            } => {
                assert_eq!(netlist, "d.cir");
                assert!(out.is_none());
                assert_eq!(epochs, 200);
                assert!((top - 0.10).abs() < 1e-12);
                assert_eq!(threads, 0);
                assert!(!best_effort, "strict is the default policy");
                assert!(cache_dir.is_none(), "caching is opt-in");
                assert_eq!(knn, KnnChoice::Auto, "backend heuristic is the default");
                assert!(partitions.is_none(), "whole-design analysis is the default");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn analyze_parses_cache_dir() {
        let cmd = parse_args(&strs(&["analyze", "d.cir", "--cache-dir", "/tmp/c"])).unwrap();
        match cmd {
            Command::Analyze { cache_dir, .. } => {
                assert_eq!(cache_dir.as_deref(), Some("/tmp/c"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&strs(&["analyze", "d.cir", "--cache-dir"])).is_err());
    }

    #[test]
    fn parses_sweep_with_defaults() {
        let cmd = parse_args(&strs(&["sweep", "d.cir"])).unwrap();
        match cmd {
            Command::Sweep {
                netlist,
                dmd_s,
                out,
                epochs,
                threads,
                best_effort,
                cache_dir,
                knn,
            } => {
                assert_eq!(netlist, "d.cir");
                assert_eq!(dmd_s, vec![5, 10, 15, 20, 25]);
                assert!(out.is_none());
                assert_eq!(epochs, 200);
                assert_eq!(threads, 0);
                assert!(!best_effort);
                assert!(cache_dir.is_none());
                assert_eq!(knn, KnnChoice::Auto);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sweep_parses_dmd_s_list() {
        let cmd = parse_args(&strs(&["sweep", "d.cir", "--dmd-s", "4, 8,12"])).unwrap();
        match cmd {
            Command::Sweep { dmd_s, .. } => assert_eq!(dmd_s, vec![4, 8, 12]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&strs(&["sweep", "d.cir", "--dmd-s", "4,x"])).is_err());
        assert!(parse_args(&strs(&["sweep", "d.cir", "--dmd-s", "4,0"])).is_err());
        assert!(parse_args(&strs(&["sweep", "d.cir", "--dmd-s", ""])).is_err());
        assert!(parse_args(&strs(&["sweep", "d.cir", "--dmd-s"])).is_err());
    }

    #[test]
    fn parses_knn_backend() {
        for (token, want) in [
            ("auto", KnnChoice::Auto),
            ("exact", KnnChoice::Exact),
            ("rp-forest", KnnChoice::RpForest),
            ("hnsw", KnnChoice::Hnsw),
        ] {
            let cmd = parse_args(&strs(&["analyze", "d.cir", "--knn", token])).unwrap();
            match cmd {
                Command::Analyze { knn, .. } => assert_eq!(knn, want),
                other => panic!("unexpected {other:?}"),
            }
        }
        let cmd = parse_args(&strs(&["sweep", "d.cir", "--knn", "hnsw"])).unwrap();
        match cmd {
            Command::Sweep { knn, .. } => assert_eq!(knn, KnnChoice::Hnsw),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&strs(&["analyze", "d.cir", "--knn", "kdtree"])).is_err());
        assert!(parse_args(&strs(&["analyze", "d.cir", "--knn"])).is_err());
    }

    #[test]
    fn analyze_parses_partitions() {
        let cmd = parse_args(&strs(&["analyze", "d.cir", "--partitions", "8"])).unwrap();
        match cmd {
            Command::Analyze { partitions, .. } => assert_eq!(partitions, Some(8)),
            other => panic!("unexpected {other:?}"),
        }
        // `0` parses; the command layer rejects it with the partitioner's
        // typed error once the design size is known.
        let cmd = parse_args(&strs(&["analyze", "d.cir", "--partitions", "0"])).unwrap();
        match cmd {
            Command::Analyze { partitions, .. } => assert_eq!(partitions, Some(0)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&strs(&["analyze", "d.cir", "--partitions", "x"])).is_err());
        assert!(parse_args(&strs(&["analyze", "d.cir", "--partitions"])).is_err());
    }

    #[test]
    fn parses_diff() {
        let cmd = parse_args(&strs(&[
            "diff",
            "--workspace",
            "/tmp/ws",
            "--delta",
            "ops.json",
            "--out",
            "r.json",
            "--threads",
            "1",
            "--cold",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Diff {
                workspace: "/tmp/ws".to_string(),
                edited: None,
                delta: Some("ops.json".to_string()),
                out: Some("r.json".to_string()),
                threads: 1,
                best_effort: None,
                cold: true,
            }
        );
        let cmd = parse_args(&strs(&[
            "diff",
            "--workspace",
            "/tmp/ws",
            "--edited",
            "e.cir",
            "--best-effort",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Diff {
                workspace: "/tmp/ws".to_string(),
                edited: Some("e.cir".to_string()),
                delta: None,
                out: None,
                threads: 0,
                best_effort: Some(true),
                cold: false,
            }
        );
    }

    #[test]
    fn diff_requires_workspace_and_one_edit_source() {
        assert!(parse_args(&strs(&["diff", "--edited", "e.cir"])).is_err());
        assert!(parse_args(&strs(&["diff", "--workspace", "/tmp/ws"])).is_err());
        assert!(parse_args(&strs(&[
            "diff",
            "--workspace",
            "/tmp/ws",
            "--edited",
            "e.cir",
            "--delta",
            "d.json",
        ]))
        .is_err());
    }

    #[test]
    fn knn_tokens_roundtrip() {
        for choice in [
            KnnChoice::Auto,
            KnnChoice::Exact,
            KnnChoice::RpForest,
            KnnChoice::Hnsw,
        ] {
            assert_eq!(KnnChoice::parse(choice.token()).unwrap(), choice);
        }
    }

    #[test]
    fn analyze_validates_top() {
        assert!(parse_args(&strs(&["analyze", "d.cir", "--top", "1.5"])).is_err());
        assert!(parse_args(&strs(&["analyze", "d.cir", "--top", "0"])).is_err());
    }

    #[test]
    fn analyze_parses_threads() {
        let cmd = parse_args(&strs(&["analyze", "d.cir", "--threads", "4"])).unwrap();
        match cmd {
            Command::Analyze { threads, .. } => assert_eq!(threads, 4),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&strs(&["analyze", "d.cir", "--threads", "x"])).is_err());
        assert!(parse_args(&strs(&["analyze", "d.cir", "--threads"])).is_err());
    }

    #[test]
    fn analyze_parses_failure_policy() {
        let cmd = parse_args(&strs(&["analyze", "d.cir", "--best-effort"])).unwrap();
        match cmd {
            Command::Analyze { best_effort, .. } => assert!(best_effort),
            other => panic!("unexpected {other:?}"),
        }
        // --strict wins when it comes last; flags are processed in order.
        let cmd = parse_args(&strs(&["analyze", "d.cir", "--best-effort", "--strict"])).unwrap();
        match cmd {
            Command::Analyze { best_effort, .. } => assert!(!best_effort),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_sta_and_dot() {
        assert_eq!(
            parse_args(&strs(&["sta", "d.cir"])).unwrap(),
            Command::Sta {
                netlist: "d.cir".to_string()
            }
        );
        assert_eq!(
            parse_args(&strs(&["dot", "d.cir", "--scores", "r.json"])).unwrap(),
            Command::Dot {
                netlist: "d.cir".to_string(),
                scores: Some("r.json".to_string())
            }
        );
    }

    #[test]
    fn help_and_errors() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["--help"])).unwrap(), Command::Help);
        assert!(parse_args(&strs(&["bogus"])).is_err());
        assert!(parse_args(&strs(&["analyze", "d.cir", "--bad-flag", "x"])).is_err());
    }

    #[test]
    fn missing_flag_value_rejected() {
        assert!(parse_args(&strs(&["generate", "--gates"])).is_err());
        assert!(parse_args(&strs(&["analyze", "d.cir", "--out"])).is_err());
    }

    #[test]
    fn parses_serve_with_defaults() {
        let cmd = parse_args(&strs(&["serve"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:0".to_string(),
                workers: 4,
                queue: 64,
                deadline_ms: None,
                best_effort: false,
                cache_dir: None,
                port_file: None,
            }
        );
    }

    #[test]
    fn parses_serve_flags() {
        let cmd = parse_args(&strs(&[
            "serve",
            "--addr",
            "127.0.0.1:7878",
            "--workers",
            "2",
            "--queue",
            "8",
            "--deadline-ms",
            "250",
            "--best-effort",
            "--cache-dir",
            "/tmp/c",
            "--port-file",
            "/tmp/p",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:7878".to_string(),
                workers: 2,
                queue: 8,
                deadline_ms: Some(250),
                best_effort: true,
                cache_dir: Some("/tmp/c".to_string()),
                port_file: Some("/tmp/p".to_string()),
            }
        );
        assert!(parse_args(&strs(&["serve", "--workers", "0"])).is_err());
        assert!(parse_args(&strs(&["serve", "--queue", "0"])).is_err());
        assert!(parse_args(&strs(&["serve", "positional"])).is_err());
    }

    #[test]
    fn parses_load() {
        let cmd = parse_args(&strs(&[
            "load",
            "d.cir",
            "--addr",
            "127.0.0.1:7878",
            "--requests",
            "100",
            "--clients",
            "16",
            "--deadline-ms",
            "500",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Load {
                netlist: "d.cir".to_string(),
                addr: "127.0.0.1:7878".to_string(),
                requests: 100,
                clients: 16,
                epochs: 40,
                deadline_ms: Some(500),
                best_effort: false,
                shutdown: true,
            }
        );
    }

    #[test]
    fn load_requires_netlist_and_addr() {
        assert!(parse_args(&strs(&["load", "--addr", "127.0.0.1:1"])).is_err());
        assert!(parse_args(&strs(&["load", "d.cir"])).is_err());
        assert!(parse_args(&strs(&["load", "d.cir", "--clients", "0"])).is_err());
    }
}
